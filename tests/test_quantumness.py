import numpy as np
import pytest
from scipy.linalg import expm
from scipy.optimize import minimize as scipy_minimize

import oracles
from test_premeasure import ORACLE_SHAPES
from qcorr import chain, entanglement, linalg, quantumness
from qcorr.chain import OPTIMIZED, ChainConfig, LinkSpec, run_chain
from qcorr.entanglement import CLAMP, BipartitionCut, negativity
from qcorr.errors import InvariantError
from qcorr.premeasure import MeasurementPlan, dephase, premeasure
from qcorr.quantumness import (
    LOCKSTEP_ROWS,
    NEGATIVITY_OF_QUANTUMNESS,
    ONE_WAY_DEFICIT,
    TWO_WAY_DEFICIT,
    OptimizerConfig,
    _Workspace,
    _exp_ih_dag,
    _optimize,
    apparatus_negativity,
    cc_commutation_oracle,
    classify_cc,
    deficit,
    minimize,
    q_negativity,
)
from qcorr.states import (
    LabeledState,
    LocalBasis,
    Register,
    bell_state,
    classical_quantum_state,
    computational_basis,
    default_register,
    make_rng,
    random_mixed,
    random_pure,
    random_unitary,
)

FAST = OptimizerConfig(restarts=6, max_iter=300, seed=0)


def apparatus_cut(premeasured_state, n_original):
    """Cut separating the original subsystems from the appended apparatuses."""
    n = premeasured_state.register.n
    return BipartitionCut(tuple(range(n_original)), tuple(range(n_original, n)))


def plan_negativity(state, plan):
    """Negativity across system : apparatuses of the pre-measurement state."""
    pm = premeasure(state, plan)
    return negativity(pm, apparatus_cut(pm, state.register.n))


def workspace_on(state, measured):
    """The optimizer's ``_Workspace`` on ``state``'s register and matrix."""
    return _Workspace(state.register, state.rho, measured)


def exp_ih(params, d):
    """exp(iH) at one parameter row: the adjoint of the workspace's exp(iH)^dag."""
    return linalg.dagger(_exp_ih_dag(np.asarray(params, dtype=float)[None], d)[0])


def discordant_state():
    """Separable but not classical on A: (|0><0| (x) |0><0| + |1><1| (x) |+><+|)/2
    with the role of the classical flag on B's side swapped to A below."""
    plus = np.full((2, 2), 0.5, dtype=complex)
    zero = np.diag([1.0, 0.0]).astype(complex)
    state = classical_quantum_state([0.5, 0.5], computational_basis("A", 2), [zero, plus])
    return state


def cc_state(probs=(0.3, 0.7)):
    """Classical-classical two-qubit state diagonal in a product basis."""
    rho = np.diag([probs[0] * 0.6, probs[0] * 0.4, probs[1] * 0.2, probs[1] * 0.8])
    return LabeledState(default_register(2), rho.astype(complex))


def zero_diagonal_generator(params, d):
    """The Hermitian H of ``params``: zero diagonal, then the real and
    imaginary parts of the strict upper triangle, row-major."""
    h = np.zeros((d, d), dtype=complex)
    k = 0
    for i in range(d):
        for j in range(i + 1, d):
            h[i, j] = params[k] + 1j * params[k + 1]
            h[j, i] = np.conj(h[i, j])
            k += 2
    return h


class TestParameterization:
    def test_zero_params_give_identity(self):
        for d in (2, 3, 4):
            u = exp_ih(np.zeros(d * (d - 1)), d)
            assert np.max(np.abs(u - np.eye(d))) <= 1e-14

    def test_matches_matrix_exponential(self):
        rng = make_rng(0)
        for d in (2, 3, 4):
            for scale in (1e-9, 1.0, 3.0):
                for _ in range(5):
                    params = rng.normal(scale=scale, size=d * (d - 1))
                    u = exp_ih(params, d)
                    h = zero_diagonal_generator(params, d)
                    assert np.max(np.abs(u - expm(1j * h))) <= 1e-12

    def test_rotation_generator(self):
        # H = alpha * [[0, -i], [i, 0]] exponentiates to a real rotation
        alpha = np.pi / 4
        u = exp_ih([0.0, -alpha], 2)
        expected = np.array(
            [[np.cos(alpha), np.sin(alpha)], [-np.sin(alpha), np.cos(alpha)]]
        )
        assert np.max(np.abs(u - expected)) <= 1e-14

    def test_unitarity(self):
        rng = make_rng(1)
        for d in (2, 3, 4):
            params = rng.normal(scale=2.0, size=d * (d - 1))
            u = exp_ih(params, d)
            assert np.max(np.abs(u.conj().T @ u - np.eye(d))) <= 1e-12

    def test_covers_every_qubit_basis(self):
        # exp(iH) has first column (cos r, i sin(r)/r conj(z)), z = b + ic and
        # r = |z|, so the first column of U, phased to a real U00, names (b, c)
        rng = make_rng(2)
        for _ in range(20):
            u = random_unitary(2, rng)
            phase = np.conj(u[0, 0]) / abs(u[0, 0])
            r = np.arccos(min(1.0, abs(u[0, 0])))
            z = np.conj(u[1, 0] * phase / (1j * np.sin(r) / r))
            d = exp_ih([z.real, z.imag], 2).conj().T @ u
            assert np.max(np.abs(d - np.diag(np.diag(d)))) <= 1e-12
            assert np.max(np.abs(np.abs(np.diag(d)) - 1)) <= 1e-12

    @pytest.mark.parametrize(
        "dims, measured",
        [((2, 2), ("A",)), ((2, 3), ("B",)), ((3, 3), ("A", "B")), ((2, 2, 2), ("A", "C"))],
    )
    def test_objectives_invariant_under_column_phases(self, dims, measured):
        # a basis is U up to column phases: U -> UD changes neither measure
        labels = ("A", "B", "C")[: len(dims)]
        state = random_mixed(Register(labels, dims), rank=2, seed=3)
        rng = make_rng(3)
        bases = [random_unitary(state.register.dim(lab), rng) for lab in measured]
        phased = [u * np.exp(1j * rng.uniform(0, 2 * np.pi, size=len(u))) for u in bases]
        plan, plan_phased = (
            MeasurementPlan(measured, tuple(LocalBasis(lab, u) for lab, u in zip(measured, us)))
            for us in (bases, phased)
        )
        assert abs(plan_negativity(state, plan) - plan_negativity(state, plan_phased)) <= 1e-12
        entropy = [linalg.von_neumann_entropy(dephase(state, p).rho) for p in (plan, plan_phased)]
        assert abs(entropy[0] - entropy[1]) <= 1e-12

    def test_max_iter_must_be_positive(self):
        with pytest.raises(InvariantError):
            OptimizerConfig(max_iter=0)

    @pytest.mark.parametrize("tol", [0.0, -1e-8, float("nan"), float("inf"), True, False])
    def test_tol_must_be_positive_and_finite(self, tol):
        with pytest.raises(InvariantError, match="positive and finite"):
            OptimizerConfig(tol=tol)

    def test_seed_must_be_non_negative(self):
        with pytest.raises(InvariantError, match="seed must be at least 0"):
            OptimizerConfig(seed=-1)

    @pytest.mark.parametrize("field", ["restarts", "max_iter", "seed"])
    @pytest.mark.parametrize("value", [2.5, True, np.float64(3.0), "3", None])
    def test_counts_must_be_integers(self, field, value):
        with pytest.raises(InvariantError, match=f"{field} must be an integer"):
            OptimizerConfig(**{field: value})

    def test_numpy_integers_accepted(self):
        cfg = OptimizerConfig(restarts=np.int64(3), max_iter=np.int32(5), seed=np.uint8(2))
        assert (cfg.restarts, cfg.max_iter, cfg.seed) == (3, 5, 2)

    def test_workspace_bases_split_blocks(self):
        # parameters follow the measurement order, one d(d-1) block per
        # label; bases decodes each block alone, and G_M, whose exp(iH) of
        # the two qubits is one grouped call, is their Kronecker product
        state = random_mixed(Register(("A", "B", "C"), (2, 3, 2)), rank=2, seed=2)
        ws = workspace_on(state, ("B", "A", "C"))
        params = make_rng(5).normal(size=6 + 2 + 2)
        assert ws.param_len == len(params)
        bases = ws.bases(params)
        assert [b.subsystem for b in bases] == ["B", "A", "C"]
        blocks = (params[:6], params[6:8], params[8:])
        for basis, block, d in zip(bases, blocks, (3, 2, 2)):
            assert np.array_equal(basis.vectors, exp_ih(block, d))
        u_b, u_a, u_c = (linalg.dagger(b.vectors) for b in bases)
        assert np.array_equal(ws._g(params[None])[0], np.kron(np.kron(u_b, u_a), u_c))


class TestWorkspaceAgainstReferencePath:
    """The block objectives (off-diagonal trace norms, diagonal-block
    entropies) must agree with the explicit pre-measurement construction."""

    SHAPES = [
        (("A", "B"), (2, 2), ("A",)),
        (("A", "B"), (2, 2), ("B",)),
        (("A", "B"), (2, 2), ("A", "B")),
        (("A", "B"), (2, 2), ("B", "A")),
        (("A", "B"), (3, 3), ("A",)),
        (("A", "B"), (3, 3), ("A", "B")),
        (("A", "B"), (3, 3), ("B", "A")),
        (("A", "B", "C"), (2, 2, 2), ("A",)),
        (("A", "B", "C"), (2, 2, 2), ("A", "C")),
        (("A", "B"), (2, 3), ("B",)),
        (("A", "B"), (2, 3), ("A",)),
        (("A", "B", "C"), (2, 2, 2), ("B",)),
        (("A", "B", "C"), (2, 3, 2), ("C", "A")),
        # 28 off-diagonal 2x2 blocks: both reads form sigma instead of
        # coefficient rows (test_block_routes)
        (("A", "B", "C", "D"), (2, 2, 2, 2), ("A", "B", "C")),
        # one subsystem measured whole: coefficient rows of 1x1 blocks
        (("S",), (2,), ("S",)),
        (("S",), (3,), ("S",)),
    ]

    def cases(self, seed):
        # ranks 1..3 in turn, capped at D; rank 1 puts zero singular values
        # and eigenvalues at the EIG_ZERO cutoff.  Each case is a batch of
        # three parameter rows, evaluated in one objective call.
        rng = make_rng(seed)
        for k, (labels, dims, measured) in enumerate(self.SHAPES):
            rank = min(1 + k % 3, int(np.prod(dims)))
            state = random_mixed(Register(labels, dims), rank=rank, seed=seed + k)
            ws = workspace_on(state, measured)
            for _ in range(2):
                params = rng.normal(size=(3, ws.param_len))
                plans = [MeasurementPlan(measured, ws.bases(row)) for row in params]
                yield state, measured, ws, params, plans

    def test_scalar_blocks_iff_all_measured(self):
        for labels, dims, measured in self.SHAPES:
            state = random_mixed(Register(labels, dims), rank=2, seed=0)
            ws = workspace_on(state, measured)
            assert (ws.block_dim == 1) == (len(measured) == len(dims))

    def test_block_routes(self):
        # one route per state: sigma is formed only when the off-diagonal
        # coefficient rows would hold more than 4 D^2 entries (P > 4 m^2);
        # (2,2)/A and (2,2,2,2)/ABC cover both routes at m = 2, and a qubit
        # or qutrit measured whole takes coefficient rows
        routes = {}
        for labels, dims, measured in self.SHAPES:
            state = random_mixed(Register(labels, dims), rank=2, seed=0)
            ws = workspace_on(state, measured)
            m, d_m = ws.block_dim, len(state.rho) // ws.block_dim
            assert ws._via_sigma == (d_m * (d_m - 1) // 2 > 4 * m * m)
            routes[dims, measured] = (m, ws._via_sigma)
        assert routes[(2, 2), ("A",)] == (2, False)
        assert routes[(2, 2, 2, 2), ("A", "B", "C")] == (2, True)
        assert routes[(3, 3), ("A", "B")] == (1, True)
        assert routes[(2,), ("S",)] == routes[(3,), ("S",)] == (1, False)

    def test_negativity_objective(self):
        for state, measured, ws, params, plans in self.cases(100):
            if ws.block_dim == 1:
                continue
            fast = ws.objective(True)(params)
            assert fast.shape == (len(plans),)
            for value, plan in zip(fast, plans):
                slow = plan_negativity(state, plan)
                assert abs(value - slow) <= 1e-11, (state.register.dims, measured)

    def test_negativity_objective_both_measured(self):
        for state, measured, ws, params, plans in self.cases(200):
            if ws.block_dim != 1:
                continue
            fast = ws.objective(True)(params)
            assert fast.shape == (len(plans),)
            for value, plan in zip(fast, plans):
                slow = plan_negativity(state, plan)
                assert abs(value - slow) <= 1e-11, (state.register.dims, measured)

    def test_deficit_objective(self):
        for state, measured, ws, params, plans in self.cases(300):
            fast = ws.objective(False)(params)
            assert fast.shape == (len(plans),)
            for value, plan in zip(fast, plans):
                slow = linalg.von_neumann_entropy(
                    dephase(state, plan).rho
                ) - linalg.von_neumann_entropy(state.rho)
                assert abs(value - slow) <= 1e-10, (state.register.dims, measured)

    @pytest.mark.parametrize("negativity", [True, False],
                             ids=["neg_objective", "deficit_objective"])
    def test_rows_independent_of_batch(self, negativity):
        # the lockstep optimizer follows each restart's serial path only if
        # a row's value does not depend on the batch that carries it
        rng = make_rng(7)
        for k, (labels, dims, measured) in enumerate(self.SHAPES):
            ws = workspace_on(random_mixed(Register(labels, dims), rank=2, seed=k), measured)
            fun = ws.objective(negativity)
            # up to the 4 * LOCKSTEP_ROWS points of a one-call step
            for rows in (2, 7, 64, 150, 4 * LOCKSTEP_ROWS):
                params = rng.normal(size=(rows, ws.param_len))
                batch = fun(params)
                alone = np.array([fun(row[None])[0] for row in params])
                assert np.array_equal(batch, alone), (dims, measured, rows)

    @pytest.mark.parametrize("dims, measured", [
        ((2,), "S"), ((2, 2), "A"), ((2, 2), "B"), ((2, 3), "A"),
        ((2, 2, 2), "A"), ((2, 2, 2), "B"), ((2, 2, 2), "C"),
    ])
    def test_one_qubit_edge_rows(self, dims, measured):
        # z = 0 (exp(iH) = I), z real, z imaginary, signed zeros and |z|
        # far below one, at every rank, in both layouts: against the dense
        # oracles, and the same bits in a batch as one row at a time
        reg = Register(("S",) if len(dims) == 1 else tuple("ABC"[: len(dims)]), dims)
        params = np.array([[0.0, 0.0], [0.7, 0.0], [0.0, -1.3], [-0.0, 0.0], [0.0, -0.0],
                           [1e-200, 0.0], [0.0, 1e-200], [-1e-200, 1e-200]])
        for rank in range(1, reg.total_dim + 1):
            rho = random_mixed(reg, rank=rank, seed=rank).rho
            factor = _Workspace(reg, None, (measured,), factor=exact_factor(rho, rank))
            for ws in (_Workspace(reg, rho, (measured,)), factor):
                for negativity, oracle in ((True, oracles.q_negativity_at),
                                           (False, oracles.deficit_at)):
                    fun = ws.objective(negativity)
                    values = fun(params)
                    where = (rank, ws is factor, negativity)
                    assert np.array_equal(values, [fun(row[None])[0] for row in params]), where
                    for value, row in zip(values, params):
                        bases = [b.vectors for b in ws.bases(row)]
                        dense = oracle(rho, list(dims), [reg.index(measured)], bases)
                        assert abs(value - dense) <= 1e-12, where


class TestApparatusNegativity:
    """The block read at given bases against the dense pre-measurement state."""

    SHAPES = [
        (("S",), (2,), ("S",)),
        (("S",), (3,), ("S",)),
        (("A", "B"), (2, 2), ("A",)),
        (("A", "B"), (2, 3), ("B",)),
        (("A", "B"), (3, 3), ("A", "B")),
        (("A", "B"), (3, 3), ("B", "A")),
        (("A", "B", "C"), (2, 2, 2), ("A", "C")),
        # the memory guard: sigma is formed at m = 2 (test_block_routes)
        (("A", "B", "C", "D"), (2, 2, 2, 2), ("A", "B", "C")),
        # a 7-qubit chain state measured on its last apparatus
        (("S", "M:S", "M:M:S", "M:M:M:S", "M:M:M:M:S", "M:M:M:M:M:S", "M:M:M:M:M:M:S"),
         (2,) * 7, ("M:M:M:M:M:M:S",)),
    ]

    @pytest.mark.parametrize("labels, dims, measured", SHAPES)
    def test_matches_dense_premeasurement(self, labels, dims, measured):
        rng = make_rng(len(labels) * 10 + len(measured))
        for rank in (1, 2):
            state = random_mixed(Register(labels, dims), rank=rank, seed=rank + sum(dims))
            bases = [LocalBasis(lab, random_unitary(state.register.dim(lab), rng))
                     for lab in measured]
            plan = MeasurementPlan(measured, bases)
            value = apparatus_negativity(state.register, state.rho, plan)
            assert abs(value - plan_negativity(state, plan)) <= 1e-12, (dims, measured, rank)

    @pytest.mark.parametrize("d", [2, 3])
    def test_eigenbasis_reads_exactly_zero(self, d):
        # the eigenvectors of a random state leave off-diagonal blocks of
        # rounding size, which the clamp maps to 0.0 as negativity() does
        state = random_mixed(Register(("S",), (d,)), rank=d, seed=d)
        plan = MeasurementPlan(("S",), (LocalBasis("S", np.linalg.eigh(state.rho)[1]),))
        raw = workspace_on(state, ("S",))._read(linalg.dagger(plan.bases[0].vectors)[None], True)
        assert 0.0 < raw[0] < CLAMP
        assert apparatus_negativity(state.register, state.rho, plan) == 0.0
        assert plan_negativity(state, plan) == 0.0

    def test_classical_side_reads_exactly_zero(self):
        state = cc_state()
        assert apparatus_negativity(state.register, state.rho, MeasurementPlan(
            ("A", "B"), (computational_basis("A", 2), computational_basis("B", 2))
        )) == 0.0

    def test_checks_plan_against_register(self):
        state = random_mixed(Register(("A", "B"), (2, 3)), rank=2, seed=0)
        with pytest.raises(InvariantError, match="dimension"):
            plan = MeasurementPlan(("B",), (computational_basis("B", 2),))
            apparatus_negativity(state.register, state.rho, plan)
        with pytest.raises(InvariantError, match="not in register"):
            plan = MeasurementPlan(("C",), (computational_basis("C", 2),))
            apparatus_negativity(state.register, state.rho, plan)


def exact_factor(rho, rank):
    """The (D, rank) factor of ``rho``'s ``rank`` largest eigenvalues, scaled by their roots."""
    w, v = np.linalg.eigh(rho)
    return v[:, -rank:] * np.sqrt(w[-rank:])


def chain_register(links):
    """The register of a one-qubit chain after ``links`` links, each on the last label."""
    reg = Register(("S",), (2,))
    for _ in range(links):
        reg = reg.with_apparatus(reg.labels[-1])
    return reg


class TestFactorRead:
    """The factor layout of ``_Workspace`` against its block layout and the dense oracles."""

    @staticmethod
    def assert_agree(reg, rho, f, measured, rows):
        block = _Workspace(reg, rho, measured)
        factor = _Workspace(reg, None, measured, factor=f)
        params = make_rng(reg.total_dim + f.shape[1]).normal(size=(rows, block.param_len))
        idx = [reg.index(lab) for lab in measured]
        for negativity, oracle in ((True, oracles.q_negativity_at), (False, oracles.deficit_at)):
            fast = factor.objective(negativity)(params)
            assert np.max(np.abs(fast - block.objective(negativity)(params))) <= 1e-12, negativity
            for value, row in zip(fast, params):
                dense = oracle(rho, list(reg.dims), idx, [b.vectors for b in block.bases(row)])
                assert abs(value - dense) <= 1e-12, negativity

    @pytest.mark.parametrize("dims, measured", ORACLE_SHAPES)
    def test_every_rank_on_oracle_shapes(self, dims, measured):
        reg = Register(tuple("ABCDEFG"[: len(dims)]), dims)
        for rank in sorted({1, 2, 3, reg.total_dim // 2, reg.total_dim}):
            rho = random_mixed(reg, rank=rank, seed=rank).rho
            self.assert_agree(reg, rho, exact_factor(rho, rank), tuple(measured), 2)

    def test_chain_states_up_to_the_cap(self):
        # the factor a chain carries, from a rank-2 qubit up to 256 dims,
        # read on its last apparatus and on the system
        reg, f = chain_register(0), exact_factor(random_mixed(chain_register(0), 2, seed=4).rho, 2)
        for _ in range(7):
            reg, f = chain._link(reg, f, reg.labels[-1], random_unitary(2, make_rng(reg.n)))
            for measured in ((reg.labels[-1],), ("S",)):
                self.assert_agree(reg, f @ linalg.dagger(f), f, measured, 1)

    @pytest.mark.parametrize("eps, takes_factor", [(1e-14, True), (1e-11, False)])
    def test_purity_guard(self, monkeypatch, eps, takes_factor):
        # rho = (1 - eps) psi psi^dag + eps I / D: the factor drops eigenvalues
        # only within the guard, either read of it agrees, and the optimizer
        # reads it only when 2r <= m + 1 (m = 4 here)
        reg = Register(("A", "B", "C"), (2, 2, 2))
        psi = random_pure(reg, 6).rho
        rho = (1 - eps) * psi + eps * np.eye(8) / 8
        f = entanglement._factor(rho)
        assert f.shape == (8, 1 if takes_factor else 8)
        self.assert_agree(reg, rho, f, ("A",), 3)
        monkeypatch.setattr(_Workspace, "_blocks" if takes_factor else "_factor_r", TestRoutes.never)
        TestRoutes().run_both(LabeledState(reg, rho), ("A",))

    def test_negative_part_is_all_the_factor_drops(self):
        # rho = (1 + d) psi psi^dag - d phi phi^dag, phi orthogonal to psi: an
        # eigenvalue of -d, which check_density admits, and f = psi
        reg, d = Register(("A", "B", "C"), (2, 2, 2)), 5e-11
        psi, phi = np.linalg.qr(make_rng(9).normal(size=(8, 2)) + 0j)[0].T
        rho = (1 + d) * np.outer(psi, psi.conj()) - d * np.outer(phi, phi.conj())
        state = LabeledState(reg, rho)
        assert np.linalg.eigvalsh(state.rho)[0] < -4e-11
        f = entanglement._factor(state.rho)
        assert f.shape == (8, 1)
        block = _Workspace(reg, rho, ("A",))
        factor = _Workspace(reg, None, ("A",), factor=f)
        params = make_rng(10).normal(size=(4, block.param_len))
        for negativity in (True, False):
            fast, slow = factor.objective(negativity)(params), block.objective(negativity)(params)
            assert np.max(np.abs(fast - slow)) <= 1e-9, negativity

    @pytest.mark.parametrize("negativity", [True, False], ids=["negativity_at", "deficit_at"])
    @pytest.mark.parametrize("rank", [1, 2, 3])
    def test_rows_independent_of_batch(self, negativity, rank):
        rng = make_rng(8)
        for dims, measured in (((3, 3), "A"), ((2, 2, 2, 2), "A"), ((2, 3, 2), "CA")):
            reg = Register(tuple("ABCD"[: len(dims)]), dims)
            rho = random_mixed(reg, rank=rank, seed=rank).rho
            ws = _Workspace(reg, None, tuple(measured), factor=exact_factor(rho, rank))
            fun = ws.objective(negativity)
            for rows in (2, 7, 64, 4 * LOCKSTEP_ROWS):
                params = rng.normal(size=(rows, ws.param_len))
                alone = np.array([fun(row[None])[0] for row in params])
                assert np.array_equal(fun(params), alone), (dims, measured, rows)


class TestRoutes:
    """``_minimum_over_bases`` reads low-rank inputs off a factor and the rest
    off the blocks."""

    CFG = OptimizerConfig(restarts=2, max_iter=20)

    @staticmethod
    def never(*args, **kwargs):
        raise AssertionError("this read must not run")

    def run_both(self, state, measured):
        for measure in (q_negativity, deficit):
            assert np.isfinite(measure(state, measured, self.CFG).value)

    def test_low_rank_inputs_skip_the_blocks(self, monkeypatch):
        monkeypatch.setattr(_Workspace, "_blocks", self.never)
        self.run_both(random_pure(Register(("A", "B"), (3, 3)), 4), ("A",))
        self.run_both(random_mixed(default_register(7), rank=2, seed=5), ("G",))

    def test_full_and_high_rank_inputs_keep_the_blocks(self, monkeypatch):
        monkeypatch.setattr(_Workspace, "_factor_r", self.never)
        self.run_both(random_mixed(default_register(2), rank=4, seed=5), ("A",))
        self.run_both(random_mixed(Register(("A", "B"), (3, 3)), rank=4, seed=5), ("A",))

    @pytest.mark.parametrize("tracked", [False, True], ids=["untracked", "tracked-optimized"])
    def test_chain_reads_its_factor(self, monkeypatch, tracked):
        # no checked state, and no eigh but the initial factor's (exp(iH) at
        # d = 2 is closed form).  Untracked link values take no block read;
        # a tracked chain's optimizer forms f f^dag, unchecked, only where it
        # takes the block layout (2r > m + 1 at the first two links)
        reg = chain_register(6)
        initial = random_mixed(chain_register(0), rank=2, seed=6)
        if tracked:
            links = tuple(LinkSpec(lab, OPTIMIZED) for lab in reg.labels)
            cfg = ChainConfig(initial, links, True, self.CFG)
        else:
            cfg = ChainConfig(initial, tuple(LinkSpec(lab) for lab in reg.labels))
            monkeypatch.setattr(_Workspace, "_blocks", self.never)
        monkeypatch.setattr(chain, "LabeledState", self.never)
        calls, eigh = [], np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda *a: calls.append(a) or eigh(*a))
        report = run_chain(cfg)
        assert len(report.rows) == 7 and report.rows[0].entanglement > 0
        assert len(calls) == 1
        assert (report.rows[-1].quantumness is not None) == tracked


def complex_normal(rng, *shape):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


class TestTwoByTwoBlockKernels:
    """The closed-form 2x2 trace norm and spectrum against LAPACK.

    Both agree with OpenBLAS's reference LAPACK to about 5 ulp; the 1e-14
    bound leaves room for other LAPACK builds to round differently.
    """

    def blocks(self):
        rng = make_rng(8)
        u, v = complex_normal(rng, 100, 2), complex_normal(rng, 100, 2)
        diagonal = np.zeros((100, 2, 2), dtype=complex)
        diagonal[:, [0, 1], [0, 1]] = complex_normal(rng, 100, 2)
        return {
            "random": complex_normal(rng, 100, 2, 2) * 10.0 ** rng.uniform(-6, 3, (100, 1, 1)),
            "rank-1": u[:, :, None] * np.conj(v[:, None, :]),
            "zero": np.zeros((3, 2, 2), dtype=complex),
            "diagonal": diagonal,
        }

    def test_trace_norm_matches_svd(self):
        for kind, x in self.blocks().items():
            ref = np.linalg.svd(x, compute_uv=False).sum(axis=-1)
            assert np.all(np.abs(quantumness._trace_norm_2x2(x) - ref) <= 1e-14 * ref), kind

    def test_eigenvalues_match_eigvalsh(self):
        # X X^dag keeps each kind (rank, zero, diagonal) as a Hermitian
        # block.  The error is relative to the block's Frobenius norm, the
        # scale of its spectrum: a near-zero eigenvalue has no relative
        # accuracy in either method.
        for kind, x in self.blocks().items():
            h = x @ np.conj(x).swapaxes(1, 2)
            ref = np.linalg.eigvalsh(h)
            scale = np.linalg.norm(h, axis=(1, 2))[:, None]
            assert np.all(np.abs(quantumness._eigvalsh_2x2(h) - ref) <= 1e-14 * scale), kind


def rippled_rosenbrock(x):
    """Row-wise Rosenbrock plus a ripple that makes Nelder-Mead shrink."""
    smooth = 100.0 * (x[:, 1:] - x[:, :-1] ** 2) ** 2 + (1 - x[:, :-1]) ** 2
    return smooth.sum(axis=1) + 3.0 * np.sin(40.0 * x).sum(axis=1)


def scipy_nelder_mead(fun, x0, max_iter, adaptive, fatol=1e-8):
    """The reference: scipy's Nelder-Mead on one row of a batched objective."""
    return scipy_minimize(
        lambda v: float(fun(v[None])[0]),
        x0,
        method="Nelder-Mead",
        options={"maxiter": max_iter, "xatol": 1e-6, "fatol": fatol, "adaptive": adaptive},
    )


class TestLockstepMinimize:
    """Every row of the lockstep minimize is scipy's Nelder-Mead, bit for bit."""

    ONE_CALL = False

    def run(self, fun, x0s, max_iter, adaptive):
        return minimize(fun, x0s, max_iter=max_iter, xatol=1e-6, fatol=1e-8, adaptive=adaptive,
                        one_call=self.ONE_CALL)

    def assert_rows_match_scipy(self, fun, x0s, max_iter, adaptive):
        res = self.run(fun, x0s, max_iter, adaptive)
        nfev = 0
        for i, x0 in enumerate(x0s):
            ref = scipy_nelder_mead(fun, x0, max_iter, adaptive)
            assert np.array_equal(res.x[i], ref.x), i
            assert res.fun[i] == ref.fun, i
            assert res.success[i] == ref.success, i
            assert res.nit[i] == ref.nit, i
            nfev += ref.nfev
        assert res.nfev == nfev
        return res

    @pytest.mark.parametrize("n, adaptive", [(4, False), (8, True), (18, True)])
    def test_rows_match_scipy(self, n, adaptive):
        x0s = np.random.default_rng(n).normal(size=(6, n))
        x0s[0] = 0.0
        self.assert_rows_match_scipy(rippled_rosenbrock, x0s, 300, adaptive)

        # one row at a time, after the first simplex, each iteration makes
        # one trial call (4 points) in a one-call step and one or two
        # (1 point each) otherwise, and a shrink one more call of n points
        shrinks = 0
        for x0 in x0s:
            sizes = []

            def recorded(x):
                sizes.append(len(x))
                return rippled_rosenbrock(x)

            res = self.run(recorded, x0[None], 300, adaptive)
            if self.ONE_CALL:  # at n = 4 a size cannot tell a shrink from a trial call
                assert set(sizes[1:]) <= {4, n}
                # the first simplex, then one trial call per iteration after it
                shrinks += len(sizes) - res.nit[0]
            else:
                assert set(sizes[1:]) <= {1, n}
                shrinks += sum(1 for size in sizes[1:] if size == n)
        assert shrinks > 0

    def test_rows_stop_at_different_iterations(self):
        def bowl(x):
            return ((x - 1.0) ** 2).sum(axis=1)

        x0s = np.array([[1.0, 1.0, 1.0], [0.0, 0.0, 0.0], [4.0, -3.0, 2.0], [60.0, 9.0, -40.0]])
        res = self.assert_rows_match_scipy(bowl, x0s, 400, False)
        assert res.success.all()
        assert len(set(res.nit.tolist())) == len(x0s)

    def test_max_iter_one_runs_no_iteration(self):
        res = self.assert_rows_match_scipy(rippled_rosenbrock, np.ones((2, 3)), 1, False)
        assert not res.success.any()
        assert res.nfev == 2 * 4


class TestLockstepMinimizeOneCall(TestLockstepMinimize):
    """The same, with the four trial points of every row in one call per step."""

    ONE_CALL = True


class TestOptimizeAgainstSerialScipy:
    """_optimize is the old serial loop of scipy runs, one per restart, then,
    when any restart converged, one more scipy run from the winner's point,
    kept if strictly lower."""

    def check_against_serial(self, ws, cfg):
        """Assert _optimize on the negativity objective of ``ws`` matches the
        serial reference; return whether a restart converged (so a polish
        ran) and whether it lowered the winner."""
        objective = ws.objective(True)
        value, best_x, restart_values, converged = _optimize(objective, ws.param_len, cfg)
        # Gao-Han coefficients unless one qubit is measured
        adaptive = ws.param_len > 2
        refs = []
        for r in range(cfg.restarts):
            x0 = np.zeros(ws.param_len) if r == 0 else make_rng(cfg.seed, r).normal(size=ws.param_len)
            refs.append(scipy_nelder_mead(objective, x0, cfg.max_iter, adaptive, cfg.tol))
        best = min(range(len(refs)), key=lambda r: (refs[r].fun, r))
        expected = [float(ref.fun) for ref in refs]
        expected_x = refs[best].x
        polished = False
        assert converged == any(ref.success for ref in refs)
        if converged:
            polish = scipy_nelder_mead(objective, refs[best].x, cfg.max_iter, adaptive, cfg.tol)
            polished = bool(polish.fun < refs[best].fun)
            if polished:
                expected[best], expected_x = float(polish.fun), polish.x
        assert restart_values == tuple(expected)
        assert value == expected[best] == min(expected)
        assert np.array_equal(best_x, expected_x)
        return converged, polished

    @pytest.mark.parametrize("measured", [("A",), ("A", "B")])
    def test_matches_serial_restarts(self, measured):
        ws = workspace_on(random_mixed(default_register(2), rank=2, seed=21), measured)
        converged, polished = self.check_against_serial(ws, OptimizerConfig(restarts=4, seed=5))
        # restarts converge on both; the polish lowers only the Q^AB winner
        assert converged
        assert polished == (len(measured) == 2)

    @pytest.mark.parametrize("layout", ["block", "factor"])
    def test_one_call_step_matches_serial_restarts(self, monkeypatch, layout):
        # (2,2)/A reads are closed forms in the block layout and, at rank 1,
        # in the factor layout, so every minimize call takes the one-call step
        state = random_mixed(default_register(2), rank=2 if layout == "block" else 1, seed=21)
        if layout == "block":
            ws = workspace_on(state, ("A",))
        else:
            ws = _Workspace(state.register, None, ("A",), factor=exact_factor(state.rho, 1))
        steps = []

        def recorded(fun, x0s, **kwargs):
            steps.append(kwargs["one_call"])
            return minimize(fun, x0s, **kwargs)

        monkeypatch.setattr(quantumness, "minimize", recorded)
        converged, _ = self.check_against_serial(ws, OptimizerConfig(restarts=4, seed=5))
        assert converged
        assert steps == [True, True]  # the restarts, then the polish

    def test_no_polish_without_a_converged_restart(self):
        ws = workspace_on(random_mixed(default_register(2), rank=2, seed=18), ("A", "B"))
        converged, _ = self.check_against_serial(ws, OptimizerConfig(restarts=4, seed=5))
        assert not converged

    def test_polish_lowers_a_winner_cut_at_max_iter(self):
        # restart 2 converges at 0.594; the winner, restart 1, stops at
        # max_iter at 0.585, and the polish from its point reaches 0.425
        ws = workspace_on(random_mixed(default_register(2), rank=2, seed=8), ("A", "B"))
        value, _, restart_values, converged = _optimize(
            ws.objective(True), ws.param_len, OptimizerConfig(restarts=4, seed=5)
        )
        assert converged
        assert value < 0.43
        assert sorted(restart_values)[1] > 0.58


class TestChunkedRestarts:
    """Restarts beyond LOCKSTEP_ROWS run in further minimize calls, with the
    outcome of one call over all of them."""

    RESTARTS = 70

    def starts(self, seed, n):
        x0s = np.zeros((self.RESTARTS, n))
        for r in range(1, self.RESTARTS):
            x0s[r] = make_rng(seed, r).normal(size=n)
        return x0s

    def bowl(self, seed):
        # centred on the start of restart 67, which alone converges by
        # iteration 40 and wins: the winner and the only success lie in
        # the second chunk
        centre = self.starts(seed, 2)[67]
        return lambda x: ((x - centre) ** 2).sum(axis=1), 2, 40

    def workspace(self, seed):
        # restart 65 wins; restarts of both chunks converge
        ws = workspace_on(random_mixed(default_register(2), rank=2, seed=39), ("A",))
        return ws.objective(True), ws.param_len, 80

    @pytest.mark.parametrize("case", ["bowl", "workspace"])
    def test_chunks_match_one_minimize_call(self, case, monkeypatch):
        seed = 3
        objective, n, max_iter = getattr(self, case)(seed)
        cfg = OptimizerConfig(restarts=self.RESTARTS, max_iter=max_iter, seed=seed)
        whole = minimize(objective, self.starts(seed, n), max_iter, 1e-6, cfg.tol, n > 2)
        best = int(np.argmin(whole.fun))
        polish = minimize(objective, whole.x[best][None], max_iter, 1e-6, cfg.tol, n > 2)
        expected = whole.fun.copy()
        if polish.fun[0] < whole.fun[best]:
            expected[best] = polish.fun[0]

        rows = []

        def recorded(fun, x0s, **kwargs):
            rows.append(len(x0s))
            return minimize(fun, x0s, **kwargs)

        monkeypatch.setattr(quantumness, "minimize", recorded)
        value, best_x, restart_values, converged = _optimize(objective, n, cfg)
        # a restart converged, so the winner gets a one-row polish
        assert rows == [LOCKSTEP_ROWS, self.RESTARTS - LOCKSTEP_ROWS, 1]
        assert best >= LOCKSTEP_ROWS
        assert restart_values == tuple(float(v) for v in expected)
        assert value == expected[best]
        assert np.array_equal(best_x, polish.x[0] if polish.fun[0] < whole.fun[best] else whole.x[best])
        assert converged == bool(whole.success.any())
        assert whole.success[LOCKSTEP_ROWS:].any()
        assert whole.success[:LOCKSTEP_ROWS].any() == (case != "bowl")

    def test_starts_drawn_per_chunk(self, monkeypatch):
        # a restart count whose starts could not all be held at once
        # reaches the first minimize call with one chunk of starts
        class Reached(Exception):
            pass

        rows = []

        def first_call(fun, x0s, **kwargs):
            rows.append(len(x0s))
            raise Reached

        monkeypatch.setattr(quantumness, "minimize", first_call)
        with pytest.raises(Reached):
            q_negativity(bell_state(), ("A",), OptimizerConfig(restarts=10**12))
        assert rows == [LOCKSTEP_ROWS]


class TestOneCallStep:
    """``_Workspace.closed_form`` sends a step's trial points to the objective
    in one call exactly where a read reaches neither LAPACK nor sigma, and
    the step taken changes no report."""

    # (dims, measured, rank, one call) on the benchmark's shapes, rank 1 a
    # pure state; the one-call step is the factor layout at r = 1 or the
    # block layout on coefficient rows at m <= 2, qubits measured
    TABLE = [
        *(((2, 2), measured, rank, True) for measured in ("A", "B") for rank in (1, 2, 3, 4)),
        ((2, 2), "AB", 1, True),
        *(((2, 2), "AB", rank, False) for rank in (2, 3, 4)),  # sigma
        ((2, 2, 2), "AC", 1, True),
        ((2, 2, 2), "AC", 4, True),
        ((2, 2, 2), "A", 1, True),
        ((2, 2, 2), "A", 4, False),  # 4x4 blocks
        *(((3, 3), measured, rank, False) for measured in ("A", "AB") for rank in (1, 4)),
    ]

    @pytest.mark.parametrize("dims, measured, rank, one_call", TABLE)
    def test_which_shapes_take_one_call(self, monkeypatch, dims, measured, rank, one_call):
        reg = Register(tuple("ABC"[: len(dims)]), dims)
        state = random_pure(reg, 0) if rank == 1 else random_mixed(reg, rank, seed=rank)
        seen = []

        def optimize(objective, param_len, cfg):
            params = make_rng(0).normal(size=(3, param_len))
            values = objective(params)  # S(rho) of the deficit read is computed once
            seen.append(objective.closed_form)
            with monkeypatch.context() as m:
                if objective.closed_form:  # then no read reaches LAPACK
                    for name in ("eigh", "eigvalsh", "svd", "qr"):
                        m.setattr(np.linalg, name, TestRoutes.never)
                assert np.array_equal(objective(params), values)
            return 0.0, np.zeros(param_len), (0.0,), True

        monkeypatch.setattr(quantumness, "_optimize", optimize)
        for fn in (q_negativity, deficit):
            fn(state, tuple(measured))
        assert seen == [one_call, one_call]

    def test_reports_do_not_depend_on_the_step(self, monkeypatch):
        # (2,2)/A at the default settings, with every minimize call forced
        # to one step or the other
        state = random_mixed(default_register(2), rank=3, seed=3)
        runs = {}
        for forced in (False, True):
            calls, nfev = [], []

            def forced_minimize(fun, x0s, **kwargs):
                def counted(x):
                    calls.append(len(x))
                    return fun(x)

                res = minimize(counted, x0s, **{**kwargs, "one_call": forced})
                nfev.append(res.nfev)
                return res

            monkeypatch.setattr(quantumness, "minimize", forced_minimize)
            runs[forced] = [fn(state, ("A",)) for fn in (q_negativity, deficit)], calls, nfev
        (two, two_calls, two_nfev), (one, one_calls, one_nfev) = runs[False], runs[True]
        for a, b in zip(two, one):
            assert (a.value, a.restart_values, a.converged) == (b.value, b.restart_values,
                                                                b.converged)
            for x, y in zip(a.argmin_bases, b.argmin_bases):
                assert np.array_equal(x.vectors, y.vectors)
        assert one_nfev == two_nfev
        assert len(one_calls) < len(two_calls)


class TestQNegativity:
    def test_bell(self):
        report = q_negativity(bell_state(), ("A",), FAST)
        assert report.value == pytest.approx(0.5, abs=1e-6)
        assert report.measure == NEGATIVITY_OF_QUANTUMNESS

    def test_cc_state_is_zero(self):
        report = q_negativity(cc_state(), ("A",), FAST)
        assert report.value == 0.0

    def test_discordant_state_is_positive(self):
        report = q_negativity(discordant_state(), ("B",), FAST)
        assert report.value > 1e-3

    def test_value_is_min_of_restarts(self):
        report = q_negativity(random_mixed(default_register(2), 2, seed=6), ("A",), FAST)
        assert report.value <= min(report.restart_values) + 1e-12
        assert len(report.restart_values) == FAST.restarts

    def test_deterministic_given_seed(self):
        state = random_mixed(default_register(2), 2, seed=7)
        a = q_negativity(state, ("A",), FAST)
        b = q_negativity(state, ("A",), FAST)
        assert a.value == b.value
        assert a.restart_values == b.restart_values

    def test_argmin_bases_reproduce_value(self):
        state = random_mixed(default_register(2), 2, seed=8)
        report = q_negativity(state, ("A",), FAST)
        from qcorr.premeasure import MeasurementPlan

        plan = MeasurementPlan(report.measured, report.argmin_bases)
        assert plan_negativity(state, plan) == pytest.approx(report.value, abs=1e-9)

    def test_pure_state_saturation(self):
        # for pure bipartite states the minimum over bases equals the
        # negativity across A:B
        cut = BipartitionCut((0,), (1,))
        for seed in (9, 10):
            state = random_pure(default_register(2), seed=seed)
            n = negativity(state, cut)
            report = q_negativity(state, ("A",), OptimizerConfig(restarts=8, seed=0))
            assert report.value == pytest.approx(n, abs=1e-5)
            assert report.value >= n - 1e-9  # upper bound side is one-sided

    @pytest.mark.parametrize("raw, reported", [(-1e-12, 0.0), (-0.0, 0.0), (5e-10, 5e-10)])
    def test_reported_value_is_raised_to_zero_only_below_zero(self, monkeypatch, raw, reported):
        def optimize(objective, param_len, cfg):
            return raw, np.zeros(param_len), (raw,), True

        monkeypatch.setattr(quantumness, "_optimize", optimize)
        for fn in (q_negativity, deficit):
            value = fn(bell_state(), ("A",), FAST).value
            assert value == reported
            assert np.copysign(1.0, value) == 1.0  # +0.0, not -0.0

    def test_invalid_measured(self):
        for fn in (q_negativity, deficit):
            for measured, message in (((), "measured subset must be nonempty"),
                                      (("A", "A"), "duplicate measured labels"),
                                      (("Z",), "not in register")):
                with pytest.raises(InvariantError, match=message):
                    fn(bell_state(), measured, FAST)

    @pytest.mark.parametrize("measured", ["AB", "A", "M:A"])
    def test_bare_string_measured_refused(self, measured):
        # "AB" would measure A and B, and "M:A" fail as label 'M' not in register
        state = premeasure(bell_state(), MeasurementPlan(("A",), (computational_basis("A", 2),)))
        message = "measured labels must be a sequence of labels"
        for fn in (q_negativity, deficit):
            with pytest.raises(InvariantError, match=message):
                fn(state, measured, FAST)
        with pytest.raises(InvariantError, match=message):
            MeasurementPlan(measured, (computational_basis("A", 2),))

    def test_duplicate_measured_rejected_before_optimizing(self, monkeypatch):
        def never(*args):
            raise AssertionError("objective evaluated")

        monkeypatch.setattr(_Workspace, "_read", never)
        for fn in (q_negativity, deficit):
            with pytest.raises(InvariantError, match="duplicate"):
                fn(bell_state(), ("A", "A"), FAST)


class TestDeficit:
    def test_bell_one_way(self):
        report = deficit(bell_state(), ("A",), FAST)
        assert report.value == pytest.approx(1.0, abs=1e-6)
        assert report.measure == ONE_WAY_DEFICIT

    def test_two_way_label(self):
        report = deficit(bell_state(), ("A", "B"), FAST)
        assert report.measure == TWO_WAY_DEFICIT
        assert report.value == pytest.approx(1.0, abs=1e-6)

    def test_cc_state_is_zero(self):
        assert deficit(cc_state(), ("A",), FAST).value == 0.0
        assert deficit(cc_state(), ("A", "B"), FAST).value == 0.0

    def test_maximally_mixed(self):
        state = LabeledState(default_register(2), np.eye(4) / 4)
        assert deficit(state, ("A",), FAST).value == 0.0

    def test_nonnegative(self):
        state = random_mixed(default_register(2), 3, seed=11)
        assert deficit(state, ("A",), FAST).value >= 0.0

    @pytest.mark.parametrize(
        "labels, measured, two_way",
        [
            (("A", "B", "M:A"), ("A", "M:A"), False),
            (("A", "B", "M:A"), ("B", "M:A"), False),
            (("A", "B", "M:A"), ("A",), False),
            (("A", "B", "M:A"), ("B", "A"), True),
            (("A", "B", "M:A"), ("A", "B", "M:A"), True),
            (("A", "M:A"), ("A",), False),
            (("A", "M:A"), ("M:A", "A"), True),
        ],
    )
    def test_two_way_iff_every_system_measured(self, labels, measured, two_way):
        # two-way means every label measured, or every system label when
        # there are two or more systems; counting the labels is not enough
        state = random_mixed(Register(labels, (2,) * len(labels)), 2, seed=1)
        report = deficit(state, measured, OptimizerConfig(restarts=1, max_iter=5))
        assert report.measure == (TWO_WAY_DEFICIT if two_way else ONE_WAY_DEFICIT)


class TestLocalInvariances:
    """Q and D on (2,2)/A at the default settings hold three exact invariances.

    Both measures are invariant under a local frame U_A (x) U_B, under a
    reordering of the register, and under an unmeasured product ancilla.
    Any spread in the reported values is optimizer slack; on (2,2)/A it
    stays below 5e-9 for Q in a new frame and 1e-13 otherwise.
    """

    SEEDS = range(6)  # ranks 1, 2, 3, 4, 1, 2
    MEASURED = ("A",)

    @pytest.fixture(scope="class", params=SEEDS)
    def case(self, request):
        s = request.param
        state = random_mixed(default_register(2), 1 + s % 4, s)
        values = {m: m(state, self.MEASURED, OptimizerConfig()).value
                  for m in (q_negativity, deficit)}
        return s, state, values

    def check(self, state, values, q_tol, tol=1e-12):
        for measure, value in values.items():
            reading = measure(state, self.MEASURED, OptimizerConfig()).value
            assert reading == pytest.approx(value, abs=q_tol if measure is q_negativity else tol)

    def test_local_frame(self, case):
        s, state, values = case
        rng = make_rng(100 + s)
        for _ in range(2):
            u = np.kron(random_unitary(2, rng), random_unitary(2, rng))
            self.check(LabeledState(state.register, u @ state.rho @ u.conj().T), values, 1e-7)

    def test_register_reordered(self, case):
        _, state, values = case
        swapped = state.permuted([1, 0])
        assert swapped.register.labels == ("B", "A")
        self.check(swapped, values, 1e-12)

    def test_unmeasured_ancilla(self, case):
        _, state, values = case
        ancilla = np.diag([1.0, 0.0])
        self.check(LabeledState(default_register(3), np.kron(state.rho, ancilla)), values, 1e-12)


class TestLocalInvariancesOnB(TestLocalInvariances):
    """The same invariances on (2,2)/B: the spread stays below 2e-9 for Q in
    a new frame and 1e-13 otherwise."""

    MEASURED = ("B",)


class TestLocalInvariancesOnAB(TestLocalInvariances):
    """The same invariances on (2,2)/AB: the spread stays below 2e-8 for Q in
    a new frame and 1e-13 otherwise."""

    MEASURED = ("A", "B")


class TestBellDiagonalClosedForm:
    """Bell-diagonal states (I + sum_i c_i sigma_i (x) sigma_i)/4, seen in
    random local frames, at the default optimizer settings, against the
    closed forms of Nakano, Piani & Adesso, PRA 88, 012117 (2013), which
    ``oracles`` reads off the correlation matrix."""

    def states(self):
        # c of |Phi+>, |Phi->, |Psi+>, |Psi->; the mixture with weights p has
        # c = p @ bell_c
        bell_c = np.array([[1, -1, 1], [-1, 1, 1], [1, 1, -1], [-1, -1, -1]])
        rng = make_rng(9)
        for _ in range(4):
            c = rng.dirichlet(np.ones(4)) @ bell_c
            rho = (np.eye(4) + sum(ci * np.kron(s, s) for ci, s in zip(c, oracles.PAULI))) / 4
            u = np.kron(random_unitary(2, rng), random_unitary(2, rng))
            yield LabeledState(default_register(2), u @ rho @ u.conj().T)

    def test_q_negativity_is_middle_correlation(self):
        for state in self.states():
            expected = oracles.bell_diagonal_q_negativity(state.rho)
            assert q_negativity(state, ("A",)).value == pytest.approx(expected, abs=1e-6)

    def test_one_way_deficit(self):
        for state in self.states():
            expected = oracles.bell_diagonal_deficit(state.rho)
            assert deficit(state, ("A",)).value == pytest.approx(expected, abs=1e-6)


class TestClassify:
    def test_cc_state(self):
        out = classify_cc(cc_state(), ("A", "B"), cfg=FAST)
        assert out["cc"] is True
        assert out["residual"] < 1e-7
        assert out["witness_bases"] is not None

    def test_bell(self):
        out = classify_cc(bell_state(), ("A",), cfg=FAST)
        assert out["cc"] is False
        assert out["witness_bases"] is None
        assert out["negativity_residual"] == pytest.approx(0.5, abs=1e-6)

    def test_discordant_state_not_cc_on_b(self):
        out = classify_cc(discordant_state(), ("B",), cfg=FAST)
        assert out["cc"] is False

    def test_discordant_state_cc_on_a(self):
        # classical on the flag side A, quantum only on B
        out = classify_cc(discordant_state(), ("A",), cfg=FAST)
        assert out["cc"] is True

    @pytest.mark.parametrize("threshold", [float("nan"), float("inf"), 0.0, -1e-7, True])
    def test_threshold_refused_before_optimizing(self, monkeypatch, threshold):
        def never(*args):
            raise AssertionError("q_negativity called")

        monkeypatch.setattr(quantumness, "q_negativity", never)
        with pytest.raises(InvariantError, match="threshold must be positive and finite"):
            classify_cc(cc_state(), ("A", "B"), threshold=threshold, cfg=FAST)


class TestCommutationOracle:
    def test_cc_state(self):
        assert cc_commutation_oracle(cc_state(), "A") is True

    def test_bell(self):
        assert cc_commutation_oracle(bell_state(), "A") is False

    def test_discordant_state_sides(self):
        state = discordant_state()
        assert cc_commutation_oracle(state, "A") is True
        assert cc_commutation_oracle(state, "B") is False

    def test_requires_bipartite(self):
        with pytest.raises(InvariantError):
            cc_commutation_oracle(random_pure(default_register(3), 0), "A")

    def test_agreement_with_optimizer(self):
        rng = make_rng(12)
        for trial in range(4):
            state = random_mixed(default_register(2), rank=2, seed=400 + trial)
            oracle = cc_commutation_oracle(state, "A")
            verdict = classify_cc(state, ("A",), cfg=FAST)["cc"]
            assert oracle == verdict


def test_quantumness_dominates_entanglement():
    # minimum apparatus entanglement is never below the prior A:B negativity
    cut = BipartitionCut((0,), (1,))
    for seed in (13, 14, 15):
        state = random_mixed(default_register(2), rank=2, seed=seed)
        n = negativity(state, cut)
        qa = q_negativity(state, ("A",), OptimizerConfig(restarts=8, seed=0)).value
        assert qa >= n - 1e-9
