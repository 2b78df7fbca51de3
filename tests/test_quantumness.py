import numpy as np
import pytest
from scipy.linalg import expm
from scipy.optimize import minimize as scipy_minimize

from qcorr import linalg, quantumness
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
    _exp_ih,
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
    spawn_rng,
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
            u = _exp_ih(np.zeros((1, d * (d - 1))), d)[0]
            assert np.max(np.abs(u - np.eye(d))) <= 1e-14

    def test_matches_matrix_exponential(self):
        rng = make_rng(0)
        for d in (2, 3, 4):
            for scale in (1e-9, 1.0, 3.0):
                for _ in range(5):
                    params = rng.normal(scale=scale, size=d * (d - 1))
                    u = _exp_ih(params[None], d)[0]
                    h = zero_diagonal_generator(params, d)
                    assert np.max(np.abs(u - expm(1j * h))) <= 1e-12

    def test_rotation_generator(self):
        # H = alpha * [[0, -i], [i, 0]] exponentiates to a real rotation
        alpha = np.pi / 4
        u = _exp_ih(np.array([[0.0, -alpha]]), 2)[0]
        expected = np.array(
            [[np.cos(alpha), np.sin(alpha)], [-np.sin(alpha), np.cos(alpha)]]
        )
        assert np.max(np.abs(u - expected)) <= 1e-14

    def test_unitarity(self):
        rng = make_rng(1)
        for d in (2, 3, 4):
            params = rng.normal(scale=2.0, size=d * (d - 1))
            u = _exp_ih(params[None], d)[0]
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
            d = _exp_ih(np.array([[z.real, z.imag]]), 2)[0].conj().T @ u
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
        with pytest.raises(InvariantError, match="non-negative"):
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
        # label; the grouped exp(iH) of the two qubits decodes each block
        # as it would alone
        state = random_mixed(Register(("A", "B", "C"), (2, 3, 2)), rank=2, seed=2)
        ws = _Workspace(state, ("B", "A", "C"))
        params = make_rng(5).normal(size=6 + 2 + 2)
        assert ws.param_len == len(params)
        bases = ws.bases(params)
        assert [b.subsystem for b in bases] == ["B", "A", "C"]
        blocks = (params[:6], params[6:8], params[8:])
        for basis, block, d in zip(bases, blocks, (3, 2, 2)):
            assert np.array_equal(basis.vectors, _exp_ih(block[None], d)[0])


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
        # 28 off-diagonal 2x2 blocks: the negativity forms sigma instead of
        # coefficient rows, the deficit does not (test_block_routes)
        (("A", "B", "C", "D"), (2, 2, 2, 2), ("A", "B", "C")),
    ]

    def cases(self, seed):
        # ranks 1..3 in turn; rank 1 puts zero singular values and
        # eigenvalues at the EIG_ZERO cutoff.  Each case is a batch of three
        # parameter rows, evaluated in one objective call.
        rng = make_rng(seed)
        for k, (labels, dims, measured) in enumerate(self.SHAPES):
            state = random_mixed(Register(labels, dims), rank=1 + k % 3, seed=seed + k)
            ws = _Workspace(state, measured)
            for _ in range(2):
                params = rng.normal(size=(3, ws.param_len))
                plans = [MeasurementPlan(measured, ws.bases(row)) for row in params]
                yield state, measured, ws, params, plans

    def test_scalar_blocks_iff_all_measured(self):
        for labels, dims, measured in self.SHAPES:
            state = random_mixed(Register(labels, dims), rank=2, seed=0)
            ws = _Workspace(state, measured)
            assert (ws.block_dim == 1) == (len(measured) == len(dims))

    def test_block_routes(self):
        # sigma is formed when m = 1, or when the coefficient rows would
        # hold more than 4 D^2 entries (P > 4 m^2); the last shape keeps
        # both routes covered at m = 2
        for labels, dims, measured in self.SHAPES:
            state = random_mixed(Register(labels, dims), rank=2, seed=0)
            ws = _Workspace(state, measured)
            m = ws.block_dim
            for a, _, dense in (ws._off_pairs, ws._diag_pairs):
                assert dense == (m == 1 or len(a) > 4 * m * m)
        ws = _Workspace(random_mixed(Register(*self.SHAPES[-1][:2]), rank=2, seed=0),
                        self.SHAPES[-1][2])
        assert ws.block_dim == 2 and ws._off_pairs[2] and not ws._diag_pairs[2]

    def test_negativity_objective(self):
        for state, measured, ws, params, plans in self.cases(100):
            if ws.block_dim == 1:
                continue
            fast = ws.neg_objective(params)
            assert fast.shape == (len(plans),)
            for value, plan in zip(fast, plans):
                slow = plan_negativity(state, plan)
                assert abs(value - slow) <= 1e-11, (state.register.dims, measured)

    def test_negativity_objective_both_measured(self):
        for state, measured, ws, params, plans in self.cases(200):
            if ws.block_dim != 1:
                continue
            fast = ws.neg_objective(params)
            assert fast.shape == (len(plans),)
            for value, plan in zip(fast, plans):
                slow = plan_negativity(state, plan)
                assert abs(value - slow) <= 1e-11, (state.register.dims, measured)

    def test_deficit_objective(self):
        for state, measured, ws, params, plans in self.cases(300):
            fast = ws.deficit_objective(params)
            assert fast.shape == (len(plans),)
            for value, plan in zip(fast, plans):
                slow = linalg.von_neumann_entropy(
                    dephase(state, plan).rho
                ) - linalg.von_neumann_entropy(state.rho)
                assert abs(value - slow) <= 1e-10, (state.register.dims, measured)

    @pytest.mark.parametrize("objective", ["neg_objective", "deficit_objective"])
    def test_rows_independent_of_batch(self, objective):
        # the lockstep optimizer follows each restart's serial path only if
        # a row's value does not depend on the batch that carries it
        rng = make_rng(7)
        for k, (labels, dims, measured) in enumerate(self.SHAPES):
            ws = _Workspace(random_mixed(Register(labels, dims), rank=2, seed=k), measured)
            fun = getattr(ws, objective)
            for rows in (2, 7, 64, 150):
                params = rng.normal(size=(rows, ws.param_len))
                batch = fun(params)
                alone = np.array([fun(row[None])[0] for row in params])
                assert np.array_equal(batch, alone), (dims, measured, rows)


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
            value = apparatus_negativity(state, plan)
            assert abs(value - plan_negativity(state, plan)) <= 1e-12, (dims, measured, rank)

    @pytest.mark.parametrize("d", [2, 3])
    def test_eigenbasis_reads_exactly_zero(self, d):
        # the eigenvectors of a random state leave off-diagonal blocks of
        # rounding size, which the clamp maps to 0.0 as negativity() does
        state = random_mixed(Register(("S",), (d,)), rank=d, seed=d)
        plan = MeasurementPlan(("S",), (LocalBasis("S", np.linalg.eigh(state.rho)[1]),))
        raw = _Workspace(state, ("S",)).negativity_at([np.conj(plan.bases[0].vectors).T[None]])
        assert 0.0 < raw[0] < CLAMP
        assert apparatus_negativity(state, plan) == 0.0
        assert plan_negativity(state, plan) == 0.0

    def test_classical_side_reads_exactly_zero(self):
        assert apparatus_negativity(cc_state(), MeasurementPlan(
            ("A", "B"), (computational_basis("A", 2), computational_basis("B", 2))
        )) == 0.0

    def test_checks_plan_against_register(self):
        state = random_mixed(Register(("A", "B"), (2, 3)), rank=2, seed=0)
        with pytest.raises(InvariantError, match="dimension"):
            apparatus_negativity(state, MeasurementPlan(("B",), (computational_basis("B", 2),)))
        with pytest.raises(InvariantError, match="not in register"):
            apparatus_negativity(state, MeasurementPlan(("C",), (computational_basis("C", 2),)))


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

    def assert_rows_match_scipy(self, fun, x0s, max_iter, adaptive):
        res = minimize(fun, x0s, max_iter=max_iter, xatol=1e-6, fatol=1e-8, adaptive=adaptive)
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

        # one row at a time, a batch of n points can only be a shrink
        shrinks = 0
        for x0 in x0s:
            sizes = []

            def recorded(x):
                sizes.append(len(x))
                return rippled_rosenbrock(x)

            minimize(recorded, x0[None], max_iter=300, xatol=1e-6, fatol=1e-8, adaptive=adaptive)
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


class TestOptimizeAgainstSerialScipy:
    """_optimize is the old serial loop of scipy runs, one per restart, then,
    when any restart converged, one more scipy run from the winner's point,
    kept if strictly lower."""

    def check_against_serial(self, ws, cfg):
        """Assert _optimize matches the serial reference; return whether a
        restart converged (so a polish ran) and whether it lowered the winner."""
        value, best_x, restart_values, converged = _optimize(ws.neg_objective, ws.param_len, cfg)
        # Gao-Han coefficients unless one qubit is measured
        adaptive = ws.param_len > 2
        refs = []
        for r in range(cfg.restarts):
            x0 = np.zeros(ws.param_len) if r == 0 else spawn_rng(cfg.seed, r).normal(size=ws.param_len)
            refs.append(scipy_nelder_mead(ws.neg_objective, x0, cfg.max_iter, adaptive, cfg.tol))
        best = min(range(len(refs)), key=lambda r: (refs[r].fun, r))
        expected = [float(ref.fun) for ref in refs]
        expected_x = refs[best].x
        polished = False
        assert converged == any(ref.success for ref in refs)
        if converged:
            polish = scipy_nelder_mead(ws.neg_objective, refs[best].x, cfg.max_iter, adaptive, cfg.tol)
            polished = bool(polish.fun < refs[best].fun)
            if polished:
                expected[best], expected_x = float(polish.fun), polish.x
        assert restart_values == tuple(expected)
        assert value == expected[best] == min(expected)
        assert np.array_equal(best_x, expected_x)
        return converged, polished

    @pytest.mark.parametrize("measured", [("A",), ("A", "B")])
    def test_matches_serial_restarts(self, measured):
        ws = _Workspace(random_mixed(default_register(2), rank=2, seed=21), measured)
        converged, polished = self.check_against_serial(ws, OptimizerConfig(restarts=4, seed=5))
        # restarts converge on both; the polish lowers only the Q^AB winner
        assert converged
        assert polished == (len(measured) == 2)

    def test_no_polish_without_a_converged_restart(self):
        ws = _Workspace(random_mixed(default_register(2), rank=2, seed=18), ("A", "B"))
        converged, _ = self.check_against_serial(ws, OptimizerConfig(restarts=4, seed=5))
        assert not converged

    def test_polish_lowers_a_winner_cut_at_max_iter(self):
        # restart 2 converges at 0.594; the winner, restart 1, stops at
        # max_iter at 0.585, and the polish from its point reaches 0.425
        ws = _Workspace(random_mixed(default_register(2), rank=2, seed=8), ("A", "B"))
        value, _, restart_values, converged = _optimize(
            ws.neg_objective, ws.param_len, OptimizerConfig(restarts=4, seed=5)
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
            x0s[r] = spawn_rng(seed, r).normal(size=n)
        return x0s

    def bowl(self, seed):
        # centred on the start of restart 67, which alone converges by
        # iteration 40 and wins: the winner and the only success lie in
        # the second chunk
        centre = self.starts(seed, 2)[67]
        return lambda x: ((x - centre) ** 2).sum(axis=1), 2, 40

    def workspace(self, seed):
        # restart 65 wins; restarts of both chunks converge
        ws = _Workspace(random_mixed(default_register(2), rank=2, seed=39), ("A",))
        return ws.neg_objective, ws.param_len, 80

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
        assert whole.success[:LOCKSTEP_ROWS].any() == (case == "workspace")

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
        with pytest.raises(InvariantError):
            q_negativity(bell_state(), (), FAST)
        with pytest.raises(InvariantError):
            q_negativity(bell_state(), ("Z",), FAST)

    def test_duplicate_measured_rejected_before_optimizing(self, monkeypatch):
        def never(*args):
            raise AssertionError("objective evaluated")

        monkeypatch.setattr(_Workspace, "neg_objective", never)
        monkeypatch.setattr(_Workspace, "deficit_objective", never)
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


PAULI = (
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]]),
    np.array([[1, 0], [0, -1]], dtype=complex),
)


class TestBellDiagonalClosedForm:
    """Bell-diagonal states (I + sum_i c_i sigma_i (x) sigma_i)/4, seen in
    random local frames, at the default optimizer settings.  Q_N^A is the
    middle |c_i|/2 and D^A = 1 + h((1 + max|c_i|)/2) - S(rho) (Nakano, Piani
    & Adesso, PRA 88, 012117, 2013)."""

    def states(self):
        # c of |Phi+>, |Phi->, |Psi+>, |Psi->; the mixture with weights p has
        # c = p @ bell_c and spectrum p
        bell_c = np.array([[1, -1, 1], [-1, 1, 1], [1, 1, -1], [-1, -1, -1]])
        rng = make_rng(9)
        for _ in range(4):
            p = rng.dirichlet(np.ones(4))
            c = p @ bell_c
            rho = (np.eye(4) + sum(ci * np.kron(s, s) for ci, s in zip(c, PAULI))) / 4
            u = np.kron(random_unitary(2, rng), random_unitary(2, rng))
            yield np.abs(c), p, LabeledState(default_register(2), u @ rho @ u.conj().T)

    def test_q_negativity_is_middle_correlation(self):
        for c, _, state in self.states():
            report = q_negativity(state, ("A",))
            assert report.value == pytest.approx(np.sort(c)[1] / 2, abs=1e-6)

    def test_one_way_deficit(self):
        def entropy(probs):
            probs = probs[probs > 0]
            return float(-(probs * np.log2(probs)).sum())

        for c, p, state in self.states():
            half = (1 + c.max()) / 2
            expected = 1 + entropy(np.array([half, 1 - half])) - entropy(p)
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
