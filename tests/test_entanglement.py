import numpy as np
import pytest

from dense_oracles import cut_purities, dense_negativity, partial_trace
from qcorr import entanglement, linalg
from qcorr.chain import ChainConfig, LinkSpec, chain_gme_propagation, run_chain
from qcorr.entanglement import (
    BipartitionCut,
    all_cuts,
    cut_from_labels,
    e_min_max,
    entropy_of_entanglement,
    log_negativity,
    negativity,
    pure_gme_test,
)
from qcorr.errors import InvariantError
from qcorr.states import (
    LabeledState,
    Register,
    bell_state,
    default_register,
    ghz_state,
    make_rng,
    pure_state,
    random_mixed,
    random_basis,
    random_pure,
    random_unitary,
    w_state,
    werner_state,
)
from qcorr.suites import run_theorem3

AB = BipartitionCut((0,), (1,))


class TestCuts:
    def test_canonicalization(self):
        cut = BipartitionCut((2, 1), (0, 3))
        assert cut.p0 == (0, 3)
        assert cut.p1 == (1, 2)

    def test_overlap_rejected(self):
        with pytest.raises(InvariantError):
            BipartitionCut((0, 1), (1, 2))

    def test_empty_block_rejected(self):
        with pytest.raises(InvariantError):
            BipartitionCut((0, 1), ())

    def test_validate_coverage(self):
        with pytest.raises(InvariantError):
            BipartitionCut((0,), (1,)).validate(3)

    def test_all_cuts_count(self):
        assert len(all_cuts(2)) == 1
        assert len(all_cuts(3)) == 3
        assert len(all_cuts(4)) == 7
        for n in (0, 1, 9):
            with pytest.raises(InvariantError):
                all_cuts(n)

    @pytest.mark.parametrize("n", range(2, 9))
    def test_all_cuts_order_and_cache(self, n):
        # the enumeration by mask over p1, sorted by key, built once per n
        expected = []
        for mask in range(1, 2 ** (n - 1)):
            p1 = tuple(i for i in range(1, n) if mask & (1 << (i - 1)))
            expected.append(BipartitionCut(tuple(i for i in range(n) if i not in p1), p1))
        expected.sort(key=BipartitionCut.key)
        cuts = all_cuts(n)
        assert isinstance(cuts, tuple)
        assert [c.key() for c in cuts] == [c.key() for c in expected]
        assert all_cuts(n) is cuts

    def test_cut_from_labels(self):
        reg = Register(("A", "B", "C"), (2, 2, 2))
        cut = cut_from_labels(reg, "A,C:B")
        assert cut.p0 == (0, 2)
        assert cut.p1 == (1,)
        with pytest.raises(InvariantError):
            cut_from_labels(reg, "A:B")  # C not covered
        with pytest.raises(InvariantError):
            cut_from_labels(reg, "A:B:C")


class TestNegativity:
    def test_bell(self):
        assert negativity(bell_state(), AB) == pytest.approx(0.5, abs=1e-12)

    def test_product(self):
        rho = np.kron(np.diag([0.8, 0.2]), np.diag([0.5, 0.5]))
        state = LabeledState(default_register(2), rho)
        assert negativity(state, AB) == 0.0

    def test_werner_closed_form(self):
        # negativity of the singlet-fraction form is max(0, (3p-1)/4)
        for p in (0.0, 0.2, 1 / 3, 0.5, 2 / 3, 1.0):
            expected = max(0.0, (3 * p - 1) / 4)
            assert negativity(werner_state(p), AB) == pytest.approx(expected, abs=1e-12)

    def test_pure_state_formula(self):
        # for |psi> = cos t |00> + sin t |11>, N = cos t sin t
        t = 0.61
        psi = np.array([np.cos(t), 0, 0, np.sin(t)])
        state = pure_state(psi, default_register(2))
        assert negativity(state, AB) == pytest.approx(np.cos(t) * np.sin(t), abs=1e-12)

    def test_local_unitary_invariance(self):
        state = random_mixed(default_register(2), rank=2, seed=1)
        rng = make_rng(2)
        u = np.kron(random_unitary(2, rng), random_unitary(2, rng))
        rotated = LabeledState(state.register, u @ state.rho @ u.conj().T)
        assert abs(negativity(state, AB) - negativity(rotated, AB)) <= 1e-11

    def test_convexity(self):
        a = random_mixed(default_register(2), rank=1, seed=3)
        b = random_mixed(default_register(2), rank=1, seed=4)
        mix = LabeledState(default_register(2), 0.5 * a.rho + 0.5 * b.rho)
        assert negativity(mix, AB) <= 0.5 * negativity(a, AB) + 0.5 * negativity(b, AB) + 1e-10


class TestLogNegativity:
    def test_bell(self):
        assert log_negativity(bell_state(), AB) == pytest.approx(1.0, abs=1e-12)

    def test_ppt_gives_zero(self):
        assert log_negativity(werner_state(1 / 3), AB) == 0.0

    def test_monotone_function_of_negativity(self):
        state = random_mixed(default_register(2), rank=2, seed=5)
        n = negativity(state, AB)
        assert log_negativity(state, AB) == pytest.approx(np.log2(2 * n + 1), abs=1e-12)


class TestEntropyOfEntanglement:
    def test_bell(self):
        assert entropy_of_entanglement(bell_state(), AB) == pytest.approx(1.0, abs=1e-12)

    def test_w_state_cut(self):
        # one-qubit marginal of W_3 is diag(2/3, 1/3)
        cut = BipartitionCut((1, 2), (0,))
        expected = -(2 / 3) * np.log2(2 / 3) - (1 / 3) * np.log2(1 / 3)
        assert entropy_of_entanglement(w_state(3), cut) == pytest.approx(expected, abs=1e-12)

    def test_rejects_mixed(self):
        with pytest.raises(InvariantError):
            entropy_of_entanglement(werner_state(0.5), AB)


class TestMinMax:
    def test_ghz(self):
        emin, emax, cmin, cmax = e_min_max(ghz_state(3))
        assert emin == pytest.approx(0.5, abs=1e-10)
        assert emax == pytest.approx(0.5, abs=1e-10)

    def test_bell_times_pure(self):
        # Bell pair on (A,B) with a product qubit C: the A,B:C cut is zero
        psi = np.kron(np.array([1, 0, 0, 1]) / np.sqrt(2), np.array([1.0, 0.0]))
        state = pure_state(psi, default_register(3))
        emin, emax, cmin, cmax = e_min_max(state)
        assert emin == 0.0
        assert cmin.p1 == (2,)
        assert emax == pytest.approx(0.5, abs=1e-10)

    def test_tie_breaks_on_first_canonical_cut(self):
        emin, emax, cmin, cmax = e_min_max(ghz_state(3))
        cuts = all_cuts(3)
        assert cmin == cuts[0]
        assert cmax == cuts[0]

    def test_rejects_one_subsystem(self):
        with pytest.raises(InvariantError):
            e_min_max(random_mixed(default_register(1), rank=1, seed=2))


class TestGme:
    def test_ghz_and_w_are_gme(self):
        assert pure_gme_test(ghz_state(3))["gme"] is True
        assert pure_gme_test(w_state(4))["gme"] is True

    def test_biseparable_witnessed(self):
        psi = np.kron(np.array([1, 0, 0, 1]) / np.sqrt(2), np.array([1.0, 0.0]))
        state = pure_state(psi, default_register(3))
        out = pure_gme_test(state)
        assert out["gme"] is False
        assert out["witness"].p1 == (2,)

    def test_rejects_mixed(self):
        with pytest.raises(InvariantError):
            pure_gme_test(random_mixed(default_register(3), rank=2, seed=6))

    def test_rejects_one_subsystem(self):
        # a single subsystem has no bipartition, so GME is undefined
        with pytest.raises(InvariantError):
            pure_gme_test(random_pure(default_register(1), seed=3))


def test_negativity_zero_for_all_separable_cq_states():
    # classical-quantum states built from any ensemble are PPT across A:B
    from qcorr.states import classical_quantum_state, random_basis

    rng = make_rng(7)
    for trial in range(20):
        basis = random_basis("A", 2, rng)
        probs = rng.dirichlet([1.0, 1.0])
        conds = []
        for _ in range(2):
            g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            c = g @ g.conj().T
            conds.append(c / np.trace(c))
        state = classical_quantum_state(probs, basis, conds)
        assert negativity(state, AB) == 0.0


# ---------------------------------------------------------------------------
# Pure inputs are read off their Schmidt coefficients, and the pure-state
# measures off a factor of rho; the dense partial transpose and partial trace
# of rho are the oracle.
# ---------------------------------------------------------------------------

def dense_reduced(state, cut):
    return partial_trace(state.rho, state.dims, cut.p0)


def dense_gme(state):
    """``pure_gme_test`` off the dense reduced purities."""
    for cut, p in zip(all_cuts(state.register.n), cut_purities(state)):
        if p >= 1.0 - entanglement._GME_TOL:
            return {"gme": False, "witness": cut}
    return {"gme": True, "witness": None}


def force_dense(monkeypatch):
    """Fail every state's purity guard: negativity goes dense, the factor through eigh."""
    monkeypatch.setattr(entanglement, "_pure_vector", lambda rho: None)


def pure_chain_final_state(links=7, seed=0):
    """Final state of a one-qubit pure chain whose links measure the previous apparatus."""
    rng = make_rng(seed)
    target, specs = "A", []
    for _ in range(links):
        specs.append(LinkSpec(target, random_basis(target, 2, rng)))
        target = "M:" + target
    initial = random_pure(Register(("A",), (2,)), seed + 1)
    return run_chain(ChainConfig(initial, tuple(specs))).final_state


PURE_PANEL = {
    **{f"random-{n}q": (lambda n=n: random_pure(default_register(n), 40 + n)) for n in range(2, 9)},
    "random-333": lambda: random_pure(Register(("A", "B", "C"), (3, 3, 3)), 51),
    "random-234": lambda: random_pure(Register(("A", "B", "C"), (2, 3, 4)), 52),
    "ghz-5": lambda: ghz_state(5),
    "ghz-3-qutrits": lambda: ghz_state(3, 3),
    "w-6": lambda: w_state(6),
    "chain-7-links": pure_chain_final_state,
}


class TestPureVectorPath:
    @pytest.mark.parametrize("name", sorted(PURE_PANEL))
    def test_every_cut_matches_dense_oracle(self, name):
        state = PURE_PANEL[name]()
        psi = entanglement._pure_vector(state.rho)
        assert psi is not None
        for cut, purity in zip(all_cuts(state.register.n), cut_purities(state)):
            reduced = dense_reduced(state, cut)
            assert abs(negativity(state, cut) - dense_negativity(state, cut)) <= 1e-12
            assert abs(entropy_of_entanglement(state, cut)
                       - linalg.von_neumann_entropy(reduced)) <= 1e-12
            s = entanglement._schmidt(psi, state.dims, cut)
            assert abs(np.sum(s**4) - purity) <= 1e-12
        assert pure_gme_test(state) == dense_gme(state)

    @pytest.mark.parametrize("make", [
        lambda: random_mixed(default_register(3), rank=2, seed=8),
        lambda: random_mixed(Register(("A", "B"), (2, 3)), rank=3, seed=9),
        lambda: werner_state(0.9),
    ])
    def test_mixed_states_take_dense_path(self, make):
        state = make()
        assert entanglement._pure_vector(state.rho) is None
        for cut in all_cuts(state.register.n):
            assert negativity(state, cut) == dense_negativity(state, cut)

    def test_nearly_pure_state_takes_dense_path(self):
        # (1 - eps) psi psi^dag + eps I/D passes is_pure but not the 1e-13 guard
        eps, pure = 1e-10, random_pure(default_register(4), 61)
        rho = (1 - eps) * pure.rho + eps * np.eye(16) / 16
        state = LabeledState(pure.register, rho)
        assert state.is_pure()
        assert entanglement._pure_vector(state.rho) is None
        for cut in all_cuts(4):
            assert negativity(state, cut) == dense_negativity(state, cut)
            assert abs(entropy_of_entanglement(state, cut)
                       - linalg.von_neumann_entropy(dense_reduced(state, cut))) <= 1e-12
        assert pure_gme_test(state) == dense_gme(state)
        assert pure_gme_test(state)["gme"] is True

    def test_negative_part_is_dropped(self):
        # (1 + eps) psi psi^dag - eps q q^dag with q orthogonal to psi passes
        # check_density and is_pure; the factor keeps psi, renormalized
        eps, pure = 5e-11, random_pure(Register(("A", "B"), (2, 2)), 5)
        _, v = np.linalg.eigh(pure.rho)
        rho = (1 + eps) * pure.rho - eps * np.outer(v[:, 0], v[:, 0].conj())
        state = LabeledState(pure.register, rho)
        assert state.is_pure()
        f = entanglement._factor(state.rho)
        assert abs(np.vdot(f, f).real - 1.0) <= 1e-14
        assert pure_gme_test(state) == dense_gme(state)
        assert abs(entropy_of_entanglement(state, AB) - entropy_of_entanglement(pure, AB)) <= 1e-12

    def test_factor_has_the_rank_not_the_rounding_noise(self):
        # the eigenvalues past the rank are rounding noise; dropping at most
        # 1e-13 of eigenvalue mass leaves the rank's columns alone
        rho = random_mixed(default_register(7), 2, seed=4).rho
        f = entanglement._factor(rho)
        assert f.shape == (128, 2)
        assert np.max(np.abs(f @ linalg.dagger(f) - rho)) <= 1e-14

    def test_pure_seven_qubits_take_no_dense_spectrum(self, monkeypatch):
        state = random_pure(default_register(7), 71)

        def refuse(*args, **kwargs):
            raise AssertionError("dense eigvalsh on a pure input")

        monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
        emin, emax, _, _ = e_min_max(state)
        assert 0.0 < emin <= emax
        assert pure_gme_test(state)["gme"] is True

    @pytest.mark.parametrize("make", [
        lambda: ghz_state(3),
        lambda: w_state(5),
        lambda: pure_state(np.kron(np.array([1, 0, 0, 1]) / np.sqrt(2), [1.0, 0.0]),
                           default_register(3)),
        lambda: chain_gme_propagation(w_state(3), 4, seed=3)["final_state"],
        lambda: chain_gme_propagation(ghz_state(3), 3, seed=4)["final_state"],
        lambda: random_pure(default_register(5), 81),
    ])
    def test_gme_verdicts_match_dense_path(self, make, monkeypatch):
        state = make()
        fast = pure_gme_test(state)
        assert fast == dense_gme(state)
        force_dense(monkeypatch)
        assert pure_gme_test(state) == fast

    def test_theorem3_verdicts_match_dense_path(self, monkeypatch):
        fast = run_theorem3(samples=1, seed=17)
        force_dense(monkeypatch)
        assert run_theorem3(samples=1, seed=17).trials == fast.trials
        assert fast.ok


@pytest.mark.parametrize("path", ["vector", "dense"])
@pytest.mark.parametrize("n", range(3, 9))
def test_min_max_ties_go_to_first_canonical_cut(n, path, monkeypatch):
    if path == "dense":
        force_dense(monkeypatch)
    cuts = all_cuts(n)
    # GHZ_n: every cut reads 1/2.  W_n across k : n - k subsystems reads
    # sqrt(k (n - k))/n, so the exact ties are the cuts with equal min(k, n - k).
    emin, emax, cmin, cmax = e_min_max(ghz_state(n))
    assert (cmin, cmax) == (cuts[0], cuts[0])
    sizes = [min(len(c.p0), len(c.p1)) for c in cuts]
    emin, emax, cmin, cmax = e_min_max(w_state(n))
    assert cmin == cuts[sizes.index(min(sizes))]
    assert cmax == cuts[sizes.index(max(sizes))]
    assert emin == pytest.approx(np.sqrt(n - 1) / n, abs=1e-12)
    assert emax == pytest.approx(np.sqrt(max(sizes) * (n - max(sizes))) / n, abs=1e-12)


# ---------------------------------------------------------------------------
# Readers of every cut take the factor as stacks of cuts of one shape:
# e_min_max one SVD per stack, with the bits of the per-cut SVD, and the GME
# test the Gram purities, with no SVD.
# ---------------------------------------------------------------------------

def stacked_schmidt(dims, f):
    """The singular values of every cut of ``all_cuts``, in that order, off the stacks."""
    values = [None] * len(all_cuts(len(dims)))
    for pos, m in entanglement._cut_stacks(dims, f):
        for i, s in zip(pos, np.linalg.svd(m, compute_uv=False)):
            values[i] = s
    return values


def random_factor(dims, r, seed):
    rng = make_rng(seed)
    size = int(np.prod(dims))
    f = rng.normal(size=(size, r)) + 1j * rng.normal(size=(size, r))
    return f / np.linalg.norm(f)


def count_calls(monkeypatch, name):
    """Count the calls to ``np.linalg.<name>`` from here on."""
    calls, real = [], getattr(np.linalg, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return real(*args, **kwargs)

    monkeypatch.setattr(np.linalg, name, counted)
    return calls


def product_panel():
    """Pure states with product cuts, not all of them first in ``all_cuts`` order."""
    bell, zero = np.array([1, 0, 0, 1]) / np.sqrt(2), np.array([1.0, 0.0])
    ghz3 = np.zeros(8)
    ghz3[[0, 7]] = 1 / np.sqrt(2)
    return {
        "bell-x-bell": pure_state(np.kron(bell, bell), default_register(4)),
        "zero-x-ghz3": pure_state(np.kron(zero, ghz3), default_register(4)),
        "ghz3-x-zero": pure_state(np.kron(ghz3, zero), default_register(4)),
        "bell-x-zero-x-zero": pure_state(np.kron(np.kron(bell, zero), zero), default_register(4)),
        "product": pure_state(np.kron(np.kron(zero, zero), np.kron(zero, zero)), default_register(4)),
    }


class TestCutStacks:
    @pytest.mark.parametrize("name", sorted(PURE_PANEL))
    def test_stacked_svd_is_bit_identical_on_pure_panel(self, name):
        state = PURE_PANEL[name]()
        psi = entanglement._pure_vector(state.rho)
        stacked = stacked_schmidt(state.dims, psi)
        for cut, s in zip(all_cuts(state.register.n), stacked):
            assert np.array_equal(s, entanglement._schmidt(psi, state.dims, cut))

    @pytest.mark.parametrize("r", [1, 2, 5])
    @pytest.mark.parametrize("dims", [(2,) * n for n in range(2, 9)] + [(2, 3, 4), (3, 3, 3)])
    def test_stacked_svd_is_bit_identical_on_random_factors(self, dims, r):
        f = random_factor(dims, r, seed=len(dims) + 10 * r)
        stacked = stacked_schmidt(dims, f)
        for cut, s in zip(all_cuts(len(dims)), stacked):
            assert np.array_equal(s, entanglement._schmidt(f, dims, cut))

    @pytest.mark.parametrize("name", sorted(PURE_PANEL))
    def test_e_min_max_equals_per_cut_negativity(self, name):
        state = PURE_PANEL[name]()
        cuts = all_cuts(state.register.n)
        values = [negativity(state, cut) for cut in cuts]
        emin, emax, cmin, cmax = e_min_max(state)
        assert (emin, emax) == (min(values), max(values))
        assert cmin == next(c for c, v in zip(cuts, values) if v <= emin + linalg.TOL_STRUCT)
        assert cmax == next(c for c, v in zip(cuts, values) if v >= emax - linalg.TOL_STRUCT)

    def test_stacks_hold_at_most_rho_entries(self):
        # r = 256 columns: every shape is split into stacks of one cut
        dims = (2,) * 8
        f = random_factor(dims, 256, seed=3)
        seen = []
        for pos, m in entanglement._cut_stacks(dims, f):
            assert m.size <= 256**2
            seen.extend(pos)
        assert sorted(seen) == list(range(len(all_cuts(8))))


class TestGramPurities:
    @pytest.mark.parametrize("name", sorted(PURE_PANEL))
    def test_match_dense_purities(self, name):
        state = PURE_PANEL[name]()
        purity = entanglement._purities(state.dims, entanglement._factor(state.rho))
        assert np.max(np.abs(purity - cut_purities(state))) <= 1e-12

    @pytest.mark.parametrize("name", sorted(product_panel()))
    def test_witness_is_first_product_cut(self, name):
        state = product_panel()[name]
        verdict = pure_gme_test(state)
        assert verdict == dense_gme(state)
        assert verdict["gme"] is False

    def test_witnesses_of_several_product_cuts(self):
        panel = product_panel()
        cuts = all_cuts(4)
        assert pure_gme_test(panel["product"])["witness"] == cuts[0]
        assert pure_gme_test(panel["bell-x-bell"])["witness"] == BipartitionCut((0, 1), (2, 3))
        # Bell on AB, C and D in |0>: AB:CD comes before ABC:D and ABD:C
        assert pure_gme_test(panel["bell-x-zero-x-zero"])["witness"] == BipartitionCut((0, 1), (2, 3))

    def test_chunked_wide_factor_matches_dense(self):
        # (1 - eps) psi psi^dag + eps I/256: a full-rank factor of 256 columns
        eps, pure = 1e-10, random_pure(default_register(8), 91)
        state = LabeledState(pure.register, (1 - eps) * pure.rho + eps * np.eye(256) / 256)
        assert entanglement._factor(state.rho).shape == (256, 256)
        assert pure_gme_test(state) == dense_gme(state)


class TestCallCounts:
    def test_e_min_max_takes_one_svd_per_cut_shape(self, monkeypatch):
        state = random_pure(default_register(7), 71)
        calls = count_calls(monkeypatch, "svd")
        e_min_max(state)
        assert len(calls) <= 6

    def test_pure_gme_test_takes_no_svd_or_spectrum(self, monkeypatch):
        state = random_pure(default_register(7), 71)
        calls = [count_calls(monkeypatch, "svd"), count_calls(monkeypatch, "eigvalsh")]
        assert pure_gme_test(state)["gme"] is True
        assert calls == [[], []]

    def test_gme_propagation_takes_no_svd_or_spectrum(self, monkeypatch):
        ghz = ghz_state(3)
        calls = [count_calls(monkeypatch, "svd"), count_calls(monkeypatch, "eigvalsh")]
        flags = chain_gme_propagation(ghz, 5, seed=2)["per_step"]
        assert all(step["gme"] for step in flags)
        assert calls == [[], []]
