import numpy as np
import pytest

from qcorr import linalg
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
    random_pure,
    random_unitary,
    w_state,
    werner_state,
)

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
