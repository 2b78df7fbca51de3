import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcorr import linalg
from qcorr.errors import InvariantError

I2 = np.eye(2)


def random_density(rng, d, rank=None):
    rank = rank or d
    g = rng.normal(size=(d, rank)) + 1j * rng.normal(size=(d, rank))
    rho = g @ g.conj().T
    return rho / np.trace(rho)


def random_unitary(rng, d):
    q, r = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


class TestCheckDensity:
    @pytest.mark.parametrize("entry", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", [(0, 0), (0, 1)])
    def test_refuses_non_finite_entry(self, entry, where):
        rho = np.eye(2, dtype=complex) / 2
        rho[where] = rho[where[::-1]] = entry
        with pytest.raises(InvariantError):
            linalg.check_density(rho)


class TestPartialTrace:
    def test_product_state(self):
        rng = np.random.default_rng(0)
        rho_a = random_density(rng, 2)
        rho_b = random_density(rng, 3)
        out = linalg.partial_trace(np.kron(rho_a, rho_b), [2, 3], keep=[0])
        assert np.max(np.abs(out - rho_a)) <= 1e-13

    def test_bell_reduction(self):
        psi = np.array([1, 0, 0, 1]) / np.sqrt(2)
        rho = np.outer(psi, psi)
        out = linalg.partial_trace(rho, [2, 2], keep=[0])
        assert np.allclose(out, I2 / 2, atol=1e-14)

    def test_against_index_sum_oracle(self):
        # brute-force loop over indices for a random three-qubit pure state
        rng = np.random.default_rng(5)
        psi = rng.normal(size=8) + 1j * rng.normal(size=8)
        psi /= np.linalg.norm(psi)
        rho = np.outer(psi, psi.conj())
        expected = np.zeros((4, 4), dtype=complex)
        t = psi.reshape(2, 2, 2)
        for a in range(2):
            for b in range(2):
                for ap in range(2):
                    for bp in range(2):
                        for c in range(2):
                            expected[2 * a + b, 2 * ap + bp] += (
                                t[a, b, c] * np.conj(t[ap, bp, c])
                            )
        out = linalg.partial_trace(rho, [2, 2, 2], keep=[0, 1])
        assert np.max(np.abs(out - expected)) <= 1e-13

    def test_empty_keep_rejected(self):
        with pytest.raises(InvariantError):
            linalg.partial_trace(np.eye(4) / 4, [2, 2], keep=[])

    def test_index_out_of_range(self):
        with pytest.raises(InvariantError):
            linalg.partial_trace(np.eye(4) / 4, [2, 2], keep=[2])


class TestPartialTranspose:
    def test_product_state_stays_psd(self):
        rng = np.random.default_rng(1)
        rho = np.kron(random_density(rng, 2), random_density(rng, 2))
        pt = linalg.partial_transpose(rho, [2, 2], [1])
        assert np.min(np.linalg.eigvalsh(pt)) >= -1e-12

    def test_bell_spectrum(self):
        psi = np.array([1, 0, 0, 1]) / np.sqrt(2)
        pt = linalg.partial_transpose(np.outer(psi, psi), [2, 2], [1])
        assert np.allclose(np.linalg.eigvalsh(pt), [-0.5, 0.5, 0.5, 0.5])

    def test_involution_is_exact(self):
        rng = np.random.default_rng(2)
        rho = random_density(rng, 8)
        twice = linalg.partial_transpose(
            linalg.partial_transpose(rho, [2, 2, 2], [1, 2]), [2, 2, 2], [1, 2]
        )
        assert np.array_equal(twice, rho)

    def test_preserves_trace_and_hermiticity(self):
        rng = np.random.default_rng(3)
        rho = random_density(rng, 6)
        pt = linalg.partial_transpose(rho, [2, 3], [0])
        assert abs(np.trace(pt) - 1) < 1e-14
        assert np.max(np.abs(pt - pt.conj().T)) <= 1e-14


class TestTraceNorm:
    """The trace norm of X, read as twice the trace distance from X to zero."""

    def test_density_operator(self):
        rng = np.random.default_rng(6)
        rho = random_density(rng, 5)
        assert linalg.trace_distance(rho, np.zeros_like(rho)) == pytest.approx(0.5, abs=1e-10)

    def test_bell_partial_transpose(self):
        psi = np.array([1, 0, 0, 1]) / np.sqrt(2)
        pt = linalg.partial_transpose(np.outer(psi, psi), [2, 2], [1])
        assert linalg.trace_distance(pt, np.zeros_like(pt)) == pytest.approx(1.0, abs=1e-12)

    def test_zero(self):
        assert linalg.trace_distance(np.zeros((3, 3)), np.zeros((3, 3))) == 0.0


class TestEntropy:
    def test_pure(self):
        assert linalg.von_neumann_entropy(np.diag([1.0, 0.0])) == 0.0

    def test_maximally_mixed_qubit(self):
        assert linalg.von_neumann_entropy(I2 / 2) == pytest.approx(1.0, abs=1e-12)

    def test_known_value(self):
        # -(3/4 log2 3/4 + 1/4 log2 1/4)
        out = linalg.von_neumann_entropy(np.diag([0.75, 0.25]))
        assert out == pytest.approx(0.8112781244591328, abs=1e-12)

    def test_unitary_invariance(self):
        rng = np.random.default_rng(7)
        rho = random_density(rng, 4, rank=3)
        u = random_unitary(rng, 4)
        s1 = linalg.von_neumann_entropy(rho)
        s2 = linalg.von_neumann_entropy(u @ rho @ u.conj().T)
        assert abs(s1 - s2) <= 1e-9


class TestTraceDistance:
    def test_self(self):
        rng = np.random.default_rng(8)
        rho = random_density(rng, 4)
        assert linalg.trace_distance(rho, rho) == 0.0

    def test_orthogonal_pure(self):
        assert linalg.trace_distance(np.diag([1.0, 0]), np.diag([0, 1.0])) == pytest.approx(1.0)

    def test_zero_vs_plus(self):
        plus = np.full((2, 2), 0.5)
        out = linalg.trace_distance(np.diag([1.0, 0.0]), plus)
        assert out == pytest.approx(1 / np.sqrt(2), abs=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(InvariantError):
            linalg.trace_distance(np.eye(2) / 2, np.eye(3) / 3)

    def test_rejects_non_hermitian(self):
        with pytest.raises(InvariantError, match="not Hermitian"):
            linalg.trace_distance(np.array([[0.0, 1.0], [0.0, 0.0]]), np.zeros((2, 2)))

    @pytest.mark.parametrize("entry", [np.nan, np.inf])
    def test_rejects_non_finite_entry(self, entry):
        with pytest.raises(InvariantError, match="not Hermitian"):
            linalg.trace_distance(np.full((2, 2), entry), np.eye(2) / 2)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_spectrum_invariant_under_conjugation(seed):
    rng = np.random.default_rng(seed)
    rho = random_density(rng, 4, rank=rng.integers(1, 5))
    u = random_unitary(rng, 4)
    w1 = np.linalg.eigvalsh(rho)
    w2 = np.linalg.eigvalsh(u @ rho @ u.conj().T)
    assert np.max(np.abs(w1 - w2)) <= 1e-10


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_partial_trace_of_product_recovers_factor(seed):
    rng = np.random.default_rng(seed)
    rho_a = random_density(rng, 2)
    rho_b = random_density(rng, 3)
    out = linalg.partial_trace(np.kron(rho_a, rho_b), [2, 3], keep=[0])
    assert np.max(np.abs(out - rho_a)) <= 1e-13
