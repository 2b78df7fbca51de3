"""Hand-computed cases for the benchmark's own oracles.

Run with ``python3 -m pytest bench``.  Nothing here imports qcorr.
"""

import numpy as np
import pytest

import oracles

BELL = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
BELL_RHO = np.outer(BELL, BELL.conj())
EYE2 = np.eye(2, dtype=complex)


def werner(p):
    singlet = np.array([0, 1, -1, 0], dtype=complex) / np.sqrt(2)
    return p * np.outer(singlet, singlet.conj()) + (1 - p) * np.eye(4) / 4


def bell_diagonal(c):
    """(I + sum_i c_i sigma_i (x) sigma_i) / 4."""
    rho = np.eye(4, dtype=complex)
    for ci, s in zip(c, oracles.PAULI):
        rho = rho + ci * np.kron(s, s)
    return rho / 4.0


def haar_unitary(d, rng):
    q, r = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def test_isometry_maps_basis_vectors_to_records():
    u = haar_unitary(3, np.random.default_rng(1))
    v = oracles.isometry(u)
    assert np.allclose(v.conj().T @ v, np.eye(3), atol=1e-14)
    for i in range(3):
        assert np.allclose(v @ u[:, i], np.kron(u[:, i], np.eye(3)[i]), atol=1e-14)


def test_bell_state_values():
    assert oracles.negativity(BELL_RHO, (2, 2), [1]) == pytest.approx(0.5, abs=1e-14)
    assert oracles.pure_negativity(BELL, 2) == pytest.approx(0.5, abs=1e-14)
    assert oracles.pure_entanglement_entropy(BELL, 2) == pytest.approx(1.0, abs=1e-14)
    assert oracles.bell_diagonal_q_negativity(BELL_RHO) == pytest.approx(0.5, abs=1e-14)
    assert oracles.bell_diagonal_deficit(BELL_RHO) == pytest.approx(1.0, abs=1e-12)
    # measuring A in the computational basis gives the GHZ-like state
    assert oracles.q_negativity_at(BELL_RHO, (2, 2), [0], [EYE2]) == pytest.approx(0.5, abs=1e-14)
    assert oracles.deficit_at(BELL_RHO, (2, 2), [0], [EYE2]) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("p", [0.0, 0.2, 1 / 3, 0.5, 0.8, 1.0])
def test_werner_negativity(p):
    expect = max(0.0, (3 * p - 1) / 4)
    assert oracles.negativity(werner(p), (2, 2), [1]) == pytest.approx(expect, abs=1e-14)
    assert oracles.negativity(werner(p), (2, 2), [0]) == pytest.approx(expect, abs=1e-14)


@pytest.mark.parametrize("p", [0.2, 0.5, 0.9])
def test_werner_is_bell_diagonal(p):
    c = (-p, -p, -p)
    assert np.allclose(bell_diagonal(c), werner(p), atol=1e-15)
    assert oracles.bell_diagonal_q_negativity(werner(p)) == pytest.approx(p / 2, abs=1e-14)


def test_classical_quantum_state_gives_zero():
    rng = np.random.default_rng(7)
    u = haar_unitary(2, rng)
    conds = []
    for _ in range(2):
        g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        conds.append(g @ g.conj().T / np.trace(g @ g.conj().T))
    rho = sum(p * np.kron(np.outer(u[:, i], u[:, i].conj()), c)
              for i, (p, c) in enumerate(zip((0.3, 0.7), conds)))
    assert oracles.q_negativity_at(rho, (2, 2), [0], [u]) == pytest.approx(0.0, abs=1e-14)
    assert oracles.deficit_at(rho, (2, 2), [0], [u]) == pytest.approx(0.0, abs=1e-12)
    assert np.allclose(oracles.pinch(rho, (2, 2), [0], [u]), rho, atol=1e-14)


def test_local_unitaries_keep_bell_diagonal_closed_forms():
    rng = np.random.default_rng(3)
    rho = bell_diagonal((0.5, -0.3, 0.1))
    g = np.kron(haar_unitary(2, rng), haar_unitary(2, rng))
    turned = g @ rho @ g.conj().T
    assert oracles.bell_diagonal_q_negativity(turned) == pytest.approx(0.15, abs=1e-14)
    assert oracles.bell_diagonal_deficit(turned) == pytest.approx(
        oracles.bell_diagonal_deficit(rho), abs=1e-12)


def test_premeasured_appends_apparatus_in_measurement_order():
    # |0>_A |+>_B |1>_C measured on C then A in computational bases: the
    # records are |1>_{M:C} |0>_{M:A}
    plus = np.array([1, 1]) / np.sqrt(2)
    psi = np.kron(np.kron([1, 0], plus), [0, 1]).astype(complex)
    rho = np.outer(psi, psi.conj())
    pm, dims, n_sys = oracles.premeasured(rho, (2, 2, 2), [2, 0], [EYE2, EYE2])
    expect = np.kron(np.kron(psi, [0, 1]), [1, 0])
    assert dims == [2, 2, 2, 2, 2] and n_sys == 3
    assert np.allclose(pm, np.outer(expect, expect.conj()), atol=1e-15)


def test_pure_state_quantumness_lower_bounds_hold_for_any_basis():
    rng = np.random.default_rng(11)
    psi = rng.normal(size=9) + 1j * rng.normal(size=9)
    psi /= np.linalg.norm(psi)
    rho = np.outer(psi, psi.conj())
    u = haar_unitary(3, rng)
    assert oracles.q_negativity_at(rho, (3, 3), [0], [u]) >= oracles.pure_negativity(psi, 3) - 1e-12
    assert oracles.deficit_at(rho, (3, 3), [0], [u]) >= oracles.pure_entanglement_entropy(psi, 3) - 1e-12
    # and the Schmidt basis attains them
    a_basis = np.linalg.svd(psi.reshape(3, 3))[0]
    assert oracles.q_negativity_at(rho, (3, 3), [0], [a_basis]) == pytest.approx(
        oracles.pure_negativity(psi, 3), abs=1e-12)


def test_trace_distance():
    assert oracles.trace_distance(BELL_RHO, np.eye(4) / 4) == pytest.approx(0.75, abs=1e-14)
