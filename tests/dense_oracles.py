"""Dense oracles the library no longer needs and the benchmark's ``oracles``
lacks: the partial trace of a whole density matrix, ``cut_purities``, the
reduced purity of every cut off that partial trace, and ``dense_negativity``,
the benchmark's partial-transpose negativity with the library's clamp.

Every other dense reference the tests use (isometry, pre-measurement,
pinching, partial-transpose spectra, Bell-diagonal closed forms) comes from
``bench/oracles.py``, which imports only numpy.  This module is not named
``test_*.py``, so pytest does not collect it; ``TestPartialTrace`` runs where
``test_linalg`` imports it.
"""

import math

import numpy as np
import pytest

import oracles
from qcorr.entanglement import CLAMP, all_cuts
from qcorr.errors import InvariantError


def partial_trace(rho, dims, keep):
    """Reduced operator on the subsystems in ``keep`` (indices into ``dims``)."""
    dims = list(dims)
    n = len(dims)
    keep = sorted(set(keep))
    if not keep:
        raise InvariantError("partial_trace: keep set is empty")
    if keep[0] < 0 or keep[-1] >= n:
        raise InvariantError(f"partial_trace: index out of range for {n} subsystems")
    t = np.asarray(rho).reshape(dims + dims)
    traced = [i for i in range(n) if i not in keep]
    for ax in sorted(traced, reverse=True):
        half = t.ndim // 2
        t = np.trace(t, axis1=ax, axis2=ax + half)
    d = math.prod(dims[i] for i in keep)
    return t.reshape(d, d)


def cut_purities(state):
    """Tr(rho_p0^2) of ``state`` across each cut of ``all_cuts``, in that order."""
    reduced = (partial_trace(state.rho, state.dims, cut.p0) for cut in all_cuts(state.register.n))
    return [float(np.vdot(r, r).real) for r in reduced]


def dense_negativity(state, cut):
    """``negativity(state, cut)`` off the spectrum of the partial transpose on ``cut.p1``."""
    value = oracles.negativity(state.rho, state.dims, cut.p1)
    return 0.0 if value < CLAMP else value


def _random_density(rng, d):
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = g @ g.conj().T
    return rho / np.trace(rho)


class TestPartialTrace:
    def test_product_state(self):
        rng = np.random.default_rng(0)
        rho_a = _random_density(rng, 2)
        rho_b = _random_density(rng, 3)
        out = partial_trace(np.kron(rho_a, rho_b), [2, 3], keep=[0])
        assert np.max(np.abs(out - rho_a)) <= 1e-13

    def test_bell_reduction(self):
        psi = np.array([1, 0, 0, 1]) / np.sqrt(2)
        rho = np.outer(psi, psi)
        out = partial_trace(rho, [2, 2], keep=[0])
        assert np.allclose(out, np.eye(2) / 2, atol=1e-14)

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
        out = partial_trace(rho, [2, 2, 2], keep=[0, 1])
        assert np.max(np.abs(out - expected)) <= 1e-13

    def test_empty_keep_rejected(self):
        with pytest.raises(InvariantError):
            partial_trace(np.eye(4) / 4, [2, 2], keep=[])

    def test_index_out_of_range(self):
        with pytest.raises(InvariantError):
            partial_trace(np.eye(4) / 4, [2, 2], keep=[2])
