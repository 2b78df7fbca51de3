"""Dense complex linear algebra for Hermitian operators on tensor-product spaces.

Conventions: operators are square numpy arrays, row-major, with subsystem 0
the slowest-varying tensor index (standard Kronecker ordering).  Entropies
are in bits (base-2 logarithms).
"""

import math

import numpy as np

from .errors import InvariantError

# Tolerance ladder: exact-arithmetic-level structure, spectral positivity,
# iterative/reconstruction error.
TOL_STRUCT = 1e-12
TOL_PSD = 1e-10
TOL_RECON = 1e-9

# Eigenvalues below this are treated as exactly zero in entropies.
EIG_ZERO = 1e-12


def dagger(a):
    """Conjugate transpose."""
    return np.conj(a).T


def check_density(rho, dims=None):
    """Validate density-operator invariants; returns ``rho`` as a complex array.

    Checks Hermiticity and unit trace at 1e-12 and positivity of the
    spectrum at -1e-10, plus dimension consistency when ``dims`` is given.
    A NaN fails every test, so NaN or infinite entries are refused.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise InvariantError(f"density operator must be square, got shape {rho.shape}")
    if dims is not None:
        d = math.prod(dims)
        if rho.shape[0] != d:
            raise InvariantError(
                f"matrix dimension {rho.shape[0]} != product of subsystem dims {d}"
            )
    with np.errstate(invalid="ignore"):  # inf - inf is NaN, refused below
        herm = np.max(np.abs(rho - dagger(rho)))
    if not herm <= TOL_STRUCT:
        raise InvariantError(f"not Hermitian: max |rho - rho^dag| = {herm:.3e}")
    tr = np.trace(rho)
    if not abs(tr - 1.0) <= TOL_STRUCT:
        raise InvariantError(f"trace {tr} differs from 1 beyond tolerance")
    wmin = float(np.min(np.linalg.eigvalsh(rho)))
    if not wmin >= -TOL_PSD:
        raise InvariantError(f"not positive semidefinite: min eigenvalue {wmin:.3e}")
    return rho


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


def partial_transpose(rho, dims, subset):
    """Transpose the tensor indices of the subsystems in ``subset``.

    Pure entry permutation: applying it twice over the same subset returns
    the original matrix exactly.
    """
    dims = list(dims)
    n = len(dims)
    subset = sorted(set(subset))
    if subset and (subset[0] < 0 or subset[-1] >= n):
        raise InvariantError(f"partial_transpose: index out of range for {n} subsystems")
    t = np.asarray(rho).reshape(dims + dims)
    axes = list(range(2 * n))
    for i in subset:
        axes[i], axes[i + n] = axes[i + n], axes[i]
    d = math.prod(dims)
    return np.transpose(t, axes).reshape(d, d)


def von_neumann_entropy(rho):
    """Von Neumann entropy in bits, with 0*log(0) = 0.

    Eigenvalues below 1e-12 (including small negative numerical noise)
    are treated as exactly zero.
    """
    w = np.linalg.eigvalsh(np.asarray(rho, dtype=complex))
    w = w[w > EIG_ZERO]
    if w.size == 0:
        return 0.0
    return float(-np.sum(w * np.log2(w)))


def trace_distance(rho, sigma):
    """Half the trace norm of the difference of two Hermitian operators.

    Raises InvariantError if the difference deviates from Hermiticity by
    more than ``TOL_PSD``.
    """
    rho = np.asarray(rho)
    sigma = np.asarray(sigma)
    if rho.shape != sigma.shape:
        raise InvariantError(f"dimension mismatch: {rho.shape} vs {sigma.shape}")
    h = np.asarray(rho - sigma, dtype=complex)
    with np.errstate(invalid="ignore"):  # inf - inf is NaN, refused below
        dev = np.max(np.abs(h - dagger(h))) if h.size else 0.0
    if not dev <= TOL_PSD:  # also refuses NaN
        raise InvariantError(f"matrix is not Hermitian (max deviation {dev:.3e})")
    # eigh, not eigvalsh: eigvalsh would move the last bits of reported distances
    w, _ = np.linalg.eigh(h)
    return 0.5 * float(np.sum(np.abs(w)))


def purity(rho):
    """Tr(rho^2) as a real number: the sum of |rho_ij|^2 of a Hermitian rho."""
    return float(np.vdot(rho, rho).real)
