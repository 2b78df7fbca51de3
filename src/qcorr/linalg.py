"""Dense complex linear algebra for Hermitian operators on tensor-product spaces.

Conventions: operators are square numpy arrays, row-major, with subsystem 0
the slowest-varying tensor index (standard Kronecker ordering).  Entropies
are in bits (base-2 logarithms).
"""

import math

import numpy as np

from .errors import InvariantError

# Tolerance ladder: exact-arithmetic-level structure, spectral positivity.
TOL_STRUCT = 1e-12
TOL_PSD = 1e-10

# Eigenvalues below this are treated as exactly zero in entropies.
EIG_ZERO = 1e-12


def dagger(a):
    """Conjugate transpose, of a matrix or of each matrix in a stack (..., p, q)."""
    return np.conj(a).swapaxes(-1, -2)


def check_density(rho, dims=None):
    """Validate density-operator invariants; returns ``rho`` as a complex array.

    Checks Hermiticity and unit trace at 1e-12 and positivity of the
    spectrum at -1e-10, plus dimension consistency when ``dims`` is given.
    A NaN fails every test, so NaN or infinite entries are refused.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise InvariantError(f"density operator must be square, got shape {rho.shape}")
    if not rho.size:
        raise InvariantError("density operator is empty")
    if dims is not None:
        d = math.prod(dims)
        if rho.shape[0] != d:
            raise InvariantError(
                f"matrix dimension {rho.shape[0]} != product of subsystem dims {d}"
            )
    with np.errstate(invalid="ignore", over="ignore"):  # NaN and inf are refused below
        herm = np.max(np.abs(rho - dagger(rho)))
        tr = np.trace(rho)
    if not herm <= TOL_STRUCT:
        raise InvariantError(f"not Hermitian: max |rho - rho^dag| = {herm:.3e}")
    if not abs(tr - 1.0) <= TOL_STRUCT:
        raise InvariantError(f"trace {tr} differs from 1 beyond tolerance")
    wmin = float(np.min(np.linalg.eigvalsh(rho)))
    if not wmin >= -TOL_PSD:
        raise InvariantError(f"not positive semidefinite: min eigenvalue {wmin:.3e}")
    return rho


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
    more than ``TOL_PSD`` (which NaN and infinite entries do), or if its
    trace norm overflows.
    """
    rho = np.asarray(rho)
    sigma = np.asarray(sigma)
    if rho.shape != sigma.shape:
        raise InvariantError(f"dimension mismatch: {rho.shape} vs {sigma.shape}")
    with np.errstate(invalid="ignore", over="ignore"):  # NaN and inf are refused below
        h = np.asarray(rho - sigma, dtype=complex)
        dev = np.max(np.abs(h - dagger(h))) if h.size else 0.0
    if not dev <= TOL_PSD:  # also refuses NaN
        raise InvariantError(f"matrix is not Hermitian (max deviation {dev:.3e})")
    # eigh, not eigvalsh: eigvalsh would move the last bits of reported distances
    w, _ = np.linalg.eigh(h)
    with np.errstate(over="ignore"):
        norm = float(np.sum(np.abs(w)))
    if not math.isfinite(norm):
        raise InvariantError(f"trace norm of the difference overflows: {norm}")
    return 0.5 * norm


def purity(rho):
    """Tr(rho^2) as a real number: the sum of |rho_ij|^2 of a Hermitian rho."""
    return float(np.vdot(rho, rho).real)
