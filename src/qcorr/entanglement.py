"""Entanglement monotones on bipartitions and multipartite min/max measures.

Negativity is exactly computable and is the default monotone throughout.
A zero negativity certifies separability only where PPT is sufficient
(2x2, 2x3, and states separable by construction); elsewhere it is a
lower-bound witness.

Pure inputs (see ``_pure_vector``) are read off the Schmidt coefficients of
their vector, one SVD per cut; mixed inputs take the dense partial transpose
of rho.  The pure-state measures (entropy of entanglement, the GME test) read
the singular values of a factor of rho (see ``_factor``) and nothing else.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import InvariantError

CLAMP = 1e-10

# Reduced purity margin below 1 under which a pure state's cut is entangled.
_GME_TOL = 1e-8

# Largest ||rho - psi psi^dag||_F at which a state is read off its vector psi.
_PURE_GUARD = 1e-13


@dataclass(frozen=True)
class BipartitionCut:
    """Two-block partition of register indices, canonicalized so 0 is in p0."""

    p0: tuple
    p1: tuple

    def __post_init__(self):
        p0 = tuple(sorted(set(self.p0)))
        p1 = tuple(sorted(set(self.p1)))
        if 0 in p1:
            p0, p1 = p1, p0
        object.__setattr__(self, "p0", p0)
        object.__setattr__(self, "p1", p1)
        if not p0 or not p1:
            raise InvariantError("both blocks of a bipartition must be nonempty")
        if set(p0) & set(p1):
            raise InvariantError(f"bipartition blocks overlap: {p0} {p1}")

    def validate(self, n):
        if set(self.p0) | set(self.p1) != set(range(n)):
            raise InvariantError(
                f"bipartition {self.p0}:{self.p1} does not cover all {n} subsystems"
            )

    def key(self):
        return (self.p0, self.p1)


def cut_from_labels(register, spec_str):
    """Parse a cut like "A:B" or "A,B:C" against a register."""
    parts = spec_str.split(":")
    if len(parts) != 2:
        raise InvariantError(f"cut must have exactly two blocks, got {spec_str!r}")
    blocks = []
    for part in parts:
        labels = [s.strip() for s in part.split(",") if s.strip()]
        blocks.append(tuple(register.index(lab) for lab in labels))
    cut = BipartitionCut(blocks[0], blocks[1])
    cut.validate(register.n)
    return cut


def all_cuts(n):
    """All 2^(n-1) - 1 nontrivial bipartitions, canonical (0 in p0), sorted."""
    if not 2 <= n <= 8:
        raise InvariantError(f"cut enumeration needs 2 to 8 subsystems, got {n}")
    cuts = []
    for mask in range(1, 2 ** (n - 1)):
        # mask selects p1 among subsystems 1..n-1; subsystem 0 stays in p0
        p1 = tuple(i for i in range(1, n) if mask & (1 << (i - 1)))
        p0 = tuple(i for i in range(n) if i not in p1)
        cuts.append(BipartitionCut(p0, p1))
    return sorted(cuts, key=BipartitionCut.key)


def _pure_vector(rho):
    """psi with rho = psi psi^dag, or None when rho is not that close to pure.

    psi is the column of the largest diagonal entry j, scaled by
    1/sqrt(rho_jj): O(D^2) and no eigendecomposition.  It is accepted only if
    ||rho - psi psi^dag||_F <= _PURE_GUARD.  The Frobenius norm is unchanged by
    partial transposition and ||X||_1 <= sqrt(D) ||X||_F, so at
    D <= MAX_TOTAL_DIM = 256 any cut's negativity read off psi is within
    1/2 * 16 * 1e-13 = 8e-13 of the dense partial-transpose value.
    """
    j = int(np.argmax(np.diagonal(rho).real))
    psi = rho[:, j] / np.sqrt(rho[j, j].real)
    residual = np.outer(psi, -np.conj(psi))
    residual += rho  # in place: one D x D array, not two
    if np.vdot(residual, residual).real > _PURE_GUARD**2:
        return None
    return psi


def _factor(rho):
    """A unit-norm (D, r) matrix f with rho = f f^dag, up to rho's negative part.

    f is the vector psi when the purity guard accepts it, else the
    eigenvectors of rho's positive eigenvalues w, scaled by sqrt(w) and
    renormalized: ``check_density`` admits eigenvalues down to -1e-10, so the
    positive ones may sum to slightly more than 1.
    """
    psi = _pure_vector(rho)
    if psi is not None:
        return psi[:, None]
    w, v = np.linalg.eigh(rho)
    keep = w > 0
    return v[:, keep] * np.sqrt(w[keep] / np.sum(w[keep]))


def _schmidt(f, dims, cut):
    """Singular values across ``cut`` of a factor f of rho = f f^dag.

    f is a vector psi (these are its Schmidt coefficients) or a (D, r) matrix,
    whose column index is kept on the far side of the cut.
    """
    d0 = math.prod(dims[i] for i in cut.p0)
    order = cut.p0 + cut.p1 + (len(dims),)
    m = f.reshape(dims + (-1,)).transpose(order).reshape(d0, -1)
    return np.linalg.svd(m, compute_uv=False)


def _negativity(state, psi, cut):
    """Negativity across ``cut``, off the Schmidt coefficients when psi is given."""
    if psi is None:
        pt = linalg.partial_transpose(state.rho, state.dims, cut.p1)
        w = np.linalg.eigvalsh(pt)
        value = float(np.sum(np.abs(w[w < 0])))
    else:
        # (||(psi psi^dag)^T_p1||_1 - 1)/2 = ((sum s)^2 - 1)/2 (Vidal & Werner)
        value = (float(np.sum(_schmidt(psi, state.dims, cut))) ** 2 - 1.0) / 2.0
    return 0.0 if value < CLAMP else value


def negativity(state, cut):
    """(||rho^(T_p1)||_1 - 1)/2: absolute sum of negative PT eigenvalues.

    A pure input is read off its Schmidt coefficients across the cut, any
    other off the dense partial-transpose spectrum.
    """
    cut.validate(state.register.n)
    return _negativity(state, _pure_vector(state.rho), cut)


def log_negativity(state, cut):
    """log2 of the trace norm of the partial transpose; zero for PPT states."""
    value = np.log2(2.0 * negativity(state, cut) + 1.0)
    return 0.0 if value < CLAMP else float(value)


def entropy_of_entanglement(state, cut):
    """Entropy of the reduced state across the cut; pure inputs only."""
    cut.validate(state.register.n)
    if not state.is_pure():
        raise InvariantError(
            f"entropy_of_entanglement requires a pure state (purity {state.purity():.6f})"
        )
    # the reduced spectrum is s^2, cut off as von_neumann_entropy cuts its eigenvalues
    p = _schmidt(_factor(state.rho), state.dims, cut) ** 2
    p = p[p > linalg.EIG_ZERO]
    return float(-np.sum(p * np.log2(p)))


def e_min_max(state):
    """Min and max of the negativity over all nontrivial cuts.

    Returns (emin, emax, argmin cut, argmax cut).  Values within
    ``linalg.TOL_STRUCT`` of an extremum are tied, and a tie goes to the
    first cut in ``all_cuts`` order, so rounding noise does not pick it.
    """
    cuts = all_cuts(state.register.n)
    psi = _pure_vector(state.rho)
    values = [_negativity(state, psi, cut) for cut in cuts]
    emin, emax = min(values), max(values)
    cmin = next(c for c, v in zip(cuts, values) if v <= emin + linalg.TOL_STRUCT)
    cmax = next(c for c, v in zip(cuts, values) if v >= emax - linalg.TOL_STRUCT)
    return emin, emax, cmin, cmax


def pure_gme_test(state):
    """Genuine multipartite entanglement test for pure states.

    GME iff the reduced purity is below 1 - _GME_TOL for every nontrivial
    cut; otherwise the first product cut found is returned as witness.
    """
    if not state.is_pure():
        raise InvariantError("pure_gme_test requires a pure state")
    return _gme_test(state.dims, _factor(state.rho))


def _gme_test(dims, f):
    """``pure_gme_test`` off a factor f of rho = f f^dag: Tr(rho_p0^2) is the sum of s^4."""
    for cut in all_cuts(len(dims)):
        if np.sum(_schmidt(f, dims, cut) ** 4) >= 1.0 - _GME_TOL:
            return {"gme": False, "witness": cut}
    return {"gme": True, "witness": None}
