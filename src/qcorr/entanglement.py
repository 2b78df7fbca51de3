"""Entanglement monotones on bipartitions and multipartite min/max measures.

Negativity is exactly computable and is the default monotone throughout.
A zero negativity certifies separability only where PPT is sufficient
(2x2, 2x3, and states separable by construction); elsewhere it is a
lower-bound witness.

Pure inputs (see ``_pure_vector``) are read off the Schmidt coefficients of
their vector; mixed inputs take the dense partial transpose of rho.  The
pure-state measures (entropy of entanglement, the GME test) read a factor f
of rho and nothing else; ``_factor`` is the one rule by which rho becomes f,
here, in the optimizer and in the chains.  Readers of every cut take f
reshaped across all cuts of one shape as one stack (see ``_cut_stacks``):
``e_min_max`` takes one SVD per stack, and the GME test no SVD at all, since
a cut's reduced purity is the squared Frobenius norm of a Gram matrix.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import linalg
from .errors import InvariantError
from .states import _integer

CLAMP = 1e-10

# Slack below which an entanglement value may fall short of another it should
# dominate and still count as monotone (chain links, LOCC transfer steps).
MONOTONE_TOL = 1e-9

# Reduced purity margin below 1 under which a pure state's cut is entangled.
_GME_TOL = 1e-8

# Largest ||rho - psi psi^dag||_F at which a state is read off its vector psi.
_PURE_GUARD = 1e-13

# Largest sum of positive eigenvalues that ``_factor`` drops.
_FACTOR_GUARD = 1e-13


@dataclass(frozen=True)
class BipartitionCut:
    """Two-block partition of register indices, canonicalized so 0 is in p0."""

    p0: tuple
    p1: tuple

    def __post_init__(self):
        p0, p1 = tuple(self.p0), tuple(self.p1)
        for i in p0 + p1:
            _integer(i, "cut index", low=0)
        p0, p1 = tuple(sorted(set(p0))), tuple(sorted(set(p1)))
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


def _block_labels(part):
    return [s.strip() for s in part.split(",") if s.strip()]


def _names_labels_only(register, part):
    labels = _block_labels(part)
    return bool(labels) and set(labels) <= set(register.labels)


def cut_from_labels(register, spec_str):
    """Parse a cut like "A:B", "A,B:C" or "A,B:M:A" against a register.

    An apparatus label holds a ':' of its own, so a spec with more than one
    ':' is split at the one ':' whose two sides each name register labels
    and nothing else; a spec with no such ':', or more than one, is refused.
    """
    colons = [i for i, ch in enumerate(spec_str) if ch == ":"]
    if len(colons) > 1:
        colons = [
            i for i in colons
            if _names_labels_only(register, spec_str[:i])
            and _names_labels_only(register, spec_str[i + 1 :])
        ]
        if len(colons) > 1:
            raise InvariantError(
                f"cut {spec_str!r} splits into two blocks of labels in more than one way"
            )
    if len(colons) != 1:
        raise InvariantError(f"cut must have exactly two blocks, got {spec_str!r}")
    i = colons[0]
    blocks = [
        tuple(register.index(lab) for lab in _block_labels(part))
        for part in (spec_str[:i], spec_str[i + 1 :])
    ]
    cut = BipartitionCut(blocks[0], blocks[1])
    cut.validate(register.n)
    return cut


@lru_cache(maxsize=None, typed=True)  # typed: 2.0 must not be served the cuts of 2
def all_cuts(n):
    """All 2^(n-1) - 1 nontrivial bipartitions, canonical (0 in p0), sorted; built once per n."""
    if not 2 <= _integer(n, "cut enumeration n") <= 8:
        raise InvariantError(f"cut enumeration needs 2 to 8 subsystems, got {n}")
    cuts = []
    for mask in range(1, 2 ** (n - 1)):
        # mask selects p1 among subsystems 1..n-1; subsystem 0 stays in p0
        p1 = tuple(i for i in range(1, n) if mask & (1 << (i - 1)))
        p0 = tuple(i for i in range(n) if i not in p1)
        cuts.append(BipartitionCut(p0, p1))
    return tuple(sorted(cuts, key=BipartitionCut.key))


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
    """A unit-norm (D, r) matrix f with rho = f f^dag, exact up to rho's negative part.

    The one rule by which rho becomes a factor.  f is the vector psi when the
    purity guard accepts it, else one ``eigh`` runs: the nonpositive
    eigenvalues are dropped, and so are the smallest positive ones whose sum
    stays within ``_FACTOR_GUARD``, so r is the rank of rho and not of its
    rounding noise.  f is the eigenvectors of the kept eigenvalues w, scaled
    by sqrt(w) and renormalized: ``check_density`` admits eigenvalues down to
    -1e-10, so the positive ones may sum to slightly more than 1.
    """
    psi = _pure_vector(rho)
    if psi is not None:
        return psi[:, None]
    w, v = np.linalg.eigh(rho)  # ascending: the nonpositive ones first
    keep = np.cumsum(np.maximum(w, 0.0)) > _FACTOR_GUARD
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


@lru_cache(maxsize=None)
def _cut_gathers(dims):
    """The cuts of ``all_cuts`` grouped by shape, built once per ``dims``.

    Each group is (d0, positions in ``all_cuts``, a (k, D) row order): f[order]
    reshaped to (k, d0, D/d0 * r) is what ``_schmidt`` reshapes f to, cut by
    cut.  The order is stored in the smallest integer type that holds D - 1.
    """
    cuts, size = all_cuts(len(dims)), math.prod(dims)
    rows = np.arange(size, dtype=np.min_scalar_type(size - 1)).reshape(dims)
    groups = {}
    for i, cut in enumerate(cuts):
        groups.setdefault(math.prod(dims[j] for j in cut.p0), []).append(i)
    orders = [rows.transpose(cut.p0 + cut.p1).ravel() for cut in cuts]
    return tuple(
        (d0, np.array(pos), np.stack([orders[i] for i in pos])) for d0, pos in groups.items()
    )


def _cut_stacks(dims, f):
    """(positions in ``all_cuts``, stack) for a factor f reshaped across every cut.

    A stack holds the (d0, D/d0 * r) matrices of cuts of one shape, entry for
    entry those of ``_schmidt``; a shape's cuts are split so that no stack
    holds more than D^2 entries, the size of rho.
    """
    chunk = max(1, f.shape[0] ** 2 // f.size)
    for d0, pos, order in _cut_gathers(dims):
        for i in range(0, len(pos), chunk):
            m = np.take(f, order[i : i + chunk], axis=0)
            yield pos[i : i + chunk], m.reshape(-1, d0, f.size // d0)


def _pure_negativity(schmidt_sum):
    """(||(psi psi^dag)^T_p1||_1 - 1)/2 = ((sum s)^2 - 1)/2 (Vidal & Werner), clamped."""
    value = (float(schmidt_sum) ** 2 - 1.0) / 2.0
    return 0.0 if value < CLAMP else value


def _negativity(state, psi, cut):
    """Negativity across ``cut``, off the Schmidt coefficients when psi is given."""
    if psi is not None:
        return _pure_negativity(np.sum(_schmidt(psi, state.dims, cut)))
    pt = linalg.partial_transpose(state.rho, state.dims, cut.p1)
    w = np.linalg.eigvalsh(pt)
    value = float(np.sum(np.abs(w[w < 0])))
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
    first cut in ``all_cuts`` order, so rounding noise does not pick it.  A
    pure input takes one SVD per stack of ``_cut_stacks``; numpy runs the same
    LAPACK routine on each matrix of a stack, so every value is the bits of
    the single-cut ``negativity``.
    """
    cuts = all_cuts(state.register.n)
    psi = _pure_vector(state.rho)
    if psi is None:
        values = [_negativity(state, None, cut) for cut in cuts]
    else:
        values = [None] * len(cuts)
        for pos, m in _cut_stacks(state.dims, psi):
            sums = np.sum(np.linalg.svd(m, compute_uv=False), axis=1)
            for i, total in zip(pos, sums):
                values[i] = _pure_negativity(total)
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


def _purities(dims, f):
    """Tr(rho_p0^2) across each cut of ``all_cuts``, in that order, with no SVD.

    f reshaped across a cut to M gives rho_p0 = M M^dag, so Tr(rho_p0^2) is
    ||G||_F^2 for the Gram matrix G of M's smaller side (M M^dag or M^dag M):
    one batched product per stack of ``_cut_stacks``.
    """
    purity = np.empty(len(all_cuts(len(dims))))
    for pos, m in _cut_stacks(dims, f):
        if m.shape[1] > m.shape[2]:
            m = linalg.dagger(m)
        g = (m @ linalg.dagger(m)).reshape(len(m), -1).view(np.float64)  # re, im pairs
        purity[pos] = np.einsum("ki,ki->k", g, g)
    return purity


def _gme_test(dims, f):
    """``pure_gme_test`` off a factor f of rho = f f^dag, read off ``_purities``.

    The witness is the first cut in ``all_cuts`` order at or above 1 - _GME_TOL.
    """
    product = np.flatnonzero(_purities(dims, f) >= 1.0 - _GME_TOL)
    if product.size:
        return {"gme": False, "witness": all_cuts(len(dims))[product[0]]}
    return {"gme": True, "witness": None}
