"""Entanglement monotones on bipartitions and multipartite min/max measures.

Negativity is exactly computable and is the default monotone throughout.
A zero negativity certifies separability only where PPT is sufficient
(2x2, 2x3, and states separable by construction); elsewhere it is a
lower-bound witness.
"""

from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import InvariantError

CLAMP = 1e-10


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


def negativity(state, cut):
    """(||rho^(T_p1)||_1 - 1)/2: absolute sum of negative PT eigenvalues."""
    cut.validate(state.register.n)
    pt = linalg.partial_transpose(state.rho, state.dims, cut.p1)
    w = np.linalg.eigvalsh(pt)
    value = float(np.sum(np.abs(w[w < 0])))
    return 0.0 if value < CLAMP else value


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
    reduced = linalg.partial_trace(state.rho, state.dims, cut.p0)
    return linalg.von_neumann_entropy(reduced)


def e_min_max(state):
    """Min and max of the negativity over all nontrivial cuts.

    Returns (emin, emax, argmin cut, argmax cut); ties break on the
    canonical cut encoding.
    """
    values = [(negativity(state, cut), cut) for cut in all_cuts(state.register.n)]
    emin, cmin = min(values, key=lambda vc: vc[0])
    emax, cmax = max(values, key=lambda vc: vc[0])
    return emin, emax, cmin, cmax


def pure_gme_test(state, tol=1e-8):
    """Genuine multipartite entanglement test for pure states.

    GME iff the reduced purity is below 1 - tol for every nontrivial cut;
    otherwise the first product cut found is returned as witness.
    """
    if not state.is_pure():
        raise InvariantError("pure_gme_test requires a pure state")
    for cut in all_cuts(state.register.n):
        reduced = linalg.partial_trace(state.rho, state.dims, cut.p0)
        if linalg.purity(reduced) >= 1.0 - tol:
            return {"gme": False, "witness": cut}
    return {"gme": True, "witness": None}
