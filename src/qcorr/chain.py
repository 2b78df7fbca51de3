"""Von Neumann chain simulation: iterated apparatus couplings.

Each link couples a fresh apparatus to a target subsystem (the observed
system for the first link, typically the previous apparatus afterwards).
Both chain functions carry the state as a factor f of rho = f f^dag, one
``_link`` step per link.  Per link the simulator records the entanglement
across (everything else):(new apparatus), read off f by the factor layout of
``quantumness._Workspace``, and, optionally, a quantumness bound for the new
apparatus.
The break-point row at level j is the negativity of the final state across
(systems, apparatuses 1..j):(apparatuses j+1..).  When every link after
j + 1 measures an apparatus on the right of that cut, those links are
isometries local to the right block and leave the negativity unchanged, so
the row is link j + 1's value; otherwise it is ``negativity`` of the final state.
The q_negativity of an "optimized" link or a tracked bound is optimized
over f itself, once per state and label, so one run serves both when link
j + 1 optimizes apparatus j; rho = f f^dag is formed, unchecked, only where
the optimizer takes the block layout.  It is formed as a checked
LabeledState only for the final state, once, where a dense break row or the
caller reads it.

Basis policies per link: an explicit basis, "optimized" (q_negativity's
argmin on the current state) or "flag-copy" (computational basis, copying
the previous record).  ``ChainConfig`` checks every link before any runs.
"""

from collections.abc import Mapping
from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .entanglement import MONOTONE_TOL, BipartitionCut, _factor, _gme_test, negativity
from .errors import InvariantError
from .premeasure import MeasurementPlan, _isometry
from .quantumness import (
    NEGATIVITY_OF_QUANTUMNESS,
    OptimizerConfig,
    _minimum_over_bases,
    _negativity_at_plan,
    _Workspace,
    apparatus_negativity,
)
from .states import LabeledState, LocalBasis, _integer, computational_basis, make_rng, random_basis

FLAG_COPY = "flag-copy"
OPTIMIZED = "optimized"

# Apparatus negativity above which a measurement basis counts as entangling.
_ENTANGLING_TOL = 1e-9


@dataclass(frozen=True)
class LinkSpec:
    """One chain link: the label to measure and the basis policy."""

    target: str
    basis: object = FLAG_COPY  # LocalBasis | "optimized" | "flag-copy"


@dataclass(frozen=True)
class ChainConfig:
    """A chain to run; each link's basis, target and new register are checked when built.

    Every row carries the link entanglement, which break rows and
    ``monotone`` read; ``track_quantumness`` adds q_negativity on each new
    apparatus to its row.
    """

    initial: LabeledState
    links: tuple
    track_quantumness: bool = False
    q_cfg: OptimizerConfig = OptimizerConfig()

    def __post_init__(self):
        if not isinstance(self.initial, LabeledState):
            raise InvariantError(f"a chain starts from a LabeledState, got {self.initial!r}")
        if not self.links:
            raise InvariantError("a chain needs at least one link")
        if not isinstance(self.track_quantumness, bool):
            raise InvariantError(f"track_quantumness must be a bool, got {self.track_quantumness!r}")
        if not isinstance(self.q_cfg, OptimizerConfig):
            raise InvariantError(f"q_cfg must be an OptimizerConfig, got {self.q_cfg!r}")
        reg = self.initial.register
        for link in self.links:
            if not isinstance(link, LinkSpec):
                raise InvariantError(f"chain links must be LinkSpecs, got {self.links!r}")
            if isinstance(link.basis, LocalBasis):
                MeasurementPlan((link.target,), (link.basis,)).check_register(reg)
            elif not isinstance(link.basis, str) or link.basis not in (FLAG_COPY, OPTIMIZED):
                raise InvariantError(f"unknown basis policy {link.basis!r}")
            reg = reg.with_apparatus(link.target)


@dataclass(frozen=True)
class ChainRow:
    link: int
    target: str
    apparatus: str
    entanglement: float
    quantumness: float = None
    break_negativity: float = None


class _Final(Mapping):
    """Read-only entries and "final_state", the state f f^dag on ``reg``, formed on first read.

    The keys are fixed when built, so ``in``, ``len`` and iteration form nothing.
    """

    def __init__(self, reg, f, **entries):
        self._reg, self._f, self._entries = reg, f, entries
        self._keys = (*entries, "final_state")

    def __getitem__(self, key):
        if key == "final_state" and key not in self._entries:
            self._entries[key] = LabeledState(self._reg, self._f @ linalg.dagger(self._f))
        return self._entries[key]

    def __contains__(self, key):
        return key in self._keys

    def __iter__(self):
        return iter(self._keys)

    def __len__(self):
        return len(self._keys)


@dataclass(frozen=True)
class ChainReport:
    """The per-link rows; ``final_state`` is formed from the chain's factor on first read."""

    rows: tuple
    _final: _Final = field(repr=False)

    @property
    def final_state(self):
        return self._final["final_state"]

    def entanglement_sequence(self):
        return [r.entanglement for r in self.rows]

    def monotone(self):
        e = self.entanglement_sequence()
        return all(e[j + 1] >= e[j] - MONOTONE_TOL for j in range(len(e) - 1))


def _link(reg, f, target, u):
    """(register, factor) after measuring ``target`` of rho = f f^dag in basis ``u``."""
    out = reg.with_apparatus(target)
    f = _isometry(f, reg.dims, reg.index(target), u)
    if not abs(np.vdot(f, f).real - 1.0) <= linalg.TOL_STRUCT:
        raise InvariantError(f"chain state lost its unit trace: trace {np.vdot(f, f).real}")
    return out, f


def _q_negativity(reg, f, label, cfg):
    """``q_negativity`` of rho = f f^dag on ``reg`` measured on ``label``, optimized over f."""
    return _minimum_over_bases(reg, None, f, (label,), cfg, NEGATIVITY_OF_QUANTUMNESS)


def run_chain(cfg):
    """Execute the chain and assemble the per-link report."""
    reg, f = cfg.initial.register, _factor(cfg.initial.rho)
    tracked = cfg.track_quantumness
    links = []  # [link, target, apparatus, entanglement, quantumness, break_negativity]
    for j, spec in enumerate(cfg.links, start=1):
        labels = [spec.target] if spec.basis == OPTIMIZED else []
        labels += [reg.labels[-1]] if tracked and links else []
        reports = {lab: _q_negativity(reg, f, lab, cfg.q_cfg) for lab in dict.fromkeys(labels)}
        if tracked and links:
            links[-1][4] = reports[reg.labels[-1]].value
        basis = spec.basis
        if basis == FLAG_COPY:
            basis = computational_basis(spec.target, reg.dim(spec.target))
        elif basis == OPTIMIZED:
            basis = reports[spec.target].argmin_bases[0]
        plan = MeasurementPlan((spec.target,), (basis,))
        e_val = _negativity_at_plan(_Workspace(reg, None, plan.measured, factor=f), plan)
        reg, f = _link(reg, f, spec.target, basis.vectors)
        links.append([j, spec.target, reg.labels[-1], e_val, None])
    final = _Final(reg, f)
    if tracked:
        links[-1][4] = _q_negativity(reg, f, reg.labels[-1], cfg.q_cfg).value

    n0, n = cfg.initial.register.n, reg.n
    apparatuses = [link[2] for link in links]
    for j in range(1, len(links)):  # level j: link j + 1's value when the later links are local
        local = all(spec.target in apparatuses[j:] for spec in cfg.links[j + 1 :])
        cut = BipartitionCut(tuple(range(n0 + j)), tuple(range(n0 + j, n)))
        links[j - 1].append(links[j][3] if local else negativity(final["final_state"], cut))
    return ChainReport(tuple(ChainRow(*link) for link in links), final)


def eigenbasis_criterion(state, basis):
    """Whether measuring a single-subsystem state in ``basis`` creates entanglement.

    Equivalent to the basis failing to diagonalize the state, read as nonzero
    off-diagonal mass of U^dag rho U (U the basis vectors), correct under degeneracy.
    """
    if state.register.n != 1:
        raise InvariantError("eigenbasis_criterion requires a single-subsystem state")
    plan = MeasurementPlan(state.register.labels, (basis,))
    e_val = apparatus_negativity(state.register, state.rho, plan)
    rotated = linalg.dagger(basis.vectors) @ state.rho @ basis.vectors
    return {
        "entangling": e_val > _ENTANGLING_TOL,
        "entanglement": e_val,
        "off_diagonal_mass": float(np.sum(np.abs(rotated - np.diag(np.diag(rotated))))),
    }


def chain_gme_propagation(initial, links, seed=0):
    """GME flags after each of ``links`` chain links, each in one Haar-random basis.

    The first link measures the last system subsystem, later links the
    previous apparatus; the first link past the 256 cap is refused.  Pure
    initial states only.  Each link is a ``_link`` step on a factor f, each
    GME test the reduced purity of every cut off stacked Gram products of f
    (``entanglement._purities``).  Returns "per_step" and a lazy "final_state".

    No flag depends on the basis.  Measuring party X of a pure GME psi gives
    Psi = sum_i |b_i>_X |phi_i> |i>_M.  A cut with X and M on one side keeps
    psi's Schmidt spectrum (the isometry is local to it); with M on side
    S u {M} and X opposite, rho_SM is block-diagonal in the record, so its
    purity is <= sum_i p_i^2 <= lambda_max(rho_X) < 1, p_i = <b_i|rho_X|b_i>.
    Every cut's purity deficit stays >= min(psi's least, 1 - lambda_max) at
    every level; links local to one block keep a biseparable input biseparable.
    """
    if not initial.is_pure():
        raise InvariantError("chain_gme_propagation requires a pure initial state")
    _integer(links, "chain_gme_propagation links", low=1)
    _integer(seed, "chain_gme_propagation seed", low=0)
    rng = make_rng(seed, 0)
    reg, f = initial.register, _factor(initial.rho)
    flags = []
    for _ in range(links):
        target = reg.labels[-1]
        reg, f = _link(reg, f, target, random_basis(target, reg.dims[-1], rng).vectors)
        flags.append(_gme_test(reg.dims, f))
    return _Final(reg, f, per_step=flags)
