"""Von Neumann chain simulation: iterated apparatus couplings.

Each link couples a fresh apparatus to a target subsystem (the observed
system for the first link, typically the previous apparatus afterwards).
Per link the simulator records the entanglement across
(everything else):(new apparatus) and, optionally, a quantumness upper
bound for the new apparatus; break-point entanglement rows are evaluated
on the final state.

Basis policies per link: an explicit basis, "optimized" (argmin of the
negativity-of-quantumness optimizer on the current state), or "flag-copy"
(computational basis, copying the previous measurement record).
"""

from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .entanglement import BipartitionCut, negativity, pure_gme_test
from .errors import InvariantError
from .premeasure import MeasurementPlan, premeasure
from .quantumness import OptimizerConfig, apparatus_negativity, q_negativity
from .states import (
    MAX_TOTAL_DIM,
    LabeledState,
    LocalBasis,
    computational_basis,
    random_basis,
    spawn_rng,
)

FLAG_COPY = "flag-copy"
OPTIMIZED = "optimized"

TRACK_NEGATIVITY = "negativity"
TRACK_QUANTUMNESS = "quantumness"

GENERIC_PROXIMITY = 1e-3
GENERIC_ATTEMPTS = 20


@dataclass(frozen=True)
class LinkSpec:
    """One chain link: the label to measure and the basis policy."""

    target: str
    basis: object = FLAG_COPY  # LocalBasis | "optimized" | "flag-copy"


@dataclass(frozen=True)
class ChainConfig:
    initial: LabeledState
    links: tuple
    track: frozenset = frozenset({TRACK_NEGATIVITY})
    q_cfg: OptimizerConfig = OptimizerConfig()


@dataclass(frozen=True)
class ChainRow:
    link: int
    target: str
    apparatus: str
    entanglement: float
    quantumness: float = None
    break_negativity: float = None


@dataclass(frozen=True)
class ChainReport:
    rows: tuple
    final_state: LabeledState = field(repr=False)

    def entanglement_sequence(self):
        return [r.entanglement for r in self.rows]

    def monotone(self, tol=1e-9):
        e = self.entanglement_sequence()
        return all(e[j + 1] >= e[j] - tol for j in range(len(e) - 1))


def _resolve_basis(state, spec, q_cfg):
    if isinstance(spec.basis, LocalBasis):
        if spec.basis.subsystem != spec.target:
            raise InvariantError(
                f"explicit basis is for {spec.basis.subsystem!r}, link targets {spec.target!r}"
            )
        return spec.basis
    d = state.register.dim(spec.target)
    if spec.basis == FLAG_COPY:
        return computational_basis(spec.target, d)
    if spec.basis == OPTIMIZED:
        report = q_negativity(state, (spec.target,), q_cfg)
        return report.argmin_bases[0]
    raise InvariantError(f"unknown basis policy {spec.basis!r}")


def run_chain(cfg):
    """Execute the chain and assemble the per-link report."""
    state = cfg.initial
    links = []  # (link, target, apparatus, entanglement, quantumness)
    for j, spec in enumerate(cfg.links, start=1):
        d = state.register.dim(spec.target)
        if state.register.total_dim * d > MAX_TOTAL_DIM:
            raise InvariantError(
                f"chain link {j} would exceed total dimension {MAX_TOTAL_DIM}"
            )
        basis = _resolve_basis(state, spec, cfg.q_cfg)
        plan = MeasurementPlan((spec.target,), (basis,))
        e_val = apparatus_negativity(state, plan)
        state = premeasure(state, plan)
        app_label = state.register.labels[-1]
        q_val = None
        if TRACK_QUANTUMNESS in cfg.track:
            q_val = q_negativity(state, (app_label,), cfg.q_cfg).value
        links.append((j, spec.target, app_label, e_val, q_val))

    # break at level j before the last link: systems plus the first j
    # apparatuses vs the rest, on the final state
    n0, n = cfg.initial.register.n, state.register.n
    breaks = [
        negativity(state, BipartitionCut(tuple(range(n0 + j)), tuple(range(n0 + j, n))))
        for j in range(1, len(links))
    ]
    rows = tuple(ChainRow(*link, brk) for link, brk in zip(links, breaks + [None]))
    return ChainReport(rows, state)


def _off_diagonal_mass(rho, basis):
    """Sum of |entries| of U^dag rho U off its diagonal, U the basis vectors."""
    u = basis.vectors
    rotated = linalg.dagger(u) @ rho @ u
    return float(np.sum(np.abs(rotated - np.diag(np.diag(rotated)))))


def eigenbasis_criterion(state, basis, tol=1e-9):
    """Whether measuring a single-subsystem state in ``basis`` creates entanglement.

    Equivalent to the basis failing to diagonalize the state: the correct
    condition under spectral degeneracy is nonzero off-diagonal mass of the
    state in the measurement basis.
    """
    if state.register.n != 1:
        raise InvariantError("eigenbasis_criterion requires a single-subsystem state")
    e_val = apparatus_negativity(state, MeasurementPlan(state.register.labels, (basis,)))
    return {
        "entangling": e_val > tol,
        "entanglement": e_val,
        "off_diagonal_mass": _off_diagonal_mass(state.rho, basis),
    }


def generic_basis(state, target, rng):
    """Seeded random basis, resampled while it nearly diagonalizes the target.

    A draw is generic when it leaves at least GENERIC_PROXIMITY of
    off-diagonal mass in the target's reduced state.  If that state is
    (close to) maximally mixed every basis diagonalizes it; after
    GENERIC_ATTEMPTS draws the last is accepted, which is harmless for
    multipartite-entanglement propagation.
    """
    idx = state.register.index(target)
    reduced = linalg.partial_trace(state.rho, state.dims, [idx])
    d = state.register.dim(target)
    basis = None
    for _ in range(GENERIC_ATTEMPTS):
        basis = random_basis(target, d, rng)
        if _off_diagonal_mass(reduced, basis) >= GENERIC_PROXIMITY:
            break
    return basis


def chain_gme_propagation(initial, links, seed=0):
    """GME flags after each of ``links`` generic-basis chain links.

    The first link measures the last system subsystem; subsequent links
    measure the previous apparatus.  Pure initial states only.
    """
    if not initial.is_pure():
        raise InvariantError("chain_gme_propagation requires a pure initial state")
    if initial.register.n + links > 8:
        raise InvariantError("at most 8 total subsystems after all links")
    rng = spawn_rng(seed, 0)
    state = initial
    target = initial.register.labels[-1]
    flags = []
    for _ in range(links):
        basis = generic_basis(state, target, rng)
        plan = MeasurementPlan((target,), (basis,))
        state = premeasure(state, plan)
        flags.append(pure_gme_test(state))
        target = state.register.labels[-1]
    return {"per_step": flags, "final_state": state}
