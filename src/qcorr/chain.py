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
from .quantumness import OptimizerConfig, q_negativity
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
    q_cfg: OptimizerConfig = OptimizerConfig(restarts=8)


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
    rows = []
    for j, spec in enumerate(cfg.links, start=1):
        d = state.register.dim(spec.target)
        if state.register.total_dim * d > MAX_TOTAL_DIM:
            raise InvariantError(
                f"chain link {j} would exceed total dimension {MAX_TOTAL_DIM}"
            )
        basis = _resolve_basis(state, spec, cfg.q_cfg)
        plan = MeasurementPlan((spec.target,), (basis,))
        n_before = state.register.n
        state = premeasure(state, plan)
        cut = BipartitionCut(tuple(range(n_before)), (n_before,))
        e_val = negativity(state, cut)
        q_val = None
        if TRACK_QUANTUMNESS in cfg.track:
            app_label = state.register.labels[-1]
            q_val = q_negativity(state, (app_label,), cfg.q_cfg).value
        rows.append((j, spec.target, state.register.labels[-1], e_val, q_val))

    final = state
    n0 = cfg.initial.register.n
    out_rows = []
    for j, target, app, e_val, q_val in rows:
        if j < len(rows):
            # break at level j: systems plus first j apparatuses vs the rest
            left = tuple(range(n0 + j))
            right = tuple(range(n0 + j, final.register.n))
            brk = negativity(final, BipartitionCut(left, right))
        else:
            brk = None
        out_rows.append(
            ChainRow(
                link=j,
                target=target,
                apparatus=app,
                entanglement=e_val,
                quantumness=q_val,
                break_negativity=brk,
            )
        )
    return ChainReport(tuple(out_rows), final)


def eigenbasis_criterion(state, basis, tol=1e-9):
    """Whether measuring a single-subsystem state in ``basis`` creates entanglement.

    Equivalent to the basis failing to diagonalize the state: the correct
    condition under spectral degeneracy is nonzero off-diagonal mass of the
    state in the measurement basis.
    """
    if state.register.n != 1:
        raise InvariantError("eigenbasis_criterion requires a single-subsystem state")
    plan = MeasurementPlan((state.register.labels[0],), (basis,))
    pm = premeasure(state, plan)
    e_val = negativity(pm, BipartitionCut((0,), (1,)))
    u = basis.vectors
    rotated = linalg.dagger(u) @ state.rho @ u
    off_diag = float(np.sum(np.abs(rotated - np.diag(np.diag(rotated)))))
    return {
        "entangling": e_val > tol,
        "entanglement": e_val,
        "off_diagonal_mass": off_diag,
    }


def generic_basis(state, target, rng, proximity=1e-3, max_attempts=20):
    """Seeded random basis, resampled while it nearly diagonalizes the target.

    If the target's reduced state is (close to) maximally mixed every basis
    diagonalizes it; after ``max_attempts`` the last draw is accepted, which
    is harmless for multipartite-entanglement propagation.
    """
    idx = state.register.index(target)
    reduced = linalg.partial_trace(state.rho, state.dims, [idx])
    d = state.register.dim(target)
    basis = None
    for _ in range(max_attempts):
        basis = random_basis(target, d, rng)
        u = basis.vectors
        rotated = linalg.dagger(u) @ reduced @ u
        off_diag = float(np.sum(np.abs(rotated - np.diag(np.diag(rotated)))))
        if off_diag >= proximity:
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
