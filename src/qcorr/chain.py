"""Von Neumann chain simulation: iterated apparatus couplings.

Each link couples a fresh apparatus to a target subsystem (the observed
system for the first link, typically the previous apparatus afterwards).
Per link the simulator records the entanglement across
(everything else):(new apparatus), read off the measured blocks of the
pre-link state, and, optionally, a quantumness upper bound for the new
apparatus.  The break-point row at level j is the negativity of the final
state across (systems, apparatuses 1..j):(apparatuses j+1..).  When every
link after j + 1 measures an apparatus on the right of that cut, those links
are isometries local to the right block and leave the negativity unchanged,
so the row is link j + 1's value; otherwise it is computed on the final
state.  Chains whose links each measure the previous apparatus therefore
take no dense break-point spectrum.

Basis policies per link: an explicit basis, "optimized" (argmin of the
negativity-of-quantumness optimizer on the current state), or "flag-copy"
(computational basis, copying the previous measurement record).
"""

from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .entanglement import BipartitionCut, _gme_test, _negativity, _pure_vector
from .errors import InvariantError
from .premeasure import MeasurementPlan, _isometry, premeasure
from .quantumness import OptimizerConfig, _integer, apparatus_negativity, q_negativity
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

    def __post_init__(self):
        if not self.links:
            raise InvariantError("a chain needs at least one link")


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
    # apparatuses vs the rest, on the final state.  When every link after
    # j + 1 measures an apparatus right of the cut, those links are isometries
    # local to the right block, so the row is link j + 1's value.
    n0, n = cfg.initial.register.n, state.register.n
    apparatuses = [link[2] for link in links]
    from_link = [
        all(spec.target in apparatuses[j:] for spec in cfg.links[j + 1 :])
        for j in range(1, len(links))
    ]
    psi = None if all(from_link) else _pure_vector(state.rho)
    breaks = []
    for j, local in enumerate(from_link, start=1):
        if local:
            breaks.append(links[j][3])
            continue
        cut = BipartitionCut(tuple(range(n0 + j)), tuple(range(n0 + j, n)))
        cut.validate(n)
        breaks.append(_negativity(state, psi, cut))
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
    return _generic_draw(linalg.partial_trace(state.rho, state.dims, [idx]), target, rng)


def _generic_draw(reduced, target, rng):
    """``generic_basis`` given the target's reduced operator."""
    basis = None
    for _ in range(GENERIC_ATTEMPTS):
        basis = random_basis(target, reduced.shape[0], rng)
        if _off_diagonal_mass(reduced, basis) >= GENERIC_PROXIMITY:
            break
    return basis


def _factor(rho):
    """A (D, r) matrix f with rho = f f^dag.

    f is the vector psi when the purity guard accepts it, else the
    eigenvectors of rho's positive eigenvalues w, scaled by sqrt(w).
    """
    psi = _pure_vector(rho)
    if psi is not None:
        return psi[:, None]
    w, v = np.linalg.eigh(rho)
    keep = w > 0
    return v[:, keep] * np.sqrt(w[keep])


def chain_gme_propagation(initial, links, seed=0):
    """GME flags after each of ``links`` generic-basis chain links.

    The first link measures the last system subsystem; subsequent links
    measure the previous apparatus.  Pure initial states only.  The state is
    carried as a factor f of rho = f f^dag: each link applies its isometry to
    f's columns with ``premeasure``'s own ``_isometry``, and each GME test
    reads the singular values of f across every cut.
    """
    if not initial.is_pure():
        raise InvariantError("chain_gme_propagation requires a pure initial state")
    if _integer(links, "chain_gme_propagation links") < 1:
        raise InvariantError(f"chain_gme_propagation needs at least one link, got {links}")
    if initial.register.n + links > 8:
        raise InvariantError("at most 8 total subsystems after all links")
    rng = spawn_rng(seed, 0)
    reg, f = initial.register, _factor(initial.rho)
    target = reg.labels[-1]
    flags = []
    for _ in range(links):
        k, d = reg.index(target), reg.dim(target)
        if reg.total_dim * d > MAX_TOTAL_DIM:
            raise InvariantError(f"pre-measurement would exceed total dimension {MAX_TOTAL_DIM}")
        m = np.moveaxis(f.reshape(reg.dims + (-1,)), k, 0).reshape(d, -1)
        basis = _generic_draw(m @ linalg.dagger(m), target, rng)
        f = _isometry(f, reg.dims, k, basis.vectors)
        reg = reg.with_apparatus(target)
        norm = np.vdot(f, f).real
        if abs(norm - 1.0) > linalg.TOL_STRUCT:
            raise InvariantError(f"chain state lost its unit trace: trace {norm}")
        flags.append(_gme_test(None, reg.dims, f))
        target = reg.labels[-1]
    return {"per_step": flags, "final_state": LabeledState(reg, f @ linalg.dagger(f))}
