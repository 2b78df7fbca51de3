"""Measurement interactions, pre-measurement states, and induced dephasing.

A complete von Neumann measurement of subsystem k in basis {|b_i> = U|i>}
is the isometry V |b_i> = |b_i> (x) |i>, with the apparatus in the
computational basis and appended at the end of the register.  It factors
as V = (U (x) 1) C U^dag, where C |i> = |i> (x) |i> copies the index:
measuring in basis U is rotating by U^dag, recording the computational
index, and rotating back.  For a plan on several subsystems, the record
rec(s) of a computational index s is the tuple of its measured sub-indices
in plan order, and with sigma = G rho G^dag, G the tensor product of the
U_k^dag,

    premeasure:  sigma[s, s'] moves to ((s, rec s), (s', rec s'));
    dephase:     sigma[s, s'] is kept where rec s = rec s', zeroed elsewhere;
    undo:        the inverse gather, refused when the weight outside the
                 record positions exceeds IMAGE_TOL;

each followed by the rotation back by the U_k on the system subsystems.
Every rotation acts on one tensor axis at a time; no operator on the whole
register is formed.
"""

from dataclasses import dataclass

import math

import numpy as np

from . import linalg
from .errors import InvariantError
from .states import MAX_TOTAL_DIM, LabeledState, apparatus_label

# Residual weight outside the isometry image above which undo refuses.
IMAGE_TOL = 1e-8


@dataclass(frozen=True)
class MeasurementPlan:
    """Ordered set of measured labels with one local basis each."""

    measured: tuple
    bases: tuple

    def __post_init__(self):
        measured = tuple(self.measured)
        bases = tuple(self.bases)
        object.__setattr__(self, "measured", measured)
        object.__setattr__(self, "bases", bases)
        if len(measured) != len(bases):
            raise InvariantError("one basis per measured label required")
        if len(set(measured)) != len(measured):
            raise InvariantError(f"duplicate measured labels: {measured}")
        for label, basis in zip(measured, bases):
            if basis.subsystem != label:
                raise InvariantError(
                    f"basis subsystem {basis.subsystem!r} does not match plan label {label!r}"
                )

    def basis_for(self, label):
        if label not in self.measured:
            raise InvariantError(f"label {label!r} is not measured by the plan {self.measured}")
        return self.bases[self.measured.index(label)]

    def check_register(self, register):
        for label, basis in zip(self.measured, self.bases):
            if basis.dim != register.dim(label):
                raise InvariantError(
                    f"basis dimension {basis.dim} != subsystem {label!r} "
                    f"dimension {register.dim(label)}"
                )


def _records(dims, measured_idx):
    """Record of each computational index of a register with subsystem ``dims``.

    The record is the tuple of the index's sub-indices on the subsystems
    ``measured_idx``, flattened in that order (the first one slowest).
    """
    full = np.arange(math.prod(dims))
    rec = np.zeros_like(full)
    for k in measured_idx:
        stride = math.prod(dims[k + 1 :])
        rec = rec * dims[k] + (full // stride) % dims[k]
    return rec


def _local(rho, dims, k, op):
    """(1 (x) op (x) 1) rho (1 (x) op (x) 1)^dag, with ``op`` on subsystem ``k``."""
    big = rho.shape[0]
    d, after = dims[k], math.prod(dims[k + 1 :])
    rho = op @ rho.reshape(-1, d, after * big)
    return (np.conj(op) @ rho.reshape(-1, d, after)).reshape(big, big)


def _rotate(rho, dims, measured_idx, ops):
    """Apply each of ``ops`` locally on its subsystem in ``measured_idx``."""
    for k, op in zip(measured_idx, ops):
        rho = _local(rho, dims, k, op)
    return rho


def _plan_axes(register, plan):
    """Subsystem indices of the plan labels and the basis unitaries U_k."""
    plan.check_register(register)
    return [register.index(label) for label in plan.measured], [b.vectors for b in plan.bases]


def premeasure(state, plan):
    """Pre-measurement state on the enlarged register S u M_I.

    One apparatus per measured label, dimension matching, label
    "M:<label>", appended in measurement order.
    """
    reg = state.register
    idx, us = _plan_axes(reg, plan)
    big = reg.total_dim
    records = math.prod(reg.dims[k] for k in idx)
    if big * records > MAX_TOTAL_DIM:
        raise InvariantError(f"pre-measurement would exceed total dimension {MAX_TOTAL_DIM}")
    sigma = _rotate(state.rho, reg.dims, idx, [linalg.dagger(u) for u in us])
    pos = np.arange(big) * records + _records(reg.dims, idx)
    out = np.zeros((big * records, big * records), dtype=complex)
    out[np.ix_(pos, pos)] = sigma
    for label in plan.measured:
        reg = reg.with_apparatus(label)
    # rebinding frees the unrotated array before the density checks run
    out = _rotate(out, reg.dims, idx, us)
    return LabeledState(reg, out)


def dephase(state, plan):
    """Pinching in the plan bases on each measured subsystem."""
    dims = state.register.dims
    idx, us = _plan_axes(state.register, plan)
    sigma = _rotate(state.rho, dims, idx, [linalg.dagger(u) for u in us])
    rec = _records(dims, idx)
    sigma = np.where(rec[:, None] == rec, sigma, 0)
    return LabeledState(state.register, _rotate(sigma, dims, idx, us))


def _pull_back(premeasured, plan):
    """V^dag rho V for the plan isometry V: (register without apparatuses, rho).

    The last len(plan.measured) labels must be the plan's apparatuses in plan
    order, and ``rho`` must lie in the image of V: half the trace norm of
    its part outside the record positions may not exceed IMAGE_TOL.
    """
    reg = premeasured.register
    n = reg.n - len(plan.measured)
    apparatuses = tuple(apparatus_label(label) for label in plan.measured)
    if reg.labels[n:] != apparatuses:
        raise InvariantError(
            f"expected apparatuses {apparatuses} last in register, found {reg.labels[n:]}"
        )
    base = reg.select(range(n))
    idx, us = _plan_axes(base, plan)
    if reg.dims[n:] != tuple(base.dims[k] for k in idx):
        raise InvariantError(
            f"apparatus dimensions {reg.dims[n:]} do not match the measured subsystems"
        )
    big = base.total_dim
    sigma = _rotate(premeasured.rho, reg.dims, idx, [linalg.dagger(u) for u in us])
    pos = np.arange(big) * (reg.total_dim // big) + _records(base.dims, idx)
    block = sigma[np.ix_(pos, pos)]
    sigma[np.ix_(pos, pos)] = 0
    residual = 0.5 * np.sum(np.abs(np.linalg.eigvalsh(sigma)))
    if residual > IMAGE_TOL:
        raise InvariantError(
            f"state is not in the image of the measurement isometry (residual {residual:.3e})"
        )
    return base, _rotate(block, base.dims, idx, us)


def undo_interaction(premeasured, plan):
    """Invert the measurement interaction, removing the apparatuses.

    The apparatuses must be the last labels of the register, in plan order.
    The input must lie in the image of the pre-measurement isometry; a
    residual weight above 1e-8 outside the image is an error.
    """
    return LabeledState(*_pull_back(premeasured, plan))
