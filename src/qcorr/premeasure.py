"""Measurement interactions, pre-measurement states, and induced dephasing.

A complete von Neumann measurement of subsystem k in basis {|b_i> = U|i>}
is the isometry V |b_i> = |b_i> (x) |i>, with the apparatus in the
computational basis and appended at the end of the register.  It factors
as V = (U (x) 1) C U^dag, where C |i> = |i> (x) |i> copies the index.
``_on_axis`` applies every operator on one subsystem, here and in the LOCC
channel, to the columns of a matrix; ``_isometry`` applies V with it and
``_isometry_dag`` V^dag, which takes the (k, apparatus) diagonal instead of
copying.  Label by label, ``premeasure`` sets rho <- V (V rho)^dag =
V rho V^dag and undo sets rho <- V^dag (V^dag rho)^dag, last apparatus
first, refusing a rho whose weight outside the image of V exceeds
IMAGE_TOL.  ``dephase`` rotates by the U_k^dag, zeroes the entries
where a measured subsystem's ket and bra indices differ, and rotates back.
No operator on the whole register is formed.
"""

from dataclasses import dataclass

import math

import numpy as np

from . import linalg
from .errors import InvariantError
from .states import LabeledState, apparatus_label

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


def _on_axis(f, dims, k, op):
    """(1 (x) op (x) 1) f for a (D, r) ``f``, (d', d_k) ``op`` on axis ``k``: (D d'/d_k, r)."""
    r = f.shape[1]
    return (op @ f.reshape(-1, dims[k], math.prod(dims[k + 1 :]) * r)).reshape(-1, r)


def _local(rho, dims, k, op):
    """(1 (x) op (x) 1) rho (1 (x) op (x) 1)^dag for a Hermitian ``rho``, ``op`` on axis ``k``."""
    return _on_axis(linalg.dagger(_on_axis(rho, dims, k, op)), dims, k, op)


def _rotate(rho, dims, measured_idx, ops):
    """Apply each of ``ops`` locally on its subsystem in ``measured_idx``."""
    for k, op in zip(measured_idx, ops):
        rho = _local(rho, dims, k, op)
    return rho


def _isometry(f, dims, k, u):
    """V f for a (D, r) ``f``, V measuring subsystem ``k`` of ``dims`` in basis ``u``.

    The (D d, r) result has the apparatus last: U^dag on axis k, the index
    copied into a new trailing axis, then U on axis k.
    """
    d, after, r = dims[k], math.prod(dims[k + 1 :]), f.shape[1]
    t = _on_axis(f, dims, k, linalg.dagger(u)).reshape(-1, d, after, 1, r)
    t = t * np.eye(d).reshape(1, d, 1, d, 1)
    return _on_axis(t.reshape(-1, r), (*dims, d), k, u)


def _isometry_dag(g, dims, k, u):
    """V^dag g for a (D d, r) ``g``: U^dag on axis k, the (k, apparatus) diagonal, U."""
    d, after, r = dims[k], math.prod(dims[k + 1 :]), g.shape[1]
    t = _on_axis(g, (*dims, d), k, linalg.dagger(u)).reshape(-1, d, after, d, r)
    return _on_axis(np.einsum("aibir->aibr", t).reshape(-1, r), dims, k, u)


def _conjugate(rho, dims, n, idx, us):
    """V rho V^dag for the plan isometry V; ``dims[: n + j]`` is the register at level j."""
    for j, (k, u) in enumerate(zip(idx, us)):
        rho = _isometry(linalg.dagger(_isometry(rho, dims[: n + j], k, u)), dims[: n + j], k, u)
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
    for label in plan.measured:
        reg = reg.with_apparatus(label)
    return LabeledState(reg, _conjugate(state.rho, reg.dims, state.register.n, idx, us))


def dephase(state, plan):
    """Pinching in the plan bases on each measured subsystem."""
    reg = state.register
    idx, us = _plan_axes(reg, plan)
    sigma = _rotate(state.rho, reg.dims, idx, [linalg.dagger(u) for u in us])
    sigma = sigma.reshape(reg.dims * 2)
    for k in idx:
        shape = [1] * (2 * reg.n)
        shape[k] = shape[reg.n + k] = reg.dims[k]
        sigma = sigma * np.eye(reg.dims[k]).reshape(shape)
    return LabeledState(reg, _rotate(sigma.reshape(reg.total_dim, -1), reg.dims, idx, us))


def _pull_back(premeasured, plan):
    """V^dag rho V for the plan isometry V: (register without apparatuses, rho).

    The last len(plan.measured) labels must be the plan's apparatuses in plan
    order, and ``rho`` must lie in the image of V: half the trace norm of
    rho - V (V^dag rho V) V^dag, its part outside the image, may not exceed
    IMAGE_TOL.
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
    block = premeasured.rho
    for j in reversed(range(len(idx))):
        level, k, u = reg.dims[: n + j], idx[j], us[j]
        block = _isometry_dag(linalg.dagger(_isometry_dag(block, level, k, u)), level, k, u)
    outside = premeasured.rho - _conjugate(block, reg.dims, n, idx, us)
    residual = 0.5 * np.sum(np.abs(np.linalg.eigvalsh(outside)))
    if residual > IMAGE_TOL:
        raise InvariantError(
            f"state is not in the image of the measurement isometry (residual {residual:.3e})"
        )
    return base, block


def undo_interaction(premeasured, plan):
    """Invert the measurement interaction, removing the apparatuses.

    The apparatuses must be the last labels of the register, in plan order.
    The input must lie in the image of the pre-measurement isometry; a
    residual weight above 1e-8 outside the image is an error.
    """
    return LabeledState(*_pull_back(premeasured, plan))
