"""LOCC channel transferring a measured subsystem's state to its apparatus.

The protocol (local with respect to the system:apparatus cut): Fourier
transform on the measured subsystem in the plan basis, projective
measurement of that subsystem, then an outcome-conditioned phase
correction on the apparatus.  Every outcome produces the same output, so
the channel is deterministic; branches are enumerated exactly rather than
sampled.
"""

from dataclasses import dataclass

import numpy as np

from . import linalg
from .entanglement import MONOTONE_TOL, BipartitionCut, negativity
from .errors import InvariantError
from .premeasure import MeasurementPlan, _local, _pull_back, premeasure
from .quantumness import apparatus_negativity
from .states import LabeledState, _integer, _permuted, apparatus_label


@dataclass(frozen=True)
class LoccTranscript:
    outcome_probabilities: tuple
    branch_outputs: tuple     # per-outcome conditional output states
    output: LabeledState

    def __post_init__(self):
        p = np.asarray(self.outcome_probabilities, dtype=float)
        if not (np.all(p >= -1e-12) and abs(p.sum() - 1.0) <= 1e-10):  # also refuses NaN
            raise InvariantError(f"invalid outcome probabilities: {p}")


def fourier_unitary(d):
    """F[k][i] = exp(2*pi*1j*i*k/d)/sqrt(d)."""
    _integer(d, "fourier_unitary d", low=2)
    k, i = np.meshgrid(np.arange(d), np.arange(d), indexing="ij")
    return np.exp(2j * np.pi * i * k / d) / np.sqrt(d)


def correction_unitary(k, d):
    """Diagonal phase unitary diag(exp(-2*pi*1j*i*k/d))."""
    _integer(d, "dimension", low=2)
    if not _integer(k, "correction index", low=0) < d:
        raise InvariantError(f"correction index {k} outside [0, {d})")
    return np.diag(np.exp(-2j * np.pi * np.arange(d) * k / d))


def _check_premeasured(premeasured, plan, label):
    """The input must lie in the image of the pre-measurement isometry; returns the basis."""
    reg = premeasured.register
    m = reg.index(apparatus_label(label))
    basis = plan.basis_for(label)
    # move the apparatus to the end so the isometry check applies directly;
    # the permuted matrix is that of a checked state, so it is not checked again
    order = [i for i in range(reg.n) if i != m] + [m]
    rho = _permuted(premeasured.rho, reg.dims, order)
    _pull_back(reg.select(order), rho, MeasurementPlan((label,), (basis,)))
    return basis


def locc_undo(premeasured, plan, label):
    """Transfer the measured subsystem's role to its apparatus via LOCC.

    Removes subsystem ``label`` from the register; the output equals the
    original state with that subsystem's information held by the apparatus.
    """
    basis = _check_premeasured(premeasured, plan, label)
    reg = premeasured.register
    a = reg.index(label)
    d = reg.dims[a]

    # outcome k of the Fourier measurement in the plan basis: project the
    # measured subsystem on row k of F U^dag, which also drops it, then
    # correct the phase on the apparatus
    f_plan = fourier_unitary(d) @ linalg.dagger(basis.vectors)
    out_reg = reg.drop(label)
    m = out_reg.index(apparatus_label(label))
    probs = []
    branches = []
    for k in range(d):
        branch = _local(premeasured.rho, reg.dims, a, f_plan[k : k + 1])
        p = float(np.real(np.trace(branch)))
        if p < 1e-12:
            raise InvariantError(f"degenerate outcome probability {p} for k={k}")
        probs.append(p)
        branch = _local(branch, out_reg.dims, m, correction_unitary(k, d))
        branches.append(LabeledState(out_reg, branch / p))

    avg = sum(p * b.rho for p, b in zip(probs, branches))
    output = LabeledState(out_reg, avg)
    return LoccTranscript(tuple(probs), tuple(branches), output)


def verify_monotonicity_step(state, plan):
    """Per-basis entanglement monotonicity across one pre-measurement.

    lhs: system:apparatus negativity of the pre-measurement state.
    rhs: negativity of the LOCC-transferred state (equal to the original
    entanglement with the measured subsystem's role moved to the apparatus).
    """
    if len(plan.measured) != 1:
        raise InvariantError("verify_monotonicity_step expects a single measured subsystem")
    lhs = apparatus_negativity(state.register, state.rho, plan)
    out = locc_undo(premeasure(state, plan), plan, plan.measured[0]).output
    # cut: transferred apparatus (last) vs everything else
    rhs_cut = BipartitionCut(tuple(range(out.register.n - 1)), (out.register.n - 1,))
    rhs = negativity(out, rhs_cut)
    return {"lhs": lhs, "rhs": rhs, "holds": lhs >= rhs - MONOTONE_TOL}
