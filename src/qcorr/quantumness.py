"""Quantumness measures: minimum apparatus entanglement over local bases.

The search space is parameterized by Hermitian generators, U = exp(iH):
for each measured subsystem of dimension d, a real vector of length d^2
fills H (d diagonal entries, then real/imaginary parts of the upper
triangle).  The parameterization is redundant (global and column phases,
permutations); redundancy is accepted and invariance is covered by tests.

All reported minima are upper bounds: Nelder-Mead with multi-start makes
no global-optimality guarantee.
"""

import cmath
import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from scipy.optimize import minimize

from . import linalg
from .entanglement import BipartitionCut, negativity
from .errors import InvariantError
from .premeasure import MeasurementPlan, premeasure
from .states import SYSTEM, LabeledState, LocalBasis, spawn_rng

NEGATIVITY_OF_QUANTUMNESS = "negativity_of_quantumness"
ONE_WAY_DEFICIT = "one_way_deficit"
TWO_WAY_DEFICIT = "two_way_deficit"

VALUE_CLAMP = 1e-9


@dataclass(frozen=True)
class OptimizerConfig:
    restarts: int = 24
    max_iter: int = 300
    tol: float = 1e-8
    seed: int = 0

    def __post_init__(self):
        if self.restarts < 1:
            raise InvariantError("restarts must be >= 1")
        if self.max_iter < 1:
            raise InvariantError("max_iter must be >= 1")
        if self.tol <= 0:
            raise InvariantError("tolerance must be positive")


@dataclass(frozen=True)
class QuantumnessReport:
    value: float
    measure: str
    measured: tuple
    argmin_bases: tuple
    restart_values: tuple
    converged: bool


def _fast_kron(a, b):
    """np.kron without its generic-shape overhead (2-d inputs only)."""
    ra, ca = a.shape
    rb, cb = b.shape
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(ra * rb, ca * cb)


@lru_cache(maxsize=None)
def _triu(d):
    return np.triu_indices(d, 1)


def _fill_hermitian(params, d):
    # strict upper triangle in row-major order, the order of the params
    rows, cols = _triu(d)
    off = params[d::2] + 1j * params[d + 1 :: 2]
    h = np.zeros((d, d), dtype=complex)
    h[np.diag_indices(d)] = params[:d]
    h[rows, cols] = off
    h[cols, rows] = np.conj(off)
    return h


def _unitary_2x2(params):
    # closed-form exp(iH) for H = [[a, b+ic], [b-ic, e]]
    a, e, b, c = float(params[0]), float(params[1]), float(params[2]), float(params[3])
    t = 0.5 * (a + e)
    g = 0.5 * (a - e)
    r = math.sqrt(g * g + b * b + c * c)
    s = math.sin(r) / r if r > 1e-300 else 1.0
    phase = cmath.exp(1j * t)
    cr = math.cos(r)
    u = np.empty((2, 2), dtype=complex)
    u[0, 0] = phase * (cr + 1j * s * g)
    u[0, 1] = phase * (1j * s * (b + 1j * c))
    u[1, 0] = phase * (1j * s * (b - 1j * c))
    u[1, 1] = phase * (cr - 1j * s * g)
    return u


def params_to_unitary(params, d):
    """U = exp(iH) for the Hermitian H encoded by ``params`` (length d^2)."""
    params = np.asarray(params, dtype=float)
    if params.size != d * d:
        raise InvariantError(f"expected {d * d} parameters for dimension {d}, got {params.size}")
    if d == 2:
        return _unitary_2x2(params)
    h = _fill_hermitian(params, d)
    w, v = np.linalg.eigh(h)
    return (v * np.exp(1j * w)) @ np.conj(v).T


def decode_basis(params, d, subsystem=""):
    """Measurement basis whose columns are the columns of exp(iH(params))."""
    return LocalBasis(subsystem, params_to_unitary(params, d))


def make_plan(state, measured, params):
    """MeasurementPlan from a joint parameter vector (one d^2 block per label)."""
    bases = []
    k = 0
    for label in measured:
        d = state.register.dim(label)
        bases.append(decode_basis(params[k : k + d * d], d, label))
        k += d * d
    return MeasurementPlan(tuple(measured), tuple(bases))


def apparatus_cut(premeasured_state, n_original):
    """Cut separating the original subsystems from the appended apparatuses."""
    n = premeasured_state.register.n
    return BipartitionCut(tuple(range(n_original)), tuple(range(n_original, n)))


def plan_negativity(state, plan):
    """Negativity across system : apparatuses of the pre-measurement state."""
    pm = premeasure(state, plan)
    return negativity(pm, apparatus_cut(pm, state.register.n))


class _Workspace:
    """Precomputed machinery for repeated objective evaluations on one state.

    Measuring in basis U equals rotating the state by U^dag and recording
    the computational index: sigma = G rho G^dag with G the tensor product
    of the U_k^dag, and the isometry |s> -> |s>|rec(s)>, where rec(s) is the
    tuple of measured sub-indices of s.  The rotation is local on the system
    side of the system:apparatus cut, so it changes neither objective.
    Grouping the indices s by record a splits sigma into blocks sigma_ab,
    and the partial transpose of the pre-measurement state is a direct sum
    of the diagonal blocks sigma_aa and, for each a < b, the pair
    [[0, sigma_ab], [sigma_ba, 0]], whose eigenvalues are plus and minus the
    singular values of sigma_ab.  Hence

        negativity(system : apparatus) = sum_{a<b} ||sigma_ab||_1,

    and the dephased state is the direct sum of the sigma_aa, so its
    entropy is that of the diagonal-block eigenvalues (Nakano, Piani &
    Adesso, PRA 88, 012117, 2013).  Each block is m x m, with m the product
    of the unmeasured dimensions.  When every subsystem is measured, m = 1:
    each record names one index, the negativity is the sum of |sigma_ss'|
    over s < s', and the dephased spectrum is the diagonal of sigma.

    Construction builds the flat gather indices of the stacked off-diagonal
    blocks (a < b) and of the stacked diagonal blocks.
    """

    def __init__(self, state, measured):
        reg = state.register
        self.rho = state.rho
        self.dims = reg.dims
        self.n = reg.n
        self.measured_idx = [reg.index(lab) for lab in measured]
        self.meas_dims = [reg.dims[i] for i in self.measured_idx]
        self.param_len = sum(d * d for d in self.meas_dims)

        # Record of each full computational index: the flattened tuple of
        # its measured sub-indices, written in measurement order.
        big_d = reg.total_dim
        full = np.arange(big_d)
        rec = np.zeros(big_d, dtype=np.intp)
        for idx, d in zip(self.measured_idx, self.meas_dims):
            stride = int(np.prod(self.dims[idx + 1 :], dtype=int))
            rec = rec * d + (full // stride) % d
        # members[a] = the m indices with record a, ascending
        members = np.argsort(rec, kind="stable").reshape(int(np.prod(self.meas_dims)), -1)
        a, b = np.triu_indices(members.shape[0], 1)
        off = members[a][:, :, None] * big_d + members[b][:, None, :]
        diag = members[:, :, None] * big_d + members[:, None, :]
        self.scalar_blocks = members.shape[1] == 1
        if self.scalar_blocks:
            off, diag = off.ravel(), diag.ravel()
        self.off_idx = off
        self.diag_idx = diag

        self.base_entropy = linalg.von_neumann_entropy(self.rho)
        self._eyes = {d: np.eye(d, dtype=complex) for d in set(self.dims)}

    def _rotate(self, params):
        """sigma = G rho G^dag with G = (x) U_k^dag on measured subsystems."""
        slices = {}
        k = 0
        for idx, d in zip(self.measured_idx, self.meas_dims):
            slices[idx] = slice(k, k + d * d)
            k += d * d
        g = None
        for i in range(self.n):
            if i in slices:
                m = np.conj(params_to_unitary(params[slices[i]], self.dims[i])).T
            else:
                m = self._eyes[self.dims[i]]
            g = m if g is None else _fast_kron(g, m)
        return g @ self.rho @ np.conj(g).T

    def neg_objective(self, params):
        blocks = self._rotate(params).take(self.off_idx)
        if self.scalar_blocks:
            return float(np.abs(blocks).sum())
        return float(np.linalg.svd(blocks, compute_uv=False).sum())

    def deficit_objective(self, params):
        blocks = self._rotate(params).take(self.diag_idx)
        if self.scalar_blocks:
            probs = blocks.real
        else:
            probs = np.linalg.eigvalsh(blocks).ravel()
        return linalg.entropy_of_probs(probs) - self.base_entropy


def _optimize(objective, param_len, cfg):
    """Multi-start Nelder-Mead; restart 0 at zero parameters."""
    best_x = None
    best_val = np.inf
    restart_values = []
    converged = False
    for r in range(cfg.restarts):
        if r == 0:
            x0 = np.zeros(param_len)
        else:
            rng = spawn_rng(cfg.seed, r)
            x0 = rng.normal(scale=1.0, size=param_len)
        res = minimize(
            objective,
            x0,
            method="Nelder-Mead",
            options={
                "maxiter": cfg.max_iter,
                "xatol": 1e-6,
                "fatol": cfg.tol,
                "adaptive": param_len > 6,
            },
        )
        restart_values.append(float(res.fun))
        converged = converged or bool(res.success)
        if res.fun < best_val:
            best_val = float(res.fun)
            best_x = res.x
    return best_val, best_x, tuple(restart_values), converged


def _check_measured(state, measured):
    measured = tuple(measured)
    if not measured:
        raise InvariantError("measured subset must be nonempty")
    if len(set(measured)) != len(measured):
        raise InvariantError(f"duplicate measured labels: {measured}")
    for lab in measured:
        state.register.index(lab)
    return measured


def q_negativity(state, measured, cfg=OptimizerConfig()):
    """Upper bound on the minimum system:apparatus negativity over local bases."""
    measured = _check_measured(state, measured)
    ws = _Workspace(state, measured)
    value, best_x, restart_values, converged = _optimize(
        ws.neg_objective, ws.param_len, cfg
    )
    plan = make_plan(state, measured, best_x)
    return QuantumnessReport(
        value=max(0.0, value) if value < VALUE_CLAMP else value,
        measure=NEGATIVITY_OF_QUANTUMNESS,
        measured=measured,
        argmin_bases=plan.bases,
        restart_values=restart_values,
        converged=converged,
    )


def deficit(state, measured, cfg=OptimizerConfig()):
    """Minimum entropy increase under local dephasing on the measured subsystems.

    With one measured subsystem this is the one-way information deficit;
    with all subsystems measured it is the (two-way) relative entropy of
    quantumness.  Product-basis dephasing only; nonnegative by the pinching
    inequality.
    """
    measured = _check_measured(state, measured)
    ws = _Workspace(state, measured)
    value, best_x, restart_values, converged = _optimize(
        ws.deficit_objective, ws.param_len, cfg
    )
    n_sys = sum(1 for k in state.register.kinds if k == SYSTEM)
    two_way = len(measured) == state.register.n or len(measured) == n_sys > 1
    plan = make_plan(state, measured, best_x)
    return QuantumnessReport(
        value=max(0.0, value) if value < VALUE_CLAMP else value,
        measure=TWO_WAY_DEFICIT if two_way else ONE_WAY_DEFICIT,
        measured=measured,
        argmin_bases=plan.bases,
        restart_values=restart_values,
        converged=converged,
    )


def classify_cc(state, measured, threshold=1e-7, cfg=OptimizerConfig()):
    """I-CC classification: both quantumness residuals below ``threshold``.

    Returns {"cc", "witness_bases", "residual"}; witness bases are the
    argmin of the negativity optimization when classical.
    """
    q = q_negativity(state, measured, cfg)
    d = deficit(state, measured, cfg)
    residual = max(q.value, d.value)
    cc = residual < threshold
    return {
        "cc": cc,
        "witness_bases": q.argmin_bases if cc else None,
        "residual": residual,
        "negativity_residual": q.value,
        "deficit_residual": d.value,
    }


def _hermitian_basis(d):
    """Standard orthogonal Hermitian operator basis of a d-dim space."""
    ops = []
    for i in range(d):
        m = np.zeros((d, d), dtype=complex)
        m[i, i] = 1.0
        ops.append(m)
    for i in range(d):
        for j in range(i + 1, d):
            m = np.zeros((d, d), dtype=complex)
            m[i, j] = m[j, i] = 1.0 / np.sqrt(2)
            ops.append(m)
            m = np.zeros((d, d), dtype=complex)
            m[i, j] = -1j / np.sqrt(2)
            m[j, i] = 1j / np.sqrt(2)
            ops.append(m)
    return ops


def cc_commutation_oracle(state, measured_label, tol=1e-9):
    """Algebraic classicality check for the bipartite case (test oracle).

    The state is classical on the measured subsystem iff the conditional
    operators Tr_other[(I (x) X_m) rho], over a Hermitian operator basis
    {X_m} of the other subsystem, pairwise commute.
    """
    reg = state.register
    if reg.n != 2:
        raise InvariantError("cc_commutation_oracle requires a bipartite register")
    a = reg.index(measured_label)
    b = 1 - a
    da, db = reg.dims[a], reg.dims[b]
    t = state.rho.reshape(reg.dims + reg.dims)
    conditionals = []
    for x in _hermitian_basis(db):
        if a == 0:
            cond = np.einsum("ibjc,cb->ij", t, x)
        else:
            cond = np.einsum("bicj,cb->ij", t, x)
        conditionals.append(cond)
    for i in range(len(conditionals)):
        for j in range(i + 1, len(conditionals)):
            comm = conditionals[i] @ conditionals[j] - conditionals[j] @ conditionals[i]
            if np.max(np.abs(comm)) > tol:
                return False
    return True
