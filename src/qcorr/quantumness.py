"""Quantumness measures: minimum apparatus entanglement over local bases.

A local measurement is a basis, i.e. a unitary U up to column phases:
U -> UD with D diagonal leaves every projector |b_i><b_i|, and hence both
objectives, unchanged.  The search therefore runs over bases, not
unitaries.  Each measured subsystem of dimension d gets a Hermitian
generator H with zero diagonal, U = exp(iH), filled from d(d-1) reals: the
real and imaginary parts of the strict upper triangle, row-major.  This
chart covers every basis.  U(d)/T, T the diagonal phases, is a normal
homogeneous space whose geodesics from the identity are exp(itX) with X
off-diagonal, so by Hopf-Rinow every U is exp(iH) D for some such H and
diagonal D.  The d(d-1) parameters match the dimension of U(d)/T, so no
direction is flat by construction; column permutations, and several H
for one basis, remain.

All reported minima are upper bounds: Nelder-Mead with multi-start and a
polish of the winner makes no global-optimality guarantee.

The restarts of one optimization run in lockstep, ``LOCKSTEP_ROWS`` at a
time.  ``minimize`` is scipy's Nelder-Mead applied to every start at once:
each step evaluates the objective once on a batch holding the reflected
point of every restart still running, once on the expansion or contraction
points of the restarts that need one, and once on the shrink vertices, and
each restart stops on its own tolerances.  The objectives therefore take a
(B, param_len) array of parameter rows and return B values; exp(iH), the
rotation and the block spectra are all computed as stacked numpy calls
over the batch.
"""

from dataclasses import dataclass
from functools import lru_cache, partial

import numpy as np

from . import linalg
from .errors import InvariantError
from .premeasure import _records
from .states import SYSTEM, LocalBasis, spawn_rng

NEGATIVITY_OF_QUANTUMNESS = "negativity_of_quantumness"
ONE_WAY_DEFICIT = "one_way_deficit"
TWO_WAY_DEFICIT = "two_way_deficit"

VALUE_CLAMP = 1e-9
LOCKSTEP_ROWS = 64  # restarts per minimize call


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
        if not 0 < self.tol < float("inf"):  # also refuses NaN
            raise InvariantError(f"tolerance must be positive and finite, got {self.tol}")
        if self.seed < 0:
            raise InvariantError(f"seed must be non-negative, got {self.seed}")


@dataclass(frozen=True)
class QuantumnessReport:
    value: float
    measure: str
    measured: tuple
    argmin_bases: tuple
    restart_values: tuple
    converged: bool


@lru_cache(maxsize=None)
def _upper_slots(d):
    return np.triu_indices(d, 1)


def _exp_ih(params, d):
    """exp(iH) for each row of ``params`` (B, d(d-1)): an array (B, d, d)."""
    if d == 2:
        # H = [[0, z], [conj z, 0]] with z = b + ic squares to r^2 I, r = |z|,
        # so exp(iH) = cos(r) I + i sin(r)/r H
        z = np.ascontiguousarray(params).view(complex)[:, 0]
        r = np.abs(z)
        # at r = 0, z = 0 and any finite sin(r)/r gives exp(iH) = I
        iz = z * (1j * np.sin(r) / np.maximum(r, 1e-300))
        u = np.empty((len(params), 2, 2), dtype=complex)
        u[:, 0, 0] = u[:, 1, 1] = np.cos(r)
        u[:, 0, 1] = iz
        u[:, 1, 0] = -iz.conj()
        return u
    # eigh reads the lower triangle: the zero diagonal, then the conjugate
    # of the strict upper triangle, whose row-major order is the params'
    rows, cols = _upper_slots(d)
    h = np.zeros((len(params), d, d), dtype=complex)
    h[:, cols, rows] = params[:, ::2] - 1j * params[:, 1::2]
    w, v = np.linalg.eigh(h)
    return (v * np.exp(1j * w)[:, None, :]) @ np.conj(v).swapaxes(1, 2)


class _Workspace:
    """Precomputed machinery for repeated objective evaluations on one state.

    Measuring in basis U equals rotating the state by U^dag and recording
    the computational index (see :mod:`qcorr.premeasure`): sigma = G rho
    G^dag with G the tensor product of the U_k^dag, and the isometry
    |s> -> |s>|rec(s)>.  The rotation is local on the system side of the
    system:apparatus cut, so it changes neither objective.
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
    blocks (a < b) and of the stacked diagonal blocks.  Both objectives take
    a batch of parameter rows (B, param_len), form G for every row, and
    return one value per row; ``bases`` decodes one row through the same
    exp(iH) call.
    """

    def __init__(self, state, measured):
        reg = state.register
        self.rho = state.rho
        self.dims = reg.dims
        self.measured = measured
        self.measured_idx = [reg.index(lab) for lab in measured]
        self.meas_dims = [reg.dims[i] for i in self.measured_idx]
        self.param_len = sum(d * (d - 1) for d in self.meas_dims)

        big_d = reg.total_dim
        rec = _records(self.dims, self.measured_idx)
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
        # G = (x) U_k^dag over the register, with identities on unmeasured
        # subsystems (adjacent ones merged).  Parameters follow the
        # measurement order; the unitaries of all measured subsystems of one
        # dimension come from one exp(iH) call over their columns.
        starts = np.cumsum([0] + [d * (d - 1) for d in self.meas_dims])
        self._unitary_groups = []
        for d in sorted(set(self.meas_dims)):
            pos = [j for j, dj in enumerate(self.meas_dims) if dj == d]
            cols = np.concatenate([np.arange(starts[j], starts[j + 1]) for j in pos])
            if len(pos) == len(self.meas_dims):
                cols = slice(None)
            self._unitary_groups.append((d, pos, cols))
        self._factors = []  # position in measurement order, or an identity
        for i, d in enumerate(self.dims):
            if i in self.measured_idx:
                self._factors.append(self.measured_idx.index(i))
            elif self._factors and not isinstance(self._factors[-1], int):
                self._factors[-1] = np.eye(self._factors[-1].shape[-1] * d, dtype=complex)[None]
            else:
                self._factors.append(np.eye(d, dtype=complex)[None])

    def _unitaries_dag(self, params):
        """exp(iH)^dag of each measured subsystem, in measurement order: (B, d, d) each."""
        b = len(params)
        u_dag = [None] * len(self.meas_dims)
        for d, pos, cols in self._unitary_groups:
            u = _exp_ih(params[:, cols].reshape(-1, d * (d - 1)), d)
            u = np.conj(u).swapaxes(1, 2).reshape(b, len(pos), d, d)
            for k, j in enumerate(pos):
                u_dag[j] = u[:, k]
        return u_dag

    def bases(self, x):
        """The measurement basis of each measured subsystem at parameter row ``x``."""
        u_dag = self._unitaries_dag(x[None])
        return tuple(
            LocalBasis(label, linalg.dagger(u[0])) for label, u in zip(self.measured, u_dag)
        )

    def _rotate(self, params):
        """sigma = G rho G^dag for each row of ``params``: (B, D, D)."""
        u_dag = self._unitaries_dag(params)
        g = None
        for f in self._factors:
            m = u_dag[f] if isinstance(f, int) else f
            if g is None:
                g = m
            else:
                (_, ra, ca), (_, rb, cb) = g.shape, m.shape
                g = (g[:, :, None, :, None] * m[:, None, :, None, :]).reshape(-1, ra * rb, ca * cb)
        return g @ self.rho @ np.conj(g).swapaxes(1, 2)

    def neg_objective(self, params):
        """Negativity objective for each row of ``params`` (B, param_len)."""
        sigma = self._rotate(params).reshape(len(params), -1)
        blocks = sigma.take(self.off_idx, axis=1)
        if self.scalar_blocks:
            return np.abs(blocks).sum(axis=1)
        return np.linalg.svd(blocks, compute_uv=False).sum(axis=(1, 2))

    def deficit_objective(self, params):
        """Deficit objective for each row of ``params`` (B, param_len)."""
        sigma = self._rotate(params).reshape(len(params), -1)
        blocks = sigma.take(self.diag_idx, axis=1)
        if self.scalar_blocks:
            probs = blocks.real
        else:
            probs = np.linalg.eigvalsh(blocks).reshape(len(params), -1)
        # entropy in bits with eigenvalues at or below EIG_ZERO dropped
        probs = np.where(probs > linalg.EIG_ZERO, probs, 1.0)
        return -(probs * np.log2(probs)).sum(axis=1) - self.base_entropy


@dataclass(frozen=True)
class MinimizeResult:
    """Per-row outcome of a lockstep ``minimize``; ``nfev`` is the total."""

    x: np.ndarray
    fun: np.ndarray
    success: np.ndarray
    nit: np.ndarray
    nfev: int


def minimize(fun, x0s, max_iter, xatol, fatol, adaptive):
    """Nelder-Mead from every row of ``x0s`` (B, N) at once.

    Each row follows scipy's ``minimize(method="Nelder-Mead")`` with
    ``maxiter=max_iter``: the same initial simplex (x_k scaled by 1.05, or
    0.00025 where x_k = 0), the same coefficients (Gao & Han's when
    ``adaptive``), the same tests in the same order and the same stopping
    rule.  ``fun`` maps a (K, N) array of points to their K values; the
    rows share one call for the reflections, one for the expansion and
    contraction points, and one for the shrink vertices of every iteration.
    A row stops on its own tolerances, or at ``max_iter`` with
    ``success=False``.
    """
    x0s = np.asarray(x0s, dtype=float)
    n_rows, n = x0s.shape
    if adaptive:
        rho, chi, psi, sigma = 1, 1 + 2 / n, 0.75 - 1 / (2 * n), 1 - 1 / n
    else:
        rho, chi, psi, sigma = 1, 2, 0.5, 0.5
    # second trial point p * xbar - q * worst, by kind: 0 expansion,
    # 1 outside contraction, 2 inside contraction
    p2 = np.array([1 + rho * chi, 1 + psi * rho, 1 - psi])[:, None]
    q2 = np.array([rho * chi, psi * rho, -psi])[:, None]

    sim = np.repeat(x0s[:, None, :], n + 1, axis=1)
    k = np.arange(n)
    sim[:, k + 1, k] = np.where(x0s != 0, (1 + 0.05) * x0s, 0.00025)
    fsim = fun(sim.reshape(-1, n)).reshape(n_rows, n + 1)
    nfev = fsim.size

    x = np.empty((n_rows, n))
    fval = np.empty(n_rows)
    success = np.zeros(n_rows, dtype=bool)
    nit = np.full(n_rows, max_iter)
    rows = np.arange(n_rows)  # original index of each active row
    at = rows[:, None]
    for _ in range(2):  # scipy sorts the first simplex twice
        order = fsim.argsort(axis=1)
        sim, fsim = sim[at, order], fsim[at, order]
    iterations = 1
    while True:
        if iterations >= max_iter:
            done = np.ones(len(rows), dtype=bool)
        else:
            # scipy's test max|f_0 - f_j| <= fatol and max|x_j - x_0| <=
            # xatol; f is sorted, so its maximum is f_N - f_0
            done = fsim[:, -1] - fsim[:, 0] <= fatol
            if np.count_nonzero(done):
                done &= np.abs(sim[:, 1:] - sim[:, :1]).reshape(len(rows), -1).max(axis=1) <= xatol
        if np.count_nonzero(done):
            stop = rows[done]
            x[stop] = sim[done, 0]
            fval[stop] = fsim[done].min(axis=1)
            if iterations < max_iter:
                success[stop] = True
                nit[stop] = iterations
            keep = ~done
            rows, sim, fsim = rows[keep], sim[keep], fsim[keep]
            if not len(rows):
                break
            at = np.arange(len(rows))[:, None]

        xbar = np.add.reduce(sim[:, :-1], 1) / n
        worst = sim[:, -1]
        xr = (1 + rho) * xbar - rho * worst
        fxr = fun(xr)
        nfev += len(rows)

        # scipy's branches: expand when xr beats the best vertex, keep xr
        # when it beats the second worst, else contract: outside when xr
        # beats the worst, inside when not
        expand = fxr < fsim[:, 0]
        need = expand | ~(fxr < fsim[:, -2])
        n2 = np.count_nonzero(need)
        shrink = None
        if n2:
            kind = np.where(expand, 0, 2 - (fxr < fsim[:, -1]))
            x2 = p2[kind] * xbar - q2[kind] * worst
            if n2 == len(rows):
                f2 = fun(x2)
            else:
                f2 = np.full(len(rows), np.nan)  # rows that need no second point
                f2[need] = fun(x2[need])
            nfev += n2
            # an expansion point replaces xr if f2 < fxr, an outside
            # contraction point if f2 <= fxr, an inside one if f2 < f_N;
            # a contraction that fails shrinks the simplex
            take = np.where(kind == 2, f2 < fsim[:, -1], np.where(kind == 1, f2 <= fxr, f2 < fxr))
            xr = np.where(take[:, None], x2, xr)
            fxr = np.where(take, f2, fxr)
            shrink = need & ~(take | expand)
        if shrink is not None and np.count_nonzero(shrink):
            keep = ~shrink
            sim[keep, -1], fsim[keep, -1] = xr[keep], fxr[keep]
            best = sim[shrink, :1]
            pts = best + sigma * (sim[shrink, 1:] - best)
            sim[shrink, 1:] = pts
            fsim[shrink, 1:] = fun(pts.reshape(-1, n)).reshape(-1, n)
            nfev += pts.shape[0] * n
        else:
            sim[:, -1], fsim[:, -1] = xr, fxr
        iterations += 1
        order = fsim.argsort(axis=1)
        sim, fsim = sim[at, order], fsim[at, order]
    return MinimizeResult(x, fval, success, nit, int(nfev))


def _optimize(objective, param_len, cfg):
    """Multi-start Nelder-Mead with the restarts advancing in lockstep.

    Restart 0 starts at zero parameters, restart r > 0 at a normal draw
    from ``spawn_rng(cfg.seed, r)``.  The restarts run through ``minimize``
    in chunks of at most ``LOCKSTEP_ROWS``, each chunk's starts drawn when it
    runs, which bounds the batch memory, and each restart's path is the one
    scipy's Nelder-Mead would take from its start alone.  The first strict
    minimum wins.  ``converged`` is True when any restart stopped on its
    tolerances before ``max_iter``; then the winner, which may have stalled
    on a collapsed simplex or been cut at ``max_iter``, gets one more run
    from its point with a fresh simplex, kept if strictly lower.  With no
    restart converged, the budget is not
    extended.
    """
    def run(x0s):  # Gao-Han coefficients unless one qubit is measured
        return minimize(objective, x0s, max_iter=cfg.max_iter, xatol=1e-6, fatol=cfg.tol,
                        adaptive=param_len > 2)

    def starts(k):  # the chunk of restarts from k on
        x0s = np.zeros((min(LOCKSTEP_ROWS, cfg.restarts - k), param_len))
        for r in range(max(k, 1), k + len(x0s)):
            x0s[r - k] = spawn_rng(cfg.seed, r).normal(scale=1.0, size=param_len)
        return x0s

    chunks = [run(starts(k)) for k in range(0, cfg.restarts, LOCKSTEP_ROWS)]
    fun = np.concatenate([c.fun for c in chunks])
    best = int(np.argmin(fun))
    best_x = chunks[best // LOCKSTEP_ROWS].x[best % LOCKSTEP_ROWS]
    converged = any(c.success.any() for c in chunks)
    if converged:
        polish = run(best_x[None])
        if polish.fun[0] < fun[best]:
            fun[best], best_x = polish.fun[0], polish.x[0]
    return float(fun[best]), best_x, tuple(float(v) for v in fun), converged


def _check_measured(state, measured):
    measured = tuple(measured)
    if not measured:
        raise InvariantError("measured subset must be nonempty")
    if len(set(measured)) != len(measured):
        raise InvariantError(f"duplicate measured labels: {measured}")
    for lab in measured:
        state.register.index(lab)
    return measured


def _minimum_over_bases(state, measured, cfg, objective, measure):
    """Report of the optimized minimum of ``objective``, a ``_Workspace`` method."""
    ws = _Workspace(state, measured)
    value, best_x, restart_values, converged = _optimize(
        partial(objective, ws), ws.param_len, cfg
    )
    return QuantumnessReport(
        value=max(0.0, value) if value < VALUE_CLAMP else value,
        measure=measure,
        measured=measured,
        argmin_bases=ws.bases(best_x),
        restart_values=restart_values,
        converged=converged,
    )


def q_negativity(state, measured, cfg=OptimizerConfig()):
    """Upper bound on the minimum system:apparatus negativity over local bases."""
    measured = _check_measured(state, measured)
    return _minimum_over_bases(
        state, measured, cfg, _Workspace.neg_objective, NEGATIVITY_OF_QUANTUMNESS
    )


def deficit(state, measured, cfg=OptimizerConfig()):
    """Minimum entropy increase under local dephasing on the measured subsystems.

    With one measured subsystem this is the one-way information deficit;
    with all subsystems measured it is the (two-way) relative entropy of
    quantumness.  Product-basis dephasing only; nonnegative by the pinching
    inequality.
    """
    measured = _check_measured(state, measured)
    n_sys = state.register.kinds.count(SYSTEM)
    two_way = len(measured) == state.register.n or len(measured) == n_sys > 1
    return _minimum_over_bases(
        state, measured, cfg, _Workspace.deficit_objective,
        TWO_WAY_DEFICIT if two_way else ONE_WAY_DEFICIT,
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
