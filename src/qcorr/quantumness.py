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

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache, partial

import numpy as np

from . import linalg
from .entanglement import CLAMP
from .errors import InvariantError
from .states import SYSTEM, LocalBasis, spawn_rng

NEGATIVITY_OF_QUANTUMNESS = "negativity_of_quantumness"
ONE_WAY_DEFICIT = "one_way_deficit"
TWO_WAY_DEFICIT = "two_way_deficit"

LOCKSTEP_ROWS = 64  # restarts per minimize call

# Largest commutator entry at which ``cc_commutation_oracle`` calls two slices commuting.
_COMMUTATION_TOL = 1e-9


def _integer(value, what):
    """``value`` if it is an integer other than a bool: its type defines ``__index__``."""
    if isinstance(value, bool) or not hasattr(type(value), "__index__"):
        raise InvariantError(f"{what} must be an integer, got {value!r}")
    return value


@dataclass(frozen=True)
class OptimizerConfig:
    restarts: int = 24
    max_iter: int = 300
    tol: float = 1e-8
    seed: int = 0

    def __post_init__(self):
        for name in ("restarts", "max_iter", "seed"):
            _integer(getattr(self, name), name)
        if self.restarts < 1:
            raise InvariantError("restarts must be >= 1")
        if self.max_iter < 1:
            raise InvariantError("max_iter must be >= 1")
        if isinstance(self.tol, bool) or not 0 < self.tol < float("inf"):  # also refuses NaN
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


def _trace_norm_2x2(x):
    """||X||_1 of each 2x2 matrix in ``x`` (..., 2, 2).

    With singular values s, t: s^2 + t^2 = ||X||_F^2 and s t = |det X|, so
    s + t = sqrt(||X||_F^2 + 2 |det X|).
    """
    v = np.ascontiguousarray(x).reshape(x.shape[:-2] + (4,))
    det = v[..., 0] * v[..., 3] - v[..., 1] * v[..., 2]
    w = v.view(float)  # the real and imaginary parts of the four entries
    return np.sqrt((w * w).sum(axis=-1) + 2 * np.abs(det))


_MINUS_PLUS = np.array([-1.0, 1.0])


def _eigvalsh_2x2(x):
    """Eigenvalues of each Hermitian 2x2 matrix in ``x`` (..., 2, 2), ascending.

    Like ``eigvalsh``, reads the real diagonal and the lower triangle:
    [[p, q*], [q, r]] has eigenvalues (p + r -+ hypot(p - r, 2|q|)) / 2.
    """
    v = x.reshape(x.shape[:-2] + (4,))
    p, r = v[..., 0].real, v[..., 3].real
    width = np.hypot(p - r, 2 * np.abs(v[..., 2]))
    return ((p + r)[..., None] + width[..., None] * _MINUS_PLUS) * 0.5


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
    of the unmeasured dimensions.

    Construction permutes the tensor axes of rho once, measured subsystems
    first in measurement order, then the unmeasured ones in register order,
    so that an index is (kappa, nu): the record kappa < D_M, D_M the
    product of the measured dimensions, and the unmeasured index nu < m.
    Only the measured factor G_M = (x) U_k^dag of G then varies, and

        sigma_ab[nu, nu'] = sum_{kappa, kappa'} G_M[a, kappa]
                            rho[(kappa, nu), (kappa', nu')] conj(G_M[b, kappa']).

    rho is stored as R, a (D_M^2, m^2) matrix with rows (kappa, kappa') and
    columns (nu, nu'); the coefficient row of a pair (a, b) is G_M[a, :]
    (x) conj(G_M[b, :]), and one stacked product per call gives every block
    of every parameter row.  It stays a stack of one (P, D_M^2) x
    (D_M^2, m^2) product per row, so a row's blocks do not depend on the
    batch it is in.  2x2 blocks have closed-form trace norms and spectra;
    larger ones go to ``svd`` and ``eigvalsh``.

    When every subsystem is measured (m = 1), sigma = G_M rho G_M^dag is
    formed and its entries gathered: P coefficient rows would cost P D_M^2
    products per parameter row.  The same route guards memory when the P
    coefficient rows of length D_M^2 would hold more than 4 D^2 entries,
    four times sigma (P > 4 m^2: many measured subsystems, few unmeasured).
    It never forms G_M (x) I_m: rho is stored as a (D_M, m^2 D_M) matrix
    with rows kappa and columns (nu, nu', kappa'), and two stacked
    products, G_M times that matrix and then the result, with rows
    (a, nu, nu'), times G_M^dag, put sigma_ab[nu, nu'] at row (a, nu, nu')
    and column b.  Construction keeps only the layouts of rho that the two
    routes read; S(rho) and the grouping of the chart are built on first use.

    ``negativity_at`` reads the negativity at given U_k^dag, as
    ``apparatus_negativity`` does for fixed bases.  Both objectives decode a
    batch of parameter rows (B, param_len) into U_k^dag, then read one value
    per row; ``bases`` decodes one row through the same exp(iH) call.
    """

    def __init__(self, state, measured):
        reg = state.register
        self._state = state
        self.measured = measured
        measured_idx = [reg.index(lab) for lab in measured]
        self.meas_dims = [reg.dims[i] for i in measured_idx]
        self.param_len = sum(d * (d - 1) for d in self.meas_dims)

        d_m = math.prod(self.meas_dims)
        self.block_dim = m = len(state.rho) // d_m

        def pairs(a, b):
            # the records (a, b) of the blocks an objective reads, and
            # whether to read them off sigma rather than coefficient rows
            return a, b, m == 1 or len(a) > 4 * m * m

        self._off_pairs = pairs(*_upper_slots(d_m))
        self._diag_pairs = pairs(np.arange(d_m), np.arange(d_m))
        routes = {self._off_pairs[2], self._diag_pairs[2]}

        order = measured_idx + [i for i in range(reg.n) if i not in measured_idx]
        rho = state.rho.reshape(reg.dims * 2).transpose(order + [reg.n + i for i in order])
        rho = rho.reshape(d_m, m, d_m, m)
        if True in routes:  # rows kappa, columns (nu, nu', kappa')
            self._rho_sigma = rho.transpose(0, 1, 3, 2).reshape(d_m, m * m * d_m)
        if False in routes:  # rows (kappa, kappa'), columns (nu, nu')
            self._rho = rho.transpose(0, 2, 1, 3).reshape(d_m**2, m * m)

    @cached_property
    def base_entropy(self):
        return linalg.von_neumann_entropy(self._state.rho)

    @cached_property
    def _unitary_groups(self):
        # Parameters follow the measurement order; the unitaries of all
        # measured subsystems of one dimension come from one exp(iH) call
        # over their columns.
        starts = np.cumsum([0] + [d * (d - 1) for d in self.meas_dims])
        groups = []
        for d in sorted(set(self.meas_dims)):
            pos = [j for j, dj in enumerate(self.meas_dims) if dj == d]
            cols = np.concatenate([np.arange(starts[j], starts[j + 1]) for j in pos])
            if len(pos) == len(self.meas_dims):
                cols = slice(None)
            groups.append((d, pos, cols))
        return groups

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

    def _blocks(self, u_dag, pairs):
        """sigma_ab for each (a, b) in ``pairs`` at each row of the U_k^dag stacks: (B, P, m, m)."""
        g, *rest = u_dag
        for u in rest:  # G_M, the Kronecker product over the measured subsystems
            (n, ra, ca), (_, rb, cb) = g.shape, u.shape
            g = (g[:, :, None, :, None] * u[:, None, :, None, :]).reshape(n, ra * rb, ca * cb)
        a, b, via_sigma = pairs
        n, d_m, m = len(g), g.shape[1], self.block_dim
        if via_sigma:  # sigma_ab[nu, nu'] at rows (a, nu, nu') and column b
            sigma = (g @ self._rho_sigma).reshape(n, d_m * m * m, d_m) @ np.conj(g).swapaxes(1, 2)
            sigma = sigma.reshape(n, d_m, m * m, d_m).swapaxes(2, 3).reshape(n, d_m**2, m, m)
            return sigma.take(a * d_m + b, axis=1)
        coeffs = g.take(a, axis=1)[:, :, :, None] * np.conj(g.take(b, axis=1))[:, :, None, :]
        return (coeffs.reshape(n, len(a), -1) @ self._rho).reshape(n, len(a), m, m)

    def negativity_at(self, u_dag):
        """sum_{a<b} ||sigma_ab||_1 at each row of ``u_dag``, one (B, d, d) stack per U_k^dag."""
        blocks = self._blocks(u_dag, self._off_pairs)
        if self.block_dim == 1:
            return np.abs(blocks).reshape(len(blocks), -1).sum(axis=1)
        if self.block_dim == 2:
            return _trace_norm_2x2(blocks).sum(axis=1)
        return np.linalg.svd(blocks, compute_uv=False).sum(axis=(1, 2))

    def neg_objective(self, params):
        """Negativity objective for each row of ``params`` (B, param_len)."""
        return self.negativity_at(self._unitaries_dag(params))

    def deficit_objective(self, params):
        """Deficit objective for each row of ``params`` (B, param_len)."""
        blocks = self._blocks(self._unitaries_dag(params), self._diag_pairs)
        if self.block_dim == 1:
            probs = blocks.real.reshape(len(params), -1)
        elif self.block_dim == 2:
            probs = _eigvalsh_2x2(blocks).reshape(len(params), -1)
        else:
            probs = np.linalg.eigvalsh(blocks).reshape(len(params), -1)
        # entropy in bits with eigenvalues at or below EIG_ZERO dropped
        probs = np.where(probs > linalg.EIG_ZERO, probs, 1.0)
        return -(probs * np.log2(probs)).sum(axis=1) - self.base_entropy


def apparatus_negativity(state, plan):
    """System:apparatus negativity of ``premeasure(state, plan)``, read off the blocks.

    The optimizer's read at the plan bases; no pre-measurement state is
    formed.  Below ``entanglement.CLAMP`` it reads 0.0, as ``negativity`` does.
    """
    plan.check_register(state.register)
    u_dag = [linalg.dagger(b.vectors)[None] for b in plan.bases]
    value = float(_Workspace(state, plan.measured).negativity_at(u_dag)[0])
    return 0.0 if value < CLAMP else value


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
        value=0.0 if value <= 0 else value,  # -0.0 and below zero report +0.0; NaN passes
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
    with every label measured, or every system label of a register with two
    or more systems, it is the (two-way) relative entropy of quantumness.
    Product-basis dephasing only; nonnegative by the pinching inequality.
    """
    measured = _check_measured(state, measured)
    reg = state.register
    systems = {lab for lab, kind in zip(reg.labels, reg.kinds) if kind == SYSTEM}
    two_way = set(measured) == set(reg.labels) or (len(systems) > 1 and systems <= set(measured))
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


def cc_commutation_oracle(state, measured_label):
    """Algebraic classicality check for the bipartite case (test oracle).

    The state is classical on the measured subsystem iff the conditional
    operators Tr_other[(I (x) X) rho], X Hermitian on the other subsystem,
    pairwise commute.  They span the same space as the slices
    <k|_other rho |l>_other, so the slices are tested pairwise instead.
    """
    reg = state.register
    if reg.n != 2:
        raise InvariantError("cc_commutation_oracle requires a bipartite register")
    t = state.rho.reshape(reg.dims + reg.dims)
    if reg.index(measured_label) == 1:  # the measured subsystem's axes first
        t = t.transpose(1, 0, 3, 2)
    slices = [t[:, k, :, l] for k in range(t.shape[1]) for l in range(t.shape[1])]
    return all(
        np.max(np.abs(x @ y - y @ x)) <= _COMMUTATION_TOL
        for i, x in enumerate(slices)
        for y in slices[i + 1 :]
    )
