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
each restart stops on its own tolerances.  The objective therefore takes a
(B, param_len) array of parameter rows and returns B values; exp(iH), the
rotation and the block spectra are all computed as stacked numpy calls
over the batch.
"""

import math
import numbers
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from . import linalg
from .entanglement import CLAMP, _factor
from .errors import InvariantError
from .premeasure import _measured_subset
from .states import SYSTEM, LocalBasis, _integer, make_rng

NEGATIVITY_OF_QUANTUMNESS = "negativity_of_quantumness"
ONE_WAY_DEFICIT = "one_way_deficit"
TWO_WAY_DEFICIT = "two_way_deficit"

LOCKSTEP_ROWS = 64  # restarts per minimize call

# Residual below which ``classify_cc`` calls a state classically correlated.
CC_THRESHOLD = 1e-7

# Largest commutator entry at which ``cc_commutation_oracle`` calls two slices commuting.
_COMMUTATION_TOL = 1e-9


def _positive(value, what):
    """Refuse ``value`` unless it is a real number, other than a bool, in (0, inf)."""
    if isinstance(value, bool) or not (isinstance(value, numbers.Real) and 0 < value < math.inf):
        raise InvariantError(f"{what} must be positive and finite, got {value!r}")


@dataclass(frozen=True)
class OptimizerConfig:
    restarts: int = 24
    max_iter: int = 300
    tol: float = 1e-8
    seed: int = 0

    def __post_init__(self):
        for name, low in (("restarts", 1), ("max_iter", 1), ("seed", 0)):
            _integer(getattr(self, name), name, low=low)
        _positive(self.tol, "tol")


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


def _exp_ih_dag(params, d):
    """exp(iH)^dag for each row of ``params`` (B, d(d-1)): an array (B, d, d)."""
    if d == 2:
        # H = [[0, z], [conj z, 0]], z = b + ic, squares to r^2 I, r = |z|, so
        # exp(iH) = cos(r) I + i sin(r)/r H = [[cos r, w], [-conj w, cos r]]
        # with w = i z sin(r)/r; at r = 0, z = 0 and exp(iH) = I
        z = np.ascontiguousarray(params).view(complex)[:, 0]
        r = np.abs(z)
        c, w = np.cos(r), z * (1j * np.sin(r) / np.maximum(r, 1e-300))
        ut = np.empty((len(params), 2, 2), dtype=complex)  # exp(iH)^T
        ut[:, 0, 0] = ut[:, 1, 1] = c
        ut[:, 0, 1] = -w.conj()
        ut[:, 1, 0] = w
        return np.conj(ut)
    # eigh reads the lower triangle: the zero diagonal, then the conjugate
    # of the strict upper triangle, whose row-major order is the params'
    rows, cols = _upper_slots(d)
    h = np.zeros((len(params), d, d), dtype=complex)
    h[:, cols, rows] = params[:, ::2] - 1j * params[:, 1::2]
    w, v = np.linalg.eigh(h)
    return linalg.dagger((v * np.exp(1j * w)[:, None, :]) @ linalg.dagger(v))


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


def _measured_unitary(u_dag):
    """G_M = (x) U_k^dag, the Kronecker product over the measured subsystems: (B, D_M, D_M)."""
    g, *rest = u_dag
    for u in rest:
        (n, ra, ca), (_, rb, cb) = g.shape, u.shape
        g = (g[:, :, None, :, None] * u[:, None, :, None, :]).reshape(n, ra * rb, ca * cb)
    return g


def _trace_norm_sums(blocks):
    """sum of ||X||_1 over the square blocks X of each row of ``blocks`` (B, P, k, k).

    Each row's terms are summed as one C-ordered row, so that the sum does
    not depend on the memory layout of the batch that carries the row.
    """
    if blocks.shape[-1] == 1:
        return np.abs(blocks).reshape(len(blocks), -1).sum(axis=1)
    if blocks.shape[-1] == 2:
        return _trace_norm_2x2(blocks).sum(axis=1)
    return np.linalg.svd(blocks, compute_uv=False).reshape(len(blocks), -1).sum(axis=1)


def _entropy_of_spectra(blocks):
    """Entropy in bits of the eigenvalues of the Hermitian blocks of each row (B, P, k, k).

    Eigenvalues at or below EIG_ZERO are dropped.
    """
    if blocks.shape[-1] == 1:
        probs = blocks.real.reshape(len(blocks), -1)
    elif blocks.shape[-1] == 2:
        probs = _eigvalsh_2x2(blocks).reshape(len(blocks), -1)
    else:
        probs = np.linalg.eigvalsh(blocks).reshape(len(blocks), -1)
    probs = np.where(probs > linalg.EIG_ZERO, probs, 1.0)
    return -(probs * np.log2(probs)).sum(axis=1)


class _Workspace:
    """Precomputed machinery for repeated objective evaluations on one density matrix.

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

    Construction permutes the tensor axes once, measured subsystems first
    in measurement order, then the unmeasured ones in register order, so
    that an index is (kappa, nu): the record kappa < D_M, D_M the product of
    the measured dimensions, and the unmeasured index nu < m.  Only the
    measured factor G_M = (x) U_k^dag of G then varies.  The workspace keeps
    one of two layouts, chosen by its caller:

    - the block layout, of rho itself, in which

        sigma_ab[nu, nu'] = sum_{kappa, kappa'} G_M[a, kappa]
                            rho[(kappa, nu), (kappa', nu')] conj(G_M[b, kappa']);

    - the factor layout, of a (D, r) F with rho = F F^dag, permuted to a
      (D_M, m r) matrix with rows kappa and columns (nu, j).  One product
      X = G_M F gives each record a an (m, r) matrix X_a with
      sigma_ab = X_a X_b^dag.  With the QR X_a = Q_a R_a, R_a of shape
      (k, r), k = min(m, r), ||sigma_ab||_1 = ||R_a R_b^dag||_1 and sigma_aa
      has the nonzero spectrum of R_a R_a^dag: k x k blocks in place of
      m x m.  At r = 1, R_a = ||x_a||.  A row costs D_M D r plus P k^3
      against P m^3, so the factor pays when r is small against m.

    In the block layout, rho is stored as R, a (D_M^2, m^2) matrix with
    rows (kappa, kappa') and columns (nu, nu'); the coefficient row of a
    pair (a, b) is G_M[a, :] (x) conj(G_M[b, :]), and one stacked product
    per call gives every block of every parameter row.  It stays a stack of
    one (P, D_M^2) x (D_M^2, m^2) product per row, so a row's blocks do not
    depend on the batch it is in; so does the factor layout's G_M F.
    Whatever the layout, 1x1 and 2x2 blocks have closed-form trace norms
    and spectra, and larger ones go to ``svd`` and ``eigvalsh``.

    As a memory guard, the block layout forms sigma = G_M rho G_M^dag and
    gathers its entries when the P off-diagonal coefficient rows of length
    D_M^2 would hold more than 4 D^2 entries, four times sigma (P > 4 m^2:
    many measured subsystems, few unmeasured; at D_M >= 4 this holds for
    every m = 1).  The route is chosen once per workspace and both reads
    take it.  It never forms G_M (x) I_m: rho is stored as a (D_M, m^2 D_M)
    matrix with rows kappa and columns (nu, nu', kappa'), and two stacked
    products, G_M times that matrix and then the result, with rows (a, nu,
    nu'), times G_M^dag, put sigma_ab[nu, nu'] at row (a, nu, nu') and
    column b.

    Construction takes a register and rho, or a register and F, not a
    state, and checks neither.  Given ``factor`` it keeps the factor layout
    and does not read ``rho``, which may be None; S(rho) is then read off
    F^dag F, which has the nonzero spectrum of F F^dag.  The grouping of the
    chart and S(rho) are built on first use.  ``_minimum_over_bases``
    chooses the layout by the width of ``entanglement._factor``'s F; every
    other caller holding only rho keeps the block layout, which is the
    oracle of the factor's.

    Every read goes through ``_read(g, negativity)``, which reads the
    negativity, or the deficit when not ``negativity``, at each G_M of a
    stack ``g`` (B, D_M, D_M) and returns one value per row; the pairs it
    reads are fixed when the workspace is built.  ``objective`` gives the
    optimizer ``_read`` at ``_g``, which decodes parameter rows (B,
    param_len) to G_M: with one measured subsystem G_M is its exp(iH)^dag,
    else the Kronecker product of the exp(iH)^dag, all subsystems of one
    dimension decoded in one call.  ``apparatus_negativity`` reads G_M off
    fixed bases, and ``bases`` decodes one row through the same exp(iH)^dag.
    """

    def __init__(self, reg, rho, measured, factor=None):
        self.measured = measured = _measured_subset(measured)
        measured_idx = [reg.index(lab) for lab in measured]
        self.meas_dims = [reg.dims[i] for i in measured_idx]
        self.param_len = sum(d * (d - 1) for d in self.meas_dims)

        self._records = d_m = math.prod(self.meas_dims)
        self.block_dim = m = reg.total_dim // d_m
        # the record pairs (a, b) of each read: a < b for the negativity,
        # a = b for the deficit, as basic slices where they are ranges
        self._pairs = {True: _upper_slots(d_m), False: (slice(None), slice(None))}
        if d_m == 2:
            self._pairs[True] = (slice(0, 1), slice(1, 2))
        order = measured_idx + [i for i in range(reg.n) if i not in measured_idx]
        if factor is not None:  # rows kappa, columns (nu, j)
            r = factor.shape[1]
            self._matrix = linalg.dagger(factor) @ factor
            self._factor = factor.reshape(reg.dims + (r,)).transpose(order + [reg.n])
            self._factor = self._factor.reshape(d_m, m * r)
            return
        self._matrix, self._factor = rho, None
        # sigma rather than coefficient rows when the off-diagonal coefficient
        # rows would hold more than 4 D^2 entries
        self._via_sigma = d_m * (d_m - 1) // 2 > 4 * m * m
        rho = rho.reshape(reg.dims * 2).transpose(order + [reg.n + i for i in order])
        rho = rho.reshape(d_m, m, d_m, m)
        if self._via_sigma:  # rows kappa, columns (nu, nu', kappa')
            self._rho = rho.transpose(0, 1, 3, 2).reshape(d_m, m * m * d_m)
        else:  # rows (kappa, kappa'), columns (nu, nu')
            self._rho = rho.transpose(0, 2, 1, 3).reshape(d_m**2, m * m)

    @cached_property
    def base_entropy(self):
        return linalg.von_neumann_entropy(self._matrix)

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

    def _g(self, params):
        """G_M = (x) U_k^dag at each row of ``params`` (B, param_len): (B, D_M, D_M)."""
        if len(self.meas_dims) == 1:
            return _exp_ih_dag(params, self.meas_dims[0])
        b = len(params)
        u_dag = [None] * len(self.meas_dims)
        for d, pos, cols in self._unitary_groups:
            u = _exp_ih_dag(params[:, cols].reshape(-1, d * (d - 1)), d).reshape(b, len(pos), d, d)
            for k, j in enumerate(pos):
                u_dag[j] = u[:, k]
        return _measured_unitary(u_dag)

    def bases(self, x):
        """The measurement basis of each measured subsystem at parameter row ``x``."""
        ends = np.cumsum([d * (d - 1) for d in self.meas_dims])
        return tuple(
            LocalBasis(label, linalg.dagger(_exp_ih_dag(x[None, end - d * (d - 1) : end], d)[0]))
            for label, d, end in zip(self.measured, self.meas_dims, ends)
        )

    def objective(self, negativity):
        """The optimizer's objective: the negativity read, or the deficit read
        when not ``negativity``, at each parameter row of a (B, param_len) array."""
        return lambda params: self._read(self._g(params), negativity)

    def _blocks(self, g, a, b):
        """sigma_ab for each record pair of (a, b) at each G_M of ``g`` (B, D_M, D_M): (B, P, m, m)."""
        n, d_m, m = len(g), g.shape[1], self.block_dim
        if self._via_sigma:  # sigma_ab[nu, nu'] at rows (a, nu, nu') and column b
            sigma = (g @ self._rho).reshape(n, d_m * m * m, d_m) @ np.conj(g).swapaxes(1, 2)
            sigma = sigma.reshape(n, d_m, m * m, d_m).swapaxes(2, 3).reshape(n, d_m**2, m, m)
            records = np.arange(d_m)
            return sigma.take(records[a] * d_m + records[b], axis=1)
        # C order: a stacked product's bits depend on its operand's layout
        coeffs = np.multiply(g[:, a, :, None], np.conj(g[:, b])[:, :, None, :], order="C")
        p = coeffs.shape[1]
        return (coeffs.reshape(n, p, -1) @ self._rho).reshape(n, p, m, m)

    def _factor_r(self, g):
        """R_a of the QR X_a = Q_a R_a for each record a at each G_M of ``g``: (B, D_M, k, r)."""
        n = len(g)
        x = (g @ self._factor).reshape(n, self._records, self.block_dim, -1)
        if x.shape[-1] == 1:  # R_a = ||x_a||, real
            x = x.reshape(n, self._records, -1).view(float)
            return np.sqrt((x * x).sum(axis=2)).reshape(n, self._records, 1, 1)
        return np.linalg.qr(x, mode="r")

    def _read(self, g, negativity):
        """The negativity read, or the deficit read when not ``negativity``, at each G_M of ``g``."""
        a, b = self._pairs[negativity]
        if self._factor is None:
            blocks = self._blocks(g, a, b)
        else:
            r = self._factor_r(g)
            ra, rb = r[:, a], r[:, b]
            blocks = ra * rb if r.shape[-1] == 1 else ra @ linalg.dagger(rb)
        if negativity:
            return _trace_norm_sums(blocks)
        return _entropy_of_spectra(blocks) - self.base_entropy


def apparatus_negativity(reg, rho, plan):
    """System:apparatus negativity of ``plan``'s pre-measurement of ``rho`` on ``reg``.

    The optimizer's read at the plan bases, off the blocks of ``rho``: a
    one-shot read factors nothing.  No pre-measurement state is formed and
    ``rho`` is not checked.  Below ``entanglement.CLAMP`` it reads 0.0, as
    ``negativity`` does.
    """
    plan.check_register(reg)
    return _negativity_at_plan(_Workspace(reg, rho, plan.measured), plan)


def _negativity_at_plan(ws, plan):
    """The negativity read of ``ws`` at the plan bases, 0.0 below ``entanglement.CLAMP``."""
    g = _measured_unitary([linalg.dagger(b.vectors)[None] for b in plan.bases])
    value = float(ws._read(g, True)[0])
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
    from ``make_rng(cfg.seed, r)``, the stream of sub-task r of the seed.
    The restarts run through ``minimize`` in chunks of at most
    ``LOCKSTEP_ROWS``, each chunk's starts drawn when it runs, which bounds
    the batch memory, and each restart's path is the one scipy's Nelder-Mead
    would take from its start alone.  The first strict minimum wins.  ``converged`` is True when any restart stopped on its
    tolerances before ``max_iter``; then the winner, which may have stalled
    on a collapsed simplex or been cut at ``max_iter``, gets one more run
    from its point with a fresh simplex, kept if strictly lower.  With no
    restart converged, the budget is not extended.
    """
    def run(x0s):  # Gao-Han coefficients unless one qubit is measured
        return minimize(objective, x0s, max_iter=cfg.max_iter, xatol=1e-6, fatol=cfg.tol,
                        adaptive=param_len > 2)

    def starts(k):  # the chunk of restarts from k on
        x0s = np.zeros((min(LOCKSTEP_ROWS, cfg.restarts - k), param_len))
        for r in range(max(k, 1), k + len(x0s)):
            x0s[r - k] = make_rng(cfg.seed, r).normal(scale=1.0, size=param_len)
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


def _minimum_over_bases(reg, rho, f, measured, cfg, measure):
    """Report of the optimized minimum of ``measure``: the negativity read of
    ``_Workspace`` for the negativity of quantumness, else the deficit read.

    The state on ``reg`` is rho = f f^dag, f of shape (D, r) from
    ``entanglement._factor``; ``rho`` may be None.  The workspace reads f
    when 2r <= m + 1, m the unmeasured dimension: its k x k blocks, k =
    min(m, r), then cost less per parameter row than the m x m blocks of
    rho (P k^3 plus D_M D r for G_M F, against P m^3), and at m = 3, r = 2
    its 2 x 2 blocks take closed forms where rho's 3 x 3 ones go to LAPACK.
    Otherwise it reads the blocks of ``rho``, formed as f f^dag, unchecked,
    when None.
    """
    measured = _measured_subset(measured)
    m = reg.total_dim // math.prod(reg.dim(lab) for lab in measured)
    if 2 * f.shape[1] <= m + 1:
        ws = _Workspace(reg, None, measured, factor=f)
    else:
        ws = _Workspace(reg, f @ linalg.dagger(f) if rho is None else rho, measured)
    value, best_x, restart_values, converged = _optimize(
        ws.objective(measure == NEGATIVITY_OF_QUANTUMNESS), ws.param_len, cfg
    )
    return QuantumnessReport(
        value=0.0 if value <= 0 else value,  # -0.0 and below zero report +0.0; NaN passes
        measure=measure,
        measured=ws.measured,
        argmin_bases=ws.bases(best_x),
        restart_values=restart_values,
        converged=converged,
    )


def q_negativity(state, measured, cfg=OptimizerConfig()):
    """Upper bound on the minimum system:apparatus negativity over local bases."""
    return _minimum_over_bases(
        state.register, state.rho, _factor(state.rho), measured, cfg, NEGATIVITY_OF_QUANTUMNESS
    )


def deficit(state, measured, cfg=OptimizerConfig()):
    """Minimum entropy increase under local dephasing on the measured subsystems.

    With one measured subsystem this is the one-way information deficit;
    with every label measured, or every system label of a register with two
    or more systems, it is the (two-way) relative entropy of quantumness.
    Product-basis dephasing only; nonnegative by the pinching inequality.
    """
    measured = _measured_subset(measured)
    reg = state.register
    systems = {lab for lab, kind in zip(reg.labels, reg.kinds) if kind == SYSTEM}
    two_way = set(measured) == set(reg.labels) or (len(systems) > 1 and systems <= set(measured))
    return _minimum_over_bases(
        reg, state.rho, _factor(state.rho), measured, cfg,
        TWO_WAY_DEFICIT if two_way else ONE_WAY_DEFICIT,
    )


def classify_cc(state, measured, threshold=CC_THRESHOLD, cfg=OptimizerConfig()):
    """I-CC classification: both quantumness residuals below ``threshold``.

    Returns {"cc", "witness_bases", "residual"}; witness bases are the
    argmin of the negativity optimization when classical.
    """
    _positive(threshold, "threshold")
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
