"""Dense reference computations the benchmark checks qcorr against.

Nothing here imports qcorr.  Operators are numpy arrays in Kronecker order
(subsystem 0 slowest-varying); entropies are in bits.  Each function is the
textbook definition written out directly, so it shares no code path with the
optimized library it checks.
"""

import numpy as np

EIG_ZERO = 1e-12


def isometry(basis):
    """The (d^2 x d) isometry V with V|b_i> = |b_i>|i>."""
    d = basis.shape[0]
    v = np.zeros((d * d, d), dtype=complex)
    for i in range(d):
        ket = np.kron(basis[:, i], np.eye(d)[i])
        v += np.outer(ket, np.conj(basis[:, i]))
    return v


def _embed(op, dims, k):
    """``op`` on subsystem k of ``dims``, identity elsewhere."""
    before = int(np.prod(dims[:k])) if k else 1
    after = int(np.prod(dims[k + 1 :])) if k + 1 < len(dims) else 1
    return np.kron(np.kron(np.eye(before), op), np.eye(after))


def premeasured(rho, dims, measured, bases):
    """Pre-measurement state: one apparatus per measured index, appended in order.

    The isometry V of subsystem k is applied as (V on k) followed by moving the
    apparatus factor, which V leaves right after k, to the end of the register.
    """
    dims = list(dims)
    n_sys = len(dims)
    for k, basis in zip(measured, bases):
        d = dims[k]
        w = _embed(isometry(basis), dims, k)  # output order: ..., k, app, k+1, ...
        rho = w @ rho @ np.conj(w).T
        order_dims = dims[: k + 1] + [d] + dims[k + 1 :]
        n = len(order_dims)
        perm = [i for i in range(n) if i != k + 1] + [k + 1]
        rho = permute(rho, order_dims, perm)
        dims = dims + [d]
    return rho, dims, n_sys


def permute(rho, dims, order):
    """Reorder subsystems: new subsystem j is old subsystem order[j]."""
    n = len(dims)
    t = rho.reshape(list(dims) * 2)
    t = np.transpose(t, list(order) + [n + i for i in order])
    dim = int(np.prod(dims))
    return t.reshape(dim, dim)


def partial_transpose(rho, dims, subset):
    n = len(dims)
    t = rho.reshape(list(dims) * 2)
    axes = list(range(2 * n))
    for i in subset:
        axes[i], axes[n + i] = axes[n + i], axes[i]
    dim = int(np.prod(dims))
    return np.transpose(t, axes).reshape(dim, dim)


def negativity(rho, dims, subset):
    """Sum of |negative eigenvalues| of the partial transpose over ``subset``."""
    w = np.linalg.eigvalsh(partial_transpose(rho, dims, subset))
    return float(-w[w < 0].sum())


def entropy(rho):
    w = np.linalg.eigvalsh(rho)
    w = w[w > EIG_ZERO]
    return float(-(w * np.log2(w)).sum())


def binary_entropy(p):
    return float(-sum(x * np.log2(x) for x in (p, 1.0 - p) if x > EIG_ZERO))


def q_negativity_at(rho, dims, measured, bases):
    """System:apparatus negativity after measuring ``measured`` in ``bases``."""
    pm, pm_dims, n_sys = premeasured(rho, dims, measured, bases)
    return negativity(pm, pm_dims, range(n_sys, len(pm_dims)))


def pinch(rho, dims, measured, bases):
    """Complete dephasing of each measured subsystem in its basis."""
    for k, basis in zip(measured, bases):
        out = np.zeros_like(rho)
        for i in range(basis.shape[0]):
            p = _embed(np.outer(basis[:, i], np.conj(basis[:, i])), dims, k)
            out += p @ rho @ p
        rho = out
    return rho


def deficit_at(rho, dims, measured, bases):
    """Entropy increase when ``measured`` is dephased in ``bases``."""
    return entropy(pinch(rho, dims, measured, bases)) - entropy(rho)


def schmidt(psi, d_a):
    """Schmidt coefficients of a pure state across (first d_a dims) : rest."""
    m = np.asarray(psi).reshape(d_a, -1)
    return np.linalg.svd(m, compute_uv=False)


def pure_negativity(psi, d_a):
    s = schmidt(psi, d_a)
    return float((s.sum() ** 2 - 1.0) / 2.0)


def pure_entanglement_entropy(psi, d_a):
    p = schmidt(psi, d_a) ** 2
    p = p[p > EIG_ZERO]
    return float(-(p * np.log2(p)).sum())


PAULI = (
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)


def correlation_matrix(rho):
    """T_ij = Tr(rho sigma_i (x) sigma_j) of a two-qubit state."""
    return np.array([[np.real(np.trace(rho @ np.kron(a, b))) for b in PAULI] for a in PAULI])


def bell_diagonal_q_negativity(rho):
    """Q_N^A of a Bell-diagonal state (up to local unitaries): middle |c_i| / 2.

    Nakano, Piani & Adesso, PRA 88, 012117 (2013).  The |c_i| are the
    singular values of the correlation matrix, which local unitaries keep.
    """
    c = np.linalg.svd(correlation_matrix(rho), compute_uv=False)
    return float(np.sort(c)[1] / 2.0)


def bell_diagonal_deficit(rho):
    """One-way deficit D^A of a Bell-diagonal state: 1 + h((1 + max|c_i|)/2) - S(rho)."""
    c = np.linalg.svd(correlation_matrix(rho), compute_uv=False)
    return 1.0 + binary_entropy((1.0 + c.max()) / 2.0) - entropy(rho)


def trace_distance(a, b):
    return float(0.5 * np.abs(np.linalg.eigvalsh(a - b)).sum())
