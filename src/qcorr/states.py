"""Labeled registers, state containers, and constructors for the test families."""

from dataclasses import dataclass, field

import math
import numbers

import numpy as np

from . import linalg
from .errors import InvariantError

SYSTEM = "system"
APPARATUS = "apparatus"

# Apparatus labels are derived from the measured label with this prefix.
APPARATUS_PREFIX = "M:"

# Registers, and so states, beyond this total dimension are refused.
MAX_TOTAL_DIM = 256

# Purity deficit below which ``LabeledState.is_pure`` calls a state pure.
_PURE_TOL = 1e-8


def _integer(value, what, error=InvariantError, low=None):
    """``value`` if it is a non-bool integer (its type has ``__index__``) of at least ``low``."""
    if isinstance(value, bool) or not hasattr(type(value), "__index__"):
        raise error(f"{what} must be an integer, got {value!r}")
    if low is not None and value < low:
        raise error(f"{what} must be at least {low}, got {value!r}")
    return value


def apparatus_label(label):
    """Label of the apparatus that records a measurement of ``label``."""
    return APPARATUS_PREFIX + label


@dataclass(frozen=True)
class Register:
    """Ordered list of subsystem labels and dimensions.

    A label that starts with ``APPARATUS_PREFIX`` names a measurement
    apparatus appended by a pre-measurement interaction; every other label
    names an original system.
    """

    labels: tuple
    dims: tuple

    def __post_init__(self):
        labels = tuple(self.labels)
        dims = tuple(int(_integer(d, "a subsystem dimension", low=2)) for d in self.dims)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "dims", dims)
        if len(labels) != len(dims):
            raise InvariantError("register labels/dims length mismatch")
        if not labels:
            raise InvariantError("a register needs at least one subsystem")
        if not all(isinstance(lab, str) for lab in labels):
            raise InvariantError(f"register labels must be strings, got {labels!r}")
        if len(set(labels)) != len(labels):
            raise InvariantError(f"duplicate labels in register: {labels}")
        if math.prod(dims) > MAX_TOTAL_DIM:
            raise InvariantError(
                f"register {labels} of dims {dims} would exceed total dimension {MAX_TOTAL_DIM}"
            )

    @property
    def kinds(self):
        return tuple(
            APPARATUS if lab.startswith(APPARATUS_PREFIX) else SYSTEM for lab in self.labels
        )

    @property
    def n(self):
        return len(self.labels)

    @property
    def total_dim(self):
        return math.prod(self.dims)

    def index(self, label):
        try:
            return self.labels.index(label)
        except ValueError:
            raise InvariantError(f"label {label!r} not in register {self.labels}") from None

    def dim(self, label):
        return self.dims[self.index(label)]

    def select(self, indices):
        """Register of the entries at ``indices``, in the order given."""
        indices = tuple(indices)
        for i in indices:
            if _integer(i, "register index", low=0) >= self.n:
                raise InvariantError(f"register index must be below {self.n}, got {i!r}")
        return Register(
            tuple(self.labels[i] for i in indices), tuple(self.dims[i] for i in indices)
        )

    def with_apparatus(self, measured_label):
        """New register with an apparatus for ``measured_label`` appended."""
        d = self.dim(measured_label)  # refuses an unknown label of any type
        return Register(self.labels + (apparatus_label(measured_label),), self.dims + (d,))

    def drop(self, label):
        i = self.index(label)
        return self.select([k for k in range(self.n) if k != i])


@dataclass(frozen=True)
class LocalBasis:
    """Orthonormal basis of one subsystem; columns of ``vectors`` are the kets."""

    subsystem: str
    vectors: np.ndarray = field(repr=False)

    def __post_init__(self):
        v = np.asarray(self.vectors, dtype=complex)
        object.__setattr__(self, "vectors", v)
        if v.ndim != 2 or v.shape[0] != v.shape[1]:
            raise InvariantError("basis vectors must form a square matrix of columns")
        if not v.size:
            raise InvariantError(f"basis for {self.subsystem!r} has no vectors")
        with np.errstate(invalid="ignore", over="ignore"):  # NaN and inf are refused below
            gram = linalg.dagger(v) @ v
        if not np.max(np.abs(gram - np.eye(v.shape[0]))) <= 1e-10:  # also refuses NaN
            raise InvariantError(f"basis for {self.subsystem!r} is not orthonormal")

    @property
    def dim(self):
        return self.vectors.shape[0]


def computational_basis(subsystem, d):
    return LocalBasis(subsystem, np.eye(_integer(d, "dimension", low=2), dtype=complex))


@dataclass(frozen=True)
class LabeledState:
    """A density operator together with its labeled register."""

    register: Register
    rho: np.ndarray = field(repr=False)

    def __post_init__(self):
        rho = linalg.check_density(self.rho, self.register.dims)
        object.__setattr__(self, "rho", rho)

    @property
    def dims(self):
        return self.register.dims

    def purity(self):
        return linalg.purity(self.rho)

    def is_pure(self):
        return self.purity() >= 1.0 - _PURE_TOL

    def permuted(self, order):
        """LabeledState with subsystems reordered according to ``order``."""
        dims = self.dims
        n = len(dims)
        order = tuple(order)
        if len(order) != n or set(order) != set(range(n)):
            raise InvariantError(f"order {order} is not a permutation of range({n})")
        register = self.register.select(order)  # refuses a non-integer index
        return LabeledState(register, _permuted(self.rho, dims, order))


def _permuted(rho, dims, order):
    """``rho`` on ``dims`` with its subsystems reordered as ``order`` says; nothing is checked."""
    n = len(dims)
    t = rho.reshape(list(dims) * 2)
    return np.transpose(t, list(order) + [i + n for i in order]).reshape(rho.shape)


def default_register(n, d=2):
    """Register with labels A, B, C, ... and uniform dimension ``d``."""
    labels = tuple(chr(ord("A") + i) for i in range(_integer(n, "default_register n", low=1)))
    return Register(labels, (d,) * n)


# ---------------------------------------------------------------------------
# Random number generation.  Philox is a 64-bit counter-based generator with
# published constants; every stream and child seed comes from one
# SeedSequence(seed, spawn_key=key), so each (seed, key) pair is reproducible
# and independent of every other key.
# ---------------------------------------------------------------------------

def _seed_sequence(seed, key):
    """SeedSequence(seed, spawn_key=key), the seed and each key checked as non-negative integers."""
    _integer(seed, "seed", low=0)
    key = tuple(int(_integer(k, "seed key", low=0)) for k in key)
    return np.random.SeedSequence(seed, spawn_key=key)


def make_rng(seed, *key):
    """The Philox stream of ``seed``, or of the numbered sub-task ``key`` of a seeded run."""
    return np.random.Generator(np.random.Philox(_seed_sequence(seed, key)))


def derive_seed(seed, *key):
    """Deterministic 64-bit child seed for the numbered sub-task ``key``."""
    state = _seed_sequence(seed, key).generate_state(2, dtype=np.uint32)
    return int(state.view(np.uint64)[0])


def complex_gaussian(rng, shape):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


# ---------------------------------------------------------------------------
# State constructors
# ---------------------------------------------------------------------------

def pure_state(amplitudes, register):
    """Rank-1 density operator |psi><psi| from an amplitude vector."""
    psi = np.asarray(amplitudes, dtype=complex).ravel()
    if psi.size != register.total_dim:
        raise InvariantError(
            f"amplitude vector length {psi.size} != register dimension {register.total_dim}"
        )
    with np.errstate(over="ignore"):  # an infinite norm is refused below
        norm = float(np.linalg.norm(psi))
    if norm == 0.0:
        raise InvariantError("zero amplitude vector")
    if not abs(norm - 1.0) <= 1e-6:  # also refuses NaN
        raise InvariantError(f"amplitude vector norm {norm} too far from 1")
    psi = psi / norm
    return LabeledState(register, np.outer(psi, np.conj(psi)))


def classical_quantum_state(probs, basis, conditionals):
    """State classical on the measured subsystem: sum_i p_i |b_i><b_i| (x) rho_i.

    The measured subsystem (carrying ``basis``) comes first in the register,
    followed by a single subsystem ``B`` holding the conditionals.
    """
    probs = np.asarray(probs, dtype=float)
    if np.any(probs < -1e-15):
        raise InvariantError("probabilities must be nonnegative")
    if abs(np.sum(probs) - 1.0) > 1e-12:
        raise InvariantError(f"probabilities sum to {np.sum(probs)}, expected 1")
    if probs.shape != (basis.dim,) or len(conditionals) != basis.dim:
        raise InvariantError(
            "need one probability and one conditional per basis vector: "
            f"{probs.size} and {len(conditionals)} vs {basis.dim}"
        )
    conds = [linalg.check_density(c) for c in conditionals]
    db = conds[0].shape[0]
    if any(c.shape[0] != db for c in conds):
        raise InvariantError("conditionals have inconsistent dimensions")
    d = basis.dim
    rho = np.zeros((d * db, d * db), dtype=complex)
    for i, (p, c) in enumerate(zip(probs, conds)):
        b = basis.vectors[:, i]
        rho += p * np.kron(np.outer(b, np.conj(b)), c)
    reg = Register((basis.subsystem, "B"), (d, db))
    return LabeledState(reg, rho)


def bell_state():
    """(|00> + |11>)/sqrt(2) on register A,B."""
    psi = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
    return pure_state(psi, default_register(2))


def werner_state(p):
    """p |Psi-><Psi-| + (1-p) I/4 on two qubits."""
    if isinstance(p, bool) or not isinstance(p, numbers.Real):
        raise InvariantError(f"werner parameter must be a real number, got {p!r}")
    if not 0.0 <= p <= 1.0:
        raise InvariantError(f"werner parameter {p} outside [0, 1]")
    singlet = np.array([0, 1, -1, 0], dtype=complex) / np.sqrt(2)
    rho = p * np.outer(singlet, np.conj(singlet)) + (1.0 - p) * np.eye(4) / 4.0
    return LabeledState(default_register(2), rho)


def ghz_state(n, d=2):
    """(|0...0> + ... + |d-1...d-1>)/sqrt(d) on n qudits."""
    reg = default_register(_integer(n, "ghz_state n", low=2), d)
    psi = np.zeros(reg.total_dim, dtype=complex)
    for i in range(d):
        idx = sum(i * d**k for k in range(n))
        psi[idx] = 1.0
    psi /= np.sqrt(d)
    return pure_state(psi, reg)


def w_state(n):
    """Symmetric single-excitation state on n qubits."""
    reg = default_register(_integer(n, "w_state n", low=2))
    psi = np.zeros(reg.total_dim, dtype=complex)
    for k in range(n):
        psi[2**k] = 1.0
    psi /= np.sqrt(n)
    return pure_state(psi, reg)


def random_pure(register, seed):
    """Haar-random pure state: normalized complex-Gaussian amplitude vector."""
    rng = make_rng(seed)
    psi = complex_gaussian(rng, register.total_dim)
    return pure_state(psi / np.linalg.norm(psi), register)


def random_mixed(register, rank, seed):
    """Normalized G G^dag with G a complex-Gaussian (d x rank) matrix."""
    d = register.total_dim
    if _integer(rank, "rank", low=1) > d:
        raise InvariantError(f"rank {rank} outside [1, {d}]")
    rng = make_rng(seed)
    g = complex_gaussian(rng, (d, rank))
    rho = g @ linalg.dagger(g)
    rho /= np.trace(rho)
    return LabeledState(register, rho)


def random_unitary(d, rng):
    """Haar-random unitary via QR of a complex-Gaussian matrix."""
    _integer(d, "dimension", low=2)
    g = complex_gaussian(rng, (d, d))
    q, r = np.linalg.qr(g)
    # fix the phase convention so the distribution is Haar
    q = q * (np.diag(r) / np.abs(np.diag(r)))
    return q


def random_basis(subsystem, d, rng):
    return LocalBasis(subsystem, random_unitary(d, rng))
