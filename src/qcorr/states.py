"""Labeled registers, state containers, and constructors for the test families."""

from dataclasses import dataclass, field

import math

import numpy as np

from . import linalg
from .errors import InvariantError

SYSTEM = "system"
APPARATUS = "apparatus"

# Apparatus labels are derived from the measured label with this prefix.
APPARATUS_PREFIX = "M:"

# Registers, and so states, beyond this total dimension are refused.
MAX_TOTAL_DIM = 256


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
        dims = tuple(int(d) for d in self.dims)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "dims", dims)
        if len(labels) != len(dims):
            raise InvariantError("register labels/dims length mismatch")
        if len(set(labels)) != len(labels):
            raise InvariantError(f"duplicate labels in register: {labels}")
        if any(d < 2 for d in dims):
            raise InvariantError(f"all subsystem dimensions must be >= 2, got {dims}")
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
        return Register(
            tuple(self.labels[i] for i in indices), tuple(self.dims[i] for i in indices)
        )

    def with_apparatus(self, measured_label):
        """New register with an apparatus for ``measured_label`` appended."""
        return Register(
            self.labels + (apparatus_label(measured_label),),
            self.dims + (self.dim(measured_label),),
        )

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
        with np.errstate(invalid="ignore"):  # inf * 0 is NaN, refused below
            gram = linalg.dagger(v) @ v
        if not np.max(np.abs(gram - np.eye(v.shape[0]))) <= 1e-10:  # also refuses NaN
            raise InvariantError(f"basis for {self.subsystem!r} is not orthonormal")

    @property
    def dim(self):
        return self.vectors.shape[0]


def computational_basis(subsystem, d):
    return LocalBasis(subsystem, np.eye(d, dtype=complex))


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

    def is_pure(self, tol=1e-8):
        return self.purity() >= 1.0 - tol

    def permuted(self, order):
        """LabeledState with subsystems reordered according to ``order``."""
        dims = self.dims
        n = len(dims)
        t = self.rho.reshape(list(dims) + list(dims))
        axes = list(order) + [i + n for i in order]
        d = self.register.total_dim
        rho = np.transpose(t, axes).reshape(d, d)
        return LabeledState(self.register.select(order), rho)


def default_register(n, d=2):
    """Register with labels A, B, C, ... and uniform dimension ``d``."""
    labels = tuple(chr(ord("A") + i) for i in range(n))
    return Register(labels, (d,) * n)


# ---------------------------------------------------------------------------
# Random number generation.  Philox is a 64-bit counter-based generator with
# published constants; streams are reproducible from (seed, task) pairs.
# ---------------------------------------------------------------------------

def make_rng(seed):
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))


def spawn_rng(seed, task):
    """Independent stream for a numbered sub-task of a seeded run."""
    return np.random.Generator(
        np.random.Philox(np.random.SeedSequence(seed, spawn_key=(int(task),)))
    )


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
    if not 0.0 <= p <= 1.0:
        raise InvariantError(f"werner parameter {p} outside [0, 1]")
    singlet = np.array([0, 1, -1, 0], dtype=complex) / np.sqrt(2)
    rho = p * np.outer(singlet, np.conj(singlet)) + (1.0 - p) * np.eye(4) / 4.0
    return LabeledState(default_register(2), rho)


def ghz_state(n, d=2):
    """(|0...0> + ... + |d-1...d-1>)/sqrt(d) on n qudits."""
    if n < 2:
        raise InvariantError("ghz_state requires n >= 2")
    psi = np.zeros(d**n, dtype=complex)
    for i in range(d):
        idx = sum(i * d**k for k in range(n))
        psi[idx] = 1.0
    psi /= np.sqrt(d)
    return pure_state(psi, default_register(n, d))


def w_state(n):
    """Symmetric single-excitation state on n qubits."""
    if n < 2:
        raise InvariantError("w_state requires n >= 2")
    psi = np.zeros(2**n, dtype=complex)
    for k in range(n):
        psi[2**k] = 1.0
    psi /= np.sqrt(n)
    return pure_state(psi, default_register(n))


def random_pure(register, seed):
    """Haar-random pure state: normalized complex-Gaussian amplitude vector."""
    rng = make_rng(seed)
    psi = complex_gaussian(rng, register.total_dim)
    return pure_state(psi / np.linalg.norm(psi), register)


def random_mixed(register, rank, seed):
    """Normalized G G^dag with G a complex-Gaussian (d x rank) matrix."""
    d = register.total_dim
    if not 1 <= rank <= d:
        raise InvariantError(f"rank {rank} outside [1, {d}]")
    rng = make_rng(seed)
    g = complex_gaussian(rng, (d, rank))
    rho = g @ linalg.dagger(g)
    rho /= np.trace(rho)
    return LabeledState(register, rho)


def random_unitary(d, rng):
    """Haar-random unitary via QR of a complex-Gaussian matrix."""
    g = complex_gaussian(rng, (d, d))
    q, r = np.linalg.qr(g)
    # fix the phase convention so the distribution is Haar
    q = q * (np.diag(r) / np.abs(np.diag(r)))
    return q


def random_basis(subsystem, d, rng):
    return LocalBasis(subsystem, random_unitary(d, rng))
