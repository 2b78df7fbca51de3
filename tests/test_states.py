import numpy as np
import pytest

from dense_oracles import partial_trace
from qcorr import linalg
from qcorr.errors import InvariantError
from qcorr.states import (
    APPARATUS,
    LabeledState,
    LocalBasis,
    Register,
    SYSTEM,
    bell_state,
    classical_quantum_state,
    computational_basis,
    default_register,
    derive_seed,
    ghz_state,
    make_rng,
    pure_state,
    random_basis,
    random_mixed,
    random_pure,
    random_unitary,
    w_state,
    werner_state,
)


class TestRegister:
    def test_defaults(self):
        reg = default_register(3)
        assert reg.labels == ("A", "B", "C")
        assert reg.dims == (2, 2, 2)
        assert reg.kinds == (SYSTEM,) * 3
        assert reg.total_dim == 8

    def test_lookup(self):
        reg = Register(("A", "B"), (2, 3))
        assert reg.index("B") == 1
        assert reg.dim("B") == 3
        with pytest.raises(InvariantError):
            reg.index("C")

    def test_with_apparatus(self):
        reg = Register(("A", "B"), (2, 3)).with_apparatus("B")
        assert reg.labels == ("A", "B", "M:B")
        assert reg.dims == (2, 3, 3)
        assert reg.kinds[-1] == APPARATUS

    def test_kinds_follow_labels(self):
        assert Register(("A", "M:A"), (2, 2)).kinds == (SYSTEM, APPARATUS)

    def test_select_keeps_given_order(self):
        reg = Register(("A", "B", "C"), (2, 3, 4)).select([2, 0])
        assert reg == Register(("C", "A"), (4, 2))

    def test_duplicate_labels_rejected(self):
        with pytest.raises(InvariantError):
            Register(("A", "A"), (2, 2))

    @pytest.mark.parametrize("dims", [(2.7, 2.2), ("3", "2"), (2, True), (2, None)])
    def test_non_integer_dimension_rejected(self, dims):
        # int() would truncate 2.7 to 2 and parse "3" to 3
        with pytest.raises(InvariantError, match="dimension must be an integer"):
            Register(("A", "B"), dims)

    @pytest.mark.parametrize("labels", [(1, 2), ("A", None)])
    def test_non_string_label_rejected(self, labels):
        with pytest.raises(InvariantError, match="labels must be strings"):
            Register(labels, (2, 2))

    def test_numpy_integer_dimensions_stored_as_int(self):
        reg = Register(("A", "B"), np.array([2, 3]))
        assert reg.dims == (2, 3)
        assert all(type(d) is int for d in reg.dims)

    def test_trivial_dimension_rejected(self):
        with pytest.raises(InvariantError):
            Register(("A",), (1,))

    @pytest.mark.parametrize("make, labels", [
        (lambda: default_register(9), "'A', 'B', 'C'"),
        (lambda: Register(("A", "B"), (16, 17)), "('A', 'B')"),
        (lambda: default_register(8).with_apparatus("A"), "'M:A'"),
    ])
    def test_refuses_more_than_256_dimensions(self, make, labels):
        with pytest.raises(InvariantError, match="exceed total dimension 256") as err:
            make()
        assert labels in str(err.value)


class TestLocalBasis:
    def test_computational(self):
        b = computational_basis("A", 3)
        assert b.dim == 3
        assert np.array_equal(b.vectors, np.eye(3))

    def test_rejects_non_orthonormal(self):
        with pytest.raises(InvariantError):
            LocalBasis("A", np.array([[1.0, 1.0], [0.0, 1.0]]))

    @pytest.mark.parametrize("entry", [np.nan, np.inf])
    def test_rejects_non_finite_vectors(self, entry):
        with pytest.raises(InvariantError, match="not orthonormal"):
            LocalBasis("A", np.full((2, 2), entry))

    def test_rejects_overflowing_vectors(self):
        with pytest.raises(InvariantError, match="not orthonormal"):
            LocalBasis("A", np.array([[1e200, 0.0], [0.0, 1.0]]))  # v^dag v overflows

    def test_hadamard_ok(self):
        h = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
        assert LocalBasis("A", h).dim == 2


class TestLabeledState:
    def test_rejects_non_density(self):
        reg = default_register(1)
        with pytest.raises(InvariantError):
            LabeledState(reg, np.array([[1.0, 1.0], [0.0, 0.0]]))
        with pytest.raises(InvariantError):
            LabeledState(reg, np.diag([0.7, 0.7]))

    def test_purity(self):
        assert bell_state().is_pure()
        mixed = LabeledState(default_register(1), np.eye(2) / 2)
        assert mixed.purity() == pytest.approx(0.5)
        assert not mixed.is_pure()

    def test_permuted_roundtrip(self):
        state = random_mixed(default_register(3), rank=4, seed=3)
        back = state.permuted([2, 0, 1]).permuted([1, 2, 0])
        assert back.register.labels == state.register.labels
        assert np.max(np.abs(back.rho - state.rho)) <= 1e-14

    def test_permuted_swaps_product_factors(self):
        rng = make_rng(9)
        a = np.diag([0.9, 0.1]).astype(complex)
        b = np.diag([0.6, 0.4]).astype(complex)
        state = LabeledState(default_register(2), np.kron(a, b))
        swapped = state.permuted([1, 0])
        assert swapped.register.labels == ("B", "A")
        assert np.max(np.abs(swapped.rho - np.kron(b, a))) <= 1e-14


class TestConstructors:
    def test_bell(self):
        rho = bell_state().rho
        assert rho[0, 0] == pytest.approx(0.5)
        assert rho[0, 3] == pytest.approx(0.5)
        assert rho[1, 1] == 0.0

    def test_pure_state_renormalizes(self):
        reg = default_register(1)
        psi = np.array([1.0, 1.0]) / np.sqrt(2) * (1 + 1e-8)
        state = pure_state(psi, reg)
        assert np.trace(state.rho) == pytest.approx(1.0, abs=1e-14)

    def test_pure_state_rejects_bad_norm(self):
        with pytest.raises(InvariantError):
            pure_state([1.0, 1.0], default_register(1))

    @pytest.mark.parametrize("entry", [np.nan, np.inf])
    def test_pure_state_rejects_non_finite_amplitude(self, entry):
        with pytest.raises(InvariantError, match="norm"):
            pure_state([entry, 1.0], default_register(1))

    def test_pure_state_rejects_overflowing_norm(self):
        with pytest.raises(InvariantError, match="norm inf"):
            pure_state([1e200, 0, 0, 0], default_register(2))

    def test_labeled_state_rejects_nan(self):
        with pytest.raises(InvariantError, match="not Hermitian"):
            LabeledState(Register(("A",), (2,)), np.full((2, 2), np.nan))

    def test_werner_endpoints(self):
        assert np.allclose(werner_state(0.0).rho, np.eye(4) / 4)
        singlet = np.array([0, 1, -1, 0]) / np.sqrt(2)
        assert np.allclose(werner_state(1.0).rho, np.outer(singlet, singlet))
        with pytest.raises(InvariantError):
            werner_state(1.5)

    def test_werner_ppt_threshold(self):
        # PT spectrum of the singlet fraction form: min eigenvalue (1-3p)/4
        for p in (0.0, 1 / 3, 0.5, 1.0):
            pt = linalg.partial_transpose(werner_state(p).rho, [2, 2], [1])
            assert np.min(np.linalg.eigvalsh(pt)) == pytest.approx((1 - 3 * p) / 4, abs=1e-12)

    def test_ghz(self):
        state = ghz_state(3)
        psi = np.zeros(8)
        psi[0] = psi[7] = 1 / np.sqrt(2)
        assert np.max(np.abs(state.rho - np.outer(psi, psi))) <= 1e-15
        # qutrit version populates |000>, |111>, |222>
        s3 = ghz_state(2, d=3)
        diag = np.real(np.diag(s3.rho))
        assert diag[0] == pytest.approx(1 / 3)
        assert diag[4] == pytest.approx(1 / 3)
        assert diag[8] == pytest.approx(1 / 3)

    def test_w_state_reduced(self):
        red = partial_trace(w_state(3).rho, (2, 2, 2), [0])
        assert np.allclose(red, np.diag([2 / 3, 1 / 3]), atol=1e-14)

    @pytest.mark.parametrize("make", [
        lambda: ghz_state(40), lambda: w_state(40), lambda: ghz_state(2, d=1000),
    ], ids=["ghz-qubits", "w-qubits", "ghz-qudits"])
    def test_cap_refused_before_amplitudes_exist(self, make):
        # 2**40 amplitudes would take 16 TiB: the register is refused first
        with pytest.raises(InvariantError, match="exceed total dimension 256"):
            make()

    def test_classical_quantum(self):
        plus = np.full((2, 2), 0.5, dtype=complex)
        zero = np.diag([1.0, 0.0]).astype(complex)
        state = classical_quantum_state(
            [0.5, 0.5], computational_basis("A", 2), [zero, plus]
        )
        assert state.register.labels == ("A", "B")
        expected = 0.5 * np.kron(np.diag([1.0, 0]), zero) + 0.5 * np.kron(
            np.diag([0, 1.0]), plus
        )
        assert np.max(np.abs(state.rho - expected)) <= 1e-14
        # classical-quantum states are separable, hence PPT
        pt = linalg.partial_transpose(state.rho, [2, 2], [1])
        assert np.min(np.linalg.eigvalsh(pt)) >= -1e-12

    def test_classical_quantum_validates(self):
        zero = np.diag([1.0, 0.0]).astype(complex)
        with pytest.raises(InvariantError):
            classical_quantum_state([0.7, 0.7], computational_basis("A", 2), [zero, zero])
        with pytest.raises(InvariantError):
            classical_quantum_state([1.0], computational_basis("A", 2), [zero])
        # one probability for two conditionals would drop the second
        with pytest.raises(InvariantError):
            classical_quantum_state([1.0], computational_basis("A", 2), [np.eye(2) / 2, zero])


class TestRandom:
    def test_determinism(self):
        reg = default_register(2)
        a = random_mixed(reg, rank=2, seed=42)
        b = random_mixed(reg, rank=2, seed=42)
        c = random_mixed(reg, rank=2, seed=43)
        assert np.array_equal(a.rho, b.rho)
        assert not np.array_equal(a.rho, c.rho)

    def test_spawned_streams_differ(self):
        x = make_rng(0, 0).normal(size=4)
        y = make_rng(0, 1).normal(size=4)
        assert not np.array_equal(x, y)

    @pytest.mark.parametrize("key", [(), (0,), (3,), (1, 2)])
    def test_streams_and_child_seeds_come_from_one_seed_sequence(self, key):
        for seed in (0, 7, 2**40):
            ss = np.random.SeedSequence(seed, spawn_key=key)
            expected = np.random.Generator(np.random.Philox(ss)).normal(size=5)
            assert np.array_equal(make_rng(seed, *key).normal(size=5), expected)
            word = ss.generate_state(2, dtype=np.uint32).view(np.uint64)[0]
            assert derive_seed(seed, *key) == int(word)

    def test_random_pure_is_pure(self):
        state = random_pure(default_register(2), seed=5)
        assert state.purity() >= 1.0 - 1e-12

    def test_random_mixed_rank(self):
        state = random_mixed(default_register(2), rank=2, seed=6)
        w = np.linalg.eigvalsh(state.rho)
        assert np.sum(w > 1e-12) == 2
        with pytest.raises(InvariantError):
            random_mixed(default_register(2), rank=5, seed=0)

    def test_random_unitary(self):
        u = random_unitary(4, make_rng(7))
        assert np.max(np.abs(u.conj().T @ u - np.eye(4))) <= 1e-12

    def test_random_basis_is_orthonormal(self):
        b = random_basis("A", 3, make_rng(8))
        assert b.dim == 3

    def test_haar_reduced_purity_moment(self):
        # mean purity of the one-qubit marginal of a Haar two-qubit pure
        # state: E[Tr rho_A^2] = (d_A + d_B)/(d_A d_B + 1) = 4/5
        reg = default_register(2)
        total = 0.0
        n = 1000
        for k in range(n):
            rho = random_pure(reg, seed=10_000 + k).rho
            total += linalg.purity(partial_trace(rho, reg.dims, [0]))
        assert total / n == pytest.approx(0.8, abs=0.02)
