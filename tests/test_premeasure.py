import numpy as np
import pytest

import oracles
from dense_oracles import partial_trace
from qcorr import linalg
from qcorr.entanglement import BipartitionCut, negativity
from qcorr.errors import InvariantError
from qcorr.premeasure import (
    MeasurementPlan,
    _local,
    dephase,
    premeasure,
    undo_interaction,
)
from qcorr.states import (
    LabeledState,
    LocalBasis,
    Register,
    bell_state,
    classical_quantum_state,
    computational_basis,
    default_register,
    ghz_state,
    make_rng,
    random_basis,
    random_mixed,
    random_pure,
    random_unitary,
)

HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)


def single_plan(label, vectors):
    return MeasurementPlan((label,), (LocalBasis(label, vectors),))


def computational_plan(register, labels):
    return MeasurementPlan(
        tuple(labels), tuple(computational_basis(l, register.dim(l)) for l in labels)
    )


class TestPlan:
    def test_mismatched_lengths(self):
        with pytest.raises(InvariantError):
            MeasurementPlan(("A",), ())

    def test_empty_labels(self):
        with pytest.raises(InvariantError, match="measured subset must be nonempty"):
            MeasurementPlan((), ())

    def test_duplicate_labels(self):
        b = computational_basis("A", 2)
        with pytest.raises(InvariantError, match="duplicate measured labels"):
            MeasurementPlan(("A", "A"), (b, b))

    def test_basis_label_must_match(self):
        with pytest.raises(InvariantError):
            MeasurementPlan(("A",), (computational_basis("B", 2),))

    def test_check_register_dimension(self):
        plan = single_plan("A", np.eye(3))
        with pytest.raises(InvariantError):
            plan.check_register(default_register(2))


class TestIsometry:
    def test_columns_are_b_tensor_e(self):
        basis = LocalBasis("A", HADAMARD)
        v = oracles.isometry(HADAMARD)
        for i in range(2):
            e = np.zeros(2)
            e[i] = 1
            expected = np.kron(HADAMARD[:, i], e)
            assert np.max(np.abs(v @ HADAMARD[:, i] - expected)) <= 1e-14
            # premeasure maps |b_i><b_i| to |b_i, i><b_i, i|
            state = LabeledState(Register(("A",), (2,)), np.outer(HADAMARD[:, i], HADAMARD[:, i]))
            out = premeasure(state, MeasurementPlan(("A",), (basis,)))
            assert np.max(np.abs(out.rho - np.outer(expected, expected))) <= 1e-14

    def test_isometry_property(self):
        rng = make_rng(0)
        for d in (2, 3, 4):
            basis = random_basis("A", d, rng)
            v = oracles.isometry(basis.vectors)
            assert np.max(np.abs(linalg.dagger(v) @ v - np.eye(d))) <= 1e-12

    def test_global_isometry_matches_local(self):
        # measuring the only subsystem reduces to the local isometry
        v = oracles.isometry(random_basis("A", 3, make_rng(1)).vectors)
        assert np.allclose(oracles._embed(v, [3], 0), v, atol=1e-14)

    def test_global_isometry_property(self):
        reg = Register(("A", "B", "C"), (2, 3, 2))
        basis = random_basis("B", 3, make_rng(2))
        w = oracles._embed(oracles.isometry(basis.vectors), reg.dims, reg.index("B"))
        assert np.max(np.abs(linalg.dagger(w) @ w - np.eye(12))) <= 1e-12


class TestLocal:
    # one row of an operator projects the subsystem out; a square one keeps it
    @pytest.mark.parametrize("label", ["A", "B", "C"])
    @pytest.mark.parametrize("rows", [1, None])
    def test_matches_dense_kronecker(self, label, rows):
        reg = Register(("A", "B", "C"), (2, 3, 2))
        state = random_mixed(reg, rank=2, seed=30)
        d = reg.dim(label)
        op = random_unitary(d, make_rng(31))[: rows or d]
        big = oracles._embed(op, reg.dims, reg.index(label))
        out = _local(state.rho, reg.dims, reg.index(label), op)
        assert out.shape == (reg.total_dim * len(op) // d,) * 2
        assert np.max(np.abs(out - big @ state.rho @ linalg.dagger(big))) <= 1e-14


# (dims, measured) shapes for the oracle comparison; (2,) * 7/G is a chain
# link on seven qubits that reaches the total dimension cap of 256,
# (2, 3, 2)/B measures an axis with subsystems on both sides, and
# (2, 2, 2, 2)/DBA is a three-label plan out of register order
ORACLE_SHAPES = [
    ((2, 2), "A"),
    ((2, 2), "B"),
    ((3, 3), "AB"),
    ((3, 3), "BA"),
    ((2, 3), "BA"),
    ((2, 2, 2), "AC"),
    ((2, 2, 2), "CA"),
    ((2,) * 7, "G"),
    ((2, 3, 2), "B"),
    ((2, 3, 4), "BA"),
    ((2, 2, 2, 2), "DBA"),
]


@pytest.mark.parametrize("dims, measured", ORACLE_SHAPES)
class TestAgainstDenseOracle:
    @staticmethod
    def case(dims, measured):
        reg = Register(tuple("ABCDEFG"[: len(dims)]), dims)
        rng = make_rng(sum(dims) + len(measured))
        state = random_mixed(reg, rank=2, seed=len(dims) * 10 + dims[0])
        plan = MeasurementPlan(
            tuple(measured), tuple(random_basis(l, reg.dim(l), rng) for l in measured)
        )
        return state, plan

    @staticmethod
    def dense(oracle, state, plan):
        """``oracle`` from the benchmark's dense references, applied as ``plan`` says."""
        measured = [state.register.index(l) for l in plan.measured]
        return oracle(state.rho, state.dims, measured, [b.vectors for b in plan.bases])

    def test_premeasure(self, dims, measured):
        state, plan = self.case(dims, measured)
        out = premeasure(state, plan)
        assert out.register.labels == state.register.labels + tuple("M:" + l for l in measured)
        expected = self.dense(oracles.premeasured, state, plan)[0]
        assert np.max(np.abs(out.rho - expected)) <= 1e-12

    def test_dephase(self, dims, measured):
        state, plan = self.case(dims, measured)
        expected = self.dense(oracles.pinch, state, plan)
        assert np.max(np.abs(dephase(state, plan).rho - expected)) <= 1e-12

    def test_undo(self, dims, measured):
        state, plan = self.case(dims, measured)
        pm = premeasure(state, plan)
        back = undo_interaction(pm, plan)
        assert back.register == state.register
        assert np.max(np.abs(back.rho - state.rho)) <= 1e-12

    def test_undo_rejects_decorrelated_apparatus(self, dims, measured):
        state, plan = self.case(dims, measured)
        pm = premeasure(state, plan)
        apparatus_dim = pm.register.total_dim // state.register.total_dim
        junk = np.kron(state.rho, np.eye(apparatus_dim) / apparatus_dim)
        with pytest.raises(InvariantError, match="not in the image"):
            undo_interaction(LabeledState(pm.register, 0.5 * pm.rho + 0.5 * junk), plan)


class TestPremeasure:
    def test_register_bookkeeping(self):
        state = bell_state()
        out = premeasure(state, computational_plan(state.register, ["B"]))
        assert out.register.labels == ("A", "B", "M:B")
        assert out.register.dims == (2, 2, 2)

    def test_bell_becomes_ghz(self):
        state = bell_state()
        out = premeasure(state, computational_plan(state.register, ["B"]))
        assert np.max(np.abs(out.rho - ghz_state(3).rho)) <= 1e-14

    def test_product_in_measured_basis_stays_product(self):
        # |+> measured in the Hadamard basis: apparatus copies the outcome
        # label deterministically, output |+>|0>
        reg = default_register(1)
        state = LabeledState(reg, np.full((2, 2), 0.5, dtype=complex))
        out = premeasure(state, single_plan("A", HADAMARD))
        expected = np.kron(np.full((2, 2), 0.5), np.diag([1.0, 0.0]))
        assert np.max(np.abs(out.rho - expected)) <= 1e-14

    def test_trace_out_apparatus_equals_dephasing(self):
        state = random_mixed(default_register(2), rank=3, seed=4)
        rng = make_rng(5)
        plan = MeasurementPlan(("B",), (random_basis("B", 2, rng),))
        out = premeasure(state, plan)
        assert out.register.select([0, 1]) == state.register
        kept = partial_trace(out.rho, out.dims, [0, 1])
        deph = dephase(state, plan)
        assert np.max(np.abs(kept - deph.rho)) <= 1e-12

    def test_two_subsystem_plan(self):
        state = random_mixed(default_register(2), rank=2, seed=6)
        rng = make_rng(7)
        plan = MeasurementPlan(
            ("A", "B"), (random_basis("A", 2, rng), random_basis("B", 2, rng))
        )
        out = premeasure(state, plan)
        assert out.register.labels == ("A", "B", "M:A", "M:B")
        assert out.register.select([0, 1]) == state.register
        kept = partial_trace(out.rho, out.dims, [0, 1])
        assert np.max(np.abs(kept - dephase(state, plan).rho)) <= 1e-12

    def test_preserves_purity_and_spectrum(self):
        state = random_mixed(default_register(2), rank=2, seed=8)
        plan = MeasurementPlan(("A",), (random_basis("A", 2, make_rng(9)),))
        out = premeasure(state, plan)
        w_in = np.linalg.eigvalsh(state.rho)
        w_out = np.linalg.eigvalsh(out.rho)
        assert np.max(np.abs(np.sort(w_out)[-4:] - np.sort(w_in))) <= 1e-12

    def test_dimension_cap(self):
        state = random_pure(default_register(4, d=4), seed=10)  # total 256
        with pytest.raises(InvariantError):
            premeasure(state, computational_plan(state.register, ["A"]))

    def test_basis_phase_irrelevant_for_entanglement(self):
        # rephasing basis vectors changes the pre-measurement state only by
        # a local unitary on the apparatus
        state = random_mixed(default_register(2), rank=3, seed=11)
        basis = random_basis("B", 2, make_rng(12))
        phased = LocalBasis("B", basis.vectors * np.array([np.exp(0.3j), np.exp(-1.1j)]))
        cut = BipartitionCut((0, 1), (2,))
        n1 = negativity(premeasure(state, MeasurementPlan(("B",), (basis,))), cut)
        n2 = negativity(premeasure(state, MeasurementPlan(("B",), (phased,))), cut)
        assert abs(n1 - n2) <= 1e-12


class TestDephase:
    def test_kills_off_diagonals(self):
        state = LabeledState(default_register(1), np.full((2, 2), 0.5, dtype=complex))
        out = dephase(state, computational_plan(state.register, ["A"]))
        assert np.allclose(out.rho, np.eye(2) / 2, atol=1e-14)

    def test_idempotent(self):
        state = random_mixed(default_register(2), rank=4, seed=13)
        plan = MeasurementPlan(("A",), (random_basis("A", 2, make_rng(14)),))
        once = dephase(state, plan)
        twice = dephase(once, plan)
        assert np.max(np.abs(once.rho - twice.rho)) <= 1e-13

    def test_fixes_classical_quantum_state(self):
        plus = np.full((2, 2), 0.5, dtype=complex)
        zero = np.diag([1.0, 0.0]).astype(complex)
        state = classical_quantum_state(
            [0.3, 0.7], computational_basis("A", 2), [zero, plus]
        )
        out = dephase(state, computational_plan(state.register, ["A"]))
        assert np.max(np.abs(out.rho - state.rho)) <= 1e-14


class TestUndo:
    def test_roundtrip_single(self):
        state = random_mixed(default_register(2), rank=3, seed=15)
        plan = MeasurementPlan(("B",), (random_basis("B", 2, make_rng(16)),))
        back = undo_interaction(premeasure(state, plan), plan)
        assert back.register.labels == state.register.labels
        assert np.max(np.abs(back.rho - state.rho)) <= 1e-12

    def test_roundtrip_two(self):
        state = random_mixed(Register(("A", "B"), (2, 3)), rank=2, seed=17)
        rng = make_rng(18)
        plan = MeasurementPlan(
            ("B", "A"), (random_basis("B", 3, rng), random_basis("A", 2, rng))
        )
        back = undo_interaction(premeasure(state, plan), plan)
        assert np.max(np.abs(back.rho - state.rho)) <= 1e-12

    def test_rejects_state_outside_image(self):
        state = random_mixed(default_register(2), rank=2, seed=19)
        plan = computational_plan(state.register, ["B"])
        pm = premeasure(state, plan)
        # mix in weight outside the image: apparatus decorrelated from B
        junk = np.kron(state.rho, np.eye(2) / 2)
        tampered = LabeledState(pm.register, 0.5 * pm.rho + 0.5 * junk)
        with pytest.raises(InvariantError):
            undo_interaction(tampered, plan)

    def test_rejects_apparatuses_out_of_plan_order(self):
        state = random_mixed(default_register(2), rank=2, seed=23)
        plan = computational_plan(state.register, ["A", "B"])
        pm = premeasure(state, plan)
        with pytest.raises(InvariantError, match="last in register"):
            undo_interaction(pm, computational_plan(state.register, ["B", "A"]))

    def test_rejects_apparatus_dimension_mismatch(self):
        reg = Register(("A", "B", "M:B"), (2, 2, 3))
        state = random_mixed(reg, rank=2, seed=24)
        with pytest.raises(InvariantError, match="apparatus dimensions"):
            undo_interaction(state, computational_plan(reg, ["B"]))

    def test_rejects_missing_apparatus(self):
        state = random_mixed(default_register(2), rank=2, seed=20)
        plan = computational_plan(state.register, ["B"])
        with pytest.raises(InvariantError):
            undo_interaction(state, plan)


def test_commutes_with_unmeasured_local_unitary():
    state = random_mixed(default_register(2), rank=3, seed=21)
    rng = make_rng(22)
    plan = MeasurementPlan(("B",), (random_basis("B", 2, rng),))
    u = random_unitary(2, rng)
    big_u = np.kron(u, np.eye(2))
    rotated = LabeledState(state.register, big_u @ state.rho @ big_u.conj().T)
    lhs = premeasure(rotated, plan).rho
    u_after = np.kron(big_u, np.eye(2))
    rhs = u_after @ premeasure(state, plan).rho @ u_after.conj().T
    assert np.max(np.abs(lhs - rhs)) <= 1e-12
