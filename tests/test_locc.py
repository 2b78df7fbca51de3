import numpy as np
import pytest

from qcorr import linalg
from qcorr.entanglement import BipartitionCut, negativity
from qcorr.errors import InvariantError
from qcorr.locc import (
    LoccTranscript,
    correction_unitary,
    fourier_unitary,
    locc_undo,
    verify_monotonicity_step,
)
from qcorr.premeasure import MeasurementPlan, premeasure
from qcorr.states import (
    LabeledState,
    Register,
    bell_state,
    computational_basis,
    default_register,
    make_rng,
    random_basis,
    random_mixed,
    random_pure,
)


def single_plan(label, d, rng=None):
    basis = computational_basis(label, d) if rng is None else random_basis(label, d, rng)
    return MeasurementPlan((label,), (basis,))


class TestFourier:
    def test_qubit_is_hadamard(self):
        h = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
        assert np.max(np.abs(fourier_unitary(2) - h)) <= 1e-14

    def test_unitarity(self):
        for d in (2, 3, 5, 8):
            f = fourier_unitary(d)
            assert np.max(np.abs(f.conj().T @ f - np.eye(d))) <= 1e-12

    def test_zero_column_is_uniform(self):
        f = fourier_unitary(4)
        assert np.allclose(f[:, 0], np.full(4, 0.5))

    def test_rejects_trivial(self):
        with pytest.raises(InvariantError):
            fourier_unitary(1)


class TestCorrection:
    def test_zero_is_identity(self):
        assert np.array_equal(correction_unitary(0, 3), np.eye(3))

    def test_qubit_k1_is_z(self):
        assert np.allclose(correction_unitary(1, 2), np.diag([1.0, -1.0]))

    def test_unitarity(self):
        for d in (2, 3, 4):
            for k in range(d):
                u = correction_unitary(k, d)
                assert np.max(np.abs(u.conj().T @ u - np.eye(d))) <= 1e-12

    def test_out_of_range(self):
        with pytest.raises(InvariantError):
            correction_unitary(3, 3)


class TestTranscript:
    @pytest.mark.parametrize("probs", [
        (np.nan, np.nan), (np.nan, 1.0), (0.5, 0.6), (1.5, -0.5), (np.inf, -np.inf),
    ])
    def test_refuses_invalid_probabilities(self, probs):
        with pytest.raises(InvariantError, match="invalid outcome probabilities"):
            LoccTranscript(probs, (), None)


class TestLoccUndo:
    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_composition_recovers_state(self, d):
        # undo(premeasure) must reproduce the input with the measured
        # subsystem's role carried by the apparatus
        reg = Register(("A", "B"), (d, 2))
        state = random_mixed(reg, rank=2, seed=50 + d)
        plan = single_plan("A", d, make_rng(60 + d))
        pm = premeasure(state, plan)
        transcript = locc_undo(pm, plan, "A")
        out = transcript.output
        assert out.register.labels == ("B", "M:A")
        # the apparatus records outcome labels: its content is the measured
        # subsystem's state re-expressed in the plan basis (U^dag rotation)
        u = plan.bases[0].vectors
        g = np.kron(u.conj().T, np.eye(2))
        rotated = LabeledState(reg, g @ state.rho @ g.conj().T)
        expected = rotated.permuted([1, 0])
        assert linalg.trace_distance(out.rho, expected.rho) <= 1e-11

    def test_uniform_outcome_probabilities(self):
        state = random_mixed(default_register(2), rank=3, seed=70)
        plan = single_plan("B", 2, make_rng(71))
        transcript = locc_undo(premeasure(state, plan), plan, "B")
        assert np.allclose(transcript.outcome_probabilities, [0.5, 0.5], atol=1e-12)

    def test_all_branches_agree(self):
        state = random_mixed(Register(("A", "B"), (3, 2)), rank=2, seed=72)
        plan = single_plan("A", 3, make_rng(73))
        transcript = locc_undo(premeasure(state, plan), plan, "A")
        for branch in transcript.branch_outputs:
            assert linalg.trace_distance(branch.rho, transcript.output.rho) <= 1e-11

    def test_bell_entanglement_is_transferred(self):
        plan = single_plan("B", 2)
        pm = premeasure(bell_state(), plan)
        out = locc_undo(pm, plan, "B").output
        # A:apparatus negativity equals the original Bell negativity
        cut = BipartitionCut((0,), (1,))
        assert negativity(out, cut) == pytest.approx(0.5, abs=1e-10)

    def test_rejects_invalid_premeasurement(self):
        state = random_mixed(default_register(2), rank=2, seed=74)
        plan = single_plan("B", 2)
        pm = premeasure(state, plan)
        junk = np.kron(state.rho, np.eye(2) / 2)
        tampered = LabeledState(pm.register, 0.5 * pm.rho + 0.5 * junk)
        with pytest.raises(InvariantError):
            locc_undo(tampered, plan, "B")

    def test_rejects_label_outside_plan(self):
        state = random_mixed(default_register(2), rank=2, seed=77)
        pm = premeasure(state, single_plan("A", 2))
        with pytest.raises(InvariantError, match="not measured by the plan"):
            locc_undo(pm, single_plan("B", 2), "A")

    def test_transfer_order_irrelevant(self):
        state = random_mixed(default_register(2), rank=2, seed=75)
        rng = make_rng(76)
        plan = MeasurementPlan(
            ("A", "B"), (random_basis("A", 2, rng), random_basis("B", 2, rng))
        )
        pm = premeasure(state, plan)
        out_ab = locc_undo(locc_undo(pm, plan, "A").output, plan, "B").output
        out_ba = locc_undo(locc_undo(pm, plan, "B").output, plan, "A").output
        # same registers up to ordering; compare after permuting to match
        order = [out_ba.register.labels.index(l) for l in out_ab.register.labels]
        assert linalg.trace_distance(out_ab.rho, out_ba.permuted(order).rho) <= 1e-11

    def test_mid_register_subsystem_and_apparatus(self):
        # plan (A, C) on (2, 3, 2): undoing C projects out an axis with
        # subsystems on both sides, and undoing A then corrects M:A with
        # M:C after it
        reg = Register(("A", "B", "C"), (2, 3, 2))
        state = random_mixed(reg, rank=2, seed=78)
        rng = make_rng(79)
        plan = MeasurementPlan(("A", "C"), (random_basis("A", 2, rng), random_basis("C", 2, rng)))
        ua, uc = (b.vectors for b in plan.bases)
        first = locc_undo(premeasure(state, plan), plan, "C")
        assert first.output.register.labels == ("A", "B", "M:A", "M:C")
        assert np.allclose(first.outcome_probabilities, [0.5, 0.5], atol=1e-12)
        g = np.kron(np.eye(6), uc.conj().T)
        rotated_c = LabeledState(reg, g @ state.rho @ g.conj().T)
        expected = premeasure(rotated_c, MeasurementPlan(("A",), plan.bases[:1]))
        assert linalg.trace_distance(first.output.rho, expected.permuted([0, 1, 3, 2]).rho) <= 1e-11

        second = locc_undo(first.output, plan, "A")
        assert second.output.register.labels == ("B", "M:A", "M:C")
        assert np.allclose(second.outcome_probabilities, [0.5, 0.5], atol=1e-12)
        g = np.kron(np.kron(ua.conj().T, np.eye(3)), uc.conj().T)
        expected = LabeledState(reg, g @ state.rho @ g.conj().T).permuted([1, 0, 2])
        assert linalg.trace_distance(second.output.rho, expected.rho) <= 1e-11


class TestMonotonicity:
    def test_holds_on_random_states(self):
        rng = make_rng(80)
        for trial in range(10):
            state = random_mixed(default_register(2), rank=1 + trial % 3, seed=90 + trial)
            plan = single_plan("B", 2, rng)
            out = verify_monotonicity_step(state, plan)
            assert out["holds"]
            assert out["lhs"] >= out["rhs"] - 1e-9

    @pytest.mark.parametrize("d", [2, 3])
    def test_lhs_matches_dense_premeasurement(self, d):
        rng = make_rng(95 + d)
        for trial in range(4):
            state = random_mixed(Register(("A", "B"), (d, d)), rank=1 + trial, seed=trial)
            plan = single_plan("A", d, rng)
            dense = negativity(premeasure(state, plan), BipartitionCut((0, 1), (2,)))
            assert abs(verify_monotonicity_step(state, plan)["lhs"] - dense) <= 1e-12

    def test_rhs_equals_prior_entanglement(self):
        # the transferred state carries exactly the original A:B negativity
        state = random_pure(default_register(2), seed=91)
        plan = single_plan("B", 2, make_rng(92))
        out = verify_monotonicity_step(state, plan)
        prior = negativity(state, BipartitionCut((0,), (1,)))
        assert out["rhs"] == pytest.approx(prior, abs=1e-10)

    def test_rejects_multi_label_plan(self):
        state = random_mixed(default_register(2), rank=2, seed=93)
        rng = make_rng(94)
        plan = MeasurementPlan(
            ("A", "B"), (random_basis("A", 2, rng), random_basis("B", 2, rng))
        )
        with pytest.raises(InvariantError):
            verify_monotonicity_step(state, plan)
