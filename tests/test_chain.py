import numpy as np
import pytest

from qcorr import chain
from qcorr.chain import (
    ChainConfig,
    OPTIMIZED,
    LinkSpec,
    TRACK_QUANTUMNESS,
    chain_gme_propagation,
    eigenbasis_criterion,
    generic_basis,
    run_chain,
)
from qcorr.errors import InvariantError
from qcorr.quantumness import OptimizerConfig
from qcorr.states import (
    LabeledState,
    LocalBasis,
    Register,
    bell_state,
    default_register,
    ghz_state,
    make_rng,
    pure_state,
    random_mixed,
    w_state,
)

HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
FAST_Q = OptimizerConfig(restarts=6, seed=0)


def single_qubit_state(p):
    return LabeledState(Register(("S",), (2,)), np.diag([p, 1 - p]).astype(complex))


class TestEigenbasisCriterion:
    def test_eigenbasis_is_not_entangling(self):
        out = eigenbasis_criterion(single_qubit_state(0.75), LocalBasis("S", np.eye(2)))
        assert out["entangling"] is False
        assert out["entanglement"] == 0.0
        assert out["off_diagonal_mass"] <= 1e-14

    def test_rotated_basis_is_entangling(self):
        out = eigenbasis_criterion(single_qubit_state(0.75), LocalBasis("S", HADAMARD))
        assert out["entangling"] is True
        assert out["off_diagonal_mass"] > 0.1
        # independent oracle: build sum_ij sigma_ij |ii><jj| with sigma the
        # state in the measurement basis and diagonalize its partial transpose
        sigma = HADAMARD.conj().T @ np.diag([0.75, 0.25]) @ HADAMARD
        rho_t = np.zeros((4, 4), dtype=complex)
        for i in range(2):
            for j in range(2):
                rho_t[3 * i, 3 * j] = sigma[i, j]
        pt = rho_t.reshape(2, 2, 2, 2).transpose(0, 3, 2, 1).reshape(4, 4)
        w = np.linalg.eigvalsh(pt)
        expected = float(-np.sum(w[w < 0]))
        assert out["entanglement"] == pytest.approx(expected, abs=1e-12)
        assert out["entanglement"] == pytest.approx(0.25, abs=1e-12)

    def test_degenerate_state_never_entangles(self):
        state = LabeledState(Register(("S",), (2,)), np.eye(2) / 2)
        rng = make_rng(0)
        from qcorr.states import random_basis

        for _ in range(5):
            out = eigenbasis_criterion(state, random_basis("S", 2, rng))
            assert out["entangling"] is False

    def test_requires_single_subsystem(self):
        with pytest.raises(InvariantError):
            eigenbasis_criterion(bell_state(), LocalBasis("A", np.eye(2)))


class TestRunChain:
    def test_bell_flag_copy_chain(self):
        cfg = ChainConfig(
            initial=bell_state(),
            links=(
                LinkSpec("B"),
                LinkSpec("M:B"),
                LinkSpec("M:M:B"),
            ),
        )
        report = run_chain(cfg)
        assert [r.apparatus for r in report.rows] == ["M:B", "M:M:B", "M:M:M:B"]
        seq = report.entanglement_sequence()
        assert np.allclose(seq, [0.5, 0.5, 0.5], atol=1e-10)
        assert report.monotone()
        # break entanglement across every earlier link of the final state
        assert report.rows[0].break_negativity == pytest.approx(0.5, abs=1e-10)
        assert report.rows[1].break_negativity == pytest.approx(0.5, abs=1e-10)
        assert report.rows[-1].break_negativity is None

    def test_monotone_nondecreasing_sequence(self):
        state = random_mixed(default_register(2), rank=2, seed=1)
        cfg = ChainConfig(
            initial=state,
            links=(LinkSpec("B", "optimized"), LinkSpec("M:B"), LinkSpec("M:M:B")),
            q_cfg=FAST_Q,
        )
        report = run_chain(cfg)
        seq = report.entanglement_sequence()
        for a, b in zip(seq, seq[1:]):
            assert b >= a - 1e-9
        assert report.monotone()

    def test_quantumness_tracking(self):
        cfg = ChainConfig(
            initial=bell_state(),
            links=(LinkSpec("B"),),
            track=frozenset({"negativity", TRACK_QUANTUMNESS}),
            q_cfg=FAST_Q,
        )
        report = run_chain(cfg)
        assert report.rows[0].quantumness is not None
        assert report.rows[0].quantumness >= 0.0

    def test_explicit_basis(self):
        cfg = ChainConfig(
            initial=single_qubit_state(0.75).permuted([0]),
            links=(LinkSpec("S", LocalBasis("S", HADAMARD)),),
        )
        report = run_chain(cfg)
        assert report.rows[0].entanglement == pytest.approx(0.25, abs=1e-10)

    def test_explicit_basis_label_mismatch(self):
        cfg = ChainConfig(
            initial=bell_state(),
            links=(LinkSpec("B", LocalBasis("A", np.eye(2))),),
        )
        with pytest.raises(InvariantError):
            run_chain(cfg)

    def test_unknown_policy(self):
        cfg = ChainConfig(initial=bell_state(), links=(LinkSpec("B", "nope"),))
        with pytest.raises(InvariantError):
            run_chain(cfg)

    def test_dimension_cap(self):
        state = random_mixed(Register(("A", "B", "C"), (4, 4, 4)), rank=1, seed=2)
        cfg = ChainConfig(
            initial=state, links=(LinkSpec("C"), LinkSpec("M:C"))
        )
        with pytest.raises(InvariantError):
            run_chain(cfg)

    def test_dimension_cap_before_optimizing(self, monkeypatch):
        def never(*args):
            raise AssertionError("q_negativity called")

        monkeypatch.setattr(chain, "q_negativity", never)
        state = random_mixed(Register(("A", "B", "C"), (4, 4, 4)), rank=1, seed=2)
        cfg = ChainConfig(
            initial=state, links=(LinkSpec("C"), LinkSpec("M:C", OPTIMIZED))
        )
        with pytest.raises(InvariantError, match="chain link 2 would exceed"):
            run_chain(cfg)


class TestGenericBasis:
    def test_avoids_eigenbasis(self):
        state = single_qubit_state(0.75)
        rng = make_rng(3)
        for _ in range(5):
            basis = generic_basis(state, "S", rng)
            out = eigenbasis_criterion(state, basis)
            assert out["off_diagonal_mass"] >= 1e-3

    def test_degenerate_target_still_returns(self):
        state = LabeledState(Register(("S",), (2,)), np.eye(2) / 2)
        basis = generic_basis(state, "S", make_rng(4))
        assert basis.dim == 2


class TestGmePropagation:
    def test_ghz_chain(self):
        out = chain_gme_propagation(ghz_state(3), links=2, seed=0)
        assert len(out["per_step"]) == 2
        assert all(step["gme"] for step in out["per_step"])
        assert out["final_state"].register.n == 5

    def test_w_state_chain(self):
        out = chain_gme_propagation(w_state(3), links=2, seed=1)
        assert all(step["gme"] for step in out["per_step"])

    def test_biseparable_stays_non_gme(self):
        psi = np.kron(np.array([1, 0, 0, 1]) / np.sqrt(2), np.array([1.0, 0.0]))
        state = pure_state(psi, default_register(3))
        out = chain_gme_propagation(state, links=2, seed=2)
        assert not any(step["gme"] for step in out["per_step"])

    def test_rejects_mixed(self):
        with pytest.raises(InvariantError):
            chain_gme_propagation(random_mixed(default_register(2), 2, seed=5), links=1)

    def test_subsystem_cap(self):
        with pytest.raises(InvariantError):
            chain_gme_propagation(ghz_state(3), links=6)
