import numpy as np
import pytest

from qcorr import chain, linalg, serialize
from qcorr.chain import (
    ChainConfig,
    OPTIMIZED,
    LinkSpec,
    TRACK_QUANTUMNESS,
    chain_gme_propagation,
    _generic_draw,
    eigenbasis_criterion,
    run_chain,
)
from qcorr.entanglement import BipartitionCut, _pure_vector, negativity, pure_gme_test
from qcorr.errors import InvariantError
from qcorr.premeasure import MeasurementPlan, premeasure
from qcorr.quantumness import OptimizerConfig
from qcorr.states import (
    LabeledState,
    LocalBasis,
    Register,
    bell_state,
    computational_basis,
    default_register,
    ghz_state,
    make_rng,
    pure_state,
    random_basis,
    random_mixed,
    random_pure,
    spawn_rng,
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

    def test_builds_no_premeasurement_state(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("eigenbasis_criterion built the pre-measurement state")

        monkeypatch.setattr(chain, "premeasure", refuse)
        out = eigenbasis_criterion(single_qubit_state(0.75), LocalBasis("S", HADAMARD))
        assert out["entanglement"] == pytest.approx(0.25, abs=1e-12)


def chain_labels(n):
    labels = ["S"]
    for _ in range(n - 1):
        labels.append("M:" + labels[-1])
    return labels


def dense_link_values(initial, links):
    """Each link's system:apparatus negativity off the dense pre-measurement state."""
    state, values = initial, []
    for spec in links:
        basis = spec.basis
        if not isinstance(basis, LocalBasis):  # flag-copy
            basis = computational_basis(spec.target, state.register.dim(spec.target))
        n = state.register.n
        state = premeasure(state, MeasurementPlan((spec.target,), (basis,)))
        values.append(negativity(state, BipartitionCut(tuple(range(n)), (n,))))
    return values


def dense_break_rows(report, n0):
    """Each level's break-point negativity off the dense partial transpose of the final state."""
    final = report.final_state
    rows = []
    for j in range(1, len(report.rows)):
        pt = linalg.partial_transpose(final.rho, final.dims, range(n0 + j, final.register.n))
        w = np.linalg.eigvalsh(pt)
        rows.append(float(np.sum(np.abs(w[w < 0]))))
    return rows


def seven_link_chains(flag_copy):
    """(initial, links) of one-qubit chains that measure the previous apparatus.

    7 links from one qubit reach the 256 dimension cap; seeds 0 and 2 start
    pure, seed 1 mixed.
    """
    targets = chain_labels(7)
    for seed in range(3):
        rng = make_rng(seed)
        state = random_mixed(Register(("S",), (2,)), rank=1 + seed % 2, seed=seed)
        links = [LinkSpec(lab, random_basis(lab, 2, rng)) for lab in targets]
        if flag_copy:
            links[1:] = [LinkSpec(lab) for lab in targets[1:]]
        yield state, tuple(links)


class TestRunChain:
    @pytest.mark.parametrize("flag_copy", [False, True])
    def test_link_values_match_dense_oracle(self, flag_copy):
        for state, links in seven_link_chains(flag_copy):
            report = run_chain(ChainConfig(state, links))
            dense = dense_link_values(state, links)
            assert np.max(np.abs(np.subtract(report.entanglement_sequence(), dense))) <= 1e-12

    @pytest.mark.parametrize("flag_copy", [False, True])
    def test_break_rows_match_dense_oracle(self, flag_copy):
        for state, links in seven_link_chains(flag_copy):
            report = run_chain(ChainConfig(state, links))
            breaks = [r.break_negativity for r in report.rows[:-1]]
            assert np.max(np.abs(np.subtract(breaks, dense_break_rows(report, 1)))) <= 1e-12

    def test_break_rows_take_no_dense_spectrum_when_links_measure_apparatuses(
        self, monkeypatch
    ):
        def refuse(*args):
            raise AssertionError("dense break-point negativity")

        monkeypatch.setattr(chain, "_negativity", refuse)
        monkeypatch.setattr(chain, "_pure_vector", refuse)
        for flag_copy in (False, True):
            for state, links in seven_link_chains(flag_copy):
                report = run_chain(ChainConfig(state, links))
                e = report.entanglement_sequence()
                assert [r.break_negativity for r in report.rows] == e[1:] + [None]

    @pytest.mark.parametrize("rank", [1, 3])
    def test_break_rows_mix_dense_and_link_values(self, rank, monkeypatch):
        # links A, B, M:A: level 1 is dense (link 3 measures M:A, left of the
        # cut), level 2 is link 3's value
        rng = make_rng(5)
        state = random_mixed(default_register(2), rank=rank, seed=6)
        links = tuple(LinkSpec(lab, random_basis(lab, 2, rng)) for lab in ("A", "B", "M:A"))
        dense_calls = []
        real = chain._negativity
        monkeypatch.setattr(chain, "_negativity", lambda *a: dense_calls.append(a) or real(*a))
        report = run_chain(ChainConfig(state, links))
        assert len(dense_calls) == 1
        assert report.rows[1].break_negativity == report.rows[2].entanglement
        breaks = [r.break_negativity for r in report.rows[:-1]]
        assert np.max(np.abs(np.subtract(breaks, dense_break_rows(report, 2)))) <= 1e-12
        assert breaks[0] > 0.0

    def test_empty_chain_refused(self):
        with pytest.raises(InvariantError, match="at least one link"):
            ChainConfig(bell_state(), ())

    def test_classical_links_read_exactly_zero(self):
        links = tuple(LinkSpec(lab) for lab in chain_labels(4))
        report = run_chain(ChainConfig(single_qubit_state(0.3), links))
        assert report.entanglement_sequence() == [0.0] * 4
        assert dense_link_values(single_qubit_state(0.3), links) == [0.0] * 4

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
        with pytest.raises(InvariantError, match=r"'M:C', 'M:M:C'\).*exceed total dimension 256"):
            run_chain(cfg)

    def test_default_optimizer_matches_chain_json(self):
        # a config with no "optimizer" block optimizes links alike from the
        # library and from the command line
        links = (LinkSpec("B", OPTIMIZED),)
        parsed = serialize.chain_config_from_json(
            {"state": serialize.state_to_json(bell_state()),
             "links": [{"target": "B", "basis": OPTIMIZED}]}
        )
        assert ChainConfig(bell_state(), links).q_cfg == parsed.q_cfg


def draw_on(state, target, rng):
    """``_generic_draw`` on the target's reduced state."""
    reduced = linalg.partial_trace(state.rho, state.dims, [state.register.index(target)])
    return _generic_draw(reduced, target, rng)


class TestGenericBasis:
    def test_avoids_eigenbasis(self):
        state = single_qubit_state(0.75)
        rng = make_rng(3)
        for _ in range(5):
            basis = draw_on(state, "S", rng)
            out = eigenbasis_criterion(state, basis)
            assert out["off_diagonal_mass"] >= 1e-3

    def test_degenerate_target_still_returns(self):
        state = LabeledState(Register(("S",), (2,)), np.eye(2) / 2)
        basis = draw_on(state, "S", make_rng(4))
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

    def test_dimension_cap(self):
        # 6 subsystems, but the third qutrit link would reach 27 * 27 = 729 > 256
        with pytest.raises(InvariantError, match="exceed total dimension 256"):
            chain_gme_propagation(ghz_state(3, 3), links=3)

    @pytest.mark.parametrize("links", [0, -2, 2.5, True, "2", None])
    def test_needs_a_link(self, links):
        with pytest.raises(InvariantError, match="at least one link|must be an integer"):
            chain_gme_propagation(ghz_state(3), links)

    @pytest.mark.parametrize("seed", [1.5, -1, True, "0", None])
    def test_refuses_bad_seed(self, seed):
        with pytest.raises(InvariantError, match="seed must be"):
            chain_gme_propagation(ghz_state(3), 1, seed=seed)

    @pytest.mark.parametrize("make, links, seed", [
        (lambda: ghz_state(3), 5, 0),
        (lambda: w_state(3), 4, 3),
        (lambda: pure_state(np.kron(np.array([1, 0, 0, 1]) / np.sqrt(2), [1.0, 0.0]),
                            default_register(3)), 3, 2),
        (lambda: random_pure(default_register(4), 9), 3, 7),
        (lambda: random_pure(Register(("A", "B"), (2, 3)), 10), 2, 1),
        (lambda: nearly_pure(ghz_state(3)), 3, 4),
        (lambda: nearly_pure(w_state(3)), 3, 5),
    ])
    def test_matches_dense_replay(self, make, links, seed):
        initial = make()
        out = chain_gme_propagation(initial, links, seed=seed)
        flags, final = dense_gme_replay(initial, links, seed)
        assert out["per_step"] == flags
        assert out["final_state"].register == final.register
        assert np.max(np.abs(out["final_state"].rho - final.rho)) <= 1e-13

    def test_negative_part_is_dropped(self):
        # (1 + eps) psi psi^dag - eps q q^dag with q orthogonal to psi passes
        # check_density and is_pure, but its positive eigenvalues sum to 1 + eps
        eps, pure = 5e-11, random_pure(Register(("A", "B"), (2, 2)), 5)
        _, v = np.linalg.eigh(pure.rho)
        rho = (1 + eps) * pure.rho - eps * np.outer(v[:, 0], v[:, 0].conj())
        state = LabeledState(pure.register, rho)
        out = chain_gme_propagation(state, 3, seed=1)
        flags, final = dense_gme_replay(state, 3, 1)
        assert out["per_step"] == flags
        assert np.max(np.abs(out["final_state"].rho - final.rho)) <= 1e-9

    def test_nearly_pure_inputs_keep_their_flags(self):
        # (1 - eps) psi psi^dag + eps I/D passes is_pure but not the 1e-13 guard
        for state, gme in ((nearly_pure(ghz_state(3)), True), (nearly_pure(w_state(3)), True)):
            assert _pure_vector(state.rho) is None
            out = chain_gme_propagation(state, 3, seed=11)
            assert out["per_step"] == dense_gme_replay(state, 3, 11)[0]
            assert [step["gme"] for step in out["per_step"]] == [gme] * 3

    def test_builds_no_dense_premeasurement(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("chain_gme_propagation premeasured a density matrix")

        monkeypatch.setattr(chain, "premeasure", refuse)
        out = chain_gme_propagation(ghz_state(3), links=5, seed=0)
        assert all(step["gme"] for step in out["per_step"])
        assert out["final_state"].register.total_dim == 256


def nearly_pure(state, eps=1e-10):
    d = state.register.total_dim
    return LabeledState(state.register, (1 - eps) * state.rho + eps * np.eye(d) / d)


def dense_gme_replay(initial, links, seed):
    """Per-step GME verdicts and final state off dense premeasure, with the same draws."""
    rng = spawn_rng(seed, 0)
    state, flags = initial, []
    for _ in range(links):
        target = state.register.labels[-1]
        basis = draw_on(state, target, rng)
        state = premeasure(state, MeasurementPlan((target,), (basis,)))
        flags.append(pure_gme_test(state))
    return flags, state
