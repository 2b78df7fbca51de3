import importlib

import numpy as np
import pytest

import oracles
from dense_oracles import cut_purities, dense_negativity, partial_trace
from qcorr import chain, linalg, quantumness, serialize
from qcorr.chain import (
    ChainConfig,
    FLAG_COPY,
    OPTIMIZED,
    LinkSpec,
    chain_gme_propagation,
    eigenbasis_criterion,
    run_chain,
)
from qcorr.entanglement import BipartitionCut, _pure_vector, negativity, pure_gme_test
from qcorr.errors import InvariantError
from qcorr.premeasure import MeasurementPlan, premeasure
from qcorr.quantumness import OptimizerConfig, apparatus_negativity, q_negativity
from qcorr.states import (
    LabeledState,
    LocalBasis,
    Register,
    apparatus_label,
    bell_state,
    computational_basis,
    default_register,
    ghz_state,
    make_rng,
    pure_state,
    random_basis,
    random_mixed,
    random_pure,
    w_state,
)

# premeasure's dense V rho V^dag, which every pre-measurement state goes through
PREMEASURE_MODULE = importlib.import_module("qcorr.premeasure")

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
        expected = oracles.q_negativity_at(np.diag([0.75, 0.25]), [2], [0], [HADAMARD])
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

        monkeypatch.setattr(PREMEASURE_MODULE, "_conjugate", refuse)
        out = eigenbasis_criterion(single_qubit_state(0.75), LocalBasis("S", HADAMARD))
        assert out["entanglement"] == pytest.approx(0.25, abs=1e-12)


def chain_labels(n, first="S"):
    """``first`` and the n - 1 apparatuses after it, each measuring the one before."""
    labels = [first]
    for _ in range(n - 1):
        labels.append(apparatus_label(labels[-1]))
    return labels


def dense_levels(initial, links):
    """The dense state after each link, one ``premeasure`` per link."""
    state = initial
    for spec in links:
        basis = spec.basis
        if not isinstance(basis, LocalBasis):  # flag-copy
            basis = computational_basis(spec.target, state.register.dim(spec.target))
        state = premeasure(state, MeasurementPlan((spec.target,), (basis,)))
        yield state


def link_value(state):
    """The negativity of ``state`` across (everything else):(its newest apparatus)."""
    n = state.register.n
    return negativity(state, BipartitionCut(tuple(range(n - 1)), (n - 1,)))


def dense_break_rows(report, n0):
    """Each level's break-point negativity off the dense partial transpose of the final state."""
    final = report.final_state
    n = final.register.n
    return [
        dense_negativity(final, BipartitionCut(tuple(range(n0 + j)), tuple(range(n0 + j, n))))
        for j in range(1, len(report.rows))
    ]


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


def psi_q_state():
    """(1 + eps) psi psi^dag - eps q q^dag with q orthogonal to psi, eps = 5e-11.

    ``check_density`` and ``is_pure`` admit it; a factor of it drops the
    negative part and renormalizes.
    """
    eps, pure = 5e-11, random_pure(Register(("A", "B"), (2, 2)), 5)
    _, v = np.linalg.eigh(pure.rho)
    rho = (1 + eps) * pure.rho - eps * np.outer(v[:, 0], v[:, 0].conj())
    return LabeledState(pure.register, rho)


def oracle_panel():
    """(initial, links, tolerance) for the dense-oracle panel.

    One-qubit chains of 4 to 7 links measuring the previous apparatus, with
    random bases and flag-copy after link 1, from rank 1 and rank 2 states;
    (2,2) chains whose links leave dense break rows; and the psi/q state,
    whose chain runs on the factor without its 5e-11 negative part.
    """
    for n_links in (4, 5, 6, 7):
        for rank in (1, 2):
            rng = make_rng(10 * n_links + rank)
            state = random_mixed(Register(("S",), (2,)), rank=rank, seed=n_links + 10 * rank)
            targets = chain_labels(n_links)
            links = tuple(LinkSpec(lab, random_basis(lab, 2, rng)) for lab in targets)
            yield state, links, 1e-12
            yield state, links[:1] + tuple(LinkSpec(lab) for lab in targets[1:]), 1e-12
    labels = ("A", "B", "M:A", "M:B")
    for rank in (1, 2, 4):
        rng = make_rng(20 + rank)
        state = random_mixed(default_register(2), rank=rank, seed=30 + rank)
        yield state, tuple(LinkSpec(lab, random_basis(lab, 2, rng)) for lab in labels), 1e-12
    rng = make_rng(7)
    yield psi_q_state(), tuple(LinkSpec(lab, random_basis(lab, 2, rng)) for lab in labels), 1e-9


def tracked_optimized_chain(n_links):
    """A tracked chain of ``n_links`` optimized links, each measuring the previous apparatus."""
    state = random_mixed(Register(("S",), (2,)), rank=2, seed=4)
    links = tuple(LinkSpec(lab, OPTIMIZED) for lab in chain_labels(n_links))
    return ChainConfig(state, links, True, FAST_Q)


class TestRunChain:
    def test_panel_matches_dense_oracles(self):
        for state, links, tol in oracle_panel():
            report = run_chain(ChainConfig(state, links))
            levels = list(dense_levels(state, links))
            dense = [link_value(level) for level in levels]
            assert np.max(np.abs(np.subtract(report.entanglement_sequence(), dense))) <= tol
            breaks = [r.break_negativity for r in report.rows[:-1]]
            oracle = dense_break_rows(report, state.register.n)
            assert np.max(np.abs(np.subtract(breaks, oracle))) <= tol
            final = levels[-1]
            assert report.final_state.register == final.register
            assert np.max(np.abs(report.final_state.rho - final.rho)) <= tol

    def test_optimized_link_with_tracked_quantumness(self):
        state = random_mixed(default_register(2), rank=2, seed=3)
        links = (LinkSpec("B", OPTIMIZED), LinkSpec("M:B"), LinkSpec("M:M:B", OPTIMIZED))
        report = run_chain(ChainConfig(state, links, True, FAST_Q))
        # dense replay: optimize, read and track on each dense premeasured state
        for spec, row in zip(links, report.rows):
            if spec.basis == FLAG_COPY:
                basis = computational_basis(spec.target, 2)
            else:
                basis = q_negativity(state, (spec.target,), FAST_Q).argmin_bases[0]
            plan = MeasurementPlan((spec.target,), (basis,))
            e_val = apparatus_negativity(state.register, state.rho, plan)
            assert row.entanglement == pytest.approx(e_val, abs=1e-9)
            state = premeasure(state, plan)
            q = q_negativity(state, (state.register.labels[-1],), FAST_Q).value
            assert row.quantumness == pytest.approx(q, abs=1e-9)
        assert report.rows[0].entanglement > 0.0
        assert report.monotone()

    def test_tracked_optimized_chain_optimizes_each_state_once(self, monkeypatch):
        # link j's tracked bound is link j + 1's optimization of apparatus j:
        # L links read L + 1 states, one optimization each
        calls, real = [], quantumness._optimize
        monkeypatch.setattr(quantumness, "_optimize", lambda *a: calls.append(a) or real(*a))
        report = run_chain(tracked_optimized_chain(4))
        assert len(calls) == 4 + 1
        assert all(row.quantumness is not None for row in report.rows)

    @pytest.mark.parametrize("flag_copy", [False, True])
    def test_link_values_match_dense_oracle(self, flag_copy):
        for state, links in seven_link_chains(flag_copy):
            report = run_chain(ChainConfig(state, links))
            dense = [link_value(level) for level in dense_levels(state, links)]
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

        monkeypatch.setattr(chain, "negativity", refuse)
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
        real = chain.negativity
        monkeypatch.setattr(chain, "negativity", lambda *a: dense_calls.append(a) or real(*a))
        report = run_chain(ChainConfig(state, links))
        assert len(dense_calls) == 1
        assert report.rows[1].break_negativity == report.rows[2].entanglement
        breaks = [r.break_negativity for r in report.rows[:-1]]
        assert np.max(np.abs(np.subtract(breaks, dense_break_rows(report, 2)))) <= 1e-12
        assert breaks[0] > 0.0

    def test_empty_chain_refused(self):
        with pytest.raises(InvariantError, match="at least one link"):
            ChainConfig(bell_state(), ())

    @pytest.mark.parametrize("initial", [None, np.eye(4) / 4])
    def test_initial_must_be_a_state(self, initial):
        with pytest.raises(InvariantError, match="starts from a LabeledState"):
            ChainConfig(initial, (LinkSpec("B"),))

    def test_misspelled_track_refused(self):
        with pytest.raises(InvariantError, match="track_quantumness must be a bool"):
            ChainConfig(bell_state(), (LinkSpec("B"),), track_quantumness="quantumnes")

    @pytest.mark.parametrize("track", ["quantumness", frozenset({"quantumness"}), 1, None])
    def test_track_quantumness_must_be_a_bool(self, track):
        with pytest.raises(InvariantError, match="track_quantumness must be a bool"):
            ChainConfig(bell_state(), (LinkSpec("B"),), track_quantumness=track)

    def test_links_must_be_link_specs(self):
        with pytest.raises(InvariantError, match="chain links must be LinkSpecs"):
            ChainConfig(single_qubit_state(0.3), ("S",))

    def test_classical_links_read_exactly_zero(self):
        links = tuple(LinkSpec(lab) for lab in chain_labels(4))
        report = run_chain(ChainConfig(single_qubit_state(0.3), links))
        assert report.entanglement_sequence() == [0.0] * 4
        dense = dense_levels(single_qubit_state(0.3), links)
        assert [link_value(level) for level in dense] == [0.0] * 4

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
            track_quantumness=True,
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
        with pytest.raises(InvariantError):
            ChainConfig(
                initial=bell_state(),
                links=(LinkSpec("B", LocalBasis("A", np.eye(2))),),
            )

    def test_unknown_policy(self):
        with pytest.raises(InvariantError):
            ChainConfig(initial=bell_state(), links=(LinkSpec("B", "nope"),))

    def test_dimension_cap(self):
        state = random_mixed(Register(("A", "B", "C"), (4, 4, 4)), rank=1, seed=2)
        with pytest.raises(InvariantError):
            ChainConfig(initial=state, links=(LinkSpec("C"), LinkSpec("M:C")))

    def test_dimension_cap_before_optimizing(self, monkeypatch):
        def never(*args):
            raise AssertionError("optimizer called")

        monkeypatch.setattr(chain, "_minimum_over_bases", never)
        state = random_mixed(Register(("A", "B", "C"), (4, 4, 4)), rank=1, seed=2)
        with pytest.raises(InvariantError, match=r"'M:C', 'M:M:C'\).*exceed total dimension 256"):
            ChainConfig(initial=state, links=(LinkSpec("C"), LinkSpec("M:C", OPTIMIZED)))

    @pytest.mark.parametrize("last, match", [
        (LinkSpec("M:B", "nope"), "unknown basis policy 'nope'"),
        (LinkSpec("M:B", np.eye(2)), "unknown basis policy"),
        (LinkSpec("M:B", LocalBasis("B", np.eye(2))), "does not match plan label 'M:B'"),
        (LinkSpec("M:B", LocalBasis("M:B", np.eye(3))), "basis dimension 3 != subsystem 'M:B'"),
        (LinkSpec("Z"), "label 'Z' not in register"),
        (LinkSpec(5), "label 5 not in register"),
        (LinkSpec("B"), "duplicate labels"),
        (LinkSpec("A", OPTIMIZED), "exceed total dimension 256"),
    ])
    def test_bad_link_refused_before_any_runs(self, monkeypatch, last, match):
        def never(*args):
            raise AssertionError("optimizer called")

        monkeypatch.setattr(chain, "_minimum_over_bases", never)
        # each last link is valid but for one fault: a record of A would reach 64 * 16 > 256
        initial = random_mixed(Register(("A", "B"), (16, 2)), rank=1, seed=2)
        with pytest.raises(InvariantError, match=match):
            ChainConfig(initial, (LinkSpec("B", OPTIMIZED), last))

    @pytest.mark.parametrize("q_cfg", [None, {"restarts": 3}])
    def test_q_cfg_must_be_an_optimizer_config(self, q_cfg):
        # refused when built, not at the first optimized link
        links = (LinkSpec("B"), LinkSpec("M:B", OPTIMIZED))
        with pytest.raises(InvariantError, match="q_cfg must be an OptimizerConfig"):
            ChainConfig(bell_state(), links, q_cfg=q_cfg)

    def test_default_optimizer_matches_chain_json(self):
        # a config with no "optimizer" block optimizes links alike from the
        # library and from the command line
        links = (LinkSpec("B", OPTIMIZED),)
        parsed = serialize.chain_config_from_json(
            {"state": serialize.state_to_json(bell_state()),
             "links": [{"target": "B", "basis": OPTIMIZED}]}
        )
        assert ChainConfig(bell_state(), links).q_cfg == parsed.q_cfg


class TestDensityChecks:
    """A chain checks a density matrix only where one is read."""

    @staticmethod
    def counted(monkeypatch):
        calls, real = [], linalg.check_density
        monkeypatch.setattr(linalg, "check_density", lambda *a: calls.append(a) or real(*a))
        return calls

    def test_run_chain_checks_only_the_final_state_read(self, monkeypatch):
        state, links = next(seven_link_chains(False))
        calls = self.counted(monkeypatch)
        report = run_chain(ChainConfig(state, links))
        assert len(calls) == 0
        final = report.final_state
        assert len(calls) == 1 and final.register.total_dim == 256
        assert report.final_state is final and len(calls) == 1

    def test_tracked_optimized_chain_checks_each_state_once(self, monkeypatch):
        # tracked bounds and optimized bases are read off the chain's factor,
        # so no state is checked in the run; the final state is, once, when read
        cfg = tracked_optimized_chain(4)
        calls = self.counted(monkeypatch)
        report = run_chain(cfg)
        assert len(calls) == 0
        final = report.final_state
        assert len(calls) == 1 and final.register.total_dim == 32
        assert report.final_state is final and len(calls) == 1

    def test_gme_propagation_checks_only_the_final_state_read(self, monkeypatch):
        initial = ghz_state(3)
        calls = self.counted(monkeypatch)
        out = chain_gme_propagation(initial, links=5, seed=0)
        assert len(calls) == 0 and all(step["gme"] for step in out["per_step"])
        final = out["final_state"]
        assert len(calls) == 1 and final.register.total_dim == 256
        assert out["final_state"] is final and len(calls) == 1
        with pytest.raises(KeyError):
            out["final"]

    def test_gme_propagation_keys_are_fixed_before_the_final_state_read(self, monkeypatch):
        initial = ghz_state(3)
        calls = self.counted(monkeypatch)
        out = chain_gme_propagation(initial, 2, seed=1)
        assert "final_state" in out and "final" not in out
        assert list(out) == ["per_step", "final_state"] and len(out) == 2
        assert len(calls) == 0
        final = out.get("final_state")
        assert final is out["final_state"] and final.register.n == 5 and len(calls) == 1
        with pytest.raises(TypeError):
            out["final_state"] = None


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

    def test_qubit_cap_refused_at_the_link(self):
        # the sixth link would make nine qubits, 512 > 256
        with pytest.raises(InvariantError, match=r"'M:M:M:M:M:M:C'\).*exceed total dimension 256"):
            chain_gme_propagation(ghz_state(3), 6)

    @pytest.mark.parametrize("links", [0, -2, 2.5, True, "2", None])
    def test_needs_a_link(self, links):
        with pytest.raises(InvariantError, match="links must be at least 1|must be an integer"):
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
        levels = list(dense_levels(initial, gme_links(initial, links, seed)))
        flags, final = [pure_gme_test(level) for level in levels], levels[-1]
        assert out["per_step"] == flags
        assert out["final_state"].register == final.register
        assert np.max(np.abs(out["final_state"].rho - final.rho)) <= 1e-13

    def test_negative_part_is_dropped(self):
        # the positive eigenvalues of the psi/q state sum to 1 + 5e-11
        state = psi_q_state()
        out = chain_gme_propagation(state, 3, seed=1)
        levels = list(dense_levels(state, gme_links(state, 3, 1)))
        assert out["per_step"] == [pure_gme_test(level) for level in levels]
        final = levels[-1]
        assert np.max(np.abs(out["final_state"].rho - final.rho)) <= 1e-9

    def test_nearly_pure_inputs_keep_their_flags(self):
        # (1 - eps) psi psi^dag + eps I/D passes is_pure but not the 1e-13 guard
        for state, gme in ((nearly_pure(ghz_state(3)), True), (nearly_pure(w_state(3)), True)):
            assert _pure_vector(state.rho) is None
            out = chain_gme_propagation(state, 3, seed=11)
            dense = dense_levels(state, gme_links(state, 3, 11))
            assert out["per_step"] == [pure_gme_test(level) for level in dense]
            assert [step["gme"] for step in out["per_step"]] == [gme] * 3

    def test_builds_no_dense_premeasurement(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("chain_gme_propagation premeasured a density matrix")

        monkeypatch.setattr(PREMEASURE_MODULE, "_conjugate", refuse)
        out = chain_gme_propagation(ghz_state(3), links=5, seed=0)
        assert all(step["gme"] for step in out["per_step"])
        assert out["final_state"].register.total_dim == 256


def special_bases(state):
    """The last label's reduced eigenbasis and its computational basis, with lambda_max."""
    target, d = state.register.labels[-1], state.dims[-1]
    w, v = np.linalg.eigh(partial_trace(state.rho, state.dims, [state.register.n - 1]))
    return target, (LocalBasis(target, v), computational_basis(target, d)), w[-1]


class TestAnyBasisPropagates:
    """A link in any basis keeps every cut's purity deficit above
    min(the input's least deficit, 1 - lambda_max of the measured party),
    so no GME verdict depends on the basis drawn."""

    @pytest.mark.parametrize("make", [
        lambda: ghz_state(3),
        lambda: w_state(3),
        lambda: random_pure(default_register(4), 9),
        lambda: random_pure(Register(("A", "B"), (2, 3)), 10),
    ])
    def test_gme_in_the_eigenbasis_and_the_computational_basis(self, make):
        state = make()
        target, bases, lam_max = special_bases(state)
        bound = min(1.0 - max(cut_purities(state)), 1.0 - lam_max)
        assert bound > 0.0
        for basis in bases:
            out = premeasure(state, MeasurementPlan((target,), (basis,)))
            assert pure_gme_test(out)["gme"]
            assert 1.0 - max(cut_purities(out)) >= bound - 1e-12

    def test_biseparable_keeps_a_witness(self):
        state = pure_state(np.kron(np.array([1, 0, 0, 1]) / np.sqrt(2), [1.0, 0.0]),
                           default_register(3))
        target, bases, _ = special_bases(state)
        for basis in bases:
            verdict = pure_gme_test(premeasure(state, MeasurementPlan((target,), (basis,))))
            assert not verdict["gme"] and verdict["witness"] is not None


def nearly_pure(state, eps=1e-10):
    d = state.register.total_dim
    return LabeledState(state.register, (1 - eps) * state.rho + eps * np.eye(d) / d)


def gme_links(initial, links, seed):
    """``chain_gme_propagation``'s links as LinkSpecs, with the same basis draws."""
    rng = make_rng(seed, 0)
    d = initial.dims[-1]
    return [LinkSpec(lab, random_basis(lab, d, rng))
            for lab in chain_labels(links, initial.register.labels[-1])]
