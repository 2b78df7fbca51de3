"""Small-sample smoke runs of every verification suite; the acceptance tests
run them at their contract sizes."""

import dataclasses
import functools
import pickle
from types import SimpleNamespace

import numpy as np
import pytest

from qcorr import suites
from qcorr.errors import UsageError
from qcorr.states import derive_seed
from qcorr.suites import SUITE_NAMES, run_suite


def test_derive_seed_is_deterministic_and_keyed():
    assert derive_seed(7, 1, 2) == derive_seed(7, 1, 2)
    assert derive_seed(7, 1, 2) != derive_seed(7, 1, 3)
    assert derive_seed(7, 1) != derive_seed(8, 1)
    assert 0 <= derive_seed(0, 0) < 2**64


def test_theorem2_smoke():
    result = run_suite("theorem2", samples=3, seed=7)
    assert result.ok
    assert result.worst_margin >= -1e-9
    assert len(result.trials) == 3


def test_theorem1_smoke():
    result = run_suite("theorem1", samples=3, seed=11)
    assert result.ok
    assert len(result.trials) == 6  # classical + entangled halves


def test_pure_saturation_smoke():
    result = run_suite("pure-saturation", samples=3, seed=3)
    assert result.ok
    assert result.worst_margin >= 0.0


def test_locc_undo_smoke():
    result = run_suite("locc-undo", samples=4, seed=5)
    assert result.ok
    assert result.summary["max_trace_distance"] <= 1e-11


def test_chain_monotone_smoke():
    result = run_suite("chain-monotone", samples=3, seed=13)
    assert result.ok


def test_theorem3_smoke():
    result = run_suite("theorem3", samples=1, seed=17)
    assert result.ok
    assert len(result.trials) == 3


def test_theorem1_worst_margin_negative_when_the_oracle_disagrees(monkeypatch):
    # the classifier still meets its threshold on both trials; only the
    # oracle fails them, so the margin comes from the oracle's verdict
    real = suites.cc_commutation_oracle
    monkeypatch.setattr(suites, "cc_commutation_oracle", lambda *args: not real(*args))
    result = run_suite("theorem1", samples=1, seed=11)
    assert result.failures == 2
    assert result.worst_margin == -1.0


@pytest.mark.parametrize("name", SUITE_NAMES)
@pytest.mark.parametrize("kwargs, word", [({"samples": 0}, "samples"), ({"samples": -2}, "samples"),
                                          ({"seed": -1}, "seed"), ({"samples": 2.5}, "samples"),
                                          ({"samples": True}, "samples"), ({"seed": 1.5}, "seed"),
                                          ({"seed": True}, "seed"), ({"seed": "1"}, "seed")])
def test_run_suite_refuses_bad_inputs(name, kwargs, word, monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("trials ran")

    never_runs = dataclasses.replace(suites._SUITES[name], trial=never)
    monkeypatch.setitem(suites._SUITES, name, never_runs)
    with pytest.raises(UsageError, match=word):
        run_suite(name, **kwargs)


@pytest.mark.parametrize("name", ["theorem3", "locc-undo", "chain-monotone"],
                         ids=lambda name: "run_" + name.replace("-", "_"))
@pytest.mark.parametrize("kwargs, word", [({"samples": 0}, "samples"),
                                          ({"samples": 2.5}, "samples"),
                                          ({"seed": 1.5}, "seed"), ({"seed": -1}, "seed")])
def test_runners_refuse_bad_counts(name, kwargs, word, monkeypatch):
    # a bad count given with the other left at the suite's default is refused
    # before any trial runs, and as a usage error rather than an invariant one
    def never(*args, **kwargs):
        raise AssertionError("trials ran")

    monkeypatch.setitem(suites._SUITES, name, dataclasses.replace(suites._SUITES[name], trial=never))
    with pytest.raises(UsageError, match=word) as refused:
        run_suite(name, **kwargs)
    assert refused.type is UsageError


@pytest.mark.parametrize("name", SUITE_NAMES)
def test_trial_alone_and_pickled_matches_its_row(name):
    # each trial is a function of (seed, samples, t) alone, so run apart from
    # the suite, or pickled as a worker process would take it, it gives its row
    suite, samples, seed = suites._SUITES[name], 1, 3
    result = run_suite(name, samples=samples, seed=seed)
    alone = [suite.trial(seed, samples, t) for t in range(len(result.trials))]
    assert [row for row, _ in alone] == result.trials
    assert min(margin for _, margin in alone) == result.worst_margin
    pickled = pickle.loads(pickle.dumps(functools.partial(suite.trial, seed, samples)))
    assert [pickled(t)[0] for t in range(len(result.trials))] == result.trials


def test_theorem2_nan_q_ab_fails_its_row(monkeypatch):
    # a NaN after the first term must not be hidden by the margin's minimum
    real = suites.q_negativity

    def nan_ab(state, measured, cfg):
        return SimpleNamespace(value=np.nan) if measured == ("A", "B") else real(state, measured, cfg)

    monkeypatch.setattr(suites, "q_negativity", nan_ab)
    result = run_suite("theorem2", samples=1, seed=7)
    assert result.failures == 1 and not result.ok
    assert np.isnan(result.worst_margin)


def test_theorem2_nan_after_a_finite_margin_is_the_worst(monkeypatch):
    # the worst margin over trials must not hide a NaN that follows a finite one
    real = suites.q_negativity
    calls = []

    def nan_second_ab(state, measured, cfg):
        if measured == ("A", "B"):
            calls.append(measured)
            if len(calls) == 2:
                return SimpleNamespace(value=np.nan)
        return real(state, measured, cfg)

    monkeypatch.setattr(suites, "q_negativity", nan_second_ab)
    result = run_suite("theorem2", samples=2, seed=7)
    assert result.failures == 1
    assert np.isnan(result.worst_margin)


HEADERS = {
    "theorem1": ("trial", "expected_cc", "classified_cc", "oracle_cc", "residual", "ok"),
    "theorem2": ("trial", "negativity", "q_a", "q_b", "q_ab",
                 "margin_a", "margin_ab", "margin_order", "ok"),
    "theorem3": ("trial", "case", "expect_gme", "per_step_gme", "ok"),
    "locc-undo": ("kind", "trial", "dim", "a", "b", "c", "ok"),
    "chain-monotone": ("trial", "monotone_margin", "flag_drift", "break_drift", "ok",
                       "e_link1", "e_link2", "e_link3", "e_link4"),
    "pure-saturation": ("trial", "negativity", "q_a", "entropy_ent", "deficit_a",
                        "gap_negativity", "gap_deficit", "ok"),
}


@pytest.mark.parametrize("name", SUITE_NAMES)
def test_suite_csv_header(name):
    result = run_suite(name, samples=1)
    assert tuple(result.trials[0]) == HEADERS[name]
    assert all(tuple(row) == HEADERS[name] for row in result.trials)


def test_run_suite_dispatch():
    for name in SUITE_NAMES:
        assert name in ("theorem1", "theorem2", "theorem3", "locc-undo",
                        "chain-monotone", "pure-saturation")
    result = run_suite("theorem3", samples=1, seed=17)
    assert result.suite == "theorem3"
    with pytest.raises(UsageError):
        run_suite("nope")
