"""Counts and tolerances of the wrong type or range, and arrays of the wrong
shape, get a clean refusal.

Every library entry point refuses with ``InvariantError`` (a JSON reader with
``ParseError``), and a JSON input file makes the CLI exit 2 with no traceback.
JSON strings are refused for numeric fields even when they would parse as
numbers.
"""

import json
import re

import numpy as np
import pytest

from qcorr import linalg, serialize
from qcorr.cli import EXIT_PARSE, main
from qcorr.entanglement import BipartitionCut, all_cuts, negativity
from qcorr.errors import InvariantError, ParseError
from qcorr.locc import correction_unitary, fourier_unitary
from qcorr.premeasure import MeasurementPlan
from qcorr.quantumness import OptimizerConfig, apparatus_negativity, classify_cc
from qcorr.states import (
    LocalBasis,
    Register,
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

LIBRARY_CASES = {
    "tol-string": (lambda: OptimizerConfig(tol="1e-8"), "tol must be positive and finite"),
    "threshold-string": (
        lambda: classify_cc(bell_state(), ("A",), threshold="1e-7"),
        "threshold must be positive and finite",
    ),
    "ghz-float": (lambda: ghz_state(2.5), "ghz_state n must be an integer"),
    "w-float": (lambda: w_state(3.0), "w_state n must be an integer"),
    "register-float": (lambda: default_register(2.0), "default_register n must be an integer"),
    "rank-float": (lambda: random_mixed(default_register(2), 2.5, 1), "rank must be an integer"),
    "seed-float": (lambda: random_pure(default_register(2), 1.5), "seed must be an integer"),
    "seed-negative": (lambda: random_pure(default_register(2), -1), "seed must be at least 0"),
    "fourier-float": (lambda: fourier_unitary(2.5), "fourier_unitary d must be an integer"),
    "correction-float": (lambda: correction_unitary(1.5, 3), "correction index must be an integer"),
    "basis-dim-float": (lambda: computational_basis("A", 2.5), "dimension must be an integer"),
    "basis-dim-one": (lambda: computational_basis("A", 1), "dimension must be at least 2"),
    "basis-dim-zero": (lambda: computational_basis("A", 0), "dimension must be at least 2"),
    "basis-dim-negative": (lambda: computational_basis("A", -1), "dimension must be at least 2"),
    "random-basis-dim-float": (lambda: random_basis("A", 2.5, make_rng(0)),
                               "dimension must be an integer"),
    "unitary-dim-zero": (lambda: random_unitary(0, make_rng(0)), "dimension must be at least 2"),
    "correction-dim-float": (lambda: correction_unitary(0, 2.5), "dimension must be an integer"),
    "correction-dim-inf": (lambda: correction_unitary(1, float("inf")),
                           "dimension must be an integer"),
    "werner-string": (lambda: werner_state("0.5"), "werner parameter must be a real number"),
    "werner-bool": (lambda: werner_state(True), "werner parameter must be a real number"),
    "make-rng-seed-negative": (lambda: make_rng(-1, 0), "seed must be at least 0"),
    # a key that is not a non-negative integer would be truncated, or reach
    # numpy's SeedSequence, which raises a bare ValueError
    "make-rng-key-negative": (lambda: make_rng(0, -1), "seed key must be at least 0"),
    "make-rng-key-float": (lambda: make_rng(0, 2.9), "seed key must be an integer"),
    "make-rng-key-bool": (lambda: make_rng(0, True), "seed key must be an integer"),
    "derive-seed-negative": (lambda: derive_seed(-1, 0), "seed must be at least 0"),
    "derive-seed-key-negative": (lambda: derive_seed(0, -1), "seed key must be at least 0"),
    "derive-seed-key-float": (lambda: derive_seed(0, 1.5), "seed key must be an integer"),
    "derive-seed-key-bool": (lambda: derive_seed(0, True), "seed key must be an integer"),
    "plan-empty": (
        lambda s=bell_state(): apparatus_negativity(s.register, s.rho, MeasurementPlan((), ())),
        "measured subset must be nonempty",
    ),
    "plan-basis-none": (lambda: MeasurementPlan(("A",), (None,)), "must be a LocalBasis"),
    "cut-index-float": (lambda: negativity(bell_state(), BipartitionCut((0,), (1.0,))),
                        "cut index must be an integer"),
    "cut-index-bool": (lambda: negativity(bell_state(), BipartitionCut((0,), (True,))),
                       "cut index must be an integer"),
    "cut-index-string": (lambda: BipartitionCut((0, "1"), (2,)), "cut index must be an integer"),
    "all-cuts-float": (lambda: all_cuts(2.5), "cut enumeration n must be an integer"),
    "all-cuts-float-after-int": (lambda: (all_cuts(2), all_cuts(2.0)),
                                 "cut enumeration n must be an integer"),
    "permuted-repeated": (lambda: bell_state().permuted([0, 0]), "not a permutation of range"),
    "permuted-short": (lambda: bell_state().permuted([0]), "not a permutation of range"),
    "select-out-of-range": (lambda: Register(("A", "B"), (2, 2)).select([0, 3]),
                            "register index must be below 2"),
    "select-negative": (lambda: Register(("A", "B"), (2, 2)).select([-1]),
                        "register index must be at least 0"),
    # huge finite entries whose arithmetic overflows: refused with no RuntimeWarning
    "trace-distance-deviation-overflow": (
        lambda: linalg.trace_distance(np.array([[0, 1e308], [-1e308, 0]]), np.zeros((2, 2))),
        "matrix is not Hermitian",
    ),
    "trace-distance-norm-overflow": (
        lambda: linalg.trace_distance(np.diag([1.7e308, 1.7e308]), np.zeros((2, 2))),
        "trace norm of the difference overflows",
    ),
    "trace-distance-infinite": (
        lambda: linalg.trace_distance(np.diag([np.inf, 0.0]), np.diag([np.inf, 0.0])),
        "matrix is not Hermitian",
    ),
}


@pytest.mark.parametrize("case", LIBRARY_CASES)
def test_library_refusal(case):
    call, message = LIBRARY_CASES[case]
    with pytest.raises(InvariantError, match=message):
        call()


def _cq(probs, conditionals):
    return lambda: classical_quantum_state(probs, computational_basis("A", 2), conditionals)


SHAPE_CASES = {
    "register-lengths": (lambda: Register(("A",), (2, 2)), InvariantError,
                         "register labels/dims length mismatch"),
    "basis-not-square": (lambda: LocalBasis("A", np.ones((2, 3))), InvariantError,
                         "basis vectors must form a square matrix of columns"),
    "amplitudes-length": (lambda: pure_state(np.ones(3), default_register(2)), InvariantError,
                          "amplitude vector length 3 != register dimension 4"),
    "amplitudes-zero": (lambda: pure_state(np.zeros(4), default_register(2)), InvariantError,
                        "zero amplitude vector"),
    "cq-negative-probability": (_cq([1.5, -0.5], [np.eye(2) / 2] * 2), InvariantError,
                                "probabilities must be nonnegative"),
    "cq-conditional-dims": (_cq([0.5, 0.5], [np.eye(2) / 2, np.eye(3) / 3]), InvariantError,
                            "conditionals have inconsistent dimensions"),
    "json-re-im-shapes": (
        lambda: serialize.state_from_json({"labels": ["A"], "dims": [2],
                                           "re": np.eye(2).tolist(), "im": np.zeros((2, 3)).tolist()}),
        ParseError,
        "state: 're' and 'im' must be equal-shape 2-d arrays",
    ),
}


@pytest.mark.parametrize("case", SHAPE_CASES)
def test_shape_refusal(case):
    call, error, message = SHAPE_CASES[case]
    with pytest.raises(error, match=re.escape(message)):
        call()


EMPTY_CASES = {
    "register": (lambda: Register((), ()), "a register needs at least one subsystem"),
    "pure-state": (lambda: pure_state([1.0], Register((), ())),
                   "a register needs at least one subsystem"),
    "basis": (lambda: LocalBasis("A", np.zeros((0, 0))), "basis for 'A' has no vectors"),
    "density": (lambda: linalg.check_density(np.zeros((0, 0))), "density operator is empty"),
}


@pytest.mark.parametrize("case", EMPTY_CASES)
def test_empty_input_refusal(case):
    # an input with no subsystem or no entry is refused, not read as a
    # one-dimensional state or passed to numpy's reductions
    call, message = EMPTY_CASES[case]
    with pytest.raises(InvariantError, match=re.escape(message)):
        call()


def _state_file(tmp_path):
    obj = serialize.state_to_json(bell_state())
    obj["dims"] = ["2", "2"]
    path = tmp_path / "state.json"
    path.write_text(json.dumps(obj))
    return ("measure", "--state", str(path), "--measure", "negativity", "--cut", "A:B")


def _chain_config(optimizer):
    def argv(tmp_path):
        path = tmp_path / "chain.json"
        path.write_text(json.dumps({
            "state": serialize.state_to_json(bell_state()),
            "links": [{"target": "B"}],
            "optimizer": optimizer,
        }))
        return ("chain", "--config", str(path), "--out-prefix", str(tmp_path / "chain"))
    return argv


JSON_CASES = {
    "dims-strings": (_state_file, "dims must be an integer, got '2'"),
    "restarts-string": (_chain_config({"restarts": "3"}), "'restarts' must be an integer"),
    "tol-string": (_chain_config({"tol": "1e-8"}), "'tol' must be a number"),
}


@pytest.mark.parametrize("case", JSON_CASES)
def test_json_refusal(capsys, tmp_path, case):
    argv, message = JSON_CASES[case]
    code = main(list(argv(tmp_path)))
    err = capsys.readouterr().err
    assert code == EXIT_PARSE
    assert message in err
    assert "Traceback" not in err
    assert not (tmp_path / "chain.csv").exists()
