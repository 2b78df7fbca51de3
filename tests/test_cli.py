import copy
import csv
import json
import os
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from qcorr import cli, serialize
from qcorr.chain import ChainReport, ChainRow
from qcorr.cli import EXIT_INVARIANT, EXIT_OK, EXIT_PARSE, EXIT_USAGE, main
from qcorr.errors import InvariantError, ParseError, UsageError
from qcorr.premeasure import MeasurementPlan, premeasure
from qcorr.quantumness import OptimizerConfig
from qcorr.states import bell_state, computational_basis, werner_state
from qcorr.suites import SUITE_NAMES, SuiteResult
from test_suites import HEADERS


@pytest.fixture
def bell_file(tmp_path):
    path = tmp_path / "bell.json"
    path.write_text(json.dumps(serialize.state_to_json(bell_state())))
    return str(path)


@pytest.fixture
def werner_file(tmp_path):
    path = tmp_path / "werner.json"
    path.write_text(json.dumps(serialize.state_to_json(werner_state(0.5))))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def payload_without_wall_time(text_or_path):
    if os.path.exists(text_or_path):
        with open(text_or_path) as fh:
            obj = json.load(fh)
    else:
        obj = json.loads(text_or_path)
    obj["manifest"].pop("wall_time_s")
    return obj


class TestExitCodes:
    def test_ok(self, capsys, bell_file):
        code, out, _ = run(
            capsys, "measure", "--state", bell_file, "--measure", "negativity", "--cut", "A:B"
        )
        assert code == EXIT_OK

    def test_parse_error_bad_json(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{oops")
        code, _, err = run(
            capsys, "measure", "--state", str(bad), "--measure", "negativity", "--cut", "A:B"
        )
        assert code == EXIT_PARSE
        assert "parse error" in err

    def test_parse_error_missing_file(self, capsys, tmp_path):
        code, _, err = run(
            capsys,
            "measure", "--state", str(tmp_path / "none.json"),
            "--measure", "negativity", "--cut", "A:B",
        )
        assert code == EXIT_PARSE

    def test_invariant_error_non_density(self, capsys, tmp_path):
        obj = {
            "labels": ["A"],
            "dims": [2],
            "re": [[0.7, 0.3], [0.3, 0.7]],
            "im": [[0.0, 0.5], [0.5, 0.0]],  # not Hermitian
        }
        path = tmp_path / "bad-state.json"
        path.write_text(json.dumps(obj))
        code, _, err = run(
            capsys, "measure", "--state", str(path), "--measure", "negativity", "--cut", "A:B"
        )
        assert code == EXIT_INVARIANT
        assert "invariant" in err

    @pytest.mark.parametrize("labels, bad", [(["A,B", "C"], "A,B"), (["A", " B"], " B"),
                                             (["", "B"], "")])
    def test_parse_error_label_a_cut_cannot_name(self, capsys, tmp_path, labels, bad):
        # a cut or --measured could not name it: both split on ',' and strip
        obj = serialize.state_to_json(bell_state())
        obj["labels"] = labels
        path = tmp_path / "labels.json"
        path.write_text(json.dumps(obj))
        code, out, err = run(
            capsys, "measure", "--state", str(path), "--measure", "negativity", "--cut", "A:B"
        )
        assert code == EXIT_PARSE
        assert f"'labels' entry {bad!r} must be nonempty" in err
        assert "Traceback" not in out + err

    def test_invariant_error_oversize_register(self, capsys, tmp_path):
        obj = {"labels": list("ABCDEFGHI"), "dims": [2] * 9,
               "re": (np.eye(512) / 512).tolist(), "im": np.zeros((512, 512)).tolist()}
        path = tmp_path / "nine-qubits.json"
        path.write_text(json.dumps(obj))
        code, out, err = run(
            capsys, "measure", "--state", str(path), "--measure", "negativity",
            "--cut", "A:B,C,D,E,F,G,H,I",
        )
        assert code == EXIT_INVARIANT
        assert "exceed total dimension 256" in err
        assert "Traceback" not in out + err

    def test_invariant_error_overflowing_state(self, capsys, tmp_path):
        re = (np.eye(4) / 4).tolist()
        re[0][1], re[1][0] = 1e308, -1e308  # finite, but rho - rho^dag overflows
        path = tmp_path / "huge.json"
        path.write_text(json.dumps({"labels": ["A", "B"], "dims": [2, 2], "re": re,
                                    "im": np.zeros((4, 4)).tolist()}))
        code, out, err = run(
            capsys, "measure", "--state", str(path), "--measure", "negativity", "--cut", "A:B"
        )
        assert code == EXIT_INVARIANT
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith("invariant violation:")

    def test_invariant_error_overflowing_chain_basis(self, capsys, tmp_path):
        basis = {"subsystem": "B", "re": [[1e200, 0], [0, 1]], "im": [[0, 0], [0, 0]]}
        config = tmp_path / "chain.json"
        config.write_text(json.dumps({
            "state": serialize.state_to_json(bell_state()),
            "links": [{"target": "B", "basis": basis}],
        }))
        code, out, err = run(
            capsys, "chain", "--config", str(config), "--out-prefix", str(tmp_path / "c")
        )
        assert code == EXIT_INVARIANT
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith("invariant violation:")

    def test_usage_error_unknown_measure(self, capsys, bell_file):
        code, _, err = run(
            capsys, "measure", "--state", bell_file, "--measure", "discord", "--cut", "A:B"
        )
        assert code == EXIT_USAGE
        assert "usage error" in err

    def test_usage_error_missing_required_flag(self, capsys, bell_file):
        code, _, _ = run(capsys, "measure", "--state", bell_file, "--measure", "negativity")
        assert code == EXIT_USAGE  # E measures need --cut

    def test_usage_error_unknown_quantumness_measure(self, capsys, bell_file):
        code, out, err = run(
            capsys, "quantumness", "--state", bell_file, "--measured", "A", "--measure", "bogus"
        )
        assert code == EXIT_USAGE
        assert "unknown quantumness measure 'bogus'" in err
        assert "('q-negativity', 'one-way-deficit', 'two-way-deficit')" in err
        assert out == ""

    def test_usage_error_unknown_flag(self, capsys, bell_file):
        code, _, _ = run(capsys, "measure", "--state", bell_file, "--bogus", "1")
        assert code == EXIT_USAGE

    def test_usage_error_unknown_suite(self, capsys):
        code, _, _ = run(capsys, "verify", "--suite", "nope")
        assert code == EXIT_USAGE

    def test_usage_error_non_integer_env_seed(self, capsys, bell_file, monkeypatch):
        monkeypatch.setenv("QCORR_SEED", "abc")
        code, _, err = run(
            capsys,
            "measure", "--state", bell_file, "--measure", "q-negativity", "--measured", "A",
        )
        assert code == EXIT_USAGE
        assert "QCORR_SEED" in err

    def test_usage_error_negative_seed(self, capsys, bell_file, monkeypatch):
        argv = ("measure", "--state", bell_file, "--measure", "q-negativity", "--measured", "A")
        assert run(capsys, *argv, "--seed", "-1")[0] == EXIT_USAGE
        monkeypatch.setenv("QCORR_SEED", "-1")
        assert run(capsys, *argv)[0] == EXIT_USAGE

    @pytest.mark.parametrize("samples", ["0", "-1"])
    def test_usage_error_non_positive_samples(self, capsys, samples):
        code, _, _ = run(capsys, "verify", "--suite", "theorem2", "--samples", samples)
        assert code == EXIT_USAGE

    @pytest.mark.parametrize("argv", [
        ("measure", "--measure", "q-negativity", "--measured", ""),
        ("measure", "--measure", "q-negativity", "--measured", ","),
        ("quantumness", "--measured", ","),
        ("classify", "--measured", ""),
        ("classify", "--measured", ","),
    ], ids=" ".join)
    def test_usage_error_empty_measured(self, capsys, bell_file, argv):
        code, out, err = run(capsys, argv[0], "--state", bell_file, *argv[1:])
        assert code == EXIT_USAGE
        assert "requires --measured" in err
        assert out == ""

    def test_invariant_error_duplicate_measured(self, capsys, bell_file):
        code, _, err = run(
            capsys,
            "measure", "--state", bell_file, "--measure", "q-negativity", "--measured", "A,A",
        )
        assert code == EXIT_INVARIANT
        assert "duplicate" in err

    def test_invariant_error_zero_max_iter(self, capsys, bell_file):
        code, _, _ = run(
            capsys,
            "measure", "--state", bell_file, "--measure", "q-negativity",
            "--measured", "A", "--max-iter", "0",
        )
        assert code == EXIT_INVARIANT

    @pytest.mark.parametrize("count", [{"restarts": 2.7}, {"max_iter": True}, {"seed": 0.5}])
    def test_parse_error_fractional_chain_optimizer_count(self, capsys, tmp_path, count):
        config = tmp_path / "chain.json"
        config.write_text(json.dumps({
            "state": serialize.state_to_json(bell_state()),
            "links": [{"target": "B"}],
            "optimizer": count,
        }))
        code, _, err = run(capsys, "chain", "--config", str(config))
        assert code == EXIT_PARSE
        assert "must be an integer" in err

    def test_parse_error_unknown_chain_track(self, capsys, tmp_path):
        config = tmp_path / "chain.json"
        config.write_text(json.dumps({
            "state": serialize.state_to_json(bell_state()),
            "links": [{"target": "B"}],
            "track": ["negativty"],
        }))
        code, _, err = run(capsys, "chain", "--config", str(config))
        assert code == EXIT_PARSE
        assert "track" in err

    @pytest.mark.parametrize("extra, key", [
        ({"trak": ["negativity"]}, "trak"),
        ({"links": [{"target": "B", "basiss": "optimized"}]}, "basiss"),
        ({"optimizer": {"restart": 2}}, "restart"),
    ])
    def test_parse_error_unknown_chain_config_key(self, capsys, tmp_path, extra, key):
        config = tmp_path / "chain.json"
        config.write_text(json.dumps({
            "state": serialize.state_to_json(bell_state()),
            "links": [{"target": "B"}],
            **extra,
        }))
        code, _, err = run(capsys, "chain", "--config", str(config),
                           "--out-prefix", str(tmp_path / "chain"))
        assert code == EXIT_PARSE
        assert f"unknown key {key!r}" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("entry", [float("nan"), float("inf"), -float("inf")])
    def test_parse_error_non_finite_matrix_entry(self, capsys, tmp_path, entry):
        obj = serialize.state_to_json(bell_state())
        obj["re"][0][3] = entry
        path = tmp_path / "state.json"
        path.write_text(json.dumps(obj))
        code, _, err = run(
            capsys, "measure", "--state", str(path), "--measure", "negativity", "--cut", "A:B"
        )
        assert code == EXIT_PARSE
        assert "non-finite matrix entry" in err

    def test_parse_error_non_numeric_chain_optimizer(self, capsys, tmp_path):
        config = tmp_path / "chain.json"
        config.write_text(json.dumps({
            "state": serialize.state_to_json(bell_state()),
            "links": [{"target": "B"}],
            "optimizer": {"restarts": "many"},
        }))
        code, _, err = run(capsys, "chain", "--config", str(config))
        assert code == EXIT_PARSE
        assert "parse error" in err

    @pytest.mark.parametrize("tol", ["nan", "inf"])
    def test_invariant_error_non_finite_tol(self, capsys, bell_file, tol):
        code, _, err = run(
            capsys,
            "measure", "--state", bell_file, "--measure", "q-negativity",
            "--measured", "A", "--tol", tol,
        )
        assert code == EXIT_INVARIANT
        assert "positive and finite" in err

    @pytest.mark.parametrize(
        "change",
        [
            {"links": ["target"]},
            {"links": [["target"]]},
            {"state": "labels"},
            {"state_file": 3},
        ],
        ids=["link-string", "link-list", "state-string", "state-file-int"],
    )
    def test_parse_error_non_object_chain_node(self, capsys, tmp_path, change):
        obj = {"state": serialize.state_to_json(bell_state()), "links": [{"target": "B"}]}
        if "state_file" in change:
            del obj["state"]
        obj.update(change)
        config = tmp_path / "chain.json"
        config.write_text(json.dumps(obj))
        code, _, err = run(capsys, "chain", "--config", str(config))
        assert code == EXIT_PARSE
        assert "wrong type" in err or "expected an object" in err

    def test_parse_error_non_object_state_file(self, capsys, tmp_path):
        path = tmp_path / "state.json"
        path.write_text(json.dumps("labels"))
        code, _, err = run(
            capsys, "measure", "--state", str(path), "--measure", "negativity", "--cut", "A:B"
        )
        assert code == EXIT_PARSE
        assert "expected an object" in err

    @pytest.mark.parametrize("dims", [[2.7, 2.2], [2.0, True]])
    def test_parse_error_non_integer_dims(self, capsys, tmp_path, dims):
        obj = serialize.state_to_json(bell_state())
        obj["dims"] = dims
        path = tmp_path / "state.json"
        path.write_text(json.dumps(obj))
        code, _, err = run(
            capsys, "measure", "--state", str(path), "--measure", "negativity", "--cut", "A:B"
        )
        assert code == EXIT_PARSE
        assert "must be an integer" in err

    @pytest.mark.parametrize("tol", [True, False])
    def test_parse_error_bool_chain_tol(self, capsys, tmp_path, tol):
        config = tmp_path / "chain.json"
        config.write_text(json.dumps({
            "state": serialize.state_to_json(bell_state()),
            "links": [{"target": "B"}],
            "optimizer": {"tol": tol},
        }))
        code, _, err = run(
            capsys, "chain", "--config", str(config), "--out-prefix", str(tmp_path / "chain")
        )
        assert code == EXIT_PARSE
        assert "'tol' must be a number" in err

    def test_parse_error_non_string_state_labels(self, capsys, tmp_path):
        obj = serialize.state_to_json(bell_state())
        obj["labels"] = [1, [2]]
        path = tmp_path / "state.json"
        path.write_text(json.dumps(obj))
        code, _, err = run(
            capsys, "measure", "--state", str(path), "--measure", "negativity", "--cut", "1:[2]"
        )
        assert code == EXIT_PARSE
        assert "is not a string" in err

    def test_parse_error_non_string_chain_state_labels(self, capsys, tmp_path):
        # no command reads a plan file; the chain's inline state is the other
        # label list a command line input can carry
        state = serialize.state_to_json(bell_state())
        state["labels"] = ["A", 2]
        config = tmp_path / "chain.json"
        config.write_text(json.dumps({"state": state, "links": [{"target": "A"}]}))
        code, _, err = run(
            capsys, "chain", "--config", str(config), "--out-prefix", str(tmp_path / "chain")
        )
        assert code == EXIT_PARSE
        assert "is not a string" in err


def _demo_chain_config(path):
    path.write_text(json.dumps({
        "state": serialize.state_to_json(bell_state()),
        "links": [{"target": "B", "basis": "optimized"}, {"target": "M:B"}],
        "track": ["negativity", "quantumness"],
        "optimizer": {"restarts": 2, "max_iter": 50},
    }))
    return str(path)


class TestUnwritableOutput:
    """An output path that cannot be written is a usage error naming it."""

    def check(self, capsys, path, *argv):
        code, _, err = run(capsys, *argv)
        assert code == EXIT_USAGE
        assert err.startswith("usage error: ") and str(path) in err
        assert "Traceback" not in err

    def test_measure(self, capsys, bell_file, tmp_path):
        out = tmp_path / "nodir" / "x.json"
        self.check(capsys, out, "measure", "--state", bell_file, "--measure", "negativity",
                   "--cut", "A:B", "--out", str(out))

    def test_verify(self, capsys, tmp_path):
        prefix = tmp_path / "nodir" / "v"
        self.check(capsys, prefix, "verify", "--suite", "theorem3", "--samples", "1",
                   "--out-prefix", str(prefix))

    def test_chain(self, capsys, tmp_path):
        prefix = tmp_path / "nodir" / "c"
        config = _demo_chain_config(tmp_path / "chain.json")
        self.check(capsys, prefix, "chain", "--config", config, "--out-prefix", str(prefix))

    # (argv, the command's worker): the worker may not run before the output
    # path is refused
    BEFORE_WORK = {
        "measure": (["measure", "--state", "{bell}", "--measure", "q-negativity",
                     "--measured", "A", "--out", "{out}.json"], "q_negativity"),
        "classify": (["classify", "--state", "{bell}", "--measured", "A",
                      "--out", "{out}.json"], "classify_cc"),
        "chain": (["chain", "--config", "{chain}", "--out-prefix", "{out}"], "run_chain"),
        "verify": (["verify", "--suite", "theorem2", "--out-prefix", "{out}"], "run_suite"),
    }

    def refuse(self, monkeypatch, worker):
        def refuse(*args, **kwargs):
            raise AssertionError(f"{worker} ran before the output path was checked")

        monkeypatch.setattr(cli, worker, refuse)

    @pytest.mark.parametrize("command", list(BEFORE_WORK))
    def test_refused_before_work(self, capsys, bell_file, tmp_path, monkeypatch, command):
        argv, worker = self.BEFORE_WORK[command]
        self.refuse(monkeypatch, worker)
        out = tmp_path / "nodir" / "x"
        chain = _demo_chain_config(tmp_path / "chain.json")
        argv = [a.format(bell=bell_file, chain=chain, out=out) for a in argv]
        self.check(capsys, out, *argv)

    def test_directory_refused_before_work(self, capsys, bell_file, tmp_path, monkeypatch):
        self.refuse(monkeypatch, "q_negativity")
        self.check(capsys, tmp_path, "measure", "--state", bell_file, "--measure",
                   "q-negativity", "--measured", "A", "--out", str(tmp_path))

    def test_gen(self, capsys, tmp_path):
        out_dir = tmp_path / "file"
        out_dir.write_text("")
        self.check(capsys, out_dir, "gen", "--out-dir", str(out_dir))


class TestMeasure:
    def test_bell_negativity(self, capsys, bell_file):
        code, out, _ = run(
            capsys, "measure", "--state", bell_file, "--measure", "negativity", "--cut", "A:B"
        )
        assert code == EXIT_OK
        obj = json.loads(out)
        assert obj["value"] == pytest.approx(0.5, abs=1e-10)
        assert obj["manifest"]["seed"] == 0

    def test_negativity_across_an_apparatus_cut(self, capsys, tmp_path):
        # the cut names the apparatus label M:A, which holds a ':' itself
        pm = premeasure(bell_state(), MeasurementPlan(("A",), (computational_basis("A", 2),)))
        path = tmp_path / "bell-premeasured.json"
        path.write_text(json.dumps(serialize.state_to_json(pm)))
        expected = oracles.q_negativity_at(bell_state().rho, (2, 2), [0], [np.eye(2)])
        code, out, _ = run(
            capsys, "measure", "--state", str(path), "--measure", "negativity", "--cut", "A,B:M:A"
        )
        assert code == EXIT_OK
        assert json.loads(out)["value"] == pytest.approx(expected, abs=1e-10)
        assert expected == pytest.approx(0.5, abs=1e-12)
        code, _, err = run(
            capsys, "measure", "--state", str(path), "--measure", "negativity", "--cut", "A:B:M:A"
        )
        assert code == EXIT_INVARIANT
        assert "exactly two blocks" in err

    def test_werner_log_negativity(self, capsys, werner_file):
        code, out, _ = run(
            capsys,
            "measure", "--state", werner_file, "--measure", "log-negativity", "--cut", "A:B",
        )
        obj = json.loads(out)
        assert obj["value"] == pytest.approx(np.log2(2 * 0.125 + 1), abs=1e-10)

    def test_q_measure_payload(self, capsys, bell_file):
        code, out, _ = run(
            capsys,
            "measure", "--state", bell_file, "--measure", "q-negativity",
            "--measured", "A", "--restarts", "4", "--seed", "3",
        )
        assert code == EXIT_OK
        obj = json.loads(out)
        assert obj["value"] == pytest.approx(0.5, abs=1e-6)
        assert obj["value_is_upper_bound"] is True
        assert len(obj["restart_values"]) == 4
        assert obj["argmin_bases"][0]["subsystem"] == "A"

    def test_q_measure_requires_measured(self, capsys, bell_file):
        code, _, _ = run(capsys, "measure", "--state", bell_file, "--measure", "q-negativity")
        assert code == EXIT_USAGE

    def test_one_way_deficit(self, capsys, bell_file):
        code, out, _ = run(
            capsys,
            "measure", "--state", bell_file, "--measure", "one-way-deficit",
            "--measured", "A", "--restarts", "4",
        )
        obj = json.loads(out)
        assert obj["value"] == pytest.approx(1.0, abs=1e-6)

    def test_quantumness_front_end(self, capsys, bell_file):
        code, out, _ = run(
            capsys,
            "quantumness", "--state", bell_file, "--measured", "A", "--restarts", "4",
        )
        assert code == EXIT_OK
        assert json.loads(out)["measure"] == "q-negativity"


MANIFEST_KEYS = {"command", "config", "seed", "version", "wall_time_s"}

# argv and the files it writes; stdout is compared too, and is the report
# when no file is written
RERUNS = {
    "measure": (["measure", "--state", "{bell}", "--measure", "q-negativity",
                 "--measured", "A", "--restarts", "3", "--seed", "4"], ()),
    "classify": (["classify", "--state", "{bell}", "--measured", "A", "--restarts", "3"], ()),
    "chain": (["chain", "--config", "{chain}", "--out-prefix", "out", "--seed", "2"],
              ("out.json", "out.csv")),
    "verify": (["verify", "--suite", "locc-undo", "--samples", "2", "--out-prefix", "out"],
               ("out.json", "out.csv")),
}


def _without_wall_time(text):
    return "".join(line for line in text.splitlines(True) if '"wall_time_s": ' not in line)


class TestDeterminism:
    @pytest.mark.parametrize("case", list(RERUNS))
    def test_rerun_same_bytes(self, capsys, bell_file, tmp_path, monkeypatch, case):
        argv, files = RERUNS[case]
        chain = _demo_chain_config(tmp_path / "chain.json")
        argv = [a.format(bell=bell_file, chain=chain) for a in argv]
        monkeypatch.chdir(tmp_path)
        runs = []
        for _ in range(2):
            code, out, _ = run(capsys, *argv)
            assert code == EXIT_OK
            outputs = {"stdout": out, **{f: (tmp_path / f).read_text() for f in files}}
            reports = [t for f, t in outputs.items() if f.endswith(".json")] or [out]
            for text in reports:
                assert set(json.loads(text)["manifest"]) == MANIFEST_KEYS
            runs.append({f: _without_wall_time(t) for f, t in outputs.items()})
        assert runs[0] == runs[1]

    def test_same_seed_same_report(self, capsys, bell_file, tmp_path):
        args = [
            "measure", "--state", bell_file, "--measure", "q-negativity",
            "--measured", "A", "--restarts", "4", "--seed", "11",
        ]
        p1, p2 = str(tmp_path / "r1.json"), str(tmp_path / "r2.json")
        assert main(args + ["--out", p1]) == EXIT_OK
        assert main(args + ["--out", p2]) == EXIT_OK
        capsys.readouterr()
        assert payload_without_wall_time(p1) == payload_without_wall_time(p2)

    def test_env_seed_fallback(self, capsys, bell_file, monkeypatch):
        monkeypatch.setenv("QCORR_SEED", "99")
        _, out, _ = run(
            capsys,
            "measure", "--state", bell_file, "--measure", "q-negativity",
            "--measured", "A", "--restarts", "2",
        )
        assert json.loads(out)["manifest"]["seed"] == 99

    def test_explicit_seed_beats_env(self, capsys, bell_file, monkeypatch):
        monkeypatch.setenv("QCORR_SEED", "99")
        _, out, _ = run(
            capsys,
            "measure", "--state", bell_file, "--measure", "q-negativity",
            "--measured", "A", "--restarts", "2", "--seed", "5",
        )
        assert json.loads(out)["manifest"]["seed"] == 5


class TestClassify:
    def test_bell_not_cc(self, capsys, bell_file):
        code, out, _ = run(
            capsys, "classify", "--state", bell_file, "--measured", "A", "--restarts", "4"
        )
        assert code == EXIT_OK
        obj = json.loads(out)
        assert obj["cc"] is False
        assert obj["negativity_residual"] == pytest.approx(0.5, abs=1e-6)

    def test_cc_fixture(self, capsys, tmp_path):
        assert main(["gen", "--out-dir", str(tmp_path)]) == EXIT_OK
        capsys.readouterr()
        code, out, _ = run(
            capsys,
            "classify", "--state", str(tmp_path / "cc.json"),
            "--measured", "A", "--restarts", "4",
        )
        obj = json.loads(out)
        assert obj["cc"] is True
        assert obj["witness_bases"] is not None

    @pytest.mark.parametrize("threshold", ["nan", "inf", "0"])
    def test_threshold_refused(self, capsys, bell_file, threshold):
        code, out, err = run(
            capsys, "classify", "--state", bell_file, "--measured", "A", "--threshold", threshold
        )
        assert code == EXIT_INVARIANT
        assert "threshold must be positive and finite" in err
        assert out == ""


class TestChainCommand:
    def test_demo_chain(self, capsys, tmp_path, monkeypatch):
        assert main(["gen", "--out-dir", str(tmp_path)]) == EXIT_OK
        monkeypatch.chdir(tmp_path)
        code, out, _ = run(
            capsys,
            "chain", "--config", str(tmp_path / "bell-chain.json"),
            "--out-prefix", "demo", "--seed", "1",
        )
        assert code == EXIT_OK
        report = json.loads((tmp_path / "demo.json").read_text())
        assert report["monotone"] is True
        assert len(report["rows"]) == 3
        csv_lines = (tmp_path / "demo.csv").read_text().strip().splitlines()
        assert csv_lines[0] == "link,target,apparatus,entanglement,quantumness,break_negativity"
        assert len(csv_lines) == 4

    def test_json_rows_match_csv_rows(self, capsys, tmp_path, monkeypatch):
        assert main(["gen", "--out-dir", str(tmp_path)]) == EXIT_OK
        monkeypatch.chdir(tmp_path)
        assert main(["chain", "--config", "bell-chain.json", "--out-prefix", "demo"]) == EXIT_OK
        json_rows = json.loads((tmp_path / "demo.json").read_text())["rows"]
        with open(tmp_path / "demo.csv", newline="") as fh:
            csv_rows = list(csv.DictReader(fh))
        assert csv_rows == [{k: serialize.fmt_float(v) for k, v in r.items()} for r in json_rows]

    def test_non_monotone_exits_invariant_after_writing(self, capsys, tmp_path, monkeypatch):
        rows = (ChainRow(1, "B", "M:B", 0.5), ChainRow(2, "M:B", "M:M:B", 0.25))
        monkeypatch.setattr(cli, "run_chain", lambda cfg: ChainReport(rows, {}))
        prefix = tmp_path / "drop"
        code, _, _ = run(
            capsys, "chain", "--config", _demo_chain_config(tmp_path / "c.json"),
            "--out-prefix", str(prefix),
        )
        assert code == EXIT_INVARIANT
        assert json.loads((tmp_path / "drop.json").read_text())["monotone"] is False
        assert len((tmp_path / "drop.csv").read_text().strip().splitlines()) == 3

    def test_empty_links_refused(self, capsys, tmp_path):
        config = tmp_path / "chain.json"
        config.write_text(json.dumps({"state": serialize.state_to_json(bell_state()), "links": []}))
        prefix = tmp_path / "empty"
        code, _, err = run(capsys, "chain", "--config", str(config), "--out-prefix", str(prefix))
        assert code == EXIT_INVARIANT
        assert "at least one link" in err
        assert not (tmp_path / "empty.csv").exists()


class TestGen:
    def test_fixture_files(self, capsys, tmp_path):
        assert main(["gen", "--out-dir", str(tmp_path)]) == EXIT_OK
        capsys.readouterr()
        for name in ("bell.json", "werner-p0.5.json", "ghz3.json", "cc.json", "bell-chain.json"):
            assert (tmp_path / name).exists()
        state = serialize.load_state(tmp_path / "ghz3.json")
        assert state.register.labels == ("A", "B", "C")


class TestVerifyCommand:
    def test_small_locc_suite(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code, out, _ = run(
            capsys,
            "verify", "--suite", "locc-undo", "--samples", "3", "--seed", "1",
            "--out-prefix", "v",
        )
        assert code == EXIT_OK
        report = json.loads((tmp_path / "v.json").read_text())
        assert report["failures"] == 0
        assert (tmp_path / "v.csv").exists()

    @pytest.mark.parametrize("suite", SUITE_NAMES)
    def test_csv_header_and_one_line_per_trial(self, capsys, tmp_path, monkeypatch, suite):
        monkeypatch.chdir(tmp_path)
        assert main(["verify", "--suite", suite, "--samples", "1", "--out-prefix", "v"]) == EXIT_OK
        with open(tmp_path / "v.csv", newline="") as fh:
            header, *lines = csv.reader(fh)
        assert tuple(header) == HEADERS[suite]
        assert len(lines) == json.loads((tmp_path / "v.json").read_text())["trials"]

    def test_suite_failures_exit_invariant(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        failed = SuiteResult("theorem2", trials=[{"trial": 0, "ok": False}], failures=1,
                             worst_margin=-1.0)
        monkeypatch.setattr(cli, "run_suite", lambda *args, **kwargs: failed)
        code, out, _ = run(capsys, "verify", "--suite", "theorem2", "--out-prefix", "v")
        assert code == EXIT_INVARIANT
        assert "FAILED" in out
        assert json.loads((tmp_path / "v.json").read_text())["failures"] == 1
        assert (tmp_path / "v.csv").read_text().splitlines() == ["trial,ok", "0,false"]


class TestContracts:
    """Each CLI contract is read off the one place that states it."""

    @pytest.mark.parametrize("command", ["measure", "classify"])
    def test_help_lists_optimizer_fields(self, capsys, command):
        code, out, _ = run(capsys, command, "--help")
        assert code == EXIT_OK
        params = {p.name: p for p in cli.cli.commands[command].params}
        for field in fields(OptimizerConfig):
            flag = "--" + field.name.replace("_", "-")
            [line] = [line for line in out.splitlines() if line.split()[:1] == [flag]]
            assert params[field.name].default == field.default
            if field.name == "seed":
                assert "env var: QCORR_SEED" in line
            else:
                assert f"default: {field.default}]" in line

    @pytest.mark.parametrize("argv", [
        ["chain", "--config", "{chain}", "--out-prefix", "out"],
        ["verify", "--suite", "locc-undo", "--samples", "1", "--out-prefix", "out"],
    ], ids=["chain", "verify"])
    def test_env_seed_seeds_chain_and_verify(self, capsys, tmp_path, monkeypatch, argv):
        argv = [a.format(chain=_demo_chain_config(tmp_path / "chain.json")) for a in argv]
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv("QCORR_SEED", "5")
        assert run(capsys, *argv)[0] == EXIT_OK
        from_env = payload_without_wall_time(str(tmp_path / "out.json"))
        monkeypatch.delenv("QCORR_SEED")
        assert run(capsys, *argv, "--seed", "5")[0] == EXIT_OK
        assert from_env["manifest"]["seed"] == 5
        assert payload_without_wall_time(str(tmp_path / "out.json")) == from_env

    @pytest.mark.parametrize("case", ["measure", "quantumness", "classify", "chain", "verify"])
    def test_manifest_config_is_the_options(self, capsys, bell_file, tmp_path, monkeypatch,
                                            case):
        chain = _demo_chain_config(tmp_path / "chain.json")
        optimizer = {"restarts": 2, "max_iter": 300, "tol": 1e-8}
        argv, config = {
            "measure": (["measure", "--state", bell_file, "--measure", "q-negativity",
                         "--measured", "A", "--restarts", "2", "--seed", "3"],
                        {"state": bell_file, "measure": "q-negativity", "cut": None,
                         "measured": "A", **optimizer}),
            "quantumness": (["quantumness", "--state", bell_file, "--measured", "A",
                             "--restarts", "2", "--out", "out.json"],
                            {"state": bell_file, "measure": "q-negativity", "cut": None,
                             "measured": "A", **optimizer}),
            "classify": (["classify", "--state", bell_file, "--measured", "A",
                          "--restarts", "2", "--threshold", "1e-6"],
                         {"state": bell_file, "measured": "A", "threshold": 1e-6, **optimizer}),
            "chain": (["chain", "--config", chain, "--out-prefix", "out", "--seed", "1"],
                      {"config": chain}),
            "verify": (["verify", "--suite", "locc-undo", "--samples", "1",
                        "--out-prefix", "out"],
                       {"suite": "locc-undo", "samples": 1}),
        }[case]
        monkeypatch.chdir(tmp_path)
        code, out, _ = run(capsys, *argv)
        assert code == EXIT_OK
        manifest = json.loads(out if argv[0] in ("measure", "classify") else
                              (tmp_path / "out.json").read_text())["manifest"]
        assert manifest["config"] == config
        command = "measure" if case == "quantumness" else case
        assert manifest["command"] == command
        options = {p.name for p in cli.cli.commands[command].params}
        assert set(config) == options - {"seed", "out", "out_prefix"}

    @pytest.mark.parametrize("error, code, prefix", [
        (ParseError, 2, "parse error"),
        (InvariantError, 3, "invariant violation"),
        (UsageError, 64, "usage error"),
    ])
    def test_main_reports_each_error_class(self, capsys, tmp_path, monkeypatch, error, code,
                                           prefix):
        def fail(*args, **kwargs):
            raise error("boom")

        monkeypatch.setattr(cli, "run_suite", fail)
        monkeypatch.chdir(tmp_path)
        assert run(capsys, "verify", "--suite", "theorem2") == (code, "", f"{prefix}: boom\n")
        assert error.exit_code == code

    def test_exit_code_constants(self):
        assert (EXIT_OK, EXIT_PARSE, EXIT_INVARIANT, EXIT_USAGE) == (0, 2, 3, 64)


# -- fuzzing the exit-code contract -------------------------------------------

_DELETE = object()

# Replacements for one JSON node: non-object nodes, bools, fractional, string
# and non-finite numbers, and deletion.  Numbers stay small, so that a
# mutated optimizer count cannot make a run long.
BAD_VALUES = st.one_of(
    st.sampled_from([
        _DELETE, None, True, False, 2.5, 2.0, "2", "nan", "labels", "target",
        float("nan"), float("inf"), -float("inf"), [], ["target"], [["target"]],
        {}, {"re": None},
    ]),
    st.integers(-3, 3),
    st.floats(-10, 10),
    st.text(max_size=3),
)

FUZZ = settings(max_examples=120, derandomize=True, deadline=None, database=None)


def _paths(node, path=()):
    """Every node of a JSON document, as the key path from the root."""
    yield path
    if isinstance(node, dict):
        for key, val in node.items():
            yield from _paths(val, path + (key,))
    elif isinstance(node, list):
        for i, val in enumerate(node):
            yield from _paths(val, path + (i,))


def _mutated(data, doc):
    """``doc`` with one or two nodes replaced by a bad value or deleted."""
    for _ in range(data.draw(st.integers(1, 2))):
        path = data.draw(st.sampled_from(list(_paths(doc))))
        value = data.draw(BAD_VALUES)
        if not path:
            return None if value is _DELETE else value
        doc = copy.deepcopy(doc)
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        if value is _DELETE:
            del parent[path[-1]]
        else:
            parent[path[-1]] = value
    return doc


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


class TestExitCodeFuzz:
    """Malformed state and chain JSON exits 0, 2, 3 or 64; main never raises."""

    @FUZZ
    @given(data=st.data())
    def test_mutated_state(self, fuzz_dir, data):
        path = fuzz_dir / "state.json"
        path.write_text(json.dumps(_mutated(data, serialize.state_to_json(bell_state()))))
        code = main(["measure", "--state", str(path), "--measure", "negativity", "--cut", "A:B"])
        assert code in (EXIT_OK, EXIT_PARSE, EXIT_INVARIANT, EXIT_USAGE)

    @FUZZ
    @given(data=st.data())
    def test_mutated_chain(self, fuzz_dir, data):
        config = {
            "state": serialize.state_to_json(bell_state()),
            "links": [{"target": "B", "basis": "optimized"}, {"target": "M:B"}],
            "track": ["negativity"],
            "optimizer": {"restarts": 2, "max_iter": 20, "tol": 1e-6, "seed": 1},
        }
        path = fuzz_dir / "chain.json"
        path.write_text(json.dumps(_mutated(data, config)))
        code = main(["chain", "--config", str(path), "--out-prefix", str(fuzz_dir / "chain")])
        assert code in (EXIT_OK, EXIT_PARSE, EXIT_INVARIANT, EXIT_USAGE)
