import json

import numpy as np
import pytest

from qcorr import serialize
from qcorr.chain import FLAG_COPY, OPTIMIZED
from qcorr.errors import ParseError
from qcorr.premeasure import MeasurementPlan
from qcorr.states import (
    LocalBasis,
    Register,
    bell_state,
    default_register,
    ghz_state,
    make_rng,
    random_basis,
    random_mixed,
)


class TestStateRoundtrip:
    def test_bell(self):
        obj = serialize.state_to_json(bell_state())
        back = serialize.state_from_json(obj)
        assert back.register.labels == ("A", "B")
        assert np.max(np.abs(back.rho - bell_state().rho)) <= 1e-15

    def test_complex_entries_survive(self):
        state = random_mixed(Register(("A", "B"), (2, 3)), rank=2, seed=0)
        back = serialize.state_from_json(serialize.state_to_json(state))
        assert np.max(np.abs(back.rho - state.rho)) == 0.0
        assert back.register.dims == (2, 3)

    def test_apparatus_kind_inferred_from_label(self):
        from qcorr.premeasure import premeasure

        pm = premeasure(bell_state(), MeasurementPlan(("B",), (LocalBasis("B", np.eye(2)),)))
        back = serialize.state_from_json(serialize.state_to_json(pm))
        assert back.register.kinds == ("system", "system", "apparatus")

    def test_missing_field(self):
        with pytest.raises(ParseError, match="missing field"):
            serialize.state_from_json({"labels": ["A"], "dims": [2]})

    def test_non_numeric_entries(self):
        obj = {"labels": ["A"], "dims": [2], "re": [["x", 0], [0, 0]], "im": [[0, 0], [0, 0]]}
        with pytest.raises(ParseError):
            serialize.state_from_json(obj)

    @pytest.mark.parametrize("labels", [[1, [2]], ["A", None], ["A", {"B": 1}]])
    def test_non_string_labels(self, labels):
        obj = serialize.state_to_json(bell_state())
        obj["labels"] = labels
        with pytest.raises(ParseError, match="'labels' entry .* is not a string"):
            serialize.state_from_json(obj)

    def test_shape_mismatch(self):
        obj = {"labels": ["A"], "dims": [2], "re": [[1.0, 0.0]], "im": [[0.0, 0.0]]}
        with pytest.raises(ParseError):
            serialize.state_from_json(obj)


class TestBasisAndPlan:
    def test_basis_roundtrip(self):
        basis = random_basis("B", 3, make_rng(1))
        back = serialize.basis_from_json(serialize.basis_to_json(basis))
        assert back.subsystem == "B"
        assert np.max(np.abs(back.vectors - basis.vectors)) == 0.0


class TestChainConfig:
    def test_inline_state(self):
        obj = {
            "state": serialize.state_to_json(bell_state()),
            "links": [{"target": "B", "basis": "optimized"}, {"target": "M:B"}],
            "track": ["negativity"],
            "optimizer": {"restarts": 4},
        }
        cfg = serialize.chain_config_from_json(obj)
        assert len(cfg.links) == 2
        assert cfg.links[0].basis == OPTIMIZED
        assert cfg.links[1].basis == FLAG_COPY
        assert cfg.q_cfg.restarts == 4

    def test_state_file(self, tmp_path):
        path = tmp_path / "s.json"
        path.write_text(json.dumps(serialize.state_to_json(ghz_state(3))))
        cfg = serialize.chain_config_from_json(
            {"state_file": str(path), "links": [{"target": "C"}]}
        )
        assert cfg.initial.register.labels == ("A", "B", "C")

    def test_explicit_basis_link(self):
        h = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
        obj = {
            "state": serialize.state_to_json(bell_state()),
            "links": [{"target": "B", "basis": serialize.basis_to_json(LocalBasis("B", h))}],
        }
        cfg = serialize.chain_config_from_json(obj)
        assert isinstance(cfg.links[0].basis, LocalBasis)

    def test_bad_policy(self):
        obj = {
            "state": serialize.state_to_json(bell_state()),
            "links": [{"target": "B", "basis": "nope"}],
        }
        with pytest.raises(ParseError):
            serialize.chain_config_from_json(obj)

    def test_missing_state(self):
        with pytest.raises(ParseError):
            serialize.chain_config_from_json({"links": []})

    @pytest.mark.parametrize(
        "optimizer",
        [
            {"restarts": "many"},
            {"max_iter": "many"},
            {"tol": "many"},
            {"seed": "many"},
            [4],
            {"tol": 10**400},  # float() overflows
        ],
    )
    def test_malformed_optimizer_block(self, optimizer):
        obj = {
            "state": serialize.state_to_json(bell_state()),
            "links": [{"target": "B"}],
            "optimizer": optimizer,
        }
        with pytest.raises(ParseError):
            serialize.chain_config_from_json(obj)

    @pytest.mark.parametrize("track", ["negativity", ["negativty"], ["negativity", 1], {}])
    def test_malformed_track(self, track):
        obj = {
            "state": serialize.state_to_json(bell_state()),
            "links": [{"target": "B"}],
            "track": track,
        }
        with pytest.raises(ParseError, match="track"):
            serialize.chain_config_from_json(obj)

    @pytest.mark.parametrize("tol", [True, False])
    def test_bool_tol_refused(self, tol):
        with pytest.raises(ParseError, match="'tol' must be a number"):
            serialize.optimizer_from_json({"tol": tol})

    def test_integral_float_counts_accepted(self):
        cfg = serialize.optimizer_from_json({"restarts": 4.0, "max_iter": 50, "seed": 2.0})
        assert (cfg.restarts, cfg.max_iter, cfg.seed) == (4, 50, 2)


class TestFiles:
    def test_load_json_reports_location(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ParseError, match="line"):
            serialize.load_json(path)

    def test_load_json_missing_file(self, tmp_path):
        with pytest.raises(ParseError):
            serialize.load_json(tmp_path / "absent.json")

    def test_write_report_fills_wall_time(self, tmp_path):
        import time

        path = tmp_path / "r.json"
        manifest = serialize.make_manifest("measure", {"x": 1}, seed=5)
        serialize.write_report(path, {"value": 1.0}, manifest, time.monotonic())
        obj = json.loads(path.read_text())
        assert obj["value"] == 1.0
        assert obj["manifest"]["seed"] == 5
        assert obj["manifest"]["wall_time_s"] >= 0.0

    def test_write_csv_formats_floats(self, tmp_path):
        path = tmp_path / "t.csv"
        serialize.write_csv(path, ("a", "b", "c"), [(1, 1 / 3, None), (2, 0.5, True)])
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "a,b,c"
        assert lines[1] == f"1,{1/3:.17g},"
        assert lines[2] == "2,0.5,true"

    def test_fmt_float_is_reproducible(self):
        x = 0.1 + 0.2
        assert serialize.fmt_float(x) == f"{x:.17g}"
        assert float(serialize.fmt_float(x)) == x
