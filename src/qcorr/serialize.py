"""JSON/CSV serialization: states, bases, chain configs, reports.

State matrices are stored row-major as separate real and imaginary parts,
with subsystem 0 the slowest-varying tensor index.  Floats in CSV output
are printed with 17 significant digits so reruns diff cleanly.
"""

import csv
import dataclasses
import json
import math
import os
import time
from contextlib import contextmanager
from functools import lru_cache

import numpy as np

from .chain import FLAG_COPY, OPTIMIZED, ChainConfig, LinkSpec
from .errors import InvariantError, ParseError, UsageError
from .quantumness import OptimizerConfig
from .states import LabeledState, LocalBasis, Register, _integer, _label


@lru_cache(maxsize=None)
def _version():
    """The installed qcorr version, looked up when the first report is written."""
    from importlib import metadata  # ~15 ms of import, paid only by commands that report

    try:
        return metadata.version("qcorr")
    except metadata.PackageNotFoundError:  # running from a source tree
        return "0.0.0+src"


def _object(obj, where, keys=None):
    """``obj`` if it is a dict, with no key outside ``keys`` when they are given."""
    if not isinstance(obj, dict):
        raise ParseError(f"{where}: expected an object, got {type(obj).__name__}")
    unknown = [key for key in obj if keys is not None and key not in keys]
    if unknown:
        raise ParseError(f"{where}: unknown key {unknown[0]!r}; expected one of {', '.join(keys)}")
    return obj


def _require(obj, key, kind, where):
    if key not in _object(obj, where):
        raise ParseError(f"{where}: missing field {key!r}")
    val = obj[key]
    if not isinstance(val, kind):
        raise ParseError(f"{where}: field {key!r} has wrong type {type(val).__name__}")
    return val


def _matrix_from_parts(obj, where):
    re = _require(obj, "re", list, where)
    im = _require(obj, "im", list, where)
    try:
        re_arr = np.asarray(re, dtype=float)
        im_arr = np.asarray(im, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ParseError(f"{where}: non-numeric matrix entries ({exc})") from None
    if re_arr.shape != im_arr.shape or re_arr.ndim != 2:
        raise ParseError(f"{where}: 're' and 'im' must be equal-shape 2-d arrays")
    if not (np.isfinite(re_arr).all() and np.isfinite(im_arr).all()):
        raise ParseError(f"{where}: non-finite matrix entry")
    return re_arr + 1j * im_arr


def _matrix_to_parts(m):
    m = np.asarray(m)
    return {"re": np.real(m).tolist(), "im": np.imag(m).tolist()}


def state_to_json(state):
    payload = {"labels": list(state.register.labels), "dims": list(state.register.dims)}
    payload.update(_matrix_to_parts(state.rho))
    return payload


def _labels(obj, key, where):
    labels = _require(obj, key, list, where)
    for lab in labels:
        if not isinstance(lab, str):
            raise ParseError(f"{where}: {key!r} entry {lab!r} is not a string")
        try:
            _label(lab, f"{where}: {key!r} entry")
        except InvariantError as exc:
            raise ParseError(str(exc)) from None
    return tuple(labels)


def state_from_json(obj, where="state"):
    labels = _labels(obj, "labels", where)
    dims = [_number(d, f"{where}: dims", int) for d in _require(obj, "dims", list, where)]
    rho = _matrix_from_parts(obj, where)
    total = math.prod(dims)
    if rho.shape != (total, total):
        raise ParseError(
            f"{where}: matrix shape {rho.shape} does not match dims {dims} "
            f"(expected {total}x{total})"
        )
    try:
        reg = Register(labels, tuple(dims))
        return LabeledState(reg, rho)
    except InvariantError:
        raise
    except (TypeError, ValueError) as exc:
        raise ParseError(f"{where}: {exc}") from None


def basis_to_json(basis):
    payload = {"subsystem": basis.subsystem}
    payload.update(_matrix_to_parts(basis.vectors))
    return payload


def basis_from_json(obj, where="basis"):
    subsystem = _require(obj, "subsystem", str, where)
    vectors = _matrix_from_parts(obj, where)
    return LocalBasis(subsystem, vectors)


def _number(val, what, kind=float):
    """The JSON number ``val`` as ``kind``; strings and bools are refused, and 2.0 is int 2."""
    if kind is int:
        integral = isinstance(val, float) and val.is_integer()
        return _integer(int(val) if integral else val, what, ParseError)
    if isinstance(val, bool) or not isinstance(val, (int, float)):
        raise ParseError(f"{what} must be a number, got {val!r}")
    try:
        return float(val)
    except OverflowError as exc:
        raise ParseError(f"{what}: not a number ({exc})") from None


def optimizer_from_json(obj, seed_default=0):
    """An ``OptimizerConfig`` from its JSON block: a key per field, a number of the field's type."""
    fields = dataclasses.fields(OptimizerConfig)
    obj = _object({} if obj is None else obj, "optimizer", tuple(f.name for f in fields))
    defaults = {f.name: f.default for f in fields} | {"seed": seed_default}
    return OptimizerConfig(**{
        f.name: _number(obj.get(f.name, defaults[f.name]), f"optimizer: {f.name!r}", f.type)
        for f in fields
    })


def chain_config_from_json(obj, where="chain config", seed=0):
    if "state" in _object(obj, where, ("state", "state_file", "links", "track", "optimizer")):
        state = state_from_json(obj["state"], f"{where}.state")
    elif "state_file" in obj:
        state = load_state(_require(obj, "state_file", str, where))
    else:
        raise ParseError(f"{where}: needs 'state' or 'state_file'")
    links_raw = _require(obj, "links", list, where)
    links = []
    for i, link in enumerate(links_raw):
        _object(link, f"{where}.links[{i}]", ("target", "basis"))
        target = _require(link, "target", str, f"{where}.links[{i}]")
        basis = link.get("basis", FLAG_COPY)
        if isinstance(basis, dict):
            basis = basis_from_json(basis, f"{where}.links[{i}].basis")
        elif basis not in (FLAG_COPY, OPTIMIZED):
            raise ParseError(
                f"{where}.links[{i}]: basis must be {FLAG_COPY!r}, {OPTIMIZED!r}, "
                f"or an explicit basis object"
            )
        links.append(LinkSpec(target, basis))
    # "negativity" is accepted and changes nothing: every row carries the link entanglement
    track = obj.get("track", [])
    if not isinstance(track, list) or any(t not in ("negativity", "quantumness") for t in track):
        raise ParseError(
            f"{where}: 'track' must be a list of 'negativity' and 'quantumness', got {track!r}"
        )
    q_cfg = optimizer_from_json(obj.get("optimizer"), seed_default=seed)
    return ChainConfig(state, tuple(links), "quantumness" in track, q_cfg)


def load_json(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise ParseError(f"{path}: cannot read file ({exc})") from None
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}") from None


def load_state(path):
    return state_from_json(load_json(path), where=str(path))


def report(payload, command, config, seed, started):
    """A copy of ``payload`` holding its run manifest, timed from ``started``.

    ``started`` is a ``time.monotonic()`` reading; the wall time is the only
    field that differs between identical runs.
    """
    manifest = {
        "command": command,
        "config": config,
        "seed": seed,
        "version": _version(),
        "wall_time_s": time.monotonic() - started,
    }
    return {**payload, "manifest": manifest}


def json_text(obj):
    """The one JSON output format: indent 2, sorted keys, trailing newline."""
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def check_outputs(*paths):
    """Refuse, before any work, a path that is a directory or lies in a missing one."""
    for path in filter(None, paths):  # None is stdout
        if os.path.isdir(path) or not os.path.isdir(os.path.dirname(path) or "."):
            raise UsageError(f"cannot write {path}: not a file in an existing directory")


@contextmanager
def _output(path, **open_kwargs):
    """``path`` opened for writing; an OS failure is a usage error naming it."""
    try:
        with open(path, "w", **open_kwargs) as fh:
            yield fh
    except OSError as exc:
        raise UsageError(f"cannot write {path}: {exc.strerror or exc}") from None


def write_json(path, obj):
    with _output(path) as fh:
        fh.write(json_text(obj))


def fmt_float(x):
    if x is None:
        return ""
    if isinstance(x, bool):
        return str(x).lower()
    if isinstance(x, float):
        return f"{x:.17g}"
    return str(x)


def write_csv(path, rows):
    """Dict rows under their first row's keys, in key order; floats at 17 significant digits."""
    with _output(path, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(rows[0])
        for row in rows:
            writer.writerow([fmt_float(v) for v in row.values()])
