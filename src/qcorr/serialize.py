"""JSON/CSV serialization: states, bases, chain configs, manifests.

State matrices are stored row-major as separate real and imaginary parts,
with subsystem 0 the slowest-varying tensor index.  Floats in CSV output
are printed with 17 significant digits so reruns diff cleanly.
"""

import csv
import json
import math
import time
from importlib import metadata

import numpy as np

from .chain import (
    FLAG_COPY,
    OPTIMIZED,
    TRACK_NEGATIVITY,
    TRACK_QUANTUMNESS,
    ChainConfig,
    LinkSpec,
)
from .errors import InvariantError, ParseError
from .quantumness import OptimizerConfig
from .states import APPARATUS, APPARATUS_PREFIX, LabeledState, LocalBasis, Register

try:
    VERSION = metadata.version("qcorr")
except metadata.PackageNotFoundError:  # running from a source tree
    VERSION = "0.0.0+src"


def _object(obj, where):
    if not isinstance(obj, dict):
        raise ParseError(f"{where}: expected an object, got {type(obj).__name__}")
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
    kinds = tuple(APPARATUS if lab.startswith(APPARATUS_PREFIX) else "system" for lab in labels)
    try:
        reg = Register(labels, tuple(dims), kinds)
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
    """``kind(val)``; a bool is refused, and for int a fractional float too."""
    fractional = kind is int and isinstance(val, float) and not val.is_integer()
    if isinstance(val, bool) or fractional:
        noun = "an integer" if kind is int else "a number"
        raise ParseError(f"{what} must be {noun}, got {val!r}")
    try:
        return kind(val)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ParseError(f"{what}: not a number ({exc})") from None


def optimizer_from_json(obj, seed_default=0):
    obj = _object({} if obj is None else obj, "optimizer")
    restarts = _number(obj.get("restarts", OptimizerConfig.restarts), "optimizer: 'restarts'", int)
    max_iter = _number(obj.get("max_iter", OptimizerConfig.max_iter), "optimizer: 'max_iter'", int)
    seed = _number(obj.get("seed", seed_default), "optimizer: 'seed'", int)
    tol = _number(obj.get("tol", OptimizerConfig.tol), "optimizer: 'tol'")
    return OptimizerConfig(restarts=restarts, max_iter=max_iter, tol=tol, seed=seed)


def chain_config_from_json(obj, where="chain config", seed=0):
    if "state" in _object(obj, where):
        state = state_from_json(obj["state"], f"{where}.state")
    elif "state_file" in obj:
        state = load_state(_require(obj, "state_file", str, where))
    else:
        raise ParseError(f"{where}: needs 'state' or 'state_file'")
    links_raw = _require(obj, "links", list, where)
    links = []
    for i, link in enumerate(links_raw):
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
    track = obj.get("track", [TRACK_NEGATIVITY])
    if not isinstance(track, list) or any(
        t not in (TRACK_NEGATIVITY, TRACK_QUANTUMNESS) for t in track
    ):
        raise ParseError(
            f"{where}: 'track' must be a list of {TRACK_NEGATIVITY!r} and "
            f"{TRACK_QUANTUMNESS!r}, got {track!r}"
        )
    track = frozenset(track)
    q_cfg = optimizer_from_json(obj.get("optimizer"), seed_default=seed)
    return ChainConfig(state, tuple(links), track, q_cfg)


def load_json(path, where=None):
    where = where or str(path)
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise ParseError(f"{where}: cannot read file ({exc})") from None
    except json.JSONDecodeError as exc:
        raise ParseError(f"{where}: invalid JSON at line {exc.lineno}: {exc.msg}") from None


def load_state(path):
    return state_from_json(load_json(path), where=str(path))


def make_manifest(command, config, seed):
    return {
        "command": command,
        "config": config,
        "seed": seed,
        "version": VERSION,
        "wall_time_s": None,  # filled at write time
    }


def with_manifest(payload, manifest, started_at):
    """A copy of ``payload`` holding ``manifest``, its wall time filled in."""
    manifest = dict(manifest)
    manifest["wall_time_s"] = time.monotonic() - started_at
    payload = dict(payload)
    payload["manifest"] = manifest
    return payload


def write_report(path, payload, manifest, started_at):
    with open(path, "w") as fh:
        json.dump(with_manifest(payload, manifest, started_at), fh, indent=2, sort_keys=True)
        fh.write("\n")


def fmt_float(x):
    if x is None:
        return ""
    if isinstance(x, bool):
        return str(x).lower()
    if isinstance(x, float):
        return f"{x:.17g}"
    return str(x)


def write_csv(path, header, rows):
    """Fixed column order; floats at 17 significant digits."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([fmt_float(v) for v in row])
