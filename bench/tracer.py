"""Layer timing for the traced run, installed from outside the program.

``Tracer.install()`` replaces every public function of the traced qcorr
modules, ``scipy.optimize.minimize`` as bound in ``qcorr.quantumness``, and
``numpy.linalg.eigvalsh`` / ``eigh`` with timing wrappers.  Each wrapped call
is a span; a span's self time is its duration minus the durations of the
spans it directly caused.  LAPACK calls are counted only while a qcorr span
is open, so the benchmark's own oracle checks do not show up.

Calls made inside ``minimize`` (the objective evaluations) and LAPACK calls
are aggregated without keeping a span record each; every other span is kept
in memory and written out by ``write_spans``.
"""

import functools
import inspect
import json
import sys
import time
from collections import defaultdict

import numpy as np

LAYERS = ("quantumness", "premeasure", "entanglement", "linalg", "locc",
          "chain", "suites", "serialize", "cli")

# Layers whose ``calls`` / ``s`` count only these entry points; the other
# layers count entries into any of their public functions.
ENTRY_POINTS = {"premeasure": {"premeasure", "dephase", "undo_interaction"}}

MAX_SPANS = 200_000
HIT_TOL = 1e-6


class Tracer:
    def __init__(self):
        self.stack = []
        self.spans = []
        self.dropped = 0
        self.fn_calls = defaultdict(int)
        self.fn_incl = defaultdict(float)
        self.self_s = defaultdict(float)
        self.entry_calls = defaultdict(int)
        self.entry_s = defaultdict(float)
        self.depth = defaultdict(int)
        self.counts = defaultdict(float)
        self._patched = []
        self._next_id = 0

    # -- span bookkeeping -------------------------------------------------

    def _enter(self, name, groups, keep):
        for g in groups:
            self.depth[g] += 1
        outer = tuple(g for g in groups if self.depth[g] == 1)
        parent = self.stack[-1][0] if self.stack else -1
        self._next_id += 1
        frame = [self._next_id, parent, name, groups, outer, keep, 0.0, time.perf_counter()]
        self.stack.append(frame)
        return frame

    def _exit(self, frame):
        end = time.perf_counter()
        self.stack.pop()
        span_id, parent, name, groups, outer, keep, child_s, start = frame
        elapsed = end - start
        for g in groups:
            self.depth[g] -= 1
        for g in outer:
            self.entry_calls[g] += 1
            self.entry_s[g] += elapsed
        self.fn_calls[name] += 1
        self.fn_incl[name] += elapsed
        self.self_s[groups[0]] += elapsed - child_s
        if self.stack:
            self.stack[-1][6] += elapsed
        if keep:
            if len(self.spans) < MAX_SPANS:
                self.spans.append((span_id, parent, name, start, end))
            else:
                self.dropped += 1

    def _in_minimize(self):
        return self.depth["quantumness.minimize"] > 0

    # -- wrappers ----------------------------------------------------------

    def _wrap(self, fn, name, groups, after=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = self._enter(name, groups, not self._in_minimize())
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(frame)
            if after is not None:
                after(self, frame, args, kwargs, result)
            return result

        return wrapper

    def _wrap_lapack(self, fn, kind):
        @functools.wraps(fn)
        def wrapper(a, *args, **kwargs):
            if not self.stack:
                return fn(a, *args, **kwargs)
            start = time.perf_counter()
            try:
                return fn(a, *args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                n = np.shape(a)[-1]
                self.counts[f"lapack.{kind}_calls"] += 1
                self.counts[f"lapack.{kind}_s"] += elapsed
                self.counts[f"lapack.{kind}_n3_sum"] += float(n) ** 3
                self.stack[-1][6] += elapsed

        return wrapper

    def install(self):
        """Wrap the public functions of the traced qcorr modules in place."""
        import qcorr  # noqa: F401  (the traced modules must be loaded)
        import qcorr.cli  # noqa: F401
        import qcorr.quantumness

        replace = {}
        for layer in LAYERS:
            mod = sys.modules[f"qcorr.{layer}"]
            for attr, fn in vars(mod).items():
                if attr.startswith("_") or not inspect.isfunction(fn):
                    continue
                if fn.__module__ != mod.__name__:
                    continue
                groups = (layer,)
                if attr in ENTRY_POINTS.get(layer, {attr}):
                    groups = (layer, layer + ".entry")
                replace[fn] = self._wrap(fn, f"{layer}.{attr}", groups, _AFTER.get((layer, attr)))
        minimize = qcorr.quantumness.minimize
        replace[minimize] = self._wrap(
            minimize, "quantumness.minimize", ("quantumness", "quantumness.minimize"), _after_minimize
        )
        # rebind every module-level name and table entry holding an original
        for name, mod in list(sys.modules.items()):
            if name != "qcorr" and not name.startswith("qcorr."):
                continue
            for attr, val in list(vars(mod).items()):
                if _hashable(val) and val in replace:
                    self._set(mod, attr, replace[val])
                elif isinstance(val, dict):
                    for key, item in list(val.items()):
                        if _hashable(item) and item in replace:
                            self._set_item(val, key, replace[item])
        for kind in ("eigvalsh", "eigh"):
            self._set(np.linalg, kind, self._wrap_lapack(getattr(np.linalg, kind), kind))

    def _set(self, owner, attr, value):
        self._patched.append((setattr, owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _set_item(self, table, key, value):
        self._patched.append((dict.__setitem__, table, key, table[key]))
        table[key] = value

    def uninstall(self):
        for setter, owner, key, original in reversed(self._patched):
            setter(owner, key, original)
        self._patched.clear()

    # -- results -----------------------------------------------------------

    def layer_metrics(self, rounds):
        """Per-layer metrics, each divided by the number of traced rounds."""
        c = self.counts
        evals = c["quantumness.objective_evals"]
        restarts = c["quantumness.restarts"]
        raw = {
            "quantumness.calls": c["quantumness.calls"],
            "quantumness.self_s": self.self_s["quantumness"],
            "quantumness.objective_evals": evals,
            "quantumness.minimize_s": self.entry_s["quantumness.minimize"],
            "quantumness.restarts": restarts,
            "quantumness.unconverged_calls": c["quantumness.unconverged_calls"],
            "lapack.eigvalsh_calls": c["lapack.eigvalsh_calls"],
            "lapack.eigvalsh_s": c["lapack.eigvalsh_s"],
            "lapack.eigvalsh_n3_sum": c["lapack.eigvalsh_n3_sum"],
            "lapack.eigh_calls": c["lapack.eigh_calls"],
            "premeasure.calls": self.entry_calls["premeasure.entry"],
            "premeasure.s": self.entry_s["premeasure.entry"],
            "entanglement.calls": self.entry_calls["entanglement"],
            "entanglement.s": self.entry_s["entanglement"],
            "linalg.check_density_calls": self.fn_calls["linalg.check_density"],
            "linalg.check_density_s": self.fn_incl["linalg.check_density"],
            "linalg.partial_transpose_s": self.fn_incl["linalg.partial_transpose"],
            "locc.calls": self.entry_calls["locc"],
            "locc.s": self.entry_s["locc"],
            "chain.links": c["chain.links"],
            "chain.s": self.entry_s["chain"],
            "suites.trials": c["suites.trials"],
            "suites.self_s": self.self_s["suites"],
            "serialize.calls": self.entry_calls["serialize"],
            "serialize.s": self.entry_s["serialize"],
            "cli.calls": self.fn_calls["cli.main"],
            "cli.self_s": self.self_s["cli"],
        }
        out = {k: v / rounds for k, v in raw.items()}
        out["quantumness.us_per_eval"] = (
            1e6 * self.entry_s["quantumness.minimize"] / evals if evals else 0.0
        )
        out["quantumness.restart_hit_ratio"] = (
            c["quantumness.restart_hits"] / restarts if restarts else 0.0
        )
        return out

    def write_spans(self, path):
        with open(path, "w") as fh:
            json.dump({"fields": ["id", "parent", "name", "start_s", "end_s"],
                       "dropped": self.dropped, "spans": self.spans}, fh)


def _hashable(val):
    try:
        hash(val)
    except TypeError:
        return False
    return True


def _after_minimize(tracer, frame, args, kwargs, result):
    tracer.counts["quantumness.objective_evals"] += int(result.nfev)


def _after_report(tracer, frame, args, kwargs, report):
    tracer.counts["quantumness.calls"] += 1
    tracer.counts["quantumness.restarts"] += len(report.restart_values)
    tracer.counts["quantumness.restart_hits"] += sum(
        1 for v in report.restart_values if v <= min(report.restart_values) + HIT_TOL
    )
    tracer.counts["quantumness.unconverged_calls"] += 0 if report.converged else 1


def _after_run_chain(tracer, frame, args, kwargs, report):
    tracer.counts["chain.links"] += len(report.rows)


def _after_gme(tracer, frame, args, kwargs, result):
    tracer.counts["chain.links"] += len(result["per_step"])


def _after_suite(tracer, frame, args, kwargs, result):
    if "suites" in frame[4]:  # outermost suites call only: run_suite wraps run_<suite>
        tracer.counts["suites.trials"] += len(result.trials)


_AFTER = {
    ("quantumness", "q_negativity"): _after_report,
    ("quantumness", "deficit"): _after_report,
    ("chain", "run_chain"): _after_run_chain,
    ("chain", "chain_gme_propagation"): _after_gme,
    ("suites", "run_suite"): _after_suite,
    **{("suites", f"run_{s}"): _after_suite
       for s in ("theorem1", "theorem2", "theorem3", "locc_undo", "chain_monotone",
                 "pure_saturation")},
}
