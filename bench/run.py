"""Layered benchmark for qcorr.

    python3 bench/run.py --workload qubit-optimizer --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --smoke

Run from the root of a source checkout: qcorr is imported from ``src/`` next
to this directory, never from an installed copy.  Each workload runs in one
process with BLAS pinned to one thread, as a closed loop: the operations of
one round run back to back, and whole rounds repeat until ``--seconds`` is
used up.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end metrics
with ``--trace 0``, the per-layer metrics of the traced run with ``--trace 1``.
See README.md for what each metric means.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUNS = ROOT / ".bench_runs"
SETUP_REPEATS = 15

# The cores of a shared machine change speed for seconds at a time (the same
# probe reads from 1x to 1.7x its fast time within 20 s, on either core), so
# every timed interval is scaled by PROBE_REF_S / p, where p is the mean time
# of the speed probe run just before and just after it.  PROBE_REF_S is the
# probe's time in a fast phase of the reference machine (see README.md).
PROBE_REF_S = 0.0220
PROBE_EVERY_S = 0.2
WORKLOAD_NAMES = ("qubit-optimizer", "qudit-cli", "exact-chains")



def import_program():
    """Import qcorr from this checkout's src/ and nowhere else."""
    sys.path.insert(0, str(HERE))
    sys.path.insert(0, str(SRC))
    try:
        import qcorr
        import qcorr.cli  # noqa: F401  (loads every layer: click, scipy.optimize)
    except ImportError as exc:
        raise SystemExit(f"bench: cannot import qcorr from {SRC}: {exc}")
    where = Path(qcorr.__file__).resolve()
    if SRC not in where.parents:
        raise SystemExit(f"bench: qcorr was imported from {where}, not from {SRC}")


def set_up(workload, seed, smoke, rundir):
    """Import the program, then generate and write the workload's inputs."""
    import_program()
    import workloads

    if rundir.exists():
        shutil.rmtree(rundir)
    rundir.mkdir(parents=True)
    return workloads.WORKLOADS[workload](seed, smoke, str(rundir))


def timed_setups(workload, seed, smoke, rundir, repeats, probe):
    """Process start to first operation, in fresh interpreters, one at a time.

    The child prints the monotonic clock (shared by all processes) once its
    operations are built, so its shutdown is not timed.
    """
    times = []
    last = probe()
    for k in range(repeats):
        cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
               "--workload", workload, "--seed", str(seed), "--rundir", f"{rundir}-setup{k}"]
        if smoke:
            cmd.append("--smoke")
        start = time.perf_counter()
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        shutil.rmtree(f"{rundir}-setup{k}", ignore_errors=True)
        if proc.returncode != 0:
            raise SystemExit(f"bench: set-up failed:\n{proc.stderr}")
        took = float(proc.stdout.split()[-1]) - start
        now = probe()
        times.append(took * PROBE_REF_S / ((last + now) / 2))
        last = now
    return times


def machine():
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {v: os.environ.get(v) for v in
                    ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


class Probe:
    """Fixed work whose time follows the current speed of the core."""

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(0)
        a = rng.normal(size=(64, 64)) + 1j * rng.normal(size=(64, 64))
        self.big = a + a.conj().T
        self.small = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        self.eigvalsh = np.linalg.eigvalsh  # bound before a tracer can wrap it
        self.matmul = np.matmul

    def __call__(self):
        start = time.perf_counter()
        for _ in range(40):
            self.eigvalsh(self.big)
        x = self.small
        for _ in range(3000):
            x = self.matmul(x, self.small) / 2.0
        return time.perf_counter() - start


class Run:
    """Rounds of one workload's operations, with first-round checks."""

    def __init__(self, ops, probe):
        self.ops = ops
        self.probe = probe
        self.first = {}          # op index -> fingerprint from round 1
        self.designated = set()  # ops whose round-1 check counts them as failed
        self.samples = [[] for _ in ops]  # scaled latency of each op, one per round
        self.round_times = []              # scaled busy time of each round
        self.raw_round_times = []
        self.attempted = 0
        self.failed = 0
        self.wrong = []
        self.sums = {"qneg": 0.0, "deficit": 0.0}

    def round(self):
        from workloads import Checker

        checking = not self.round_times
        busy = raw = since = 0.0
        pending = []
        last = self.probe()
        for i, op in enumerate(self.ops):
            self.attempted += 1
            start = time.perf_counter()
            try:
                result = op.run()
            except Exception as exc:  # raising or exiting non-zero is a wrong output
                pending.append((None, time.perf_counter() - start))
                self.failed += 1
                self.wrong.append(f"{op.label} raised {exc!r}")
                continue
            elapsed = time.perf_counter() - start
            pending.append((i, elapsed))
            since += elapsed
            if since >= PROBE_EVERY_S or i == len(self.ops) - 1:
                now = self.probe()
                scale = PROBE_REF_S / ((last + now) / 2)
                for j, t in pending:
                    busy += t * scale
                    raw += t
                    if j is not None:
                        self.samples[j].append(t * scale)
                pending, since, last = [], 0.0, now
            value = op.value(result) if op.value else None
            if checking:
                c = Checker(op.label)
                op.check(result, c)
                self.wrong += c.wrong
                if c.failed:
                    self.designated.add(i)
                    print(f"bench: failed check: {'; '.join(c.failed)}", file=sys.stderr)
                self.first[i] = value
                if op.kind:
                    self.sums[op.kind] += value
            elif value != self.first.get(i):
                self.wrong.append(f"{op.label}: value {value!r} differs from round 1 "
                                  f"({self.first.get(i)!r})")
            if i in self.designated:
                self.failed += 1
        if pending:  # the last operation raised
            now = self.probe()
            scale = PROBE_REF_S / ((last + now) / 2)
            busy += scale * sum(t for _, t in pending)
            raw += sum(t for _, t in pending)
        self.round_times.append(busy)
        self.raw_round_times.append(raw)

    def rounds_until(self, deadline):
        """Whole rounds while another one is expected to end near the deadline."""
        while True:
            start = time.perf_counter()
            self.round()
            took = time.perf_counter() - start
            if time.perf_counter() + 0.5 * took > deadline:
                return


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="smallest inputs, one round, one timed set-up")
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--rundir", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be non-negative")

    if args.workload == "all":
        return run_all(args)
    rundir = Path(args.rundir) if args.rundir else (
        RUNS / f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}")
    if args.setup_only:
        set_up(args.workload, args.seed, args.smoke, rundir)
        print(repr(time.perf_counter()), flush=True)
        os._exit(0)  # the parent times up to here; interpreter shutdown is not set-up

    if not (SRC / "qcorr").is_dir():
        raise SystemExit(f"bench: no qcorr sources under {SRC}")
    # one core for the whole run, so that the probe times the core the work ran on
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    probe = Probe()
    setups = timed_setups(args.workload, args.seed, args.smoke, rundir,
                          1 if args.smoke else SETUP_REPEATS, probe)
    ops = set_up(args.workload, args.seed, args.smoke, rundir)
    info = machine()
    info["cpu"] = cpu
    run = Run(ops, probe)
    start = time.perf_counter()
    if args.smoke:
        run.round()
    elif args.trace:
        run.rounds_until(start + args.seconds / 2)
    else:
        run.rounds_until(start + args.seconds)

    if args.trace:
        from tracer import Tracer

        untraced = list(run.round_times)
        tracer = Tracer()
        tracer.install()
        try:
            if args.smoke:
                run.round()
            else:
                run.rounds_until(start + args.seconds)
        finally:
            tracer.uninstall()
        traced = run.round_times[len(untraced):]
        metrics = tracer.layer_metrics(len(traced))
        metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)
        RUNS.mkdir(exist_ok=True)
        trace_path = RUNS / f"trace-{args.workload}-s{args.seed}.json"
        tracer.write_spans(trace_path)
    else:
        metrics = {
            "setup_s": statistics.median(setups),
            "wall_s": sum(statistics.median(ts) for ts in run.samples if ts),
            "op_p50_ms": 1e3 * statistics.median(t for ts in run.samples for t in ts),
            "qneg_bound_sum": run.sums["qneg"],
            "deficit_bound_sum": run.sums["deficit"],
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    shutil.rmtree(rundir, ignore_errors=True)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}

    for msg in run.wrong:
        print(f"bench: WRONG {msg}", file=sys.stderr)
    print(f"machine: {json.dumps(info, sort_keys=True)}")
    print(f"workload {args.workload} seed {args.seed}: {len(run.round_times)} rounds of "
          f"{len(ops)} operations, {run.attempted} attempted, {run.failed} failed; "
          f"round times (s): {' '.join(f'{t:.3g}' for t in run.round_times)}; "
          f"unscaled: {' '.join(f'{t:.3g}' for t in run.raw_round_times)}")
    for name, value in metrics.items():
        print(f"  {name:32s} {value:.6g} {units[name]}")
    result = {
        "correct": not run.wrong,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def run_all(args):
    """Each workload in its own process, one after another."""
    ok = True
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--smoke"] if args.smoke else [])
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        print(proc.stdout, end="")
        lines = proc.stdout.strip().splitlines()
        ok = ok and proc.returncode == 0 and bool(lines) and json.loads(lines[-1])["correct"]
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
