"""Run the benchmark on several seeds and report each metric's spread.

    python3 bench/spread.py                       # seeds 1 to 10
    python3 bench/spread.py --seeds 1-5

For each end-to-end metric it prints the median of the runs, the distance
between the first and third quartile as a share of the median, and that
share against a third of the metric's bound in BENCHMARK.json.  It runs every
workload of BENCHMARK.json for its ``run_seconds`` with ``--trace 0``, one
run after another, each in its own process.  This is the command that
regenerates the reference figures in README.md.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_list(spec):
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    args = ap.parse_args()
    ok = True
    for name in (w["name"] for w in bench["workloads"]):
        runs = []
        for seed in seed_list(args.seeds):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
                   "--seed", str(seed), "--seconds", str(bench["run_seconds"]), "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            runs.append(result)
            print(f"{name} seed {seed}: correct={result['correct']} "
                  f"failed {result['failed']}/{result['attempted']}", flush=True)
        shares = {r["failed"] / r["attempted"] for r in runs}
        ok = ok and len(shares) == 1 and all(r["correct"] for r in runs)
        print(f"{name}: failed share {sorted(shares)}")
        for m in bench["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            steady = spread < m["bound"] / 3
            ok = ok and steady
            print(f"  {m['name']:18s} median {med:12.6g} {m['unit']:4s} "
                  f"spread {spread:8.4f}  bound/3 {m['bound'] / 3:.4f} "
                  f"{'ok' if steady else 'WIDE'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
