"""Command-line surface: state I/O, measures, classification, chains, suites.

Exit codes are a stable contract: 0 success/verified, 2 parse failure,
3 invariant violation, 64 usage error (unknown measure/suite/flags).
Reports embed a run manifest; identical command and seed reproduce
identical payloads except for the wall-time field.
"""

import json
import os
import sys
import time

import click
import numpy as np

from . import serialize
from .chain import run_chain
from .entanglement import (
    ENTROPY_OF_ENTANGLEMENT,
    LOG_NEGATIVITY,
    NEGATIVITY,
    cut_from_labels,
    evaluate,
)
from .errors import InvariantError, ParseError, UsageError
from .quantumness import OptimizerConfig, classify_cc, deficit, q_negativity
from .states import bell_state, ghz_state, werner_state, classical_quantum_state
from .states import LocalBasis
from .suites import run_suite

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_INVARIANT = 3
EXIT_USAGE = 64

Q_MEASURES = ("q-negativity", "one-way-deficit", "two-way-deficit")
E_MEASURES = {
    "negativity": NEGATIVITY,
    "log-negativity": LOG_NEGATIVITY,
    "entropy-of-entanglement": ENTROPY_OF_ENTANGLEMENT,
}


def _seed_option(seed):
    """Explicit --seed wins; QCORR_SEED is the fallback; default 0."""
    if seed is None:
        env = os.environ.get("QCORR_SEED")
        if not env:
            return 0
        try:
            seed = int(env)
        except ValueError:
            raise UsageError(f"QCORR_SEED must be an integer, got {env!r}") from None
    if seed < 0:
        raise UsageError(f"the seed must be non-negative, got {seed}")
    return seed


def _parse_measured(measured):
    return tuple(s.strip() for s in measured.split(",") if s.strip())


def _optimizer_options(command):
    """--restarts, --max-iter, --tol and --seed, defaulting to OptimizerConfig's."""
    options = (
        click.option("--restarts", default=OptimizerConfig.restarts, show_default=True),
        click.option("--max-iter", default=OptimizerConfig.max_iter, show_default=True),
        click.option("--tol", default=OptimizerConfig.tol, show_default=True),
        click.option("--seed", default=None, type=int),
    )
    for option in reversed(options):
        command = option(command)
    return command


@click.group()
def cli():
    """Quantify quantum correlations via measurement-apparatus entanglement."""


@cli.command()
@click.option("--state", "state_path", required=True, type=click.Path())
@click.option("--measure", "measure", required=True)
@click.option("--cut", "cut_spec", default=None, help='Bipartition like "A:B" or "A,B:C".')
@click.option("--measured", default=None, help="Comma-separated measured labels (Q measures).")
@_optimizer_options
@click.option("--out", "out_path", default=None, type=click.Path())
def measure(state_path, measure, cut_spec, measured, restarts, max_iter, tol, seed, out_path):
    """Evaluate an entanglement or quantumness measure on a state file."""
    started = time.monotonic()
    seed = _seed_option(seed)
    state = serialize.load_state(state_path)

    if measure in E_MEASURES:
        if not cut_spec:
            raise UsageError(f"measure {measure!r} requires --cut")
        cut = cut_from_labels(state.register, cut_spec)
        value = evaluate(state, cut, E_MEASURES[measure])
        payload = {"measure": measure, "cut": cut_spec, "value": value}
    elif measure in Q_MEASURES:
        if not measured:
            raise UsageError(f"measure {measure!r} requires --measured")
        labels = _parse_measured(measured)
        cfg = serialize.optimizer_from_json(
            {"restarts": restarts, "max_iter": max_iter, "tol": tol, "seed": seed}
        )
        if measure == "q-negativity":
            report = q_negativity(state, labels, cfg)
        else:
            report = deficit(state, labels, cfg)
        payload = {
            "measure": measure,
            "measured": list(labels),
            "value": report.value,
            "value_is_upper_bound": True,
            "restart_values": list(report.restart_values),
            "converged": report.converged,
            "argmin_bases": [serialize.basis_to_json(b) for b in report.argmin_bases],
        }
    else:
        raise UsageError(
            f"unknown measure {measure!r}; choose from "
            f"{', '.join(sorted(E_MEASURES) + list(Q_MEASURES))}"
        )

    manifest = serialize.make_manifest(
        "measure",
        {"state": state_path, "measure": measure, "cut": cut_spec, "measured": measured,
         "restarts": restarts, "max_iter": max_iter, "tol": tol},
        seed,
    )
    _emit(payload, manifest, started, out_path)


@cli.command()
@click.option("--state", "state_path", required=True, type=click.Path())
@click.option("--measured", required=True, help="Comma-separated measured labels.")
@click.option("--measure", "measure", default="q-negativity", show_default=True)
@_optimizer_options
@click.option("--out", "out_path", default=None, type=click.Path())
@click.pass_context
def quantumness(ctx, measure, **options):
    """Optimized quantumness measures (front-end for the Q measures)."""
    if measure not in Q_MEASURES:
        raise UsageError(f"unknown quantumness measure {measure!r}; choose from {Q_MEASURES}")
    ctx.invoke(globals()["measure"], measure=measure, cut_spec=None, **options)


@cli.command()
@click.option("--state", "state_path", required=True, type=click.Path())
@click.option("--measured", required=True)
@click.option("--threshold", default=1e-7, show_default=True)
@_optimizer_options
@click.option("--out", "out_path", default=None, type=click.Path())
def classify(state_path, measured, threshold, restarts, max_iter, tol, seed, out_path):
    """Classify a state as classically correlated on the measured subsystems."""
    started = time.monotonic()
    seed = _seed_option(seed)
    state = serialize.load_state(state_path)
    labels = _parse_measured(measured)
    cfg = serialize.optimizer_from_json(
        {"restarts": restarts, "max_iter": max_iter, "tol": tol, "seed": seed}
    )
    verdict = classify_cc(state, labels, threshold=threshold, cfg=cfg)
    payload = {
        "cc": verdict["cc"],
        "residual": verdict["residual"],
        "negativity_residual": verdict["negativity_residual"],
        "deficit_residual": verdict["deficit_residual"],
        "witness_bases": (
            [serialize.basis_to_json(b) for b in verdict["witness_bases"]]
            if verdict["witness_bases"]
            else None
        ),
    }
    manifest = serialize.make_manifest(
        "classify",
        {"state": state_path, "measured": measured, "threshold": threshold,
         "restarts": restarts, "max_iter": max_iter, "tol": tol},
        seed,
    )
    _emit(payload, manifest, started, out_path)


@cli.command()
@click.option("--config", "config_path", required=True, type=click.Path())
@click.option("--seed", default=None, type=int)
@click.option("--out-prefix", default="chain", show_default=True)
def chain(config_path, seed, out_prefix):
    """Run a von Neumann chain config; emits CSV and JSON reports."""
    started = time.monotonic()
    seed = _seed_option(seed)
    cfg = serialize.chain_config_from_json(
        serialize.load_json(config_path), where=str(config_path), seed=seed
    )
    report = run_chain(cfg)
    header = ("link", "target", "apparatus", "entanglement", "quantumness", "break_negativity")
    rows = [tuple(getattr(r, field) for field in header) for r in report.rows]
    serialize.write_csv(out_prefix + ".csv", header, rows)
    payload = {
        "rows": [dict(zip(header, row)) for row in rows],
        "monotone": report.monotone(),
    }
    manifest = serialize.make_manifest("chain", {"config": config_path}, seed)
    serialize.write_report(out_prefix + ".json", payload, manifest, started)
    click.echo(f"chain report written to {out_prefix}.csv / {out_prefix}.json")
    if not report.monotone():
        sys.exit(EXIT_INVARIANT)


@cli.command()
@click.option("--suite", required=True, type=str)
@click.option("--samples", default=None, type=click.IntRange(min=1))
@click.option("--seed", default=None, type=int)
@click.option("--out-prefix", default=None)
def verify(suite, samples, seed, out_prefix):
    """Run a named property suite; exit 0 iff zero failures."""
    started = time.monotonic()
    seed = _seed_option(seed)
    result = run_suite(suite, samples=samples, seed=seed)
    prefix = out_prefix or f"verify-{suite}"
    if result.columns:
        serialize.write_csv(prefix + ".csv", result.columns, result.trials)
    payload = {
        "suite": suite,
        "trials": len(result.trials),
        "failures": result.failures,
        "worst_margin": result.worst_margin,
    }
    payload.update(result.summary)
    manifest = serialize.make_manifest(
        "verify", {"suite": suite, "samples": samples}, seed
    )
    serialize.write_report(prefix + ".json", payload, manifest, started)
    status = "ok" if result.ok else "FAILED"
    click.echo(
        f"suite {suite}: {len(result.trials)} trials, {result.failures} failures, "
        f"worst margin {result.worst_margin:.3e} [{status}]"
    )
    if not result.ok:
        sys.exit(EXIT_INVARIANT)


@cli.command()
@click.option("--out-dir", default=".", show_default=True, type=click.Path())
def gen(out_dir):
    """Write the shipped example states and a demo chain config."""
    os.makedirs(out_dir, exist_ok=True)
    fixtures = {
        "bell.json": bell_state(),
        "werner-p0.5.json": werner_state(0.5),
        "ghz3.json": ghz_state(3),
        "cc.json": _canonical_discordant_state(),
    }
    for name, state in fixtures.items():
        path = os.path.join(out_dir, name)
        with open(path, "w") as fh:
            json.dump(serialize.state_to_json(state), fh, indent=2, sort_keys=True)
            fh.write("\n")
    chain_cfg = {
        "state": serialize.state_to_json(bell_state()),
        "links": [
            {"target": "B", "basis": "optimized"},
            {"target": "M:B", "basis": "flag-copy"},
            {"target": "M:M:B", "basis": "flag-copy"},
        ],
        "track": ["negativity"],
    }
    with open(os.path.join(out_dir, "bell-chain.json"), "w") as fh:
        json.dump(chain_cfg, fh, indent=2, sort_keys=True)
        fh.write("\n")
    click.echo(f"fixtures written to {out_dir}")


def _canonical_discordant_state():
    """(|0><0| (x) |0><0| + |1><1| (x) |+><+|)/2: separable but not B-classical."""
    plus = np.full((2, 2), 0.5, dtype=complex)
    zero = np.diag([1.0, 0.0]).astype(complex)
    basis = LocalBasis("A", np.eye(2, dtype=complex))
    return classical_quantum_state([0.5, 0.5], basis, [zero, plus])


def _emit(payload, manifest, started, out_path):
    if out_path:
        serialize.write_report(out_path, payload, manifest, started)
        click.echo(f"report written to {out_path}")
    else:
        report = serialize.with_manifest(payload, manifest, started)
        click.echo(json.dumps(report, indent=2, sort_keys=True))


def main(argv=None):
    try:
        cli.main(args=argv, standalone_mode=False)
    except click.UsageError as exc:
        click.echo(f"usage error: {exc.format_message()}", err=True)
        return EXIT_USAGE
    except UsageError as exc:
        click.echo(f"usage error: {exc}", err=True)
        return EXIT_USAGE
    except ParseError as exc:
        click.echo(f"parse error: {exc}", err=True)
        return EXIT_PARSE
    except InvariantError as exc:
        click.echo(f"invariant violation: {exc}", err=True)
        return EXIT_INVARIANT
    except click.exceptions.Exit as exc:
        return exc.exit_code
    except SystemExit as exc:
        return int(exc.code or 0)
    return EXIT_OK


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
