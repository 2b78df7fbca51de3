"""Command-line surface: state I/O, measures, classification, chains, suites.

Exit codes are a stable contract: 0 success/verified, 2 parse failure,
3 invariant violation, 64 usage error (unknown measure/suite/flags); each
error class carries its own.  The optimizer flags are ``OptimizerConfig``'s
fields, and ``--seed`` falls back to ``QCORR_SEED``, then 0.  Reports embed
a run manifest whose config is the command's parsed options, less the seed
and the output paths; identical command and seed reproduce identical
payloads except for the wall-time field.
"""

import os
import sys
import time
from dataclasses import asdict, fields

import click
import numpy as np

from . import serialize
from .chain import run_chain
from .entanglement import (
    cut_from_labels,
    entropy_of_entanglement,
    log_negativity,
    negativity,
)
from .errors import InvariantError, ParseError, QcorrError, UsageError
from .quantumness import CC_THRESHOLD, OptimizerConfig, classify_cc, deficit, q_negativity
from .states import bell_state, ghz_state, werner_state, classical_quantum_state
from .states import LocalBasis
from .suites import run_suite

EXIT_OK = 0
EXIT_PARSE = ParseError.exit_code
EXIT_INVARIANT = InvariantError.exit_code
EXIT_USAGE = UsageError.exit_code

Q_MEASURES = {
    "q-negativity": q_negativity,
    "one-way-deficit": deficit,
    "two-way-deficit": deficit,
}
E_MEASURES = {
    "negativity": negativity,
    "log-negativity": log_negativity,
    "entropy-of-entanglement": entropy_of_entanglement,
}

_seed = click.option("--seed", type=click.IntRange(min=0), default=0, envvar="QCORR_SEED",
                     show_envvar=True)


def _parse_measured(measured, measure):
    """The comma-separated labels of ``measured``; none at all is a usage error."""
    labels = tuple(s.strip() for s in (measured or "").split(",") if s.strip())
    if not labels:
        raise UsageError(f"{measure} requires --measured")
    return labels


def _optimizer_options(command):
    """One option per ``OptimizerConfig`` field at the dataclass default; the seed is ``--seed``."""
    for field in reversed(fields(OptimizerConfig)):
        flag = "--" + field.name.replace("_", "-")
        option = _seed if field.name == "seed" else click.option(
            flag, default=field.default, show_default=True)
        command = option(command)
    return command


def _report(payload, started):
    """``payload`` with the current command's manifest, its config the options it was given."""
    ctx = click.get_current_context()
    config = {k: v for k, v in ctx.params.items() if k not in ("seed", "out", "out_prefix")}
    return serialize.report(payload, ctx.command.name, config, ctx.params["seed"], started)


@click.group()
def cli():
    """Quantify quantum correlations via measurement-apparatus entanglement."""


@cli.command("measure")
@click.option("--state", required=True, type=click.Path())
@click.option("--measure", required=True)
@click.option("--cut", default=None, help='Bipartition like "A:B" or "A,B:C".')
@click.option("--measured", default=None, help="Comma-separated measured labels (Q measures).")
@_optimizer_options
@click.option("--out", default=None, type=click.Path())
def measure_command(state, measure, cut, measured, out, **optimizer):
    """Evaluate an entanglement or quantumness measure on a state file."""
    started = time.monotonic()
    serialize.check_outputs(out)
    labeled = serialize.load_state(state)

    if measure in E_MEASURES:
        if not cut:
            raise UsageError(f"measure {measure!r} requires --cut")
        value = E_MEASURES[measure](labeled, cut_from_labels(labeled.register, cut))
        payload = {"measure": measure, "cut": cut, "value": value}
    elif measure in Q_MEASURES:
        labels = _parse_measured(measured, f"measure {measure!r}")
        report = Q_MEASURES[measure](labeled, labels, OptimizerConfig(**optimizer))
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
    _emit(_report(payload, started), out)


@cli.command()
@click.option("--state", required=True, type=click.Path())
@click.option("--measured", required=True, help="Comma-separated measured labels.")
@click.option("--measure", default="q-negativity", show_default=True)
@_optimizer_options
@click.option("--out", default=None, type=click.Path())
@click.pass_context
def quantumness(ctx, measure, **options):
    """Optimized quantumness measures (front-end for the Q measures)."""
    if measure not in Q_MEASURES:
        raise UsageError(
            f"unknown quantumness measure {measure!r}; choose from {tuple(Q_MEASURES)}"
        )
    ctx.invoke(measure_command, measure=measure, cut=None, **options)


@cli.command()
@click.option("--state", required=True, type=click.Path())
@click.option("--measured", required=True)
@click.option("--threshold", default=CC_THRESHOLD, show_default=True)
@_optimizer_options
@click.option("--out", default=None, type=click.Path())
def classify(state, measured, threshold, out, **optimizer):
    """Classify a state as classically correlated on the measured subsystems."""
    started = time.monotonic()
    serialize.check_outputs(out)
    labeled = serialize.load_state(state)
    labels = _parse_measured(measured, "classify")
    verdict = classify_cc(labeled, labels, threshold=threshold, cfg=OptimizerConfig(**optimizer))
    payload = {
        **verdict,
        "witness_bases": (
            [serialize.basis_to_json(b) for b in verdict["witness_bases"]]
            if verdict["witness_bases"]
            else None
        ),
    }
    _emit(_report(payload, started), out)


@cli.command()
@click.option("--config", required=True, type=click.Path())
@_seed
@click.option("--out-prefix", default="chain", show_default=True)
def chain(config, seed, out_prefix):
    """Run a von Neumann chain config; emits CSV and JSON reports."""
    started = time.monotonic()
    serialize.check_outputs(out_prefix + ".csv", out_prefix + ".json")
    cfg = serialize.chain_config_from_json(
        serialize.load_json(config), where=str(config), seed=seed
    )
    result = run_chain(cfg)
    rows = [asdict(r) for r in result.rows]
    serialize.write_csv(out_prefix + ".csv", rows)
    payload = {"rows": rows, "monotone": result.monotone()}
    serialize.write_json(out_prefix + ".json", _report(payload, started))
    click.echo(f"chain report written to {out_prefix}.csv / {out_prefix}.json")
    if not result.monotone():
        sys.exit(EXIT_INVARIANT)


@cli.command()
@click.option("--suite", required=True, type=str)
@click.option("--samples", default=None, type=click.IntRange(min=1))
@_seed
@click.option("--out-prefix", default=None)
def verify(suite, samples, seed, out_prefix):
    """Run a named property suite; exit 0 iff zero failures."""
    started = time.monotonic()
    prefix = out_prefix or f"verify-{suite}"
    serialize.check_outputs(prefix + ".csv", prefix + ".json")
    result = run_suite(suite, samples=samples, seed=seed)
    serialize.write_csv(prefix + ".csv", result.trials)
    payload = {
        "suite": suite,
        "trials": len(result.trials),
        "failures": result.failures,
        "worst_margin": result.worst_margin,
    }
    payload.update(result.summary)
    serialize.write_json(prefix + ".json", _report(payload, started))
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
    try:
        os.makedirs(out_dir, exist_ok=True)
    except OSError as exc:
        raise UsageError(f"cannot create directory {out_dir}: {exc.strerror or exc}") from None
    fixtures = {
        "bell.json": bell_state(),
        "werner-p0.5.json": werner_state(0.5),
        "ghz3.json": ghz_state(3),
        "cc.json": _canonical_discordant_state(),
    }
    for name, state in fixtures.items():
        serialize.write_json(os.path.join(out_dir, name), serialize.state_to_json(state))
    chain_cfg = {
        "state": serialize.state_to_json(bell_state()),
        "links": [
            {"target": "B", "basis": "optimized"},
            {"target": "M:B", "basis": "flag-copy"},
            {"target": "M:M:B", "basis": "flag-copy"},
        ],
        "track": ["negativity"],
    }
    serialize.write_json(os.path.join(out_dir, "bell-chain.json"), chain_cfg)
    click.echo(f"fixtures written to {out_dir}")


def _canonical_discordant_state():
    """(|0><0| (x) |0><0| + |1><1| (x) |+><+|)/2: separable but not B-classical."""
    plus = np.full((2, 2), 0.5, dtype=complex)
    zero = np.diag([1.0, 0.0]).astype(complex)
    basis = LocalBasis("A", np.eye(2, dtype=complex))
    return classical_quantum_state([0.5, 0.5], basis, [zero, plus])


def _emit(report, out_path):
    if out_path:
        serialize.write_json(out_path, report)
        click.echo(f"report written to {out_path}")
    else:
        click.echo(serialize.json_text(report), nl=False)


def main(argv=None):
    try:
        cli.main(args=argv, standalone_mode=False)
    except click.UsageError as exc:
        click.echo(f"{UsageError.prefix}: {exc.format_message()}", err=True)
        return EXIT_USAGE
    except QcorrError as exc:
        click.echo(f"{exc.prefix}: {exc}", err=True)
        return exc.exit_code
    except click.exceptions.Exit as exc:
        return exc.exit_code
    except SystemExit as exc:
        return int(exc.code or 0)
    return EXIT_OK


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
