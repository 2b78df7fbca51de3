"""Property verification suites behind `qcorr verify` and the acceptance tests.

Each suite runs seeded randomized trials, returns per-trial rows plus a
summary, and counts a failure whenever a checked inequality misses its
stated tolerance.  Trials are independent with per-trial derived seeds and
run in trial order.  A trial returns its row, a dict from column name to
value, and its margin, how far it cleared the tolerances of its checks
(negative on a miss).
"""

from dataclasses import dataclass, field
import itertools

import numpy as np

from . import linalg
from .chain import (
    ChainConfig,
    FLAG_COPY,
    LinkSpec,
    chain_gme_propagation,
    run_chain,
)
from .entanglement import MONOTONE_TOL, BipartitionCut, entropy_of_entanglement, negativity
from .errors import InvariantError, UsageError
from .locc import locc_undo, verify_monotonicity_step
from .premeasure import MeasurementPlan, premeasure
from .quantumness import (
    CC_THRESHOLD,
    OptimizerConfig,
    cc_commutation_oracle,
    classify_cc,
    deficit,
    q_negativity,
)
from .states import (
    LabeledState,
    Register,
    _integer,
    apparatus_label,
    classical_quantum_state,
    complex_gaussian,
    default_register,
    derive_seed,
    ghz_state,
    make_rng,
    pure_state,
    random_basis,
    random_mixed,
    random_pure,
    w_state,
)


@dataclass
class SuiteResult:
    suite: str
    trials: list
    failures: int
    worst_margin: float
    summary: dict = field(default_factory=dict)

    @property
    def ok(self):
        return self.failures == 0


def _result(name, trials):
    """Run ``trials``, an iterable of ``(row, margin)`` pairs, into the suite's result.

    The rows are kept in trial order, a trial fails wherever its ``ok``
    column is false, and the worst margin is the least, NaN if any is NaN.
    """
    rows, margins = zip(*trials)
    failures = sum(1 for r in rows if not r["ok"])
    return SuiteResult(name, list(rows), failures, float(np.min(margins)))


def _check_counts(samples, seed, error=InvariantError):
    """Refuse a sample count below 1 or a seed below 0, or either not an integer."""
    _integer(samples, "samples", error, low=1)
    _integer(seed, "seed", error, low=0)


def _random_two_qubit_mixed(seed, t):
    rank = 1 + t % 4
    return random_mixed(default_register(2), rank, derive_seed(seed, t))


# ---------------------------------------------------------------------------
# theorem2: quantumness dominates entanglement, and larger measured sets
# dominate smaller ones (with optimizer slack on the larger search space).
# ---------------------------------------------------------------------------

def run_theorem2(samples=200, seed=7):
    _check_counts(samples, seed)
    ab_cut = BipartitionCut((0,), (1,))

    def trial(t):
        state = _random_two_qubit_mixed(seed, t)
        n_ab = negativity(state, ab_cut)
        cfg = lambda r: OptimizerConfig(seed=derive_seed(seed, t, r))
        qa = q_negativity(state, ("A",), cfg(1)).value
        qb = q_negativity(state, ("B",), cfg(2)).value
        qab = q_negativity(state, ("A", "B"), cfg(3)).value
        m_a = qa - n_ab
        m_ab = qab - n_ab
        m_order = qab - max(qa, qb)
        margin = float(np.min([m_a + 1e-9, m_ab + 1e-9, m_order + 1e-5]))
        row = dict(trial=t, negativity=n_ab, q_a=qa, q_b=qb, q_ab=qab,
                   margin_a=m_a, margin_ab=m_ab, margin_order=m_order, ok=margin >= 0)
        return row, margin

    return _result("theorem2", map(trial, range(samples)))


# ---------------------------------------------------------------------------
# theorem1: constructed classical states classify as classical, entangled
# states do not, and the algebraic commutation oracle agrees throughout.
# ---------------------------------------------------------------------------

# A sampled state counts as entangled above this A:B negativity.
MIN_ENTANGLED_NEGATIVITY = 0.05

def _random_cc_state(seed, t):
    rng = make_rng(derive_seed(seed, t, 10))
    basis = random_basis("A", 2, rng)
    probs = rng.dirichlet((1.0, 1.0))
    conds = []
    for _ in range(2):
        g = complex_gaussian(rng, (2, 2))
        c = g @ np.conj(g).T
        conds.append(c / np.trace(c))
    return classical_quantum_state(probs, basis, conds)


def _random_entangled_state(seed, t):
    ab_cut = BipartitionCut((0,), (1,))
    for attempt in range(200):
        state = random_mixed(
            default_register(2), 1 + (t + attempt) % 2, derive_seed(seed, t, 20 + attempt)
        )
        if negativity(state, ab_cut) > MIN_ENTANGLED_NEGATIVITY:
            return state
    raise InvariantError("failed to sample an entangled state")


def run_theorem1(samples=50, seed=11):
    _check_counts(samples, seed)

    def trial(t):
        if t < samples:
            state = _random_cc_state(seed, t)
            expect_cc = True
        else:
            state = _random_entangled_state(seed, t)
            expect_cc = False
        cfg = OptimizerConfig(seed=derive_seed(seed, t, 1))
        verdict = classify_cc(state, ("A",), cfg=cfg)
        oracle = cc_commutation_oracle(state, "A")
        residual = verdict["residual"]
        ok = verdict["cc"] == expect_cc and oracle == verdict["cc"]
        row = dict(trial=t, expected_cc=expect_cc, classified_cc=verdict["cc"],
                   oracle_cc=oracle, residual=residual, ok=ok)
        # margin: distance of the residual from the decision threshold, or -1
        # when the oracle disagrees with the expected verdict
        margin = CC_THRESHOLD - residual if expect_cc else residual - CC_THRESHOLD
        return row, margin if oracle == expect_cc else -1.0

    return _result("theorem1", map(trial, range(2 * samples)))


# ---------------------------------------------------------------------------
# pure-saturation: for pure states the quantumness measures coincide with
# the corresponding entanglement across the cut.
# ---------------------------------------------------------------------------

PURE_SATURATION_TOL = 1e-5  # largest |Q - N| and |D - E| a trial passes with

def run_pure_saturation(samples=100, seed=3):
    _check_counts(samples, seed)
    ab_cut = BipartitionCut((0,), (1,))

    def trial(t):
        state = random_pure(default_register(2), derive_seed(seed, t))
        n_ab = negativity(state, ab_cut)
        e_ent = entropy_of_entanglement(state, ab_cut)
        cfg = OptimizerConfig(seed=derive_seed(seed, t, 1))
        qa = q_negativity(state, ("A",), cfg).value
        da = deficit(state, ("A",), cfg).value
        gap_q = abs(qa - n_ab)
        gap_d = abs(da - e_ent)
        margin = PURE_SATURATION_TOL - float(np.max([gap_q, gap_d]))
        row = dict(trial=t, negativity=n_ab, q_a=qa, entropy_ent=e_ent, deficit_a=da,
                   gap_negativity=gap_q, gap_deficit=gap_d, ok=margin >= 0)
        return row, margin

    return _result("pure-saturation", map(trial, range(samples)))


# ---------------------------------------------------------------------------
# locc-undo: the channel reproduces the original state on the apparatus,
# branch outputs agree, and per-basis monotonicity holds.
# ---------------------------------------------------------------------------

def run_locc_undo(samples=100, seed=5):
    _check_counts(samples, seed)

    def undo_trial(t):
        d = 2 if t % 2 == 0 else 3
        reg = Register(("A", "B"), (d, d))
        state = random_mixed(reg, 1 + t % (d * d), derive_seed(seed, t))
        rng = make_rng(derive_seed(seed, t, 1))
        plan = MeasurementPlan(("A",), (random_basis("A", d, rng),))
        pm = premeasure(state, plan)
        transcript = locc_undo(pm, plan, "A")
        # the apparatus ends up holding A's state expressed in the plan
        # basis; rotate by U^dag on A before moving it behind B
        u = plan.bases[0].vectors
        g = np.kron(np.conj(u).T, np.eye(d))
        rotated = LabeledState(reg, g @ state.rho @ np.conj(g).T)
        target = rotated.permuted([1, 0])
        dist = linalg.trace_distance(transcript.output.rho, target.rho)
        branch_gap = max(
            linalg.trace_distance(b1.rho, b2.rho)
            for i, b1 in enumerate(transcript.branch_outputs)
            for b2 in transcript.branch_outputs[i + 1 :]
        )
        prob_gap = max(abs(p - 1.0 / d) for p in transcript.outcome_probabilities)
        margin = 1e-11 - float(np.max([dist, branch_gap]))
        row = dict(kind="undo", trial=t, dim=d, a=dist, b=branch_gap, c=prob_gap, ok=margin >= 0)
        return row, margin

    def mono_trial(t):
        state = _random_two_qubit_mixed(seed + 1, t)
        rng = make_rng(derive_seed(seed, t, 2))
        plan = MeasurementPlan(("A",), (random_basis("A", 2, rng),))
        step = verify_monotonicity_step(state, plan)
        gap = step["lhs"] - step["rhs"]
        row = dict(kind="monotonicity", trial=t, dim=None, a=step["lhs"], b=step["rhs"],
                   c=gap, ok=step["holds"])
        return row, gap + MONOTONE_TOL

    result = _result(
        "locc-undo",
        itertools.chain(map(undo_trial, range(samples)), map(mono_trial, range(5 * samples))),
    )
    result.summary["max_trace_distance"] = max(
        max(r["a"], r["b"]) for r in result.trials if r["kind"] == "undo"
    )
    result.summary["worst_monotonicity_margin"] = min(
        r["c"] for r in result.trials if r["kind"] == "monotonicity"
    )
    return result


# ---------------------------------------------------------------------------
# chain-monotone: apparatus entanglement never decreases along chains,
# flag-copy links saturate, and break-point cuts ignore later links.
# ---------------------------------------------------------------------------

CHAIN_MONOTONE_LINKS = 4

def _chain_labels(n_links):
    labels = ["S"]
    for _ in range(n_links - 1):
        labels.append(apparatus_label(labels[-1]))
    return labels


def run_chain_monotone(samples=50, seed=13):
    _check_counts(samples, seed)

    def trial(t):
        state = random_mixed(
            Register(("S",), (2,)), 1 + t % 2, derive_seed(seed, t)
        )
        rng = make_rng(derive_seed(seed, t, 1))
        targets = _chain_labels(CHAIN_MONOTONE_LINKS)
        links = tuple(
            LinkSpec(lab, random_basis(lab, 2, rng)) for lab in targets
        )
        report = run_chain(ChainConfig(state, links))
        e_seq = report.entanglement_sequence()
        mono_margin = min(
            (e_seq[j + 1] - e_seq[j] for j in range(len(e_seq) - 1)), default=0.0
        )

        # flag-copy saturation: computational links after the first
        flag_links = (links[0],) + tuple(LinkSpec(lab, FLAG_COPY) for lab in targets[1:])
        flag_report = run_chain(ChainConfig(state, flag_links))
        f_seq = flag_report.entanglement_sequence()
        flag_drift = max(abs(v - f_seq[0]) for v in f_seq)

        # fixed-break invariance: cut at level j unchanged by the last link
        short_report = run_chain(ChainConfig(state, links[:-1]))
        break_drift = 0.0
        for j in range(1, CHAIN_MONOTONE_LINKS - 1):
            left = tuple(range(1 + j))
            cut_short = BipartitionCut(left, tuple(range(1 + j, short_report.final_state.register.n)))
            cut_full = BipartitionCut(left, tuple(range(1 + j, report.final_state.register.n)))
            v_short = negativity(short_report.final_state, cut_short)
            v_full = negativity(report.final_state, cut_full)
            break_drift = max(break_drift, abs(v_full - v_short))

        margin = float(np.min([mono_margin + MONOTONE_TOL, 1e-10 - flag_drift, 1e-10 - break_drift]))
        row = dict(trial=t, monotone_margin=mono_margin, flag_drift=flag_drift,
                   break_drift=break_drift, ok=margin >= 0)
        row.update((f"e_link{j + 1}", e) for j, e in enumerate(e_seq))
        return row, margin

    return _result("chain-monotone", map(trial, range(samples)))


# ---------------------------------------------------------------------------
# theorem3: genuine multipartite entanglement propagates to every link for
# GME inputs and never appears for biseparable ones (pure states only).
# ---------------------------------------------------------------------------

THEOREM3_LINKS = 2

def _biseparable_state():
    psi = np.zeros(8, dtype=complex)
    psi[0] = psi[6] = 1 / np.sqrt(2)  # (|00> + |11>)_AB (x) |0>_C
    return pure_state(psi, default_register(3))


def run_theorem3(samples=5, seed=17):
    _check_counts(samples, seed)
    cases = [
        ("ghz3", ghz_state(3), True),
        ("w3", w_state(3), True),
        ("bell_x_0", _biseparable_state(), False),
    ]

    def trial(t):
        name, state, expect = cases[t % len(cases)]
        result = chain_gme_propagation(state, THEOREM3_LINKS, seed=derive_seed(seed, t))
        flags = [step["gme"] for step in result["per_step"]]
        witnesses_ok = all(
            step["gme"] or step["witness"] is not None for step in result["per_step"]
        )
        ok = all(f == expect for f in flags) and witnesses_ok
        row = dict(trial=t, case=name, expect_gme=expect, per_step_gme=str(flags), ok=ok)
        return row, 0.0 if ok else -1.0

    return _result("theorem3", map(trial, range(samples * len(cases))))


_SUITES = {
    "theorem1": run_theorem1,
    "theorem2": run_theorem2,
    "theorem3": run_theorem3,
    "locc-undo": run_locc_undo,
    "chain-monotone": run_chain_monotone,
    "pure-saturation": run_pure_saturation,
}
SUITE_NAMES = tuple(_SUITES)


def run_suite(name, samples=None, seed=None):
    if name not in _SUITES:
        raise UsageError(f"unknown suite {name!r}; choose from {', '.join(SUITE_NAMES)}")
    kwargs = {key: v for key, v in (("samples", samples), ("seed", seed)) if v is not None}
    _check_counts(kwargs.get("samples", 1), kwargs.get("seed", 0), UsageError)
    return _SUITES[name](**kwargs)
