"""Property verification suites behind `qcorr verify` and the acceptance tests.

Each suite runs seeded randomized trials, returns per-trial rows plus a
summary, and counts a failure whenever a checked inequality misses its
stated tolerance.  Trials are independent with per-trial derived seeds and
run in trial order.
"""

from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .chain import (
    ChainConfig,
    FLAG_COPY,
    LinkSpec,
    chain_gme_propagation,
    run_chain,
)
from .entanglement import BipartitionCut, entropy_of_entanglement, negativity
from .errors import UsageError
from .locc import locc_undo, verify_monotonicity_step
from .premeasure import MeasurementPlan, premeasure
from .quantumness import (
    OptimizerConfig,
    cc_commutation_oracle,
    classify_cc,
    deficit,
    q_negativity,
)
from .states import (
    LabeledState,
    Register,
    apparatus_label,
    classical_quantum_state,
    default_register,
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
    columns: tuple = ()
    summary: dict = field(default_factory=dict)

    @property
    def ok(self):
        return self.failures == 0


def _result(name, columns, rows, worst, **summary):
    """The suite's result; a trial fails wherever its ``ok`` column is false."""
    ok = columns.index("ok")
    failures = sum(1 for r in rows if not r[ok])
    return SuiteResult(name, rows, failures, worst, columns, summary)


def derive_seed(seed, *key):
    """Deterministic 64-bit child seed for a numbered sub-task."""
    ss = np.random.SeedSequence(seed, spawn_key=tuple(int(k) for k in key))
    return int(ss.generate_state(2, dtype=np.uint32).view(np.uint64)[0])


def _random_two_qubit_mixed(seed, t):
    rank = 1 + t % 4
    return random_mixed(default_register(2), rank, derive_seed(seed, t))


# ---------------------------------------------------------------------------
# theorem2: quantumness dominates entanglement, and larger measured sets
# dominate smaller ones (with optimizer slack on the larger search space).
# ---------------------------------------------------------------------------

def run_theorem2(samples=200, seed=7, restarts=24):
    ab_cut = BipartitionCut((0,), (1,))

    def trial(t):
        state = _random_two_qubit_mixed(seed, t)
        n_ab = negativity(state, ab_cut)
        cfg = lambda r: OptimizerConfig(restarts=restarts, seed=derive_seed(seed, t, r))
        qa = q_negativity(state, ("A",), cfg(1)).value
        qb = q_negativity(state, ("B",), cfg(2)).value
        qab = q_negativity(state, ("A", "B"), cfg(3)).value
        m_a = qa - n_ab
        m_ab = qab - n_ab
        m_order = qab - max(qa, qb)
        ok = m_a >= -1e-9 and m_ab >= -1e-9 and m_order >= -1e-5
        return (t, n_ab, qa, qb, qab, m_a, m_ab, m_order, ok)

    rows = [trial(t) for t in range(samples)]
    worst = min(min(r[5], r[6], r[7]) for r in rows)
    columns = ("trial", "negativity", "q_a", "q_b", "q_ab",
               "margin_a", "margin_ab", "margin_order", "ok")
    return _result("theorem2", columns, rows, worst)


# ---------------------------------------------------------------------------
# theorem1: constructed classical states classify as classical, entangled
# states do not, and the algebraic commutation oracle agrees throughout.
# ---------------------------------------------------------------------------

# A sampled state counts as entangled above this A:B negativity.
MIN_ENTANGLED_NEGATIVITY = 0.05
# classify_cc calls a state classical below this residual.
THEOREM1_THRESHOLD = 1e-7

def _random_cc_state(seed, t):
    rng = make_rng(derive_seed(seed, t, 10))
    basis = random_basis("A", 2, rng)
    probs = rng.dirichlet((1.0, 1.0))
    conds = []
    for _ in range(2):
        g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
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
    raise RuntimeError("failed to sample an entangled state")


def run_theorem1(samples=50, seed=11, restarts=24):
    cfg_for = lambda t: OptimizerConfig(restarts=restarts, seed=derive_seed(seed, t, 1))

    def trial(t):
        if t < samples:
            state = _random_cc_state(seed, t)
            expect_cc = True
        else:
            state = _random_entangled_state(seed, t)
            expect_cc = False
        verdict = classify_cc(state, ("A",), threshold=THEOREM1_THRESHOLD, cfg=cfg_for(t))
        oracle = cc_commutation_oracle(state, "A")
        ok = verdict["cc"] == expect_cc and oracle == verdict["cc"]
        return (t, expect_cc, verdict["cc"], oracle, verdict["residual"], ok)

    rows = [trial(t) for t in range(2 * samples)]
    # margin: distance of the residual from the decision threshold
    worst = min(
        (THEOREM1_THRESHOLD - r[4]) if r[1] else (r[4] - THEOREM1_THRESHOLD) for r in rows
    )
    columns = ("trial", "expected_cc", "classified_cc", "oracle_cc", "residual", "ok")
    return _result("theorem1", columns, rows, worst)


# ---------------------------------------------------------------------------
# pure-saturation: for pure states the quantumness measures coincide with
# the corresponding entanglement across the cut.
# ---------------------------------------------------------------------------

PURE_SATURATION_TOL = 1e-5  # largest |Q - N| and |D - E| a trial passes with

def run_pure_saturation(samples=100, seed=3, restarts=24):
    ab_cut = BipartitionCut((0,), (1,))

    def trial(t):
        state = random_pure(default_register(2), derive_seed(seed, t))
        n_ab = negativity(state, ab_cut)
        e_ent = entropy_of_entanglement(state, ab_cut)
        cfg = OptimizerConfig(restarts=restarts, seed=derive_seed(seed, t, 1))
        qa = q_negativity(state, ("A",), cfg).value
        da = deficit(state, ("A",), cfg).value
        gap_q = abs(qa - n_ab)
        gap_d = abs(da - e_ent)
        ok = gap_q <= PURE_SATURATION_TOL and gap_d <= PURE_SATURATION_TOL
        return (t, n_ab, qa, e_ent, da, gap_q, gap_d, ok)

    rows = [trial(t) for t in range(samples)]
    worst = min(PURE_SATURATION_TOL - max(r[5], r[6]) for r in rows)
    columns = ("trial", "negativity", "q_a", "entropy_ent", "deficit_a",
               "gap_negativity", "gap_deficit", "ok")
    return _result("pure-saturation", columns, rows, worst)


# ---------------------------------------------------------------------------
# locc-undo: the channel reproduces the original state on the apparatus,
# branch outputs agree, and per-basis monotonicity holds.
# ---------------------------------------------------------------------------

def run_locc_undo(samples=100, seed=5):
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
        ok = dist <= 1e-11 and branch_gap <= 1e-11
        return (t, d, dist, branch_gap, prob_gap, ok)

    def mono_trial(t):
        state = _random_two_qubit_mixed(seed + 1, t)
        rng = make_rng(derive_seed(seed, t, 2))
        plan = MeasurementPlan(("A",), (random_basis("A", 2, rng),))
        step = verify_monotonicity_step(state, plan)
        return (t, step["lhs"], step["rhs"], step["lhs"] - step["rhs"], step["holds"])

    undo_rows = [undo_trial(t) for t in range(samples)]
    mono_rows = [mono_trial(t) for t in range(5 * samples)]
    worst_undo = max(max(r[2], r[3]) for r in undo_rows)
    worst_mono = min(r[3] for r in mono_rows)
    rows = [("undo",) + r for r in undo_rows] + [
        ("monotonicity", r[0], None, r[1], r[2], r[3], r[4]) for r in mono_rows
    ]
    return _result(
        "locc-undo",
        ("kind", "trial", "dim", "a", "b", "c", "ok"),
        rows,
        min(1e-11 - worst_undo, worst_mono + 1e-9),
        max_trace_distance=worst_undo,
        worst_monotonicity_margin=worst_mono,
    )


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

        ok = mono_margin >= -1e-9 and flag_drift <= 1e-10 and break_drift <= 1e-10
        return (t, mono_margin, flag_drift, break_drift, ok) + tuple(e_seq)

    rows = [trial(t) for t in range(samples)]
    worst = min(min(r[1], 1e-10 - r[2], 1e-10 - r[3]) for r in rows)
    columns = ("trial", "monotone_margin", "flag_drift", "break_drift", "ok") + tuple(
        f"e_link{j + 1}" for j in range(CHAIN_MONOTONE_LINKS)
    )
    return _result("chain-monotone", columns, rows, worst)


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
        return (t, name, expect, str(flags), ok)

    rows = [trial(t) for t in range(samples * len(cases))]
    worst = min(0.0 if ok else -1.0 for *_, ok in rows)
    columns = ("trial", "case", "expect_gme", "per_step_gme", "ok")
    return _result("theorem3", columns, rows, worst)


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
    if kwargs.get("samples", 1) < 1:
        raise UsageError(f"samples must be at least 1, got {samples}")
    if kwargs.get("seed", 0) < 0:
        raise UsageError(f"the seed must be non-negative, got {seed}")
    return _SUITES[name](**kwargs)
