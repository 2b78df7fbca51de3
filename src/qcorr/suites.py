"""Property verification suites behind `qcorr verify` and the acceptance tests.

Each suite is one module-level trial function ``(seed, samples, t) -> (row,
margin)``: the row is a dict from column name to value, and the margin is how
far the trial cleared the tolerances of its checks (negative on a miss).  A
trial depends on nothing but its arguments, so it runs alone, or pickled as
``functools.partial(trial, seed, samples)``, to the same row.  ``run_suite``
is the one entry point: it checks the counts, runs trials ``0 .. k*samples-1``
in order (k trials per sample) and counts a failure wherever a row's ``ok``
is false.
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


_AB_CUT = BipartitionCut((0,), (1,))


def _random_two_qubit_mixed(seed, t):
    rank = 1 + t % 4
    return random_mixed(default_register(2), rank, derive_seed(seed, t))


# ---------------------------------------------------------------------------
# theorem2: quantumness dominates entanglement, and larger measured sets
# dominate smaller ones (with optimizer slack on the larger search space).
# ---------------------------------------------------------------------------

def _theorem2_trial(seed, samples, t):
    state = _random_two_qubit_mixed(seed, t)
    n_ab = negativity(state, _AB_CUT)
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
    for attempt in range(200):
        state = random_mixed(
            default_register(2), 1 + (t + attempt) % 2, derive_seed(seed, t, 20 + attempt)
        )
        if negativity(state, _AB_CUT) > MIN_ENTANGLED_NEGATIVITY:
            return state
    raise InvariantError("failed to sample an entangled state")


def _theorem1_trial(seed, samples, t):
    """Trials below ``samples`` take a classical state, the rest an entangled one."""
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


# ---------------------------------------------------------------------------
# pure-saturation: for pure states the quantumness measures coincide with
# the corresponding entanglement across the cut.
# ---------------------------------------------------------------------------

PURE_SATURATION_TOL = 1e-5  # largest |Q - N| and |D - E| a trial passes with

def _pure_saturation_trial(seed, samples, t):
    state = random_pure(default_register(2), derive_seed(seed, t))
    n_ab = negativity(state, _AB_CUT)
    e_ent = entropy_of_entanglement(state, _AB_CUT)
    cfg = OptimizerConfig(seed=derive_seed(seed, t, 1))
    qa = q_negativity(state, ("A",), cfg).value
    da = deficit(state, ("A",), cfg).value
    gap_q = abs(qa - n_ab)
    gap_d = abs(da - e_ent)
    margin = PURE_SATURATION_TOL - float(np.max([gap_q, gap_d]))
    row = dict(trial=t, negativity=n_ab, q_a=qa, entropy_ent=e_ent, deficit_a=da,
               gap_negativity=gap_q, gap_deficit=gap_d, ok=margin >= 0)
    return row, margin


# ---------------------------------------------------------------------------
# locc-undo: the channel reproduces the original state on the apparatus,
# branch outputs agree, and per-basis monotonicity holds.
# ---------------------------------------------------------------------------

def _undo_trial(seed, t):
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


def _monotonicity_trial(seed, t):
    state = _random_two_qubit_mixed(seed + 1, t)
    rng = make_rng(derive_seed(seed, t, 2))
    plan = MeasurementPlan(("A",), (random_basis("A", 2, rng),))
    step = verify_monotonicity_step(state, plan)
    gap = step["lhs"] - step["rhs"]
    row = dict(kind="monotonicity", trial=t, dim=None, a=step["lhs"], b=step["rhs"],
               c=gap, ok=step["holds"])
    return row, gap + MONOTONE_TOL


def _locc_undo_trial(seed, samples, t):
    """Trials below ``samples`` check the undo channel, the next 5*samples monotonicity."""
    return _undo_trial(seed, t) if t < samples else _monotonicity_trial(seed, t - samples)


def _locc_undo_summary(rows):
    return {
        "max_trace_distance": max(max(r["a"], r["b"]) for r in rows if r["kind"] == "undo"),
        "worst_monotonicity_margin": min(r["c"] for r in rows if r["kind"] == "monotonicity"),
    }


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


def _chain_monotone_trial(seed, samples, t):
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


# ---------------------------------------------------------------------------
# theorem3: genuine multipartite entanglement propagates to every link for
# GME inputs and never appears for biseparable ones (pure states only).
# ---------------------------------------------------------------------------

THEOREM3_LINKS = 2

def _biseparable_state():
    psi = np.zeros(8, dtype=complex)
    psi[0] = psi[6] = 1 / np.sqrt(2)  # (|00> + |11>)_AB (x) |0>_C
    return pure_state(psi, default_register(3))


# (name, input state, whether it is GME); trial t takes case t % 3
_THEOREM3_CASES = (
    ("ghz3", lambda: ghz_state(3), True),
    ("w3", lambda: w_state(3), True),
    ("bell_x_0", _biseparable_state, False),
)


def _theorem3_trial(seed, samples, t):
    name, make_state, expect = _THEOREM3_CASES[t % len(_THEOREM3_CASES)]
    result = chain_gme_propagation(make_state(), THEOREM3_LINKS, seed=derive_seed(seed, t))
    flags = [step["gme"] for step in result["per_step"]]
    witnesses_ok = all(
        step["gme"] or step["witness"] is not None for step in result["per_step"]
    )
    ok = all(f == expect for f in flags) and witnesses_ok
    row = dict(trial=t, case=name, expect_gme=expect, per_step_gme=str(flags), ok=ok)
    return row, 0.0 if ok else -1.0


@dataclass(frozen=True)
class _Suite:
    trial: object  # (seed, samples, t) -> (row, margin)
    per_sample: int  # trials per sample
    samples: int  # the acceptance sample count, the default
    seed: int  # the acceptance seed, the default
    summary: object = None  # rows -> the summary dict, when the suite has one


_SUITES = {
    "theorem1": _Suite(_theorem1_trial, 2, 50, 11),
    "theorem2": _Suite(_theorem2_trial, 1, 200, 7),
    "theorem3": _Suite(_theorem3_trial, len(_THEOREM3_CASES), 5, 17),
    "locc-undo": _Suite(_locc_undo_trial, 6, 100, 5, _locc_undo_summary),
    "chain-monotone": _Suite(_chain_monotone_trial, 1, 50, 13),
    "pure-saturation": _Suite(_pure_saturation_trial, 1, 100, 3),
}
SUITE_NAMES = tuple(_SUITES)


def run_suite(name, samples=None, seed=None):
    """Run suite ``name`` at ``samples`` and ``seed``, by default its acceptance ones.

    The rows are kept in trial order, a trial fails wherever its ``ok``
    column is false, and the worst margin is the least, NaN if any is NaN.
    """
    if name not in _SUITES:
        raise UsageError(f"unknown suite {name!r}; choose from {', '.join(SUITE_NAMES)}")
    suite = _SUITES[name]
    samples = suite.samples if samples is None else _integer(samples, "samples", UsageError, low=1)
    seed = suite.seed if seed is None else _integer(seed, "seed", UsageError, low=0)
    rows, margins = zip(*(suite.trial(seed, samples, t) for t in range(suite.per_sample * samples)))
    failures = sum(1 for r in rows if not r["ok"])
    summary = suite.summary(rows) if suite.summary else {}
    return SuiteResult(name, list(rows), failures, float(np.min(margins)), summary)
