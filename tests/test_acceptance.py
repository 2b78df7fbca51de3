"""Acceptance gate: the shipped numerical claims at their contract sizes.

Each test prints one pass/fail line.  The theorem2 ensemble is shared by
the first two criteria.  Where a claim needs an independent oracle, it comes
from ``bench/oracles.py`` (partial-transpose spectra, the pre-measurement
negativity) or ``tests/dense_oracles.py`` (the reduced purity of every cut);
nothing here reads ``qcorr.linalg``.  The exhaustive Bloch grid reads the
one-qubit negativity in closed form and is checked against the dense oracle.
"""

import numpy as np
import pytest

import oracles
from dense_oracles import cut_purities
from qcorr.chain import chain_gme_propagation
from qcorr.entanglement import BipartitionCut, negativity
from qcorr.quantumness import OptimizerConfig, q_negativity
from qcorr.states import (
    LabeledState,
    Register,
    classical_quantum_state,
    computational_basis,
    default_register,
    ghz_state,
    make_rng,
    pure_state,
    random_unitary,
    w_state,
    werner_state,
)
from qcorr.suites import (
    run_chain_monotone,
    run_locc_undo,
    run_pure_saturation,
    run_theorem1,
    run_theorem2,
)


def report(n, ok, detail):
    print(f"criterion {n}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {n}: {detail}"


@pytest.fixture(scope="module")
def theorem2_result():
    return run_theorem2(samples=200, seed=7)


def test_criterion_01_quantumness_dominates_entanglement(theorem2_result):
    # q^(A) >= N(A:B) - 1e-9 and q^(AB) >= N(A:B) - 1e-9 on 200 mixed states
    rows = theorem2_result.trials
    worst_a = min(r["margin_a"] for r in rows)
    worst_ab = min(r["margin_ab"] for r in rows)
    ok = len(rows) == 200 and worst_a >= -1e-9 and worst_ab >= -1e-9
    report(1, ok, f"200 states, worst q_A margin {worst_a:.3e}, "
                  f"worst q_AB margin {worst_ab:.3e} (tol -1e-9)")


def test_criterion_02_two_sided_dominates_one_sided(theorem2_result):
    # q^(AB) >= max(q^(A), q^(B)) - 1e-5 on the same ensemble, 24 restarts
    rows = theorem2_result.trials
    worst = min(r["margin_order"] for r in rows)
    ok = worst >= -1e-5
    report(2, ok, f"worst ordering margin {worst:.3e} (tol -1e-5)")


def test_theorem2_worst_margin_nonnegative_on_a_pass(theorem2_result):
    # trial 44 passes with margin_a below zero, within its 1e-9 tolerance
    result = theorem2_result
    assert result.ok
    assert min(row["margin_a"] for row in result.trials) < 0
    assert result.worst_margin >= 0


def test_criterion_03_pure_state_saturation():
    # 100 Haar pure two-qubit states: |q^(A) - N| <= 1e-5 and
    # |deficit^(A) - entropy of entanglement| <= 1e-5
    result = run_pure_saturation(samples=100, seed=3)
    gap_q = max(r["gap_negativity"] for r in result.trials)
    gap_d = max(r["gap_deficit"] for r in result.trials)
    ok = result.failures == 0
    report(3, ok, f"100 states, max |q-N| {gap_q:.3e}, "
                  f"max |deficit-E| {gap_d:.3e} (tol 1e-5)")


def test_criterion_04_classical_classification():
    # 50 constructed classical states -> cc with residual < 1e-7, 50
    # entangled states -> not cc; commutation oracle agrees on all 100
    result = run_theorem1(samples=50, seed=11)
    ok = result.failures == 0 and len(result.trials) == 100
    report(4, ok, f"100 states, {result.failures} misclassifications, "
                  f"worst residual margin {result.worst_margin:.3e}")


def test_criterion_05_locc_undo_and_monotonicity():
    # channel identity <= 1e-11 (trace distance and branch agreement) on
    # 100 states with d in {2,3}; monotonicity lhs >= rhs - 1e-9 on 500
    result = run_locc_undo(samples=100, seed=5)
    n_mono = sum(1 for r in result.trials if r["kind"] == "monotonicity")
    ok = result.failures == 0 and n_mono == 500
    report(5, ok, f"max trace distance {result.summary['max_trace_distance']:.3e} "
                  f"(tol 1e-11), worst monotonicity margin "
                  f"{result.summary['worst_monotonicity_margin']:.3e} over {n_mono} trials")


def test_criterion_06_chain_monotonicity():
    # 50 random 4-link chains: non-decreasing within 1e-9, flag-copy
    # constant within 1e-10, break cuts unchanged by later links
    result = run_chain_monotone(samples=50, seed=13)
    ok = result.failures == 0
    report(6, ok, f"50 chains, worst margin {result.worst_margin:.3e}")


def test_criterion_07_eigenbasis_criterion():
    # 50 nondegenerate qubit states: the eigenbasis creates no
    # entanglement (<= 1e-10); a basis rotated by >= 0.1 rad does (> 1e-6)
    rng = make_rng(23)
    reg = Register(("S",), (2,))
    cut = BipartitionCut((0,), (1,))
    worst_eig, worst_rot = 0.0, np.inf
    from qcorr.premeasure import MeasurementPlan, premeasure
    from qcorr.states import LocalBasis

    for _ in range(50):
        p = rng.uniform(0.05, 0.45)  # eigenvalue gap bounded away from zero
        u = random_unitary(2, rng)
        state = LabeledState(reg, u @ np.diag([p, 1 - p]).astype(complex) @ u.conj().T)
        e_eig = negativity(premeasure(state, MeasurementPlan(("S",), (LocalBasis("S", u),))), cut)
        angle = rng.uniform(0.1, np.pi / 4)
        rot = np.array([[np.cos(angle), np.sin(angle)], [-np.sin(angle), np.cos(angle)]])
        basis_rot = LocalBasis("S", u @ rot)
        e_rot = negativity(
            premeasure(state, MeasurementPlan(("S",), (basis_rot,))), cut
        )
        worst_eig = max(worst_eig, e_eig)
        worst_rot = min(worst_rot, e_rot)
    ok = worst_eig <= 1e-10 and worst_rot > 1e-6
    report(7, ok, f"50 states, max eigenbasis E {worst_eig:.3e} (tol 1e-10), "
                  f"min rotated-basis E {worst_rot:.3e} (> 1e-6)")


def test_criterion_08_gme_propagation():
    # GHZ(3) and W(3) stay genuinely multipartite entangled after 1 and 2
    # generic links (every cut's purity deficit > 1e-6); a Bell pair with a
    # product qubit stays non-GME with a witness cut at every step
    ok = True
    details = []
    for name, state, expect in (
        ("ghz3", ghz_state(3), True),
        ("w3", w_state(3), True),
        ("bell_x_0", pure_state(
            np.kron(np.array([1, 0, 0, 1]) / np.sqrt(2), [1.0, 0.0]),
            default_register(3)), False),
    ):
        for links in (1, 2):
            out = chain_gme_propagation(state, links, seed=29 + links)
            flags = [step["gme"] for step in out["per_step"]]
            ok = ok and all(f == expect for f in flags)
            if expect:
                deficit = 1.0 - max(cut_purities(out["final_state"]))
                ok = ok and deficit > 1e-6
                details.append(f"{name}/{links}: gme, min purity deficit {deficit:.2e}")
            else:
                ok = ok and all(step["witness"] is not None for step in out["per_step"])
                details.append(f"{name}/{links}: non-gme with witness")
    report(8, ok, "; ".join(details))


def test_criterion_09_werner_closed_form():
    # negativity of the Werner family equals max(0, (3p-1)/4); the oracle is
    # the dense partial-transpose spectrum of bench/oracles.py
    cut = BipartitionCut((0,), (1,))
    worst = 0.0
    for p in (0.0, 1 / 3, 0.5, 2 / 3, 1.0):
        state = werner_state(p)
        oracle = oracles.negativity(state.rho, [2, 2], [1])
        closed = max(0.0, (3 * p - 1) / 4)
        value = negativity(state, cut)
        worst = max(worst, abs(value - closed), abs(oracle - closed))
    ok = worst <= 1e-10
    report(9, ok, f"5 Werner points, worst |N - (3p-1)/4| {worst:.3e} (tol 1e-10)")


def bloch_bases(theta, phis):
    """Kets (u0, u1), each (n, 2), of the qubit bases at polar angle theta and azimuths phis."""
    e = np.exp(1j * phis)
    ct, st = np.full(phis.size, np.cos(theta), complex), np.sin(theta)
    return np.stack([ct, e * st], axis=1), np.stack([-np.conj(e) * st, ct], axis=1)


def sigma01_norms(rho, u0, u1):
    """||<u0|_B rho |u1>_B||_1 of a two-qubit rho for each row of u0, u1.

    Measuring qubit B in {u0, u1} leaves the system:apparatus negativity
    ||sigma_01||_1 (Nakano, Piani & Adesso, PRA 88, 012117, 2013); a 2x2
    matrix X has ||X||_1 = sqrt(||X||_F^2 + 2 |det X|).
    """
    r = rho.reshape(2, 2, 2, 2).transpose(1, 3, 0, 2).reshape(4, 4)
    x = (np.conj(u0)[:, :, None] * u1[:, None, :]).reshape(-1, 4) @ r
    fro2 = (np.abs(x) ** 2).sum(axis=1)
    det = np.abs(x[:, 0] * x[:, 3] - x[:, 1] * x[:, 2])
    return np.sqrt(fro2 + 2.0 * det)


def test_criterion_10_grid_oracle_gap():
    # q^(B) of the canonical separable-discordant state vs an exhaustive
    # two-angle Bloch grid (step 1e-3 rad) of ||sigma_01||_1, which matches
    # the dense pre-measurement oracle within 1e-12 at the grid argmin, the
    # optimizer's basis and 100 random bases
    plus = np.full((2, 2), 0.5, dtype=complex)
    zero = np.diag([1.0, 0.0]).astype(complex)
    state = classical_quantum_state(
        [0.5, 0.5], computational_basis("A", 2), [zero, plus]
    )
    rho = state.rho

    phis = np.arange(0.0, 2 * np.pi, 1e-3)
    thetas = np.arange(0.0, np.pi / 2 + 1e-3, 1e-3)
    grid_min, grid_argmin = np.inf, None
    for theta in thetas:
        row = sigma01_norms(rho, *bloch_bases(theta, phis))
        j = int(np.argmin(row))
        if row[j] < grid_min:
            grid_min, grid_argmin = float(row[j]), (theta, phis[j : j + 1])

    result = q_negativity(state, ("B",), OptimizerConfig(restarts=24, seed=0))
    rng = make_rng(37)
    bases = np.array([
        np.stack(bloch_bases(*grid_argmin), axis=2)[0],
        result.argmin_bases[0].vectors,
        *(random_unitary(2, rng) for _ in range(100)),
    ])
    closed = sigma01_norms(rho, bases[:, :, 0], bases[:, :, 1])
    dense = [oracles.q_negativity_at(rho, [2, 2], [1], [u]) for u in bases]
    worst = float(np.max(np.abs(closed - dense)))

    gap = abs(result.value - grid_min)
    ok = gap <= 1e-4 and worst <= 1e-12
    report(10, ok, f"grid min {grid_min:.10f} vs optimizer {result.value:.10f}, "
                   f"gap {gap:.3e} (tol 1e-4, {thetas.size * phis.size} grid points); "
                   f"closed form vs dense oracle {worst:.3e} at {len(bases)} bases (tol 1e-12)")
