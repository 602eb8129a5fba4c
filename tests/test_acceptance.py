"""End-to-end checks, one per advertised guarantee, each summarized in one line.

Every test measures first, records a PASS or FAIL line with the observed
numbers through the shared collector, then asserts. The collected lines are
replayed after the run so the verdicts stay visible even with output capture.
"""

import time

import numpy as np

from qbcommit import linalg
from qbcommit.binding import alice_cheat_prob, minimax_cheat
from qbcommit.bounds import ScanBudgets, check_bounds, epsilon_delta_scan, scan_to_csv
from qbcommit.concealment import analyze_concealment, helstrom_prob
from qbcommit.families import (
    FAMILY_REGISTRY,
    dephasing_protocol,
    identity_protocol,
    phase_flip_pair,
    random_kraus_family,
    random_protocol,
)
from qbcommit.protocol import ProtocolSpec, apply_cheat_unitary, choi, dilate


def test_criterion_1_perfect_concealment_breaks_binding(criterion_log):
    t0 = time.perf_counter()
    worst_payoff = 1.0
    worst_bob = 0.5
    for i in range(20):
        rng = linalg.spawn_rng(80, i)
        m = 2 + (i % 2)
        bit0 = random_kraus_family(2, 2, m, rng)
        w = linalg.random_unitary(m, rng)
        spec = ProtocolSpec(
            label=f"hidden-reindex-{i}",
            bit0=bit0,
            bit1=apply_cheat_unitary(bit0, w),
        )
        rep = minimax_cheat(spec, seed=0, include_swapped=False)
        conceal = analyze_concealment(spec, restarts=8, seed=0)
        worst_payoff = min(worst_payoff, rep.minimax_estimate)
        worst_bob = max(worst_bob, conceal.bob_cheat_upper)
    elapsed = time.perf_counter() - t0
    ok = worst_payoff >= 0.999 and worst_bob <= 0.5 + 1e-6 and elapsed < 300.0
    criterion_log(
        f"criterion-1 {'PASS' if ok else 'FAIL'}: 20 reindexed pairs, "
        f"min cheat payoff {worst_payoff:.12f}, max Bob bound {worst_bob:.9f}, "
        f"{elapsed:.1f}s"
    )
    assert worst_payoff >= 0.999
    assert worst_bob <= 0.5 + 1e-6
    assert elapsed < 300.0


def test_criterion_2_inequalities_random_campaign(criterion_log):
    total_checks = 0
    violations = []
    for i in range(100):
        rng = linalg.spawn_rng(81, i)
        din = int(rng.integers(2, 4))
        dout = int(rng.integers(2, 4))
        m = int(rng.integers(2, 4))
        spec = random_protocol(din, dout, m, seed=rng, label=f"campaign-{i}")
        lo = analyze_concealment(spec, restarts=8, seed=i).cb_lower
        cheats = [np.eye(m, dtype=complex)] + [
            linalg.random_unitary(m, rng) for _ in range(4)
        ]
        for v in cheats:
            chk = check_bounds(
                spec, cheat=v, n_states=10, seed=i, cb_lower=lo, tol=1e-9
            )
            violations.extend(chk.violations)
            total_checks += 1
    ok = not violations
    criterion_log(
        f"criterion-2 {'PASS' if ok else 'FAIL'}: 100 protocols x 5 reindexings "
        f"x 10 states, {len(violations)} violations at 1e-9 "
        f"({total_checks} inequality checks)"
    )
    assert violations == []


def test_criterion_3_bracket_analytic_cases(criterion_log):
    flip = analyze_concealment(phase_flip_pair(), restarts=8, seed=0)
    same = analyze_concealment(identity_protocol(2), restarts=8, seed=0)
    deph = analyze_concealment(dephasing_protocol(), restarts=16, seed=0)
    flip_ok = (
        flip.cb_lower <= 2.0 <= flip.cb_upper
        and flip.cb_upper - flip.cb_lower <= 1e-4
    )
    same_ok = same.cb_lower == 0.0 and same.cb_upper <= 1e-8
    deph_ok = deph.cb_lower >= 1.0 - 1e-6
    ok = flip_ok and same_ok and deph_ok
    criterion_log(
        f"criterion-3 {'PASS' if ok else 'FAIL'}: phase bracket "
        f"[{flip.cb_lower:.9f}, {flip.cb_upper:.9f}], identity "
        f"[{same.cb_lower:.1e}, {same.cb_upper:.1e}], measured-basis lower "
        f"{deph.cb_lower:.9f}"
    )
    assert flip_ok
    assert same_ok
    assert deph_ok


def test_criterion_4_helstrom_capped_by_bracket(criterion_log):
    checked = 0
    worst_slack = np.inf
    failures = 0
    for i in range(30):
        rng = linalg.spawn_rng(82, i)
        din = int(rng.integers(2, 4))
        dout = int(rng.integers(2, 4))
        m = int(rng.integers(2, 4))
        spec = random_protocol(din, dout, m, seed=rng)
        conceal = analyze_concealment(spec, restarts=4, seed=i)
        witness, upper = conceal.witness_state, conceal.cb_upper
        cap = 0.5 + 0.25 * upper + 1e-8
        states = [witness] + [
            linalg.random_state(din * din, rng) for _ in range(10)
        ]
        for psi in states:
            p = helstrom_prob(spec, psi)
            worst_slack = min(worst_slack, cap - p)
            failures += p > cap
            checked += 1
    ok = failures == 0
    criterion_log(
        f"criterion-4 {'PASS' if ok else 'FAIL'}: {checked} extended inputs, "
        f"{failures} above 1/2 + upper/4, smallest slack {worst_slack:.3e}"
    )
    assert failures == 0


def test_criterion_5_payoff_matches_independent_sum(criterion_log):
    def loop_reference(spec, cheat, phi):
        total = 0.0
        for j in range(spec.cardinality):
            eff = sum(
                cheat[j, l] * spec.bit0.ops[l] for l in range(spec.cardinality)
            )
            u = eff @ phi
            w = spec.bit1.ops[j] @ phi
            d = float(np.real(np.vdot(w, w)))
            if d <= 1e-14:
                continue
            total += abs(np.vdot(u, w)) ** 2 / d
        return total

    worst = 0.0
    for i in range(1000):
        rng = linalg.spawn_rng(83, i)
        din = int(rng.integers(2, 4))
        dout = int(rng.integers(2, 4))
        m = int(rng.integers(2, 4))
        spec = random_protocol(din, dout, m, seed=rng)
        v = linalg.random_unitary(m, rng)
        phi = linalg.random_state(din, rng)
        worst = max(worst, abs(alice_cheat_prob(spec, v, phi) - loop_reference(spec, v, phi)))
    hand = alice_cheat_prob(dephasing_protocol(), np.eye(2), np.array([1.0, 0.0]))
    ok = worst <= 1e-12 and abs(hand - 0.5) < 1e-12
    criterion_log(
        f"criterion-5 {'PASS' if ok else 'FAIL'}: 1000 triples, max deviation "
        f"{worst:.3e} from term-by-term sum, hand value {hand!r}"
    )
    assert worst <= 1e-12
    assert abs(hand - 0.5) < 1e-12


def test_criterion_6_dilation_round_trip(criterion_log):
    def dilation_choi(dil):
        c = np.zeros(
            (dil.dim_in * dil.dim_out, dil.dim_in * dil.dim_out), dtype=complex
        )
        for k in range(dil.dim_in):
            for l in range(dil.dim_in):
                unit = np.zeros((dil.dim_in, dil.dim_in), dtype=complex)
                unit[k, l] = 1.0
                block = dil.apply(unit)
                c[
                    k * dil.dim_out : (k + 1) * dil.dim_out,
                    l * dil.dim_out : (l + 1) * dil.dim_out,
                ] = block
        return c

    worst = 0.0
    for i in range(100):
        rng = linalg.spawn_rng(84, i)
        din = int(rng.integers(2, 5))
        dout = int(rng.integers(2, 5))
        m = 1 if i % 9 == 0 and dout >= din else int(rng.integers(2, 5))
        fam = random_kraus_family(din, dout, m, rng)
        dil = dilate(fam)
        err = float(np.linalg.norm(choi(fam) - dilation_choi(dil)))
        worst = max(worst, err)
    ok = worst <= 1e-9
    criterion_log(
        f"criterion-6 {'PASS' if ok else 'FAIL'}: 100 dilations rebuilt, "
        f"max Choi distance {worst:.3e}"
    )
    assert worst <= 1e-9


def test_criterion_7_scan_determinism_and_shape(criterion_log):
    budgets = ScanBudgets(
        cb_restarts=6, outer_restarts=2, outer_iters=30, inner_restarts=6
    )
    runs = [
        epsilon_delta_scan(
            FAMILY_REGISTRY["decoy"], [0, 1, 2, 3], budgets=budgets, seed=0
        )
        for _ in range(2)
    ]
    csv_a, csv_b = (scan_to_csv(r) for r in runs)
    rows = csv_a.strip().split("\n")[1:]
    pts = runs[0].points
    monotone = all(
        pts[k + 1].eps_lo <= pts[k].eps_hi + 1e-9
        and pts[k + 1].eps_hi <= pts[k].eps_hi + 1e-9
        for k in range(len(pts) - 1)
    )
    ok = csv_a == csv_b and len(rows) == 4 and monotone
    criterion_log(
        f"criterion-7 {'PASS' if ok else 'FAIL'}: scan rows {len(rows)}, "
        f"byte-identical reruns {csv_a == csv_b}, bracket columns "
        f"nonincreasing {monotone}"
    )
    assert csv_a == csv_b
    assert len(rows) == 4
    assert monotone
