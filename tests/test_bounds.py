import numpy as np
import pytest

from qbcommit import bounds, linalg
from qbcommit.bounds import (
    _gap_fun_grad,
    SCAN_CSV_HEADER,
    ScanBudgets,
    bounds_report,
    check_bounds,
    epsilon_delta_scan,
    kraus_gap,
    minimize_kraus_gap,
    payoff_floor,
    scan_to_csv,
)
from qbcommit.concealment import cb_lower_bound
from qbcommit.families import (
    FAMILY_REGISTRY,
    concealing_pair,
    decoy_protocol,
    dephasing_protocol,
    phase_flip_pair,
    random_protocol,
)
from qbcommit.fileio import jsonable
from qbcommit.optimize import CERTIFIED_WIDTH, SolverTrace, ascend_params
from qbcommit.protocol import align_families


def test_kraus_gap_phase_pair_identity():
    assert abs(kraus_gap(phase_flip_pair()) - 4.0) < 1e-12


def test_kraus_gap_phase_pair_scan():
    spec = phase_flip_pair()
    for theta in np.linspace(0.0, 2.0 * np.pi, 17):
        v = np.array([[np.exp(1j * theta)]])
        want = 2.0 + 2.0 * abs(np.cos(theta))
        assert abs(kraus_gap(spec, v) - want) < 1e-12


def test_kraus_gap_dephasing_identity():
    assert abs(kraus_gap(dephasing_protocol()) - 1.0) < 1e-12


def test_minimize_kraus_gap_phase_pair():
    res = minimize_kraus_gap(phase_flip_pair(), restarts=6, seed=0)
    assert abs(res.value - 2.0) < 1e-6
    assert res.unitary.shape == (1, 1)


def test_minimize_kraus_gap_concealing_hits_zero():
    for i in range(4):
        spec, _relating = concealing_pair(seed=200 + i, dim=2, cardinality=3)
        identity_gap = kraus_gap(spec)
        res = minimize_kraus_gap(spec, restarts=4, seed=1)
        assert res.value <= identity_gap + 1e-12
        assert res.value < 1e-10


def test_payoff_floor_values():
    assert payoff_floor(0.0) == 1.0
    assert abs(payoff_floor(1.0) - 0.25) < 1e-15
    assert payoff_floor(6.0) == 0.0


def test_check_bounds_dephasing_identity_cheat():
    chk = bounds_report(dephasing_protocol(), n_states=10, seed=0)["identity"]
    assert abs(chk.kraus_gap - 1.0) < 1e-12
    assert abs(chk.quarter_cb_lower - 0.25) < 1e-6
    assert abs(chk.half_sqrt_gap - 0.5) < 1e-12
    assert abs(chk.payoff_floor - 0.25) < 1e-12
    assert chk.min_sampled_payoff >= 0.25
    assert chk.concealment_margin >= 0.0
    assert chk.binding_margin >= 0.0
    assert chk.violations == []
    assert len(chk.sampled_payoffs) == 10


def test_check_bounds_reuses_supplied_lower_bound():
    chk = check_bounds(dephasing_protocol(), n_states=3, seed=0, cb_lower=1.0)
    assert chk.quarter_cb_lower == 0.25


def test_scan_decoy_closed_forms():
    budgets = ScanBudgets(
        cb_restarts=6, outer_restarts=2, outer_iters=30, inner_restarts=6
    )
    result = epsilon_delta_scan(
        FAMILY_REGISTRY["decoy"], [0, 1, 2, -1], budgets=budgets, seed=0
    )
    assert len(result.points) == 3
    assert len(result.skipped) == 1
    assert result.skipped[0][0] == -1
    assert "ValueError" in result.skipped[0][1]
    for k, pt in enumerate(result.points):
        assert pt.param == float(k)
        assert abs(pt.eps_lo - 0.5**k) < 1e-6
        assert abs(pt.eps_hi - 0.5**k) < 1e-9
        assert abs(pt.minimax - (1.0 - 0.75 * 0.5**k)) < 1e-4
        assert abs(pt.delta - (1.0 - pt.minimax)) < 1e-15
        assert pt.eps_lo <= pt.eps_hi + 1e-12
        assert pt.budget_outer == 2
        assert pt.budget_inner == 6
    # Weaker commitments should be harder to break: delta shrinks with k.
    deltas = [pt.delta for pt in result.points]
    assert deltas == sorted(deltas, reverse=True)


def test_scan_csv_layout_and_determinism():
    budgets = ScanBudgets(
        cb_restarts=4, outer_restarts=2, outer_iters=25, inner_restarts=4
    )
    a = epsilon_delta_scan(FAMILY_REGISTRY["decoy"], [0, 1], budgets=budgets, seed=7)
    b = epsilon_delta_scan(FAMILY_REGISTRY["decoy"], [0, 1], budgets=budgets, seed=7)
    csv_a = scan_to_csv(a)
    csv_b = scan_to_csv(b)
    assert csv_a == csv_b
    lines = csv_a.strip().split("\n")
    assert lines[0] == SCAN_CSV_HEADER
    assert len(lines) == 3
    first = lines[1].split(",")
    assert first[0] == "0.0"
    assert first[-1] == "7"
    assert first[-2] == "4"
    assert first[-3] == "2"
    assert csv_a.endswith("\n")


@pytest.mark.parametrize("seed", range(6))
def test_kraus_gap_equals_minimized_value(seed):
    # Both take the clamped top eigenvalue of the same one-row stack, so the
    # reported gap and the gap of the returned unitary agree bit for bit.
    spec = random_protocol(3, 3, 3, seed=seed)
    res = minimize_kraus_gap(spec)
    assert kraus_gap(spec, res.unitary) == res.value
    assert check_bounds(spec, cheat=res.unitary, n_states=1, cb_lower=0.0).kraus_gap == res.value


def test_minimize_kraus_gap_rejects_zero_restarts():
    with pytest.raises(ValueError, match="restarts must be at least 1"):
        minimize_kraus_gap(dephasing_protocol(), restarts=0)


def test_lockstep_retracts_once_per_round(monkeypatch):
    # One polar_factor call per round after the first, on the stack of that
    # round's trial points, not one call per trial point.
    rows, polar_rows = [], []
    make, polar = bounds._gap_fun_grad, linalg.polar_factor

    def counting_make(e0, e1):
        fun_grad = make(e0, e1)

        def counted(v):
            rows.append(len(v))
            return fun_grad(v)

        return counted

    def counting_polar(a):
        polar_rows.append(len(a))
        return polar(a)

    monkeypatch.setattr(bounds, "_gap_fun_grad", counting_make)
    monkeypatch.setattr(linalg, "polar_factor", counting_polar)
    res = minimize_kraus_gap(random_protocol(3, 3, 3, seed=1), restarts=6, seed=2)
    assert res.value - res.lower > CERTIFIED_WIDTH
    # rows[0] scores the identity and Procrustes starts, rows[1] is the
    # ascent's round 0 and evaluates its starts as given.
    assert rows[:2] == [2, 6]
    assert polar_rows == rows[2:]
    assert len(polar_rows) < sum(polar_rows)


def test_bounds_report_composes_the_public_checks():
    spec = random_protocol(3, 3, 3, seed=0)
    report = bounds_report(spec, restarts=2, n_states=3, seed=4, minimize=True)
    gap = minimize_kraus_gap(spec, seed=4)
    cb_lower = cb_lower_bound(spec, restarts=2, seed=4).value
    kwargs = dict(n_states=3, seed=4, cb_lower=cb_lower)
    composed = {
        "identity": check_bounds(spec, **kwargs),
        "minimized": check_bounds(spec, cheat=gap.unitary, **kwargs),
        "minimized_gap": gap.value,
        "minimized_gap_lower": gap.lower,
    }
    assert jsonable(report) == jsonable(composed)
    assert set(bounds_report(spec, restarts=2, n_states=3)) == {"identity"}


def test_gap_ascent_lockstep_matches_one_start_calls():
    # The starts minimize_kraus_gap builds: identity, Procrustes alignment,
    # then seeded random unitaries. The random protocol's trace certificate
    # does not close, so every start ascends.
    seed, restarts = 3, 6
    spec = random_protocol(3, 3, 3, np.random.default_rng(31))
    m = spec.cardinality
    unitaries = [np.eye(m), align_families(spec.bit0, spec.bit1)]
    for r in range(2, restarts):
        unitaries.append(linalg.random_unitary(m, linalg.spawn_rng(seed, 6, r)))
    fun_grad = _gap_fun_grad(spec.bit0.ops, spec.bit1.ops)

    def ascend(points):
        trace = SolverTrace(seed, restarts, 0, 1e-8, 200)
        return ascend_params(fun_grad, points, trace=trace, max_iter=200, tol=1e-8)

    together = ascend(unitaries)
    alone = [ascend([v])[0] for v in unitaries]
    assert len({it for _, _, it, _ in alone}) > 1
    for (v1, f1, it1, c1), (v2, f2, it2, c2) in zip(together, alone):
        assert v1.tobytes() == v2.tobytes()
        assert (f1, it1, c1) == (f2, it2, c2)

    # Reference reduction: start order, strict < keeps the earliest tie.
    best = None
    for ridx, (v, value, _, _) in enumerate(alone):
        if best is None or -value < best[0]:
            best = (-value, ridx, v)
    res = minimize_kraus_gap(spec, restarts=restarts, seed=seed)
    assert res.value - res.lower > CERTIFIED_WIDTH
    assert not any("skipped" in note for note in res.trace.notes)
    assert res.trace.values == [-value for _, value, _, _ in alone]
    assert res.trace.iterations == [it for _, _, it, _ in alone]
    assert res.trace.converged == [c for _, _, _, c in alone]
    assert res.trace.best_start == best[1]
    assert res.value == max(best[0], 0.0)
    assert res.unitary.tobytes() == best[2].tobytes()


@pytest.mark.parametrize(
    "spec, closed",
    [(decoy_protocol(2), 0.25), (dephasing_protocol(), 1.0), (concealing_pair(seed=7)[0], 0.0)],
    ids=["decoy-k2", "dephasing", "concealing"],
)
def test_trace_certificate_proves_start_optimal(spec, closed):
    # The top eigenvalue of the gap operator is degenerate at both starts of
    # decoy-k2 and dephasing, so no ascent step leaves them; the trace bound
    # shows that none needs to.
    res = minimize_kraus_gap(spec, restarts=6, seed=3)
    assert abs(res.value - closed) < 1e-12
    assert 0.0 <= res.value - res.lower <= CERTIFIED_WIDTH
    assert res.trace.iterations == [0, 0] and res.trace.line_search_failures == 0
    assert any("ascent skipped" in note for note in res.trace.notes)
    assert abs(kraus_gap(spec, res.unitary) - res.value) < 1e-12


def test_trace_certificate_met_only_after_ascent_on_phase_flip():
    # Tr(Z† I) = 0, so the Procrustes alignment is the identity, whose gap 4
    # (S = diag(0, 4)) is the largest any phase has. Every phase has trace 4,
    # so the bound is 2, which only the phases +-i reach: the certificate
    # cannot close at the starts, and the random restarts find those phases.
    res = minimize_kraus_gap(phase_flip_pair(), restarts=6, seed=3)
    assert abs(res.lower - 2.0) < 1e-12
    assert 0.0 <= res.value - res.lower <= 1e-6
    assert res.trace.values[:2] == [4.0, 4.0] and res.trace.best_start >= 2
    assert not any("skipped" in note for note in res.trace.notes)


@pytest.mark.parametrize("din", [2, 3, 4])
@pytest.mark.parametrize("m", [2, 3, 4])
def test_trace_lower_bound_holds_at_every_reindexing(din, m):
    spec = random_protocol(din, din, m, np.random.default_rng([41, din, m]))
    res = minimize_kraus_gap(spec, restarts=3, seed=din * m, max_iter=60)
    assert 0.0 <= res.lower <= res.value
    assert res.lower <= kraus_gap(spec, res.unitary)
    rng = linalg.spawn_rng(42, din, m)
    for _ in range(20):
        assert res.lower <= kraus_gap(spec, linalg.random_unitary(m, rng))


