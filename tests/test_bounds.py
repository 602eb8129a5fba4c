import dataclasses
import json

import numpy as np
import pytest

from qbcommit import bounds, linalg
from qbcommit.bounds import (
    GAP_STEPS,
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
from qbcommit.binding import alice_cheat_prob, minimax_cheat
from qbcommit.cli import render_report
from qbcommit.concealment import analyze_concealment
from qbcommit.families import (
    FAMILY_REGISTRY,
    concealing_pair,
    decoy_protocol,
    dephasing_protocol,
    identity_protocol,
    phase_flip_pair,
    random_protocol,
)
from qbcommit.fileio import jsonable
from qbcommit.optimize import CERTIFIED_WIDTH
from qbcommit.protocol import KrausFamily, ProtocolSpec, require_valid


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
    res = minimize_kraus_gap(phase_flip_pair())
    assert abs(res.value - 2.0) < 1e-6
    # The cheat is a 2m x 2m unitary on the protocol padded to 2m labels.
    assert res.unitary.shape == (2, 2)
    assert res.spec.cardinality == 2


def test_minimize_kraus_gap_concealing_hits_zero():
    for i in range(4):
        spec, _relating = concealing_pair(seed=200 + i, dim=2, cardinality=3)
        identity_gap = kraus_gap(spec)
        res = minimize_kraus_gap(spec)
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


SHARED_VIOLATION_KEYS = {"kind", "label", "kraus_gap", "cheat_unitary", "seed"}
KIND_VIOLATION_KEYS = {
    "concealment": {"quarter_cb_lower", "half_sqrt_gap"},
    "binding": {"state_index", "state", "payoff", "floor"},
}


@pytest.mark.parametrize("kind", ["concealment", "binding"])
def test_check_bounds_violations_render_with_the_shared_keys(kind, monkeypatch):
    # A quarter of 3.9 exceeds half the root of dephasing's unit gap; a floor
    # of 2 lies above every payoff, so each sampled state violates it.
    cb_lower = 3.9 if kind == "concealment" else 0.0
    if kind == "binding":
        monkeypatch.setattr(bounds, "payoff_floor", lambda gap: 2.0)
    spec = dephasing_protocol()
    chk = check_bounds(spec, n_states=5, seed=3, cb_lower=cb_lower)
    assert [v["kind"] for v in chk.violations] == [kind] * (1 if kind == "concealment" else 5)
    if kind == "binding":
        assert [v["state_index"] for v in chk.violations] == list(range(5))
        assert [v["payoff"] for v in chk.violations] == chk.sampled_payoffs
    cheat = jsonable(chk.cheat_unitary)
    structured = json.loads(render_report(chk, "structured"))["violations"]
    text = render_report(chk, "text")
    for v in structured:
        assert set(v) == SHARED_VIOLATION_KEYS | KIND_VIOLATION_KEYS[kind]
        assert (v["label"], v["kraus_gap"], v["cheat_unitary"], v["seed"]) == (
            spec.label,
            chk.kraus_gap,
            cheat,
            3,
        )
    assert text.count(f"    kind: {kind}\n") == len(structured)
    assert text.count(f"    label: {spec.label}\n") == len(structured)
    assert text.count(f"    kraus_gap: {chk.kraus_gap!r}\n") == len(structured)
    assert text.count("    seed: 3\n") == len(structured)


def test_scan_decoy_closed_forms():
    budgets = ScanBudgets(
        outer_restarts=2, outer_iters=30, inner_restarts=6
    )
    result = epsilon_delta_scan(
        FAMILY_REGISTRY["decoy"], [0, 1, 2, -1], budgets=budgets, seed=0
    )
    assert len(result.points) == 3
    assert len(result.skipped) == 1
    assert result.skipped[0][0] == -1
    assert "ValueError" in result.skipped[0][1]
    assert (result.budgets.outer_restarts, result.budgets.inner_restarts) == (2, 6)
    for k, pt in enumerate(result.points):
        assert pt.param == float(k)
        assert abs(pt.eps_lo - 0.5**k) < 1e-6
        assert abs(pt.eps_hi - 0.5**k) < 1e-9
        assert abs(pt.minimax - (1.0 - 0.75 * 0.5**k)) < 1e-4
        assert abs(pt.delta - (1.0 - pt.minimax)) < 1e-15
        assert pt.eps_lo <= pt.eps_hi + 1e-12
    # Weaker commitments should be harder to break: delta shrinks with k.
    deltas = [pt.delta for pt in result.points]
    assert deltas == sorted(deltas, reverse=True)


def test_scan_skips_rejected_parameters_but_not_bugs():
    # A parameter the family rejects is skipped: int(round(inf)) raises
    # OverflowError. Any other exception is a bug and ends the scan.
    result = epsilon_delta_scan(FAMILY_REGISTRY["decoy"], [float("inf")])
    assert result.points == []
    assert [reason.split(":")[0] for _, reason in result.skipped] == ["OverflowError"]

    def broken(param):
        if param == 1.0:
            raise TypeError("family bug")
        return decoy_protocol(0)

    budgets = ScanBudgets(outer_restarts=1, outer_iters=2, inner_restarts=1)
    with pytest.raises(TypeError, match="family bug"):
        epsilon_delta_scan(broken, [0.0, 1.0], budgets=budgets)


def test_scan_csv_layout_and_determinism():
    budgets = ScanBudgets(
        outer_restarts=2, outer_iters=25, inner_restarts=4
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
    # reported gap and the gap of the returned unitary on the padded protocol
    # agree bit for bit.
    spec = random_protocol(3, 3, 3, seed=seed)
    res = minimize_kraus_gap(spec)
    assert res.unitary.shape == (6, 6)
    assert kraus_gap(res.spec, res.unitary) == res.value
    assert check_bounds(res.spec, cheat=res.unitary, n_states=1, cb_lower=0.0).kraus_gap == res.value


def test_bounds_report_composes_the_public_checks():
    spec = random_protocol(3, 3, 3, seed=0)
    report = bounds_report(spec, n_states=3, seed=4, minimize=True)
    gap = minimize_kraus_gap(spec)
    cb_lower = analyze_concealment(spec).cb_lower
    kwargs = dict(n_states=3, seed=4, cb_lower=cb_lower)
    composed = {
        "identity": check_bounds(spec, **kwargs),
        "minimized": check_bounds(gap.spec, cheat=gap.unitary, **kwargs),
        "minimized_gap": gap.value,
        "minimized_gap_lower": gap.lower,
        "minimized_gap_trace": gap.trace,
    }
    assert jsonable(report) == jsonable(composed)
    assert set(bounds_report(spec, n_states=3)) == {"identity"}


def test_bounds_report_draws_its_sampled_states_once(monkeypatch):
    # Both checks sample the same states (the padded protocol keeps dim_in),
    # so one report draws them once.
    drawn = []
    draw = linalg.random_state

    def counting(*args):
        drawn.append(1)
        return draw(*args)

    monkeypatch.setattr(linalg, "random_state", counting)
    linalg._seeded_states.cache_clear()
    spec = random_protocol(3, 3, 3, seed=0)
    report = bounds_report(spec, n_states=4, seed=9, minimize=True)
    assert len(drawn) == 4
    assert report["identity"].violations == report["minimized"].violations == []


def test_bounds_report_flags_a_gap_lower_side_above_the_cb_norm(monkeypatch):
    # g* <= ||Phi1 - Phi0||_cb: a certified lower side on g* above cb_upper
    # is a violation of the left half of the sandwich.
    spec = random_protocol(3, 3, 3, seed=0)
    gap = minimize_kraus_gap(spec)
    norm = analyze_concealment(spec)
    low = dataclasses.replace(norm, cb_upper=gap.lower / 2.0)
    monkeypatch.setattr(bounds, "analyze_concealment", lambda *args: low)
    report = bounds_report(spec, n_states=3, seed=4, minimize=True)
    assert report["identity"].violations == []
    assert report["minimized"].violations == [
        {
            "kind": "gap_lower",
            "label": spec.label,
            "minimized_gap_lower": gap.lower,
            "cb_upper": gap.lower / 2.0,
            "seed": 4,
        }
    ]
    monkeypatch.setattr(bounds, "analyze_concealment", lambda *args: dataclasses.replace(norm, cb_upper=gap.lower))
    assert bounds_report(spec, n_states=3, seed=4, minimize=True)["minimized"].violations == []


@pytest.mark.parametrize(
    "spec, closed",
    [(decoy_protocol(2), 0.25), (dephasing_protocol(), 1.0), (concealing_pair(seed=7)[0], 0.0)],
    ids=["decoy-k2", "dephasing", "concealing"],
)
def test_trace_certificate_proves_start_optimal(spec, closed):
    # The first step's lower side is the gap's trace bound and its primal is
    # the Procrustes alignment; on these protocols the two already meet.
    res = minimize_kraus_gap(spec)
    assert abs(res.value - closed) < 1e-12
    assert 0.0 <= res.value - res.lower <= CERTIFIED_WIDTH
    assert res.trace.iterations == [1] and res.trace.converged == [True]
    assert res.trace.notes[0].startswith("certified at step 1:")
    assert abs(kraus_gap(res.spec, res.unitary) - res.value) < 1e-12


def test_trace_certificate_met_only_after_steps_on_phase_flip():
    # Tr(Z† I) = 0, so the Procrustes alignment is the identity, whose gap 4
    # (S = diag(0, 4)) is the largest any phase has. The trace bound is
    # already 2 at rho = I/2; the Newton start C = 0 dilates to the swap on
    # two labels, of gap 2, and certifies at step 2.
    res = minimize_kraus_gap(phase_flip_pair())
    assert abs(res.lower - 2.0) < 1e-12
    assert 0.0 <= res.value - res.lower <= CERTIFIED_WIDTH
    assert res.trace.iterations[0] > 1
    np.testing.assert_allclose(np.abs(res.unitary), [[0.0, 1.0], [1.0, 0.0]], atol=1e-12)


def _random_contraction(m, rng):
    a = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
    return rng.uniform(0.0, 1.0) * a / linalg.operator_norm(a)


@pytest.mark.parametrize("din", [2, 3, 4])
@pytest.mark.parametrize("m", [2, 3, 4])
def test_trace_lower_bound_holds_at_every_reindexing(din, m):
    # The lower side holds at every reindexing with any number of labels:
    # at m x m unitaries on the protocol, and at 2m x 2m Halmos dilations of
    # contractions on the protocol padded to 2m labels.
    spec = random_protocol(din, din, m, np.random.default_rng([41, din, m]))
    res = minimize_kraus_gap(spec)
    assert 0.0 <= res.lower <= res.value
    assert res.value == kraus_gap(res.spec, res.unitary)
    rng = linalg.spawn_rng(42, din, m)
    for _ in range(20):
        assert res.lower <= kraus_gap(spec, linalg.random_unitary(m, rng))
        dilation = bounds._halmos(_random_contraction(m, rng))
        assert res.lower <= kraus_gap(res.spec, dilation)


def test_halmos_dilation_is_unitary_with_the_contraction_in_its_corner():
    rng = linalg.spawn_rng(43)
    for c in [np.eye(3), np.zeros((3, 3)), _random_contraction(3, rng), linalg.random_unitary(3, rng)]:
        u = bounds._halmos(c)
        assert linalg.unitarity_residual(u) < 1e-14
        np.testing.assert_allclose(u[:3, :3], c, atol=1e-14)


def test_bracket_holds_where_the_unitary_minimum_exceeds_the_cb_norm():
    # The least gap over 2 x 2 unitaries here is about 2.035, above the cb
    # norm 1.873; the least gap over contractions lies below it.
    spec = random_protocol(3, 3, 2, seed=2)
    res = minimize_kraus_gap(spec)
    assert res.lower <= res.value <= analyze_concealment(spec).cb_upper


CLOSED_GAPS = {
    **{f"decoy-k{k}": (decoy_protocol(k), 0.5**k) for k in range(4)},
    "dephasing": (dephasing_protocol(), 1.0),
    "phase-flip": (phase_flip_pair(), 2.0),
    "concealing": (concealing_pair(seed=7)[0], 0.0),
    "identity": (identity_protocol(2), 0.0),
}


@pytest.mark.parametrize("spec, closed", CLOSED_GAPS.values(), ids=CLOSED_GAPS.keys())
def test_bracket_closes_on_the_closed_forms(spec, closed):
    res = minimize_kraus_gap(spec)
    assert res.lower <= closed + 1e-12 and abs(res.value - closed) < 1e-12
    assert res.value - res.lower <= CERTIFIED_WIDTH
    assert res.trace.converged == [True]


# The bounds-random benchmark panel: six random 3x3 protocols with m = 3.
PANEL = [random_protocol(3, 3, 3, np.random.default_rng([20020, 3, 3, s])) for s in range(6)]


@pytest.mark.parametrize("spec", PANEL, ids=[f"p{s}" for s in range(6)])
def test_lower_gap_is_below_the_cb_norm(spec):
    # Left half of the Kretschmann-Schlingemann-Werner sandwich:
    # g* <= ||Phi1 - Phi0||_cb <= 2 sqrt(g*).
    res = minimize_kraus_gap(spec)
    cb = analyze_concealment(spec)
    assert res.lower <= cb.cb_upper
    assert cb.cb_lower <= 2.0 * np.sqrt(res.value)


# Shapes beyond the square 2-4 dimensional ones: dout != din, one and five
# to eight labels, 5 x 5 and 6 x 6, where the fixed-tau start C = 0 lies
# farthest from the centre; and three draws that end uncertified when tau
# is raised past 10 nu / CERTIFIED_WIDTH: the 5 x 5 m4 one leaves the domain,
# the lower side of 6x2 m4 stalls until an iterate leaves the domain, and
# 2x5 m1 reaches a singular Woodbury solve.
WIDER = {
    **{
        f"{din}x{dout}-m{m}": random_protocol(din, dout, m, np.random.default_rng([41, din, dout, m]))
        for din, dout, m in [(2, 4, 2), (4, 2, 3), (3, 5, 2), (2, 3, 1), (3, 3, 5), (3, 2, 6), (5, 5, 3)]
        + [(4, 4, 8), (3, 9, 6), (6, 6, 4)]
    },
    "5x5-m4-11-4-1": random_protocol(5, 5, 4, np.random.default_rng([11, 4, 1])),
    "2x5-m1-2323": random_protocol(2, 5, 1, np.random.default_rng([2323, 2, 5, 1])),
    "6x2-m4-2323": random_protocol(6, 2, 4, np.random.default_rng([2323, 6, 2, 4, 2])),
}


@pytest.mark.parametrize(
    "spec",
    PANEL
    + [random_protocol(d, d, m, np.random.default_rng([41, d, m])) for d in (2, 3, 4) for m in (2, 3, 4)]
    + list(WIDER.values()),
    ids=[f"p{s}" for s in range(6)] + [f"din{d}-m{m}" for d in (2, 3, 4) for m in (2, 3, 4)] + list(WIDER),
)
def test_newton_bracket_certifies(spec):
    res = minimize_kraus_gap(spec)
    assert 0.0 <= res.lower <= res.value
    assert res.value - res.lower <= CERTIFIED_WIDTH
    assert res.trace.converged == [True] and res.trace.notes[0].startswith("certified at step")
    assert res.value == kraus_gap(res.spec, res.unitary)


def _overlap(a, b):
    return a[0] <= b[1] and b[0] <= a[1]


def _transformed(spec, transform):
    """``spec``'s label with each bit's operators from ``transform(bit name)``."""
    bit0, bit1 = (KrausFamily.from_ops(transform(bit)) for bit in ("bit0", "bit1"))
    return ProtocolSpec(label=spec.label, bit0=bit0, bit1=bit1)


def _flagged_mixture(weights, blocks):
    """Block s run with probability p_s and s written to a flag Bob receives:
    each bit's operators are sqrt(p_s) kron(K, e_s) over block s's K."""
    flags = np.eye(len(blocks))[:, :, None]
    return _transformed(
        blocks[0],
        lambda bit: [
            np.sqrt(p) * np.kron(k, flags[s])
            for s, (p, block) in enumerate(zip(weights, blocks))
            for k in getattr(block, bit).ops
        ],
    )


@pytest.mark.parametrize("s", range(4))
def test_flagged_mixture_scales_each_bracket_by_its_weight(s):
    # A committing block at p = 1/4 beside three identity blocks. The flags
    # keep the blocks apart: the cb norm of the difference is p times the
    # block's, the cross-block terms E1_j† E0_l vanish so that
    # S(C) = sum_s p_s S_s(C_ss) and g* is p times the block's, and the
    # identity blocks pass every claim. Whether mixing helps Alice's binding
    # estimate is open, so nothing is asserted about it.
    p = 0.25
    block = random_protocol(2, 2, 2, np.random.default_rng([99, s]))
    mix = _flagged_mixture([p] * 4, [block] + [identity_protocol(2)] * 3)
    cb_mix, cb_block = analyze_concealment(mix), analyze_concealment(block)
    assert _overlap((cb_mix.cb_lower, cb_mix.cb_upper), (p * cb_block.cb_lower, p * cb_block.cb_upper))
    gap_mix, gap_block = minimize_kraus_gap(mix), minimize_kraus_gap(block)
    assert _overlap((gap_mix.lower, gap_mix.value), (p * gap_block.lower, p * gap_block.value))
    rng = np.random.default_rng([99, s, 1])
    for _ in range(20):
        v, phi = linalg.random_unitary(2, rng), linalg.random_state(2, rng)
        cheat = np.eye(5, dtype=complex)
        cheat[:2, :2] = v
        mixed = alice_cheat_prob(mix, cheat, phi)
        assert abs(mixed - (p * alice_cheat_prob(block, v, phi) + 1 - p)) < 2e-15


def _measured_by_bob(spec, strength):
    """Both bits followed by Bob's two-outcome weak Z instrument on the
    output, outcome kept: A_j = sum_k |k> ⊗ M_k K_j = W K_j, with
    M_k = sqrt((I ± strength Z) / 2) and W the stacked M_k, an isometry."""
    z = (-1.0) ** np.arange(spec.dim_out)
    w = np.concatenate([np.diag(np.sqrt((1.0 + sign * strength * z) / 2.0)) for sign in (1.0, -1.0)])
    return _transformed(spec, lambda bit: w @ getattr(spec, bit).ops)


MEASURED = {
    "dephasing": (dephasing_protocol(), 0.25),
    "random-3x3-m3": (random_protocol(3, 3, 3, seed=1), None),
    "decoy-k2": (decoy_protocol(2), 0.8125),
}


@pytest.mark.parametrize("strength", [0.0, 0.5, 1.0])
@pytest.mark.parametrize("spec, closed", MEASURED.values(), ids=MEASURED.keys())
def test_bob_measuring_before_the_opening_changes_nothing(spec, closed, strength):
    # Bob's early measurement is an isometry W on the output, and every
    # solver reads the operators only through W†W = I.
    measured = _measured_by_bob(spec, strength)
    rng = np.random.default_rng([17, spec.dim_out, int(4 * strength)])
    for _ in range(20):
        v, phi = linalg.random_unitary(spec.cardinality, rng), linalg.random_state(spec.dim_in, rng)
        assert abs(alice_cheat_prob(measured, v, phi) - alice_cheat_prob(spec, v, phi)) < 2e-15
    assert abs(kraus_gap(measured) - kraus_gap(spec)) < 1e-13
    cb, cb_measured = analyze_concealment(spec), analyze_concealment(measured)
    assert _overlap((cb.cb_lower, cb.cb_upper), (cb_measured.cb_lower, cb_measured.cb_upper))
    gap, gap_measured = minimize_kraus_gap(spec), minimize_kraus_gap(measured)
    assert _overlap((gap.lower, gap.value), (gap_measured.lower, gap_measured.value))
    if closed is None:
        return
    rep = minimax_cheat(measured, seed=0)
    for r in (rep, rep.swapped):
        assert abs(r.minimax_estimate - closed) < 1e-12
        assert r.solver_trace.best_start == 0
        assert r.solver_trace.notes[-1].startswith("Procrustes start certified")


@pytest.mark.parametrize("spec", PANEL, ids=[f"p{s}" for s in range(6)])
def test_panel_certifies_within_twenty_four_steps(spec):
    # At the one barrier weight 10 nu / CERTIFIED_WIDTH the panel certifies
    # at steps 21-23; smaller weights before it only add centring steps.
    res = minimize_kraus_gap(spec)
    assert res.trace.converged == [True] and res.trace.iterations[0] <= 24


def test_newton_bracket_certifies_at_thirty_two_labels():
    res = minimize_kraus_gap(random_protocol(2, 2, 32, seed=0))
    assert res.value - res.lower <= CERTIFIED_WIDTH
    assert res.trace.converged == [True] and res.trace.iterations[0] < GAP_STEPS


@pytest.mark.parametrize("spec", [decoy_protocol(2), PANEL[0]], ids=["decoy-k2", "p0"])
def test_gap_trace_counts_its_eigh_calls(spec, monkeypatch):
    # decoy-k2 certifies at step 1; the panel protocol runs the Newton loop.
    calls = []
    eigh = linalg.eigh_or_error

    def counting(h):
        calls.append(1)
        return eigh(h)

    monkeypatch.setattr(linalg, "eigh_or_error", counting)
    res = minimize_kraus_gap(spec)
    assert res.trace.evaluations == len(calls)


@pytest.mark.parametrize("spec", [decoy_protocol(2), PANEL[0]], ids=["decoy-k2", "p0"])
def test_gap_loop_makes_one_svd_call_per_iterate(spec, monkeypatch):
    # Each Newton iterate decomposes C and N(X1^-1) in one batched call; the
    # fixed calls are step 1's N(rho), and the Halmos dilation's SVD and
    # its unitarity check. Validation's cached residuals are read first.
    require_valid(spec)
    calls = []
    svd = linalg.svd_or_error

    def counting(a, *args, **kwargs):
        calls.append(np.shape(a))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(linalg, "svd_or_error", counting)
    res = minimize_kraus_gap(spec)
    m = spec.cardinality
    assert len(calls) == res.trace.iterations[0] + 2
    assert calls[1:-2] == [(2, m, m)] * (res.trace.iterations[0] - 1)


def test_iterate_outside_the_domain_stops_with_a_valid_bracket(monkeypatch):
    # A step to ||C|| = 15 ends the loop at the next iterate; the bracket
    # kept so far stands.
    monkeypatch.setattr(bounds, "_newton_step", lambda *args: (np.full((3, 3), 10.0), 0.0, 1.0))
    res = minimize_kraus_gap(PANEL[0])
    assert res.trace.notes[0].startswith("step 3 left the domain")
    assert res.trace.converged == [False]
    assert 0.0 <= res.lower <= res.value == kraus_gap(res.spec, res.unitary)


def test_singular_newton_system_stops_with_a_valid_bracket(monkeypatch):
    # A Woodbury capacitance that round-off made singular ends the loop with
    # a note; the bracket kept so far stands.
    def singular(*args):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(bounds, "_newton_step", singular)
    res = minimize_kraus_gap(PANEL[0])
    assert res.trace.notes[0].startswith("step 2: Newton system singular")
    assert res.trace.converged == [False]
    assert 0.0 <= res.lower <= res.value == kraus_gap(res.spec, res.unitary)


def _dense_newton_step(spec, c, t, tau):
    """Reference Newton step of tau t - log det(tI - S(C)) - log det(I - C†C)
    from the gradient and the Hessian Tr(W D_v W D_w) of each log det,
    assembled over the 2m² + 1 real coordinates (Re C, Im C, t)."""
    e0, e1 = spec.bit0.ops, spec.bit1.ops
    m, _, din = e0.shape
    pairs = np.einsum("jab,lac->jlbc", e1.conj(), e0)
    k = np.einsum("jab,jac->bc", e0.conj(), e0) + np.einsum("jab,jac->bc", e1.conj(), e1)

    def y(c):
        return np.einsum("jl,jlbc->bc", c, pairs)

    x1 = t * np.eye(din) - k + y(c) + y(c).conj().T
    x2 = np.eye(m) - c.conj().T @ c
    w1, w2 = np.linalg.inv(x1), np.linalg.inv(x2)
    units = [np.zeros((m, m), dtype=complex) for _ in range(2 * m * m)]
    for i in range(m * m):
        units[i].flat[i], units[m * m + i].flat[i] = 1.0, 1j
    d1 = [y(u) + y(u).conj().T for u in units] + [np.eye(din)]
    d2 = [u.conj().T @ c + c.conj().T @ u for u in units] + [np.zeros((m, m))]
    units.append(np.zeros((m, m)))
    n = len(units)
    grad = np.array([np.trace(w2 @ d2[v]).real - np.trace(w1 @ d1[v]).real for v in range(n)])
    grad[-1] += tau
    hess = np.zeros((n, n))
    for v in range(n):
        for w in range(n):
            hess[v, w] = np.trace(w1 @ d1[v] @ w1 @ d1[w]).real + np.trace(w2 @ d2[v] @ w2 @ d2[w]).real
            hess[v, w] += np.trace(w2 @ (units[v].conj().T @ units[w] + units[w].conj().T @ units[v])).real
    x = np.linalg.solve(hess, -grad)
    return (x[: m * m] + 1j * x[m * m : -1]).reshape(m, m), x[-1], -grad @ x


@pytest.mark.parametrize("din, m", [(2, 3), (3, 2), (3, 4), (2, 1), (1, 3), (4, 2), (1, 1)])
def test_newton_step_matches_dense_hessian(din, m):
    spec = random_protocol(din, din, m, seed=9)
    rng = linalg.spawn_rng(44, din, m)
    c = 0.9 * _random_contraction(m, rng)
    e0, e1 = spec.bit0.ops, spec.bit1.ops
    pairs = np.einsum("jab,lac->jlbc", e1.conj(), e0).reshape(m * m, din * din)
    k = np.einsum("jab,jac->bc", e0.conj(), e0) + np.einsum("jab,jac->bc", e1.conj(), e1)
    y = (c.reshape(-1) @ pairs).reshape(din, din)
    gap_op = k - y - y.conj().T
    t, tau = np.linalg.eigvalsh(gap_op)[-1] + 0.3, 5.0
    lam, vecs = np.linalg.eigh(t * np.eye(din) - gap_op)
    w = np.linalg.inv(t * np.eye(din) - gap_op)
    n_w = (pairs @ w.T.reshape(-1)).reshape(m, m)
    half = vecs / np.sqrt(lam)
    got = bounds._newton_step(
        pairs, linalg.hermitian_basis(din), np.linalg.svd(c), half, n_w, tau - np.trace(w).real
    )
    want = _dense_newton_step(spec, c, t, tau)
    np.testing.assert_allclose(got[0], want[0], atol=1e-12)
    assert abs(got[1] - want[1]) < 1e-12 and abs(got[2] - want[2]) < 1e-12 * max(1.0, want[2])


def test_hermitian_basis_is_orthonormal():
    for d in (1, 2, 3, 4):
        basis = linalg.hermitian_basis(d)
        assert np.array_equal(basis, basis.conj().transpose(0, 2, 1))
        gram = np.einsum("kab,lab->kl", basis.conj(), basis)
        np.testing.assert_allclose(gram, np.eye(d * d), atol=1e-15)


BAD_TOLS = {"nan": float("nan"), "inf": float("inf"), "negative": -1.0}
TOL_ENTRY_POINTS = {
    "check_bounds": lambda spec, tol: check_bounds(spec, n_states=1, cb_lower=0.5, tol=tol),
    "bounds_report": lambda spec, tol: bounds_report(spec, n_states=1, tol=tol),
    "analyze_concealment": lambda spec, tol: analyze_concealment(spec, tol=tol),
    "minimax_cheat": lambda spec, tol: minimax_cheat(
        spec, outer_restarts=1, outer_iters=1, inner_restarts=1, tol=tol
    ),
    "epsilon_delta_scan": lambda spec, tol: epsilon_delta_scan(
        lambda _: spec, [0.0], budgets=ScanBudgets(1, 1, 1, tol=tol)
    ),
}


@pytest.mark.parametrize("tol", BAD_TOLS.values(), ids=BAD_TOLS.keys())
@pytest.mark.parametrize("entry", TOL_ENTRY_POINTS.values(), ids=TOL_ENTRY_POINTS.keys())
def test_every_tolerance_entry_point_rejects_bad_tolerances(entry, tol):
    # A negative slack lists violations at positive margins and a NaN one
    # hides every violation, so neither is a tolerance.
    with pytest.raises(ValueError, match="finite, nonnegative"):
        entry(dephasing_protocol(), tol)
