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
from qbcommit.binding import minimax_cheat
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

    budgets = ScanBudgets(cb_restarts=1, outer_restarts=1, outer_iters=2, inner_restarts=1)
    with pytest.raises(TypeError, match="family bug"):
        epsilon_delta_scan(broken, [0.0, 1.0], budgets=budgets)


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
    # reported gap and the gap of the returned unitary on the padded protocol
    # agree bit for bit.
    spec = random_protocol(3, 3, 3, seed=seed)
    res = minimize_kraus_gap(spec)
    assert res.unitary.shape == (6, 6)
    assert kraus_gap(res.spec, res.unitary) == res.value
    assert check_bounds(res.spec, cheat=res.unitary, n_states=1, cb_lower=0.0).kraus_gap == res.value


def test_bounds_report_composes_the_public_checks():
    spec = random_protocol(3, 3, 3, seed=0)
    report = bounds_report(spec, restarts=2, n_states=3, seed=4, minimize=True)
    gap = minimize_kraus_gap(spec)
    cb_lower = analyze_concealment(spec, restarts=2, seed=4).cb_lower
    kwargs = dict(n_states=3, seed=4, cb_lower=cb_lower)
    composed = {
        "identity": check_bounds(spec, **kwargs),
        "minimized": check_bounds(gap.spec, cheat=gap.unitary, **kwargs),
        "minimized_gap": gap.value,
        "minimized_gap_lower": gap.lower,
    }
    assert jsonable(report) == jsonable(composed)
    assert set(bounds_report(spec, restarts=2, n_states=3)) == {"identity"}


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
    cb = analyze_concealment(spec, restarts=0)
    assert res.lower <= cb.cb_upper
    assert cb.cb_lower <= 2.0 * np.sqrt(res.value)


@pytest.mark.parametrize(
    "spec",
    PANEL + [random_protocol(d, d, m, np.random.default_rng([41, d, m])) for d in (2, 3, 4) for m in (2, 3, 4)],
    ids=[f"p{s}" for s in range(6)] + [f"din{d}-m{m}" for d in (2, 3, 4) for m in (2, 3, 4)],
)
def test_newton_bracket_certifies(spec):
    res = minimize_kraus_gap(spec)
    assert 0.0 <= res.lower <= res.value
    assert res.value - res.lower <= CERTIFIED_WIDTH
    assert res.trace.converged == [True] and res.trace.notes[0].startswith("certified at step")
    assert res.value == kraus_gap(res.spec, res.unitary)


def test_newton_bracket_certifies_at_thirty_two_labels():
    res = minimize_kraus_gap(random_protocol(2, 2, 32, seed=0))
    assert res.value - res.lower <= CERTIFIED_WIDTH
    assert res.trace.converged == [True] and res.trace.iterations[0] < GAP_STEPS


def test_iterate_outside_the_domain_stops_with_a_valid_bracket(monkeypatch):
    # A step to ||C|| = 15 ends the loop at the next iterate; the bracket
    # kept so far stands.
    monkeypatch.setattr(bounds, "_newton_step", lambda *args: (np.full((3, 3), 10.0), 0.0, 1.0))
    res = minimize_kraus_gap(PANEL[0])
    assert res.trace.notes[0].startswith("step 3 left the domain")
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


@pytest.mark.parametrize("din, m", [(2, 3), (3, 2), (3, 4)])
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
        pairs, bounds._hermitian_basis(din), np.linalg.svd(c), half, n_w, tau - np.trace(w).real
    )
    want = _dense_newton_step(spec, c, t, tau)
    np.testing.assert_allclose(got[0], want[0], atol=1e-12)
    assert abs(got[1] - want[1]) < 1e-12 and abs(got[2] - want[2]) < 1e-12 * max(1.0, want[2])


def test_hermitian_basis_is_orthonormal():
    for d in (1, 2, 3, 4):
        basis = bounds._hermitian_basis(d)
        assert np.array_equal(basis, basis.conj().transpose(0, 2, 1))
        gram = np.einsum("kab,lab->kl", basis.conj(), basis)
        np.testing.assert_allclose(gram, np.eye(d * d), atol=1e-15)


BAD_TOLS = {"nan": float("nan"), "inf": float("inf"), "negative": -1.0}
TOL_ENTRY_POINTS = {
    "check_bounds": lambda spec, tol: check_bounds(spec, n_states=1, cb_lower=0.5, tol=tol),
    "bounds_report": lambda spec, tol: bounds_report(spec, restarts=0, n_states=1, tol=tol),
    "analyze_concealment": lambda spec, tol: analyze_concealment(spec, restarts=0, tol=tol),
    "minimax_cheat": lambda spec, tol: minimax_cheat(
        spec, outer_restarts=1, outer_iters=1, inner_restarts=1, tol=tol
    ),
    "epsilon_delta_scan": lambda spec, tol: epsilon_delta_scan(
        lambda _: spec, [0.0], budgets=ScanBudgets(1, 1, 1, 1, tol=tol)
    ),
}


@pytest.mark.parametrize("tol", BAD_TOLS.values(), ids=BAD_TOLS.keys())
@pytest.mark.parametrize("entry", TOL_ENTRY_POINTS.values(), ids=TOL_ENTRY_POINTS.keys())
def test_every_tolerance_entry_point_rejects_bad_tolerances(entry, tol):
    # A negative slack lists violations at positive margins and a NaN one
    # hides every violation, so neither is a tolerance.
    with pytest.raises(ValueError, match="finite, nonnegative"):
        entry(dephasing_protocol(), tol)
