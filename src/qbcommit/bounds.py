"""Inequalities tying concealment to binding, and the trade-off scan.

Both bounds pivot on the reindexed Kraus gap, the largest eigenvalue of the
positive operator S(V) = sum_J (E0_J(V) - E1_J)^dagger (E0_J(V) - E1_J). A
small gap for some reindexing V forces the two channels close in diamond norm (so Bob learns
little) and simultaneously hands Alice a cheat whose worst-case payoff is
large. The scan walks a protocol family and records both sides so the
trade-off curve can be plotted.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .binding import _payoffs, minimax_cheat
from .concealment import analyze_concealment, cb_lower_bound
from .optimize import CERTIFIED_WIDTH, SolverTrace, ascend_params
from .protocol import ProtocolSpec, _require_cheat, align_families, require_valid

BOUND_TOL = 1e-9


def _gap_operators(v: np.ndarray, e0: np.ndarray, e1: np.ndarray):
    """Branch differences sum_l v[r, j, l] e0_l - e1_j, stacked over j as
    ``(R, m * dout, din)``, and gap operators S_r = sum_j delta_rj† delta_rj
    of an ``(R, m, m)`` stack, each a matmul; no unitarity check."""
    m, dout, din = e0.shape
    delta = (v @ e0.reshape(m, -1)).reshape(len(v), m * dout, din) - e1.reshape(m * dout, din)
    return delta, delta.conj().swapaxes(-1, -2) @ delta


def kraus_gap_operator(spec: ProtocolSpec, cheat) -> np.ndarray:
    """Positive operator summing |bit0-reindexed-by-cheat minus bit1|² termwise.

    The squared-modulus convention is op†op, so the result is a positive
    semidefinite operator on the input space whose size bounds how far the
    reindexed bit-0 family sits from the bit-1 family.
    """
    require_valid(spec)
    cheat = _require_cheat(cheat, spec.cardinality)
    return _gap_operators(cheat[None], spec.bit0.ops, spec.bit1.ops)[1][0]


def _gap(spec: ProtocolSpec, cheat: np.ndarray) -> float:
    """Gap at one checked cheat, taken as a one-row stack the way the ascent
    takes it, so both give the same number for the same unitary."""
    _, s = _gap_operators(cheat[None], spec.bit0.ops, spec.bit1.ops)
    return max(float(linalg.eigh_or_error(s)[0][0, -1]), 0.0)


def kraus_gap(spec: ProtocolSpec, cheat=None) -> float:
    """Largest eigenvalue of the gap operator S at ``cheat`` (the identity by
    default), clamped at 0: the number ``minimize_kraus_gap`` reports for the
    same unitary."""
    require_valid(spec)
    if cheat is None:
        cheat = np.eye(spec.cardinality)
    return _gap(spec, _require_cheat(cheat, spec.cardinality))


@dataclass
class GapResult:
    """Outcome of minimizing the Kraus gap over reindexings.

    ``lower`` is a certified lower bound on the gap at every reindexing,
    Tr S(P) / dim_in at the Procrustes alignment P, rounded down for
    round-off; ``value`` is the gap the returned ``unitary`` achieves.
    """

    value: float
    lower: float
    unitary: np.ndarray
    trace: SolverTrace


def _gap_fun_grad(e0: np.ndarray, e1: np.ndarray):
    """Batched ascent objective: minus the Kraus gap of each unitary in an
    ``(R, m, m)`` stack and its gradient d / d conj(V), both from one
    eigendecomposition of the row's gap operator S."""
    m, dout, din = e0.shape
    e0_rows = e0.reshape(m * dout, din)

    def fun_grad(v):
        delta, s = _gap_operators(v, e0, e1)
        vals, vecs = linalg.eigh_or_error(s)
        top = vecs[:, :, -1:]
        # d lambda / d conj(V)_jl = <E0_l u, delta_j u> for the top eigenvector u.
        du = (delta @ top).reshape(len(v), m, dout)
        eu = (e0_rows @ top).reshape(len(v), m, dout)
        return -vals[:, -1], -(du @ eu.conj().swapaxes(-1, -2))

    return fun_grad


def _trace_lower_bound(e0: np.ndarray, e1: np.ndarray) -> float:
    """Certified lower bound on the Kraus gap over all unitary reindexings.

    For unitary U the reindexed family keeps sum_J E0_J(U)† E0_J(U), so
    Tr S(U) = |E0|² + |E1|² - 2 Re Tr(U† N), Frobenius norms, with
    N_Jl = Tr(E0_l† E1_J), and the Procrustes alignment minimizes it at
    |E0|² + |E1|² - 2 |N|_1. The top eigenvalue is at least the mean, so
    every gap is at least that minimum over dim_in. No completeness is
    assumed. Every sum has at most n = m dim_in dim_out terms, N's nuclear
    norm comes from a backward-stable SVD, and |N|_1 <= (|E0|² + |E1|²) / 2,
    so the computed trace errs by about 2 n eps (|E0|² + |E1|²); twice that
    is subtracted, so round-off never puts the bound above the true one.
    """
    m, dout, din = e0.shape
    scale = np.vdot(e0, e0).real + np.vdot(e1, e1).real
    overlap = np.einsum("jab,lab->jl", e1.conj(), e0)
    trace = scale - 2.0 * linalg.trace_norm(overlap)
    allowance = 4.0 * m * din * dout * np.finfo(float).eps * scale
    return max(0.0, float(trace - allowance) / din)


def minimize_kraus_gap(
    spec: ProtocolSpec,
    restarts: int = 8,
    seed: int = 0,
    tol: float = 1e-8,
    max_iter: int = 200,
) -> GapResult:
    """Search for the reindexing that brings the two families closest.

    The identity and the Procrustes alignment of the families are scored
    first, in one call. When the better of them lies within
    ``CERTIFIED_WIDTH`` of the trace bound ``GapResult.lower``, no
    reindexing can do better by more than that, so it is returned (the
    earlier start on a tie) with a note saying the ascent was skipped.
    Otherwise gradient descent on the unitary group runs from both and from
    seeded random unitaries, all starts in lockstep. The descent is
    monotone from each start, so the result never exceeds the identity gap.
    """
    require_valid(spec)
    if restarts < 1:
        raise ValueError(f"restarts must be at least 1, got {restarts}")
    m = spec.cardinality
    e0, e1 = spec.bit0.ops, spec.bit1.ops
    fun_grad = _gap_fun_grad(e0, e1)
    lower = _trace_lower_bound(e0, e1)
    starts = [np.eye(m, dtype=complex), align_families(spec.bit0, spec.bit1)][:restarts]
    checked = linalg.require_unitary(np.array(starts), tol=linalg.UNITARY_CONSTRUCTION_TOL)
    gaps = (-fun_grad(checked)[0]).tolist()
    width = min(gaps) - lower
    certified = width <= CERTIFIED_WIDTH

    trace = SolverTrace(
        seed=int(seed),
        restarts=len(starts) if certified else int(restarts),
        extra_starts=0,
        tol=float(tol),
        max_iter=int(max_iter),
    )
    trace.notes.append("start 0: identity, start 1: Procrustes alignment")
    if certified:
        trace.notes.append(
            f"trace certificate closes: gap - lower {width!r} <= "
            f"CERTIFIED_WIDTH {CERTIFIED_WIDTH!r}; ascent skipped"
        )
        iterations, converged = [0] * len(starts), [True] * len(starts)
    else:
        starts += [
            linalg.random_unitary(m, linalg.spawn_rng(seed, 6, r)) for r in range(2, restarts)
        ]
        results = ascend_params(fun_grad, starts, trace=trace, max_iter=max_iter, tol=tol)
        starts, values, iterations, converged = zip(*results)
        gaps = [-value for value in values]
    best = trace.record(gaps, iterations, converged, maximize=False)
    return GapResult(
        value=max(trace.values[best], 0.0), lower=lower, unitary=starts[best], trace=trace
    )


@dataclass
class BoundCheck:
    """One protocol, one reindexing: both inequalities and their margins.

    ``concealment_margin`` is half the square root of the gap minus a quarter
    of the norm's lower bound; ``binding_margin`` is the smallest sampled
    payoff minus the clamped payoff floor (1 - gap/2)^2. Nonnegative margins
    mean the inequalities held; any violation carries its full inputs.
    """

    label: str
    kraus_gap: float
    quarter_cb_lower: float
    half_sqrt_gap: float
    concealment_margin: float
    payoff_floor: float
    min_sampled_payoff: float
    binding_margin: float
    sampled_payoffs: list
    violations: list
    seed: int
    tol: float
    cheat_unitary: np.ndarray


def payoff_floor(gap: float) -> float:
    """Guaranteed worst-case payoff for the cheat realizing the given gap."""
    return max(0.0, 1.0 - gap / 2.0) ** 2


def check_bounds(
    spec: ProtocolSpec,
    cheat=None,
    n_states: int = 10,
    seed: int = 0,
    cb_lower: float | None = None,
    cb_restarts: int = 8,
    tol: float = BOUND_TOL,
) -> BoundCheck:
    """Test both inequalities on one protocol at one reindexing.

    The concealment side compares a quarter of the achieved norm lower bound
    against half the square root of the gap. The binding side evaluates
    Alice's payoff for the gap's own cheat on seeded random states and
    compares each against the payoff floor. Pass ``cb_lower`` to reuse an
    already computed norm bound.
    """
    require_valid(spec)
    if cheat is None:
        cheat = np.eye(spec.cardinality)
    cheat = _require_cheat(cheat, spec.cardinality)
    gap = _gap(spec, cheat)
    if cb_lower is None:
        cb_lower = cb_lower_bound(spec, cb_restarts, seed).value
    quarter = cb_lower / 4.0
    half_sqrt = 0.5 * float(np.sqrt(gap))
    floor = payoff_floor(gap)

    phis = np.array(
        [linalg.random_state(spec.dim_in, linalg.spawn_rng(seed, 5, i)) for i in range(n_states)]
    ).reshape(n_states, spec.dim_in)
    payoffs = _payoffs(spec.bit0.ops, spec.bit1.ops, cheat, phis).tolist()
    violations = []
    for i, (phi, p) in enumerate(zip(phis, payoffs)):
        if p < floor - tol:
            violations.append(
                {
                    "kind": "binding",
                    "label": spec.label,
                    "state_index": i,
                    "state": phi,
                    "payoff": p,
                    "floor": floor,
                    "kraus_gap": gap,
                    "cheat_unitary": cheat,
                    "seed": seed,
                }
            )
    if quarter > half_sqrt + tol:
        violations.append(
            {
                "kind": "concealment",
                "label": spec.label,
                "quarter_cb_lower": quarter,
                "half_sqrt_gap": half_sqrt,
                "kraus_gap": gap,
                "cheat_unitary": cheat,
                "seed": seed,
            }
        )

    return BoundCheck(
        label=spec.label,
        kraus_gap=float(gap),
        quarter_cb_lower=float(quarter),
        half_sqrt_gap=float(half_sqrt),
        concealment_margin=float(half_sqrt - quarter),
        payoff_floor=float(floor),
        min_sampled_payoff=float(min(payoffs)) if payoffs else float("nan"),
        binding_margin=float(min(payoffs) - floor) if payoffs else float("nan"),
        sampled_payoffs=payoffs,
        violations=violations,
        seed=int(seed),
        tol=float(tol),
        cheat_unitary=cheat,
    )


def bounds_report(
    spec: ProtocolSpec,
    restarts: int = 8,
    n_states: int = 10,
    seed: int = 0,
    tol: float = BOUND_TOL,
    minimize: bool = False,
) -> dict:
    """Both inequalities at the identity reindexing and, with ``minimize``,
    at the gap-minimizing one: the ``qbcommit bounds`` report.

    One norm search (``cb_lower_bound`` with ``restarts``) serves both
    checks, since the norm does not depend on the reindexing. Returns
    {"identity": BoundCheck} and, with ``minimize``, also "minimized" (the
    ``check_bounds`` at ``minimize_kraus_gap``'s unitary), "minimized_gap"
    and "minimized_gap_lower" (its ``value`` and ``lower``).
    """
    cb_lower = cb_lower_bound(spec, restarts, seed).value
    report = {"identity": check_bounds(spec, None, n_states, seed, cb_lower, tol=tol)}
    if minimize:
        gap_min = minimize_kraus_gap(spec, seed=seed)
        report["minimized"] = check_bounds(spec, gap_min.unitary, n_states, seed, cb_lower, tol=tol)
        report["minimized_gap"] = gap_min.value
        report["minimized_gap_lower"] = gap_min.lower
    return report


@dataclass
class ScanBudgets:
    """Solver budgets for one scan point; scans favor speed over polish."""

    cb_restarts: int = 8
    outer_restarts: int = 4
    outer_iters: int = 80
    inner_restarts: int = 8
    tol: float = 1e-7


@dataclass
class EpsilonDeltaPoint:
    """One protocol on the trade-off curve.

    ``eps_lo`` and ``eps_hi`` bracket the norm distinguishing the two
    channels; ``delta`` is one minus Alice's achieved worst-case payoff, so
    small delta means the protocol is close to unbinding.
    """

    param: float
    eps_lo: float
    eps_hi: float
    epsilon: float
    width: float
    delta: float
    minimax: float
    budget_outer: int
    budget_inner: int
    seed: int


@dataclass
class ScanResult:
    label: str
    points: list
    skipped: list
    seed: int
    budgets: ScanBudgets


SCAN_CSV_HEADER = "param,eps_lo,eps_hi,delta,minimax,budget_outer,budget_inner,seed"


def epsilon_delta_scan(
    family,
    params,
    budgets: ScanBudgets | None = None,
    seed: int = 0,
    label: str | None = None,
) -> ScanResult:
    """Walk a one-parameter protocol family and record both cheat sides.

    ``family`` maps a parameter value to a protocol. Parameters whose
    protocol fails to build or validate are recorded as skipped with the
    reason instead of aborting the scan. The norm bracket is
    ``analyze_concealment``'s and the estimate is ``minimax_cheat``'s in
    direction "01", so an inverted bracket raises ``BracketInversionError``
    as it does for a single protocol.
    """
    if budgets is None:
        budgets = ScanBudgets()
    points = []
    skipped = []
    for param in params:
        try:
            spec = family(param)
            require_valid(spec)
        except Exception as exc:
            skipped.append((param, f"{type(exc).__name__}: {exc}"))
            continue
        conceal = analyze_concealment(spec, budgets.cb_restarts, seed, budgets.tol)
        lo, hi = conceal.cb_lower, conceal.cb_upper
        binding = minimax_cheat(
            spec,
            "01",
            budgets.outer_restarts,
            budgets.outer_iters,
            budgets.inner_restarts,
            seed,
            budgets.tol,
            include_swapped=False,
        )
        est = binding.minimax_estimate
        points.append(
            EpsilonDeltaPoint(
                param=float(param),
                eps_lo=float(lo),
                eps_hi=float(hi),
                epsilon=float((lo + hi) / 2.0),
                width=float(hi - lo),
                delta=float(max(0.0, 1.0 - est)),
                minimax=float(est),
                budget_outer=int(budgets.outer_restarts),
                budget_inner=int(budgets.inner_restarts),
                seed=int(seed),
            )
        )
    return ScanResult(
        label=label if label is not None else "scan",
        points=points,
        skipped=skipped,
        seed=int(seed),
        budgets=budgets,
    )


def _csv_number(x) -> str:
    if isinstance(x, (int, np.integer)) and not isinstance(x, bool):
        return str(int(x))
    return repr(float(x))


def scan_to_csv(result: ScanResult) -> str:
    """Deterministic CSV rendering of a scan, one row per point."""
    lines = [SCAN_CSV_HEADER]
    for pt in result.points:
        lines.append(
            ",".join(
                [
                    _csv_number(pt.param),
                    _csv_number(pt.eps_lo),
                    _csv_number(pt.eps_hi),
                    _csv_number(pt.delta),
                    _csv_number(pt.minimax),
                    str(pt.budget_outer),
                    str(pt.budget_inner),
                    str(pt.seed),
                ]
            )
        )
    return "\n".join(lines) + "\n"
