"""Inequalities tying concealment to binding, and the trade-off scan.

Both bounds pivot on the reindexed Kraus gap, the largest eigenvalue of the
positive operator S(V) = sum_J (E0_J(V) - E1_J)^dagger (E0_J(V) - E1_J). A
small gap for some reindexing V forces the two channels close in diamond norm (so Bob learns
little) and simultaneously hands Alice a cheat whose worst-case payoff is
large. On the families zero-padded to 2m labels, S(V) = K0 + K1 - 2 Herm
sum_jl C_jl E1_j^dagger E0_l, K_b = sum_j E_b_j^dagger E_b_j, for V's
top-left block C, and every contraction C is such a block (Halmos), so the
least gap g* over these reindexings is convex in C. Kretschmann,
Schlingemann and Werner (IEEE TIT 54, 2008) show g* <= ||Phi1 - Phi0||_cb
<= 2 sqrt(g*). The scan records both sides along a protocol family.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .binding import _payoffs, minimax_cheat
from .concealment import analyze_concealment, cb_lower_bound
from .optimize import CERTIFIED_WIDTH, SolverTrace, _require_tolerance
from .protocol import ProtocolSpec, _require_cheat, require_valid

BOUND_TOL = 1e-9

# Step budget of the Kraus-gap bracket.
GAP_STEPS = 500


def _gap_operator(v: np.ndarray, e0: np.ndarray, e1: np.ndarray) -> np.ndarray:
    """S = sum_j delta_j† delta_j for the branch differences
    delta_j = sum_l v[j, l] e0_l - e1_j, stacked over j; no unitarity check."""
    m, dout, din = e0.shape
    delta = (v @ e0.reshape(m, -1)).reshape(m * dout, din) - e1.reshape(m * dout, din)
    return delta.conj().T @ delta


def kraus_gap_operator(spec: ProtocolSpec, cheat) -> np.ndarray:
    """Positive operator summing |bit0-reindexed-by-cheat minus bit1|² termwise.

    The squared-modulus convention is op†op, so the result is a positive
    semidefinite operator on the input space whose size bounds how far the
    reindexed bit-0 family sits from the bit-1 family.
    """
    require_valid(spec)
    cheat = _require_cheat(cheat, spec.cardinality)
    return _gap_operator(cheat, spec.bit0.ops, spec.bit1.ops)


def _gap(spec: ProtocolSpec, cheat: np.ndarray) -> float:
    """Clamped top eigenvalue of the gap operator at one checked cheat."""
    s = _gap_operator(cheat, spec.bit0.ops, spec.bit1.ops)
    return max(float(linalg.eigh_or_error(s)[0][-1]), 0.0)


def kraus_gap(spec: ProtocolSpec, cheat=None) -> float:
    """Largest eigenvalue of the gap operator S at ``cheat`` (the identity by
    default), clamped at 0: the number ``minimize_kraus_gap`` reports for the
    unitary it returns, on its ``GapResult.spec``."""
    require_valid(spec)
    if cheat is None:
        cheat = np.eye(spec.cardinality)
    return _gap(spec, _require_cheat(cheat, spec.cardinality))


@dataclass
class GapResult:
    """Certified bracket [``lower``, ``value``] on g*. ``lower`` is at most
    the gap at every reindexing with any number of labels; ``value`` is the
    gap the 2m x 2m ``unitary`` achieves on ``spec``, the protocol padded to
    2m labels."""

    value: float
    lower: float
    unitary: np.ndarray
    spec: ProtocolSpec
    trace: SolverTrace


def _halmos(c: np.ndarray) -> np.ndarray:
    """Unitary dilation [[C, (I - CC†)^½], [(I - C†C)^½, -C†]] of a
    contraction, built from one SVD of C so that it is unitary to round-off
    even where C's singular values reach 1."""
    w, sig, vh = linalg.svd_or_error(c)
    sig = np.minimum(sig, 1.0)
    gam = np.sqrt((1.0 - sig) * (1.0 + sig))
    wh, v = w.conj().T, vh.conj().T
    return np.block([[(w * sig) @ vh, (w * gam) @ wh], [(v * gam) @ vh, -(v * sig) @ wh]])


def minimize_kraus_gap(spec: ProtocolSpec) -> GapResult:
    """Bracket g* through its dual (Sion): the largest
    Tr rho (K0 + K1) - 2 ||N(rho)||_1 over density matrices rho, with
    N(rho)_jl = Tr(rho E1_j† E0_l), by dual averaging from rho = I / dim_in
    (matrix exponentiated gradient; Nesterov, Math. Prog. 2009).

    Each step's SVD of N(rho) gives the lower side, which bounds the gap at
    every reindexing with any number of labels (a unitary's block C has
    |Tr(C^T N)| <= ||N||_1; no completeness is assumed), and, conjugating
    its polar factor, the step's contraction, whose S is the gradient. S is
    affine in C, so the summed gradients are the step count times S at the
    running mean of the contractions: one ``eigh`` of that gives both the
    next rho and the mean's gap, and the upper side is the best gap of the
    identity and those means. At the first step the lower side is the gap's
    trace bound and the contraction the Procrustes alignment. The loop stops
    within ``CERTIFIED_WIDTH`` or after ``GAP_STEPS`` steps, and a trace note
    names the stop. The cheat is the Halmos dilation of the best
    contraction, ``value`` its ``kraus_gap`` on ``GapResult.spec``.

    Every computed term is a sum of at most n = m dim_out dim_in² products
    of an entry of rho (modulus at most 1) with two Kraus entries, whose
    moduli sum to at most dim_in (|E0|² + |E1|²), and N's nuclear norm comes
    from a backward-stable SVD; so the lower side errs by about
    2 n eps dim_in (|E0|² + |E1|²), and twice that is subtracted.
    """
    require_valid(spec)
    e0, e1 = spec.bit0.ops, spec.bit1.ops
    m, dout, din = e0.shape
    # pairs[(j, l), (b, c)] = (E1_j† E0_l)_bc, so N(rho) = pairs @ vec(rho^T).
    pairs = np.einsum("jab,lac->jlbc", e1.conj(), e0).reshape(m * m, din * din)
    k = np.einsum("jab,jac->bc", e0.conj(), e0) + np.einsum("jab,jac->bc", e1.conj(), e1)
    n = m * dout * din * din
    allowance = float(4.0 * n * np.finfo(float).eps * din * np.trace(k).real)

    def gap_operator(c):
        y = (c.reshape(-1) @ pairs).reshape(din, din)
        return k - y - y.conj().T

    rho = np.eye(din, dtype=complex) / din
    mean = np.zeros((m, m), dtype=complex)
    best = np.eye(m, dtype=complex)
    upper, lower = float(linalg.eigh_or_error(gap_operator(best))[0][-1]), -np.inf
    stop = f"step budget GAP_STEPS {GAP_STEPS} spent"
    for step in range(1, GAP_STEPS + 1):
        w, sig, vh = linalg.svd_or_error((pairs @ rho.T.reshape(-1)).reshape(m, m))
        lower = max(lower, float((rho.T.reshape(-1) @ k.reshape(-1)).real - 2.0 * sig.sum()))
        mean += ((w @ vh).conj() - mean) / step
        vals, vecs = linalg.eigh_or_error(gap_operator(mean))
        if vals[-1] < upper:
            upper, best = float(vals[-1]), mean.copy()
        if upper - (lower - allowance) <= CERTIFIED_WIDTH:
            stop = f"certified at step {step}"
            break
        # rho proportional to exp((2 / sqrt(step)) * summed gradients).
        weights = np.exp(2.0 * np.sqrt(step) * (vals - vals[-1]))
        rho = (vecs * (weights / weights.sum())) @ vecs.conj().T

    padded = ProtocolSpec(spec.label, spec.bit0.padded(2 * m), spec.bit1.padded(2 * m))
    unitary = linalg.require_unitary(_halmos(best), tol=linalg.UNITARY_CONSTRUCTION_TOL)
    value, lower = _gap(padded, unitary), max(0.0, lower - allowance)
    trace = SolverTrace(seed=0, restarts=0, extra_starts=1, tol=CERTIFIED_WIDTH, max_iter=GAP_STEPS)
    trace.notes.append(f"{stop}: value - lower {value - lower!r}")
    trace.record([value], [step], [value - lower <= CERTIFIED_WIDTH], maximize=False)
    return GapResult(value=value, lower=lower, unitary=unitary, spec=padded, trace=trace)


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
    *,
    cb_lower: float,
    tol: float = BOUND_TOL,
) -> BoundCheck:
    """Test both inequalities on one protocol at one reindexing.

    The concealment side compares a quarter of ``cb_lower``, an achieved
    lower bound on the norm (``cb_lower_bound``'s value), against half the
    square root of the gap. The binding side evaluates Alice's payoff for
    the gap's own cheat on seeded random states and compares each against
    the payoff floor.
    """
    require_valid(spec)
    tol = _require_tolerance(tol)
    if cheat is None:
        cheat = np.eye(spec.cardinality)
    cheat = _require_cheat(cheat, spec.cardinality)
    gap = _gap(spec, cheat)
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
    ``check_bounds`` at ``minimize_kraus_gap``'s 2m x 2m unitary, on the
    protocol padded to 2m labels), "minimized_gap" and "minimized_gap_lower"
    (its ``value`` and ``lower``).
    """
    cb_lower = cb_lower_bound(spec, restarts, seed).value
    report = {"identity": check_bounds(spec, None, n_states, seed, cb_lower=cb_lower, tol=tol)}
    if minimize:
        gap_min = minimize_kraus_gap(spec)
        report["minimized"] = check_bounds(
            gap_min.spec, gap_min.unitary, n_states, seed, cb_lower=cb_lower, tol=tol
        )
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
    _require_tolerance(budgets.tol)
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


def scan_to_csv(result: ScanResult) -> str:
    """Deterministic CSV rendering of a scan, one row per point."""
    lines = [SCAN_CSV_HEADER]
    for pt in result.points:
        lines.append(
            ",".join(
                [
                    repr(pt.param),
                    repr(pt.eps_lo),
                    repr(pt.eps_hi),
                    repr(pt.delta),
                    repr(pt.minimax),
                    str(pt.budget_outer),
                    str(pt.budget_inner),
                    str(pt.seed),
                ]
            )
        )
    return "\n".join(lines) + "\n"
