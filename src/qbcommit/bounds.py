"""Inequalities tying concealment to binding, and the trade-off scan.

Both bounds pivot on the reindexed Kraus gap, the largest eigenvalue of the
positive operator S(V) = sum_J (E0_J(V) - E1_J)^dagger (E0_J(V) - E1_J). A
small gap for some reindexing V forces the two channels close in diamond norm (so Bob learns
little) and simultaneously hands Alice a cheat whose worst-case payoff is
large. On the families zero-padded to 2m labels, S(V) = K0 + K1 - 2 Herm
sum_jl C_jl E1_j^dagger E0_l, K_b = sum_j E_b_j^dagger E_b_j, for V's
top-left block C, and every contraction C is such a block (Halmos), so the
least gap g* over these reindexings is convex in C: a small SDP, which
``minimize_kraus_gap`` brackets by damped Newton on its log-barrier,
certified at every iterate. Kretschmann, Schlingemann and Werner (IEEE TIT
54, 2008) show g* <= ||Phi1 - Phi0||_cb <= 2 sqrt(g*). The scan records
both sides along a protocol family.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .binding import _payoffs, minimax_cheat
from .concealment import analyze_concealment
from .errors import CommitmentError
from .optimize import CERTIFIED_WIDTH, SolverTrace, _require_tolerance
from .protocol import ProtocolSpec, _require_cheat, require_valid

BOUND_TOL = 1e-9

# Step budget of the Kraus-gap bracket: step 1 and the Newton iterates.
GAP_STEPS = 200


def _gap_operator(v: np.ndarray, e0: np.ndarray, e1: np.ndarray) -> np.ndarray:
    """S = sum_j delta_j† delta_j for the branch differences
    delta_j = sum_l v[j, l] e0_l - e1_j, stacked over j; no unitarity check."""
    m, dout, din = e0.shape
    delta = (v @ e0.reshape(m, -1)).reshape(m * dout, din) - e1.reshape(m * dout, din)
    return delta.conj().T @ delta


def _gap(spec: ProtocolSpec, cheat: np.ndarray) -> float:
    """Clamped top eigenvalue of the gap operator at one checked cheat."""
    s = _gap_operator(cheat, spec.bit0.ops, spec.bit1.ops)
    return max(float(linalg.eigh_or_error(s)[0][-1]), 0.0)


def kraus_gap(spec: ProtocolSpec, cheat=None) -> float:
    """Largest eigenvalue of the gap operator S at ``cheat`` (the identity by
    default), clamped at 0: the number ``minimize_kraus_gap`` reports for the
    unitary it returns, on its ``GapResult.spec``. S = sum_j delta_j† delta_j
    over the branch differences of bit 0 reindexed by ``cheat`` and bit 1."""
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


def _hermitian_basis(d: int) -> np.ndarray:
    """Orthonormal basis of the d x d Hermitian matrices, stacked (d², d, d):
    the E_aa, then (E_ab + E_ba)/√2 and then i(E_ab - E_ba)/√2 for a < b."""
    e = np.eye(d * d).reshape(d, d, d, d)
    a, b = np.triu_indices(d, 1)
    diag = e[np.arange(d), np.arange(d)]
    return np.concatenate([diag, (e[a, b] + e[b, a]) / 2**0.5, 1j * (e[a, b] - e[b, a]) / 2**0.5])


def _newton_step(pairs, basis, c_svd, half, n_w, grad_t):
    """Newton direction (dC, dt) of the barrier at one iterate, and its
    squared decrement, from C's SVD, ``half`` = V Λ^-½ for the
    eigendecomposition V Λ V† of X1 = tI - S(C), and N(X1^-1);
    ``grad_t`` is the gradient's t entry.

    In C's SVD basis the contraction block of the Hessian pairs Δ'_ij with
    Δ'_ji and is inverted pair by pair. The gap block is J^T J, with a row
    (r_k, l_k) per element B_k of ``basis``: r_k = 2 conj(N(F_k)) and
    l_k = Tr F_k for F_k = V Λ^-½ B_k Λ^-½ V†. Woodbury folds it in
    through one din² x din² solve, and dt comes from a scalar Schur
    complement.
    """
    u, sig, vh = c_svd
    m, din = len(sig), len(half)
    f = half @ basis @ half.conj().T
    l = np.trace(f, axis1=1, axis2=2).real
    rows = 2.0 * (f.transpose(0, 2, 1).reshape(-1, din * din) @ pairs.T).conj().reshape(-1, m, m)
    rows = u.conj().T @ rows @ vh.conj().T
    # The C block of the gradient, -2 conj(N(X1^-1)) + 2 C (I - C†C)^-1.
    d = (1.0 - sig) * (1.0 + sig)
    g = -2.0 * (u.conj().T @ n_w.conj() @ vh.conj().T) + np.diag(2.0 * sig / d)
    # The contraction block, 2 [pp^T o D' + ss^T o conj(D'^T)] with
    # p = 1/(1 - σ²) and s = σp, inverted without squaring p.
    ss = np.outer(sig, sig)
    coef = np.outer(d, d) / (2.0 * (1.0 - ss * ss))

    def inverse(x):
        return coef * (x - ss * x.swapaxes(-1, -2).conj())

    z, a = inverse(rows), inverse(g)
    flat = rows.reshape(len(rows), -1).conj()
    cap = np.eye(len(rows)) + (flat @ z.reshape(len(rows), -1).T).real
    uw = np.linalg.solve(cap, np.stack([(flat @ a.reshape(-1)).real, l], axis=1))
    dt = float((l @ uw[:, 0] - grad_t) / (l @ uw[:, 1]))
    step = np.tensordot(uw[:, 0] - dt * uw[:, 1], z, axes=1) - a
    dec2 = -float((g.conj() * step).real.sum() + grad_t * dt)
    return u @ step @ vh, dt, dec2


def minimize_kraus_gap(spec: ProtocolSpec) -> GapResult:
    """Bracket g*, the least gap over contractions C, by damped Newton on
    the log-barrier of min t s.t. tI - S(C) ⪰ 0, ||C|| <= 1:
    phi_tau(C, t) = tau t - log det(tI - S(C)) - log det(I - C†C).

    Step 1 is the trace bound at rho = I / dim_in against the identity and
    the Procrustes alignment. Newton then starts at C = 0,
    t = λmax(K0 + K1) + 1 and tau = 1; the step is 1 when the Newton
    decrement λ is below 1/4 and 1/(1 + λ) otherwise, which self-concordance
    keeps inside the domain, and tau grows eightfold once λ² < 1e-2. Every
    iterate certifies from one ``eigh`` of X1 = tI - S(C): t - λmin(X1) is
    the gap at the strict contraction C (the upper side), and the density
    matrix rho = X1^-1 / Tr X1^-1 gives the lower side
    Tr rho (K0 + K1) - 2 ||N(rho)||_1, N(rho)_jl = Tr(rho E1_j† E0_l), which
    bounds the gap at every reindexing with any number of labels (a
    unitary's block C has |Tr(C^T N)| <= ||N||_1; no completeness is
    assumed). A Newton step costs O(m³ + m² dim_in⁴): C's SVD, and a
    dim_in² x dim_in² Woodbury solve for the gap block (``_newton_step``).
    The loop stops within ``CERTIFIED_WIDTH``, at an iterate outside the
    domain or after ``GAP_STEPS`` steps, and a trace note names the stop;
    the bracket kept so far stays valid. The cheat is the Halmos dilation of
    the best contraction, ``value`` its ``kraus_gap`` on ``GapResult.spec``.

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

    def n_of(rho):
        return (pairs @ rho.T.reshape(-1)).reshape(m, m)

    def dual(rho, sig):
        return float((rho.T.reshape(-1) @ k.reshape(-1)).real - 2.0 * sig.sum())

    rho = np.eye(din, dtype=complex) / din
    w, sig, vh = linalg.svd_or_error(n_of(rho))
    lower = dual(rho, sig)
    best = np.eye(m, dtype=complex)
    upper = float(linalg.eigh_or_error(gap_operator(best))[0][-1])
    aligned = (w @ vh).conj()
    gap = float(linalg.eigh_or_error(gap_operator(aligned))[0][-1])
    if gap < upper:
        upper, best = gap, aligned
    step, stop = 1, "certified at step 1"
    if upper - (lower - allowance) > CERTIFIED_WIDTH:
        basis = _hermitian_basis(din)
        c, tau = np.zeros((m, m), dtype=complex), 1.0
        t = float(linalg.eigh_or_error(k)[0][-1]) + 1.0
        stop = f"step budget GAP_STEPS {GAP_STEPS} spent"
        for step in range(2, GAP_STEPS + 1):
            lam, vecs = linalg.eigh_or_error(t * np.eye(din) - gap_operator(c))
            c_svd = linalg.svd_or_error(c)
            if lam[0] <= 0.0 or c_svd[1][0] >= 1.0:
                stop = f"step {step} left the domain: λmin(tI - S) {lam[0]!r}, ||C|| {c_svd[1][0]!r}"
                break
            half = vecs / np.sqrt(lam)
            x1_inv = half @ half.conj().T
            tr = np.trace(x1_inv).real
            rho = x1_inv / tr
            n_rho = n_of(rho)
            lower = max(lower, dual(rho, linalg.svd_or_error(n_rho, compute_uv=False)))
            if t - lam[0] < upper:
                upper, best = float(t - lam[0]), c
            if upper - (lower - allowance) <= CERTIFIED_WIDTH:
                stop = f"certified at step {step}"
                break
            dc, dt, dec2 = _newton_step(pairs, basis, c_svd, half, n_rho * tr, tau - tr)
            eta = 1.0 if dec2 < 1.0 / 16.0 else 1.0 / (1.0 + np.sqrt(dec2))
            c, t = c + eta * dc, t + eta * dt
            if dec2 < 1e-2:
                tau *= 8.0

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
    lower bound on the norm (``analyze_concealment``'s), against half the
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

    One norm bracket's ``cb_lower`` (``analyze_concealment`` with
    ``restarts``) serves both checks, since the norm does not depend on the
    reindexing. Returns {"identity": BoundCheck} and, with ``minimize``,
    also "minimized" (the ``check_bounds`` at ``minimize_kraus_gap``'s
    2m x 2m unitary, on the protocol padded to 2m labels), "minimized_gap"
    and "minimized_gap_lower" (its ``value`` and ``lower``).
    """
    cb_lower = analyze_concealment(spec, restarts, seed).cb_lower
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

    ``family`` maps a parameter value to a protocol. A parameter that the
    family or the validation rejects (``ValueError``, ``OverflowError`` or
    ``CommitmentError``) is recorded as skipped with the reason instead of
    aborting the scan; any other exception is a bug and propagates. The
    norm bracket is ``analyze_concealment``'s and the estimate is
    ``minimax_cheat``'s in direction "01", so an inverted bracket raises
    ``BracketInversionError`` as it does for a single protocol.
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
        except (ValueError, OverflowError, CommitmentError) as exc:
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
