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

from dataclasses import astuple, dataclass
from functools import cache

import numpy as np

from . import linalg
from .binding import _payoffs, minimax_cheat
from .concealment import analyze_concealment
from .errors import CommitmentError
from .optimize import CERTIFIED_WIDTH, SolverTrace, _require_count, _require_tolerance
from .protocol import ProtocolSpec, _require_cheat, require_valid

BOUND_TOL = 1e-9

# Step budget of the Kraus-gap bracket (step 1 and the Newton iterates).
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


@cache
def _transpose_perm(m: int) -> np.ndarray:
    """Indices that transpose a row-major flat m x m matrix, built once per
    m and returned read-only."""
    perm = np.arange(m * m).reshape(m, m).T.reshape(-1)
    perm.flags.writeable = False
    return perm


def _newton_step(pairs, basis, c_svd, half, n_w, grad_t):
    """Newton direction (dC, dt) of the barrier at one iterate, and its
    squared decrement, from C's SVD U Σ Vh, ``half`` = V Λ^-½ for the
    eigendecomposition V Λ V† of X1 = tI - S(C), and N(X1^-1);
    ``grad_t`` is the gradient's t entry.

    In C's SVD basis the contraction block of the Hessian pairs Δ'_ij with
    Δ'_ji and is inverted pair by pair, through the transpose permutation
    of the row-major flat m x m matrices. The gap block is J^T J, with a
    row (r_k, l_k) per element B_k of ``basis``: r_k = 2 conj(U^T N(F_k) Vh^T)
    and l_k = Tr F_k = sum_x B_k[x, x] / λ_x for F_k = V Λ^-½ B_k Λ^-½ V†
    (half† half = Λ^-1). Flattened row-major, vec(F_k^T) is
    (conj(half) ⊗ half) vec(B_k^T), so one Kronecker product gives every
    N(F_k) and every l_k. Woodbury folds the gap block in through one
    din² x din² solve, and dt comes from a scalar Schur complement.
    """
    u, sig, vh = c_svd
    m, din = len(sig), len(half)
    # h = conj(half) ⊗ half, without np.kron's per-call overhead; q = pairs h
    # maps vec(B^T) to N(F), and vec(B_k^T) = conj(vec(B_k)) as B_k is Hermitian.
    h = (half.conj()[:, None, :, None] * half[None, :, None, :]).reshape(din * din, -1)
    q = pairs @ h
    # rot[i, l, :] = (U^T Q Vh^T)[i, l] for the m x m slices Q of q's columns.
    rot = vh @ (u.T @ q.reshape(m, -1)).reshape(m, m, -1)
    flat_basis = basis.reshape(din * din, -1)
    rows = 2.0 * flat_basis @ rot.reshape(m * m, -1).T.conj()
    # Summed over b, the rows (b, b) of h give vec(half† half) = vec(Λ^-1).
    l = (flat_basis.conj() @ h[:: din + 1].sum(axis=0)).real
    # The C block of the gradient, -2 conj(N(X1^-1)) + 2 C (I - C†C)^-1.
    d = (1.0 - sig) * (1.0 + sig)
    g = -2.0 * (u.T @ n_w @ vh.T).reshape(-1).conj()
    g[:: m + 1] += 2.0 * sig / d
    # The contraction block, 2 [pp^T o D' + ss^T o conj(D'^T)] with
    # p = 1/(1 - σ²) and s = σp, inverted without squaring p.
    ss = (sig[:, None] * sig).reshape(-1)
    coef = (d[:, None] * d).reshape(-1) / (2.0 * (1.0 - ss * ss))
    perm = _transpose_perm(m)

    def inverse(x):
        return coef * (x - ss * x[..., perm].conj())

    z, a = inverse(rows), inverse(g)
    flat = rows.conj()
    cap = (flat @ z.T).real
    cap.flat[:: len(rows) + 1] += 1.0
    uw = np.linalg.solve(cap, np.array([(flat @ a).real, l]).T)
    lu = l @ uw
    dt = float((lu[0] - grad_t) / lu[1])
    step = (uw[:, 0] - dt * uw[:, 1]) @ z - a
    dec2 = -float(np.vdot(g, step).real + grad_t * dt)
    return u @ step.reshape(m, m) @ vh, dt, dec2


def minimize_kraus_gap(spec: ProtocolSpec) -> GapResult:
    """Bracket g*, the least gap over contractions C, by damped Newton on
    the log-barrier of min t s.t. tI - S(C) ⪰ 0, ||C|| <= 1:
    phi_tau(C, t) = tau t - log det(tI - S(C)) - log det(I - C†C).

    Step 1 is the trace bound at rho = I / dim_in against the identity and
    the Procrustes alignment. Newton then starts at C = 0,
    t = λmax(K0 + K1) + 1, at the one weight tau = 10 nu / ``CERTIFIED_WIDTH``
    (nu = dim_in + m), whose centre is about nu / tau, a tenth of the
    certified width, from g*. The step is 1 when the Newton decrement λ is
    below 1/4 and 1/(1 + λ) otherwise, which self-concordance keeps inside
    the domain. Damped steps cover a ratio of weights at a fixed rate however
    it is split (Boyd and Vandenberghe, Convex Optimization, 11.3), so
    smaller weights on the way would only add centring tails. Every
    iterate certifies from one ``eigh`` of X1 = tI - S(C): t - λmin(X1) is
    the gap at the strict contraction C (the upper side), and the density
    matrix rho = X1^-1 / Tr X1^-1 gives the lower side
    Tr rho (K0 + K1) - 2 ||N(rho)||_1, N(rho)_jl = Tr(rho E1_j† E0_l), which
    bounds the gap at every reindexing with any number of labels (a
    unitary's block C has |Tr(C^T N)| <= ||N||_1; no completeness is
    assumed). An iterate makes one batched SVD call, on C (for the domain
    and the Newton step) stacked with N(X1^-1) = Tr X1^-1 N(rho) (for the
    lower side). A Newton step costs O(m³ dim_in² + m² dim_in⁴): the gap
    block's dim_in² rows, rotated into C's SVD basis, and one
    dim_in² x dim_in² Woodbury solve (``_newton_step``).
    The loop stops within ``CERTIFIED_WIDTH``, at an iterate outside the
    domain, on a singular Newton system (its Woodbury capacitance loses the
    identity to round-off as λmin(X1) nears 0) or after ``GAP_STEPS`` steps,
    and a trace note names the stop; the bracket kept so far stays valid.
    The trace holds the step count in ``iterations`` and the ``eigh`` calls
    in ``evaluations``. The cheat is the Halmos dilation of the best
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

    k_flat = k.reshape(-1)

    def dual(w_t, sig):
        """Tr(W K) - 2 ||N(W)||_1 from vec(W^T) and N(W)'s singular values:
        the lower side at a density matrix W, linear in W."""
        return float((w_t @ k_flat).real - 2.0 * sig.sum())

    rho_t = np.eye(din, dtype=complex).reshape(-1) / din
    w, sig, vh = linalg.svd_or_error((pairs @ rho_t).reshape(m, m))
    lower = dual(rho_t, sig)
    best, aligned = np.eye(m, dtype=complex), (w @ vh).conj()
    upper, gap = _gap(spec, best), _gap(spec, aligned)
    if gap < upper:
        upper, best = gap, aligned
    step, stop = 1, "certified at step 1"
    if upper - (lower - allowance) > CERTIFIED_WIDTH:
        basis = linalg.hermitian_basis(din)
        c, tau = np.zeros((m, m), dtype=complex), 10.0 * (din + m) / CERTIFIED_WIDTH
        t = float(linalg.eigh_or_error(k)[0][-1]) + 1.0
        stop = f"step budget GAP_STEPS {GAP_STEPS} spent"
        for step in range(2, GAP_STEPS + 1):
            # X1 = tI - S(C) = Y + Y† - K + tI, t added on the diagonal in place.
            y = (c.reshape(-1) @ pairs).reshape(din, din)
            x1 = y + y.conj().T - k
            x1.reshape(-1)[:: din + 1] += t
            lam, vecs = linalg.eigh_or_error(x1)
            if lam[0] > 0.0:
                inv = 1.0 / lam
                half, tr = vecs * np.sqrt(inv), float(inv.sum())
                x1_inv_t = (half.conj() @ half.T).reshape(-1)
                n_w = (pairs @ x1_inv_t).reshape(m, m)
                # One SVD call per iterate: C for the domain and the Newton
                # step, N(X1^-1) for the lower side.
                u, sig, vh = linalg.svd_or_error(np.array([c, n_w]))
                norm = sig[0, 0]
            else:
                norm = linalg.svd_or_error(c, compute_uv=False)[0]
            if lam[0] <= 0.0 or norm >= 1.0:
                stop = f"step {step} left the domain: λmin(tI - S) {lam[0]!r}, ||C|| {norm!r}"
                break
            # The lower side at rho = X1^-1 / tr.
            lower = max(lower, dual(x1_inv_t, sig[1]) / tr)
            if t - lam[0] < upper:
                upper, best = float(t - lam[0]), c
            if upper - (lower - allowance) <= CERTIFIED_WIDTH:
                stop = f"certified at step {step}"
                break
            try:
                dc, dt, dec2 = _newton_step(pairs, basis, (u[0], sig[0], vh[0]), half, n_w, tau - tr)
            except np.linalg.LinAlgError:
                stop = f"step {step}: Newton system singular"
                break
            eta = 1.0 if dec2 < 1.0 / 16.0 else 1.0 / (1.0 + np.sqrt(dec2))
            c, t = c + eta * dc, t + eta * dt

    padded = ProtocolSpec(spec.label, spec.bit0.padded(2 * m), spec.bit1.padded(2 * m))
    unitary = linalg.require_unitary(_halmos(best), tol=linalg.UNITARY_CONSTRUCTION_TOL)
    value, lower = _gap(padded, unitary), max(0.0, lower - allowance)
    trace = SolverTrace(extra_starts=1, tol=CERTIFIED_WIDTH, max_iter=GAP_STEPS)
    trace.notes.append(f"{stop}: value - lower {value - lower!r}")
    # eigh calls: step 1's two gap operators and the final gap, and past
    # step 1 the eigh of K and one per Newton iterate.
    trace.evaluations = 3 + (step if step > 1 else 0)
    trace.record([value], [step], [value - lower <= CERTIFIED_WIDTH], maximize=False)
    return GapResult(value=value, lower=lower, unitary=unitary, spec=padded, trace=trace)


@dataclass
class BoundCheck:
    """One protocol, one reindexing: both inequalities and their margins.

    ``concealment_margin`` is half the square root of the gap minus a quarter
    of the norm's lower bound; ``binding_margin`` is the smallest sampled
    payoff minus the clamped payoff floor (1 - gap/2)^2. A margin below
    -``tol`` is a violation, which carries its full inputs; a margin within
    ``tol`` below zero is round-off.
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
    the gap's own cheat on ``n_states`` seeded random states (tag 5 of
    ``linalg._seeded_states``, drawn once for both checks of one
    ``bounds_report``: padding keeps dim_in) and compares each against the
    payoff floor, dropping outcomes as binding does (``ZERO_OUTCOME_TOL``
    on squared claimed images and on the kernels' squared singular values).
    Each violation carries its ``kind``, ``label``, ``kraus_gap``,
    ``cheat_unitary`` and ``seed``.
    """
    require_valid(spec)
    _require_count("n_states", n_states, 1)
    tol = _require_tolerance(tol)
    if cheat is None:
        cheat = np.eye(spec.cardinality)
    cheat = _require_cheat(cheat, spec.cardinality)
    gap = _gap(spec, cheat)
    quarter = cb_lower / 4.0
    half_sqrt = 0.5 * float(np.sqrt(gap))
    floor = payoff_floor(gap)

    phis = linalg._seeded_states(spec.dim_in, n_states, seed, (5,))
    payoffs = _payoffs(spec.bit0.ops, spec.bit1.ops, cheat, phis).tolist()
    shared = {"label": spec.label, "kraus_gap": gap, "cheat_unitary": cheat, "seed": seed}
    violations = [
        {"kind": "binding", "state_index": i, "state": phi.copy(), "payoff": p, "floor": floor}
        | shared
        for i, (phi, p) in enumerate(zip(phis, payoffs))
        if p < floor - tol
    ]
    if quarter > half_sqrt + tol:
        violations.append(
            {"kind": "concealment", "quarter_cb_lower": quarter, "half_sqrt_gap": half_sqrt} | shared
        )

    return BoundCheck(
        label=spec.label,
        kraus_gap=float(gap),
        quarter_cb_lower=float(quarter),
        half_sqrt_gap=float(half_sqrt),
        concealment_margin=float(half_sqrt - quarter),
        payoff_floor=float(floor),
        min_sampled_payoff=float(min(payoffs)),
        binding_margin=float(min(payoffs) - floor),
        sampled_payoffs=payoffs,
        violations=violations,
        seed=int(seed),
        tol=float(tol),
        cheat_unitary=cheat,
    )


def bounds_report(
    spec: ProtocolSpec,
    n_states: int = 10,
    seed: int = 0,
    tol: float = BOUND_TOL,
    minimize: bool = False,
) -> dict:
    """Both inequalities at the identity reindexing and, with ``minimize``,
    at the gap-minimizing one: the ``qbcommit bounds`` report.

    One norm bracket (``analyze_concealment``, which takes no seed) serves
    both checks, since the norm does not depend on the reindexing. Returns
    {"identity": BoundCheck} and, with ``minimize``, also "minimized" (the
    ``check_bounds`` at ``minimize_kraus_gap``'s 2m x 2m unitary, on the
    protocol padded to 2m labels), "minimized_gap",
    "minimized_gap_lower" and "minimized_gap_trace" (its ``value``,
    ``lower`` and ``trace``: the step count, the stop and the ``eigh``
    calls). The left half of the sandwich, g* <= ||Phi1 - Phi0||_cb, is checked there too: a
    ``minimized_gap_lower`` above ``cb_upper`` + ``tol`` appends a
    "gap_lower" violation to the minimized check.
    """
    _require_count("n_states", n_states, 1)
    norm = analyze_concealment(spec)
    report = {"identity": check_bounds(spec, None, n_states, seed, cb_lower=norm.cb_lower, tol=tol)}
    if minimize:
        gap_min = minimize_kraus_gap(spec)
        report["minimized"] = check_bounds(
            gap_min.spec, gap_min.unitary, n_states, seed, cb_lower=norm.cb_lower, tol=tol
        )
        if gap_min.lower > norm.cb_upper + tol:
            sides = {"minimized_gap_lower": gap_min.lower, "cb_upper": norm.cb_upper, "seed": seed}
            report["minimized"].violations.append({"kind": "gap_lower", "label": spec.label, **sides})
        report["minimized_gap"] = gap_min.value
        report["minimized_gap_lower"] = gap_min.lower
        report["minimized_gap_trace"] = gap_min.trace
    return report


@dataclass
class ScanBudgets:
    """Solver budgets for one scan point; scans favor speed over polish.
    The norm bracket has none: it is one search from the entangled start."""

    outer_restarts: int = 4
    outer_iters: int = 80
    inner_restarts: int = 8
    tol: float = 1e-7


@dataclass
class EpsilonDeltaPoint:
    """One protocol on the trade-off curve.

    ``eps_lo`` and ``eps_hi`` bracket the norm distinguishing the two
    channels; ``delta`` is one minus Alice's achieved worst-case payoff, so
    small delta means the protocol is close to unbinding. The budgets and
    the seed are the scan's (``ScanResult``).
    """

    param: float
    eps_lo: float
    eps_hi: float
    delta: float
    minimax: float


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
    ``CommitmentError``), or one too large to build (``MemoryError``), is
    recorded as skipped with the reason instead of aborting the scan; any
    other exception is a bug and propagates. The norm bracket is
    ``analyze_concealment``'s and the estimate is ``minimax_cheat``'s in
    direction "01", so an inverted bracket raises ``BracketInversionError``
    as it does for a single protocol. ``seed`` drives the binding search
    alone; the norm bracket takes none.
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
        except (ValueError, OverflowError, MemoryError, CommitmentError) as exc:
            skipped.append((param, f"{type(exc).__name__}: {exc}"))
            continue
        conceal = analyze_concealment(spec, budgets.tol)
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
                delta=float(max(0.0, 1.0 - est)),
                minimax=float(est),
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
    """Deterministic CSV rendering of a scan, one row per point: the
    ``repr`` of each of the point's fields, then of the scan's outer and
    inner restart budgets and its seed, in ``SCAN_CSV_HEADER``'s order."""
    b = result.budgets
    tail = ",".join(repr(int(n)) for n in (b.outer_restarts, b.inner_restarts, result.seed))
    lines = [SCAN_CSV_HEADER]
    lines += [",".join([*map(repr, astuple(pt)), tail]) for pt in result.points]
    return "\n".join(lines) + "\n"
