"""Binding analysis: Alice's delayed-choice attack on the opening.

Alice commits one bit honestly up to the measurement, keeps everything
coherent, and later reindexes her opening labels with a unitary before
claiming the other bit. Her per-outcome success is a normalized squared
overlap between the reindexed committed branch and the claimed branch; the
protocol is binding exactly when no reindexing passes verification for every
input state Bob might have sent, since Bob keeps his choice to himself.

The estimate is an achieved value: a cheat and the worst state a search
found for it. It is bracketed from above by a dual certificate over Bob's
mixed strategies. For weights mu on finitely many states, the averaged
payoff is a sum of quadratic forms in the rows of the cheat, so it is at most
Tr Y + sum_j lambda_max(M_j - Y) for any Hermitian Y. The weights and Y are
built from the search's cheat and worst state; when the certificate meets
the estimate at any scored cheat, the remaining restarts are skipped.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import BracketInversionError
from .optimize import BRACKET_GUARD, CERTIFIED_WIDTH, SolverTrace, SphereResult
from .optimize import _require_tolerance, ascend_params, search_sphere
from .protocol import ProtocolSpec, _require_cheat, align_families, require_valid

ZERO_OUTCOME_TOL = 1e-14
KERNEL_SINGULAR_TOL = 1e-7
MAX_KERNEL_STARTS = 8
# Tolerance and iteration cap of the full inner search over states.
INNER_TOL = 1e-8
INNER_MAX_ITER = 300

# A payoff is a sum of squared overlaps of a unit vector's orthogonal
# pieces, normalized: by Cauchy-Schwarz it never exceeds one.
PAYOFF_CAP = 1.0

DIRECTIONS = ("01", "10")


def _directed(spec: ProtocolSpec, direction: str):
    if direction not in DIRECTIONS:
        raise ValueError(f"direction must be one of {DIRECTIONS}, got {direction!r}")
    if direction == "01":
        return spec.bit0, spec.bit1
    return spec.bit1, spec.bit0


def alice_cheat_prob(
    spec: ProtocolSpec,
    cheat,
    state,
    direction: str = "01",
) -> float:
    """Alice's verification-passing probability for one cheat and one state.

    Direction "01" means committed 0, claimed 1; "10" swaps the roles.
    Opening outcomes whose claimed branch has squared norm at most
    ``ZERO_OUTCOME_TOL`` occur with vanishing probability under an honest
    claim and contribute zero.
    """
    require_valid(spec)
    committed, claimed = _directed(spec, direction)
    cheat = _require_cheat(cheat, spec.cardinality)
    phi = linalg.as_state(state)
    if phi.size != spec.dim_in:
        raise ValueError(
            f"state length {phi.size} does not match input dimension {spec.dim_in}"
        )
    (value,) = _payoffs(committed.ops, claimed.ops, cheat, phi[None])
    return float(value)


def _payoffs(committed_stack, claimed_stack, cheat, phis) -> np.ndarray:
    """Payoffs of one checked cheat at the unit rows of ``phis``; no validation."""
    a = _payoff_pieces(committed_stack, claimed_stack, cheat)
    return _payoff_fun_grad(a, claimed_stack)(phis)[0]


def _payoff_pieces(committed_stack, claimed_stack, cheat):
    effective = np.einsum("jl,lab->jab", cheat, committed_stack)
    # a_j = effective_j† claimed_j drives both the payoff and its gradient.
    return np.einsum("jax,jay->jxy", effective.conj(), claimed_stack)


def _payoff_fun_grad(a, claimed_stack):
    # Batched over the rows of phis; alice_cheat_prob evaluates one row here,
    # so a reported payoff and the solver's value at the same point agree bit
    # for bit.
    a_conj = a.conj()
    claimed_conj = claimed_stack.conj()

    def fun_grad(phis: np.ndarray):
        c = np.einsum("rx,jxy,ry->rj", phis.conj(), a, phis)
        w = np.einsum("jab,rb->rja", claimed_stack, phis)
        d = np.einsum("rja,rja->rj", w.conj(), w).real
        mask = d > ZERO_OUTCOME_TOL
        d = np.where(mask, d, 1.0)
        c2 = np.abs(c) ** 2
        terms = np.where(mask, c2 / d, 0.0)
        values = terms.sum(axis=1)
        scale = np.where(mask, c / d, 0.0)
        grads = np.einsum("rj,jxy,ry->rx", scale.conj(), a, phis)
        grads += np.einsum("rj,jyx,ry->rx", scale, a_conj, phis)
        bphi = np.einsum("jay,rja->rjy", claimed_conj, w)
        grads -= np.einsum("rj,rjy->ry", np.where(mask, c2 / d**2, 0.0), bphi)
        return values, grads

    return fun_grad


def _kernel_starts(claimed_stack) -> list:
    """States annihilated by some claimed branch.

    The payoff drops discontinuously where a claimed branch vanishes, so its
    minimum can hide exactly there; these states seed extra descent starts.
    """
    starts = []
    # One batched SVD: full right factors, whose rows past dim_out span the
    # kernel when dim_out < dim_in, and left factors of at most
    # min(dim_out, dim_in) columns.
    dim_out, dim_in = claimed_stack.shape[-2:]
    _, svals_stack, vh_stack = linalg.svd_or_error(claimed_stack, full_matrices=dim_out < dim_in)
    for svals, vh in zip(svals_stack, vh_stack):
        for i in range(vh.shape[0]):
            sval = svals[i] if i < svals.size else 0.0
            if sval <= KERNEL_SINGULAR_TOL:
                starts.append(vh[i].conj())
        if len(starts) >= MAX_KERNEL_STARTS:
            break
    return starts[:MAX_KERNEL_STARTS]


def _worst_state(committed_stack, claimed_stack, cheat, starts, **opts) -> SphereResult:
    """Payoff descent over states at one checked cheat, from ``starts`` and
    ``opts["restarts"]`` seeded random states; no validation."""
    a = _payoff_pieces(committed_stack, claimed_stack, cheat)
    return search_sphere(
        _payoff_fun_grad(a, claimed_stack),
        claimed_stack.shape[-1],
        maximize=False,
        extra_starts=starts,
        **opts,
    )


def min_over_states(
    spec: ProtocolSpec,
    cheat,
    direction: str = "01",
    restarts: int = 16,
    seed: int = 0,
) -> SphereResult:
    """Upper bound on the payoff over all states Bob could have chosen.

    Multi-start projected gradient descent on the state sphere, to
    ``INNER_TOL`` within ``INNER_MAX_ITER`` iterations; the achieved value is
    reported. Claimed-branch kernel states join the start list because the
    payoff can jump down on them.
    """
    require_valid(spec)
    committed, claimed = _directed(spec, direction)
    cheat = _require_cheat(cheat, spec.cardinality)
    return _worst_state(
        committed.ops,
        claimed.ops,
        cheat,
        _kernel_starts(claimed.ops),
        restarts=restarts,
        seed=seed,
        tol=INNER_TOL,
        max_iter=INNER_MAX_ITER,
        rng_tags=(2,),
    )


def _project_simplex(y: np.ndarray) -> np.ndarray:
    """Euclidean projection onto the probability simplex (sort and threshold).

    The vectors hold one entry per certificate state, so Python's ``sorted``
    serves; numpy's sort would map its SIMD sort library into memory."""
    u = np.array(sorted(y, reverse=True))
    excess = np.cumsum(u) - 1.0
    k = np.flatnonzero(u * np.arange(1, y.size + 1) > excess)[-1]
    return np.maximum(y - excess[k] / (k + 1), 0.0)


def _simplex_min_norm(gram: np.ndarray, max_iter: int = 1000) -> np.ndarray:
    """Weights w on the simplex minimizing w^T gram w, by projected gradient
    descent from the uniform weights; ``gram`` is positive semidefinite, so
    its trace bounds its top eigenvalue and gives a safe step."""
    w = np.full(len(gram), 1.0 / len(gram))
    step = 1.0 / max(np.trace(gram), np.finfo(float).tiny)
    for _ in range(max_iter):
        new = _project_simplex(w - step * (gram @ w))
        moved = np.abs(new - w).sum()
        w = new
        if moved <= 1e-12:
            break
    return w


def _overlaps(committed_stack, claimed_stack, cheat, phis):
    """Payoff overlaps at the unit rows of ``phis``: b_sjl =
    <committed_l phi_s|claimed_j phi_s>, 1 / d_sj with d_sj = |claimed_j phi_s|²
    (0 where d_sj is at most ``ZERO_OUTCOME_TOL``), and c_sj = sum_l
    conj(cheat_jl) b_sjl, so the payoff at phi_s is sum_j |c_sj|² / d_sj and
    its derivative in conj(cheat_jl) is conj(c_sj) b_sjl / d_sj."""
    u = np.einsum("lab,sb->sla", committed_stack, phis)
    w = np.einsum("jab,sb->sja", claimed_stack, phis)
    b = np.einsum("sla,sja->sjl", u.conj(), w)
    d = np.einsum("sja,sja->sj", w.conj(), w).real
    inv_d = np.divide(1.0, d, out=np.zeros_like(d), where=d > ZERO_OUTCOME_TOL)
    c = np.einsum("jl,sjl->sj", cheat.conj(), b)
    return b, inv_d, c


def _dual_bound(committed_stack, claimed_stack, cheat, states):
    """Certified upper bound on max_V min_phi P(V, phi), and the weights it used.

    For weights mu on the unit ``states`` phi_i, the averaged payoff of a
    cheat V with rows v_j is sum_j v_j† M_j v_j, with
    M_j = sum_i mu_i b_ij b_ij† / d_ij, b_ijl = <committed_l phi_i|claimed_j phi_i>
    and d_ij = |claimed_j phi_i|², terms with d_ij at most ``ZERO_OUTCOME_TOL``
    dropped as the payoff drops them. The rows are orthonormal, so for any
    Hermitian Y the average is at most Tr Y + sum_j lambda_max(M_j - Y); a
    minimum is at most any average, so this bounds the maximin too.

    The weights are the minimum-norm point of the convex hull of the payoff
    gradients on the unitary group at ``cheat``, over the states whose payoff
    there is within ``CERTIFIED_WIDTH`` of the smallest (weighting one costs
    at most that much). At a maximin point that point is zero, and ``cheat``
    is stationary for the average. Y is the Hermitian part of the KKT
    multiplier sum_j M_j v_j v_j†; at a maximizer of the average
    each v_j is a top eigenvector of M_j - Y with eigenvalue 0, so the bound
    meets the average. A backward-stable eigensolver errs by about m eps
    times the norm of an m x m matrix; over the m terms and the trace, the
    value is raised by 2 (m + 1) m eps (sum_j |M_j| + m |Y|), Frobenius norms,
    so round-off never puts it below the true bound.
    """
    phis = np.stack([linalg.normalize_state(s) for s in states])
    b, inv_d, c = _overlaps(committed_stack, claimed_stack, cheat, phis)
    payoffs = (np.abs(c) ** 2 * inv_d).sum(axis=1)
    active = np.flatnonzero(payoffs <= payoffs.min() + CERTIFIED_WIDTH)
    # Each gradient is the skew-Hermitian part of sum_j M_ij v_j v_j†.
    grads = np.einsum("sj,sja,jb->sab", (c.conj() * inv_d)[active], b[active], cheat.conj())
    skew = (grads - grads.conj().transpose(0, 2, 1)).reshape(len(active), -1)
    weights = np.zeros(len(phis))
    weights[active] = _simplex_min_norm((skew.conj() @ skew.T).real)
    m_j = np.einsum("s,sj,sja,sjb->jab", weights, inv_d, b, b.conj())
    y = np.einsum("jab,jb,jc->ac", m_j, cheat, cheat.conj())
    y = 0.5 * (y + y.conj().T)
    tops = linalg.eigh_or_error(m_j - y)[0][:, -1]
    m = len(cheat)
    norms = np.linalg.norm(m_j, axis=(1, 2)).sum() + m * np.linalg.norm(y)
    allowance = 2.0 * (m + 1) * m * np.finfo(float).eps * norms
    return float(np.trace(y).real + tops.sum() + allowance), weights


@dataclass
class BindingReport:
    """Saddle estimate of Alice's best worst-case cheating probability.

    ``binding_upper`` is a certified upper bound on the maximin payoff,
    the minimum of ``upper_routes``: ``witness_dual``, the smallest of the
    dual certificates built at every cheat the full inner search scored (the
    Procrustes start and each outer restart's end point), each from the
    claimed-branch kernel states and that cheat's worst state, and
    ``payoff_cap``, which is 1.
    """

    label: str
    direction: str
    minimax_estimate: float
    payoff_at_saddle: float
    binding_upper: float
    upper_routes: dict
    best_cheat_unitary: np.ndarray
    worst_state: np.ndarray
    solver_trace: SolverTrace
    inner_trace: SolverTrace
    swapped: "BindingReport | None" = None


def minimax_cheat(
    spec: ProtocolSpec,
    direction: str = "01",
    outer_restarts: int = 8,
    outer_iters: int = 200,
    inner_restarts: int = 16,
    seed: int = 0,
    tol: float = 1e-7,
    include_swapped: bool = True,
) -> BindingReport:
    """Estimate of max over cheats of the worst-case payoff, with a certified
    upper bound.

    Each scored cheat gets the worst state that ``min_over_states``'s full
    inner search (whose starts include the claimed-branch kernel states)
    finds for it, and a dual certificate built from the kernel states and
    that worst state; the best score, the Procrustes start's included, is
    the estimate, and the smallest certificate, capped at 1, is
    ``binding_upper``. The trace's ``best_start`` names the restart that
    scored the estimate, or a note names the Procrustes start when no
    restart's end point scored higher. The search stops at the first scored
    cheat after which the bound lies within ``CERTIFIED_WIDTH`` of the
    estimate, with a note naming that cheat: no cheat can do better by more
    than that.

    The Procrustes alignment of the two families is scored first; when it
    certifies, the trace reads one restart of 0 iterations. Otherwise the
    outer gradient ascent runs on the unitary group, with the inner minimum
    handled by Danskin's rule at the current worst state. The first outer
    restart starts from the Procrustes alignment, the rest from seeded Haar
    unitaries. During the ascent the inner minimum runs on a reduced budget
    with a warm start; every restart's end point is scored with the full
    budget, so the reported estimate is an honestly achieved value. An
    estimate above the certified bound by more than ``BRACKET_GUARD`` raises
    ``BracketInversionError``. With ``include_swapped`` the other direction
    is estimated by the same call and reported as ``swapped``.
    """
    require_valid(spec)
    if outer_restarts < 1:
        raise ValueError(f"outer_restarts must be at least 1, got {outer_restarts}")
    tol = _require_tolerance(tol)
    committed, claimed = _directed(spec, direction)
    m = spec.cardinality
    ck, cl = committed.ops, claimed.ops
    kernel = _kernel_starts(cl)
    # Scores search as min_over_states does. The loose budget only steers the
    # outer ascent; each restart's end point is re-scored with the full one.
    full = dict(restarts=inner_restarts, seed=seed, tol=min(tol, INNER_TOL), max_iter=INNER_MAX_ITER)
    loose = dict(restarts=min(2, inner_restarts), seed=seed, tol=max(tol, 1e-6), max_iter=40)

    def score(v):
        inner = _worst_state(ck, cl, v, kernel, rng_tags=(2,), **full)
        return inner, _dual_bound(ck, cl, v, kernel + [inner.vector])[0]

    procrustes = linalg.require_unitary(
        align_families(committed, claimed), tol=linalg.UNITARY_CONSTRUCTION_TOL
    )
    inner, witness = score(procrustes)
    # (estimate, cheat, inner SphereResult, restart index or None for Procrustes)
    best = (inner.value, procrustes, inner, None)
    width = min(witness, PAYOFF_CAP) - inner.value
    skip = width <= CERTIFIED_WIDTH
    outer_trace = SolverTrace(
        seed=int(seed),
        restarts=1 if skip else int(outer_restarts),
        extra_starts=0,
        tol=float(tol),
        max_iter=int(outer_iters),
    )
    outer_trace.notes.append("start 0: Procrustes alignment of the two families")

    def certified(head, width, tail):
        outer_trace.notes.append(
            f"{head}: binding_upper - estimate {width!r} <= "
            f"CERTIFIED_WIDTH {CERTIFIED_WIDTH!r}; {tail}"
        )

    if skip:
        certified("Procrustes start certified", width, "outer ascent skipped")
        outer_trace.record([inner.value], [0], [True], maximize=True)
    for ridx in range(0 if skip else outer_restarts):
        if ridx == 0:
            start = procrustes
        else:
            start = linalg.random_unitary(m, linalg.spawn_rng(seed, 3, ridx))
        warm = []

        def surrogate(cheats):
            (v,) = cheats
            res = _worst_state(
                ck, cl, v, kernel + warm, rng_tags=(4, ridx), stall_tol=1e-7, stall_limit=5, **loose
            )
            warm[:] = [res.vector]
            b, inv_d, c = _overlaps(ck, cl, v, res.vector[None])
            return [res.value], (c.conj() * inv_d)[..., None] * b

        v, _, iters, converged = ascend_params(
            surrogate, start, trace=outer_trace, max_iter=outer_iters, tol=tol
        )
        inner, bound = score(v)
        # Every (mu, Y) certifies, so each scored cheat's certificate counts.
        witness = min(witness, bound)
        outer_trace.record([inner.value], [iters], [converged], maximize=True)
        if inner.value > best[0]:
            best = (inner.value, v, inner, ridx)
        width = min(witness, PAYOFF_CAP) - best[0]
        if width <= CERTIFIED_WIDTH:
            certified(f"certified after restart {ridx}", width, "remaining restarts skipped")
            break

    estimate, best_v, inner, source = best
    if not skip and source is None:
        outer_trace.notes.append(
            "estimate from the Procrustes start: no restart's end point scored higher"
        )
    worst = inner.vector
    routes = {"witness_dual": witness, "payoff_cap": PAYOFF_CAP}
    upper = min(routes.values())
    if estimate > upper + BRACKET_GUARD:
        raise BracketInversionError(
            f"binding estimate {estimate!r} exceeds certified upper bound {upper!r} "
            f"for protocol {spec.label!r}, direction {direction}"
        )
    (payoff,) = _payoffs(ck, cl, best_v, worst[None])

    report = BindingReport(
        label=spec.label,
        direction=direction,
        minimax_estimate=float(estimate),
        payoff_at_saddle=float(payoff),
        binding_upper=float(upper),
        upper_routes=routes,
        best_cheat_unitary=best_v,
        worst_state=worst,
        solver_trace=outer_trace,
        inner_trace=inner.trace,
    )
    if include_swapped:
        other = "10" if direction == "01" else "01"
        report.swapped = minimax_cheat(
            spec, other, outer_restarts, outer_iters, inner_restarts, seed, tol, False
        )
    return report
