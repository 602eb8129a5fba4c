"""Binding analysis: Alice's delayed-choice attack on the opening.

Alice commits one bit honestly up to the measurement, keeps everything
coherent, and later reindexes her opening labels with a unitary V before
claiming the other bit. At Bob's input state phi, outcome j has the
reindexed committed image e_j = sum_l V_jl committed_l phi and the claimed
image w_j = claimed_j phi, and Alice passes with probability
sum_j |<e_j|w_j>|² / |w_j|², an outcome whose claimed image has squared norm
at most ``ZERO_OUTCOME_TOL`` dropped. The state search, its gradient and the
dual certificate all read these images. The payoff can jump down where a
claimed branch vanishes, so the states its operator annihilates (right
singular vectors whose squared singular value is at most the same cut) seed
the state search; the search that scores a cheat keeps each such start on
the unit sphere of that kernel, where the outcome is dropped, so the values
it finds there do not depend on the cut. The protocol is binding
exactly when no reindexing passes verification for every input state Bob
might have sent, since Bob keeps his choice to himself.

The estimate is an achieved value: a cheat and the worst state a search
found for it. Cheats are searched by polar steps: the next cheat is the
polar factor of G + kappa V, G the payoff's gradient at the current worst
state, which maximizes the linearized payoff less a proximal term over the
unitaries exactly (the generalized power method of Journee, Nesterov,
Richtarik and Sepulchre, JMLR 2010), so no line search is needed. The
estimate is bracketed from above by a dual certificate over Bob's
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
from .optimize import _require_count, _require_tolerance, search_sphere
from .protocol import ProtocolSpec, _branch_images, _require_cheat, align_families, require_valid

ZERO_OUTCOME_TOL = 1e-14
MAX_KERNEL_STARTS = 8
# Tolerance and iteration cap of the full inner search that scores a cheat.
INNER_TOL = 1e-8
INNER_MAX_ITER = 300

# A payoff is a sum of squared overlaps of a unit vector's orthogonal
# pieces, normalized: by Cauchy-Schwarz it never exceeds one.
PAYOFF_CAP = 1.0

# Factors of the outer ascent's proximal weight (``_polar_ascent``).
POLAR_KAPPA_RELAX = 0.5
POLAR_KAPPA_GROWTH = 4.0
POLAR_KAPPA_CAP = 1e8

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
    return _payoff_fun_grad(committed_stack, claimed_stack, cheat)(phis)[0]


def _kept_inverse(w) -> np.ndarray:
    """1 / |w_j|² for the claimed images w_j on the last axis of ``w``, and 0
    where |w_j|² is at most ``ZERO_OUTCOME_TOL``: the dropped-outcome rule."""
    d = np.sum(w.real**2 + w.imag**2, axis=-1)
    return np.divide(1.0, d, out=np.zeros_like(d), where=d > ZERO_OUTCOME_TOL)


def _payoff_fun_grad(committed_stack, claimed_stack, cheat):
    """Batched payoff sum_j |c_j|² / d_j of one checked cheat at unit rows
    phi, c_j = <E_j phi|claimed_j phi> with E_j = sum_l cheat_jl committed_l
    and 1 / d_j from ``_kept_inverse``, and its gradient in conj(phi),
    E†(conj(c) / d w) + claimed†(c / d e - |c|² / d² w). E and the claimed
    branches form one stack, so the images and the gradient take one product
    per row each; alice_cheat_prob evaluates one row here, so a reported
    payoff and the solver's value at the same point agree bit for bit."""
    m, dim_in = len(cheat), claimed_stack.shape[-1]
    reindexed = (cheat @ committed_stack.reshape(m, -1)).reshape(m, -1, dim_in)
    stack = np.concatenate([reindexed, claimed_stack])
    adjoint = stack.reshape(-1, dim_in).conj().T

    def fun_grad(phis: np.ndarray):
        images = _branch_images(stack, phis)
        e, w = images[:, :m], images[:, m:]
        c = np.sum(e.conj() * w, axis=-1)
        inv_d = _kept_inverse(w)
        scale = c * inv_d
        terms = (c.real**2 + c.imag**2) * inv_d
        back = np.concatenate(
            [scale.conj()[..., None] * w, scale[..., None] * e - (terms * inv_d)[..., None] * w], axis=1
        )
        grads = adjoint @ back.reshape(len(phis), -1, 1)
        return terms.sum(axis=1), grads.reshape(len(phis), dim_in)

    return fun_grad


def _kernel_starts(claimed_stack) -> tuple:
    """States annihilated by some claimed branch, and for each the
    orthonormal kernel basis of its claimed operator, as columns.

    The payoff drops discontinuously where a claimed branch vanishes, so its
    minimum can hide exactly there; these states seed extra descent starts,
    which a search may keep on their kernel. A kernel is spanned by the right
    singular vectors whose squared singular value is at most
    ``ZERO_OUTCOME_TOL``, so the payoff drops the outcome on all of it.
    """
    starts, spans = [], []
    # One batched SVD: full right factors, whose rows past dim_out span the
    # kernel when dim_out < dim_in, and left factors of at most
    # min(dim_out, dim_in) columns.
    dim_out, dim_in = claimed_stack.shape[-2:]
    _, svals_stack, vh_stack = linalg.svd_or_error(claimed_stack, full_matrices=dim_out < dim_in)
    for svals, vh in zip(svals_stack, vh_stack):
        rows = [i for i in range(vh.shape[0]) if i >= svals.size or svals[i] ** 2 <= ZERO_OUTCOME_TOL]
        starts += [vh[i].conj() for i in rows]
        spans += [vh[rows].conj().T] * len(rows)
        if len(starts) >= MAX_KERNEL_STARTS:
            break
    return starts[:MAX_KERNEL_STARTS], spans[:MAX_KERNEL_STARTS]


def _worst_state(
    committed_stack, claimed_stack, cheat, starts, tol=INNER_TOL, max_iter=INNER_MAX_ITER, **opts
) -> SphereResult:
    """Payoff descent at one checked cheat from ``starts`` and
    ``opts["restarts"]`` seeded random states, on the full scoring budget
    unless ``tol`` or ``max_iter`` override it; no validation. ``opts`` may
    hold ``spans`` for the starts: ``_kernel_starts``' kernels, the right
    singular vectors whose squared singular values are at most ``ZERO_OUTCOME_TOL``."""
    return search_sphere(
        _payoff_fun_grad(committed_stack, claimed_stack, cheat),
        claimed_stack.shape[-1],
        maximize=False,
        extra_starts=starts,
        tol=tol,
        max_iter=max_iter,
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
    payoff can jump down on them; each descends on the unit sphere of the
    kernel it came from, so a one-ray kernel is scored as it is.
    """
    require_valid(spec)
    committed, claimed = _directed(spec, direction)
    cheat = _require_cheat(cheat, spec.cardinality)
    starts, spans = _kernel_starts(claimed.ops)
    return _worst_state(
        committed.ops,
        claimed.ops,
        cheat,
        starts,
        spans=spans,
        restarts=restarts,
        seed=seed,
        rng_tags=(2,),
    )


def _simplex_min_norm(gram: np.ndarray) -> np.ndarray:
    """Weights w on the simplex minimizing w^T gram w, for the positive
    semidefinite Gram of some points, by Wolfe's finite min-norm-point
    algorithm (Math. Programming 11, 1976).

    A corral of active points starts at the shortest one. A major cycle
    adds the point j that minimizes (gram w)_j while that lies below
    w^T gram w - 1e-12 max diag(gram). Each minor cycle solves one
    (|S| + 1)² KKT system for the affine minimizer v over the corral S, by
    least squares where duplicate, opposite or zero points make it
    singular. A positive v becomes w; otherwise w moves towards v until a
    weight reaches 0, and that point leaves the corral. The search also ends
    if round-off picks a point already in the corral, or after n² + n major
    cycles against round-off cycling: any weights on the simplex give a
    valid certificate, the exact ones the tightest.
    """
    n = len(gram)
    diag = gram.diagonal()
    tol = 1e-12 * diag.max()
    corral = [int(np.argmin(diag))]
    w = np.zeros(n)
    w[corral[0]] = 1.0
    for _ in range(n * n + n):
        gw = gram @ w
        j = int(np.argmin(gw))
        if gw[j] >= w @ gw - tol or j in corral:
            break
        corral.append(j)
        while True:
            kkt = np.ones((len(corral) + 1, len(corral) + 1))
            kkt[:-1, :-1], kkt[-1, -1] = gram[np.ix_(corral, corral)], 0.0
            rhs = np.eye(len(corral) + 1)[-1]
            try:
                v = np.linalg.solve(kkt, rhs)[:-1]
            except np.linalg.LinAlgError:
                v = np.linalg.lstsq(kkt, rhs)[0][:-1]
            ws = w[corral]
            if (v > 0.0).all():
                w[corral] = v
                break
            out = v <= 0.0
            ratio = ws[out] / (ws[out] - v[out])
            ws += ratio.min() * (v - ws)
            ws[np.flatnonzero(out)[np.argmin(ratio)]] = 0.0
            w[corral] = np.maximum(ws, 0.0)
            corral = [i for i in corral if w[i] > 0.0]
    return w


def _overlaps(committed_stack, claimed_stack, cheat, phis):
    """Payoff overlaps at the unit rows of ``phis`` from the branch images
    u_sl = committed_l phi_s and w_sj = claimed_j phi_s: b_sjl = <u_sl|w_sj>,
    1 / d_sj from ``_kept_inverse`` and c_sj = sum_l conj(cheat_jl) b_sjl,
    so the payoff at phi_s is sum_j |c_sj|² / d_sj and its derivative in
    conj(cheat_jl) is conj(c_sj) b_sjl / d_sj."""
    u, w = _branch_images(committed_stack, phis), _branch_images(claimed_stack, phis)
    b = w @ u.conj().transpose(0, 2, 1)
    return b, _kept_inverse(w), np.sum(cheat.conj() * b, axis=-1)


def _polar_ascent(surrogate, v: np.ndarray, max_iter: int, tol: float) -> tuple:
    """Ascend ``surrogate(v) -> (value, G = d value / d conj(V))`` over
    unitaries from ``v``; returns (unitary, accepted steps, converged).

    Each proposal polar(G + kappa V) maximizes the linearized gain
    2 Re Tr(G†(V' - V)) minus kappa |V' - V|² (Frobenius norms), with kappa
    = |G| at the start. A strict gain is accepted and relaxes kappa; else
    kappa grows and the proposal is redone. The ascent converges when
    |V†G - G†V| <= ``tol`` or kappa passes ``POLAR_KAPPA_CAP`` |G| with no
    gain, and stops unconverged after ``max_iter`` accepted steps. The end
    point is checked unitary within ``linalg.UNITARY_CONSTRUCTION_TOL``.
    """
    f, g = surrogate(v)
    kappa = np.linalg.norm(g)
    steps = 0
    while steps < max_iter:
        a = v.conj().T @ g
        if np.linalg.norm(a - a.conj().T) <= tol:
            break
        cand = linalg.polar_factor(g + kappa * v)
        fc, gc = surrogate(cand)
        if fc > f:
            v, f, g, steps = cand, fc, gc, steps + 1
            kappa *= POLAR_KAPPA_RELAX
        else:
            kappa *= POLAR_KAPPA_GROWTH
            if kappa > POLAR_KAPPA_CAP * np.linalg.norm(g):
                break
    linalg.require_unitary(v, tol=linalg.UNITARY_CONSTRUCTION_TOL)
    # Only the two stops leave the loop before max_iter accepted steps.
    return v, steps, steps < max_iter


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
    # Matmul products throughout: numpy runs its einsums in its own loops.
    grads = ((c.conj() * inv_d)[active][..., None] * b[active]).transpose(0, 2, 1) @ cheat.conj()
    skew = (grads - grads.conj().transpose(0, 2, 1)).reshape(len(active), -1)
    weights = np.zeros(len(phis))
    weights[active] = _simplex_min_norm((skew.conj() @ skew.T).real)
    bt = b.transpose(1, 0, 2)
    m_j = (bt * (weights[:, None] * inv_d).T[..., None]).transpose(0, 2, 1) @ bt.conj()
    y = (m_j @ cheat[..., None])[..., 0].T @ cheat.conj()
    y = 0.5 * (y + y.conj().T)
    tops = linalg.eigh_or_error(m_j - y)[0][:, -1]
    m = len(cheat)
    norms = np.linalg.norm(m_j, axis=(1, 2)).sum() + m * np.linalg.norm(y)
    allowance = 2.0 * (m + 1) * m * np.finfo(float).eps * norms
    return float(np.trace(y).real + tops.sum() + allowance), weights


@dataclass
class BindingReport:
    """Saddle estimate of Alice's best worst-case cheating probability.

    ``minimax_estimate`` is the payoff that ``best_cheat_unitary`` achieves
    at ``worst_state``. ``binding_upper`` is a certified upper bound on the
    maximin payoff, the minimum of ``upper_routes``: ``witness_dual``, the
    smallest of the dual certificates built at every cheat the full inner
    search scored (the Procrustes alignment and each outer restart's end
    point), each from the claimed-branch kernel states and that cheat's
    worst state, and ``payoff_cap``, which is 1. ``solver_trace`` holds one
    entry per scored cheat, the alignment at index 0; ``inner_trace`` is the
    inner search that scored the estimate. Their random starts drew on ``seed``.
    """

    label: str
    direction: str
    seed: int
    minimax_estimate: float
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

    One loop scores cheats in turn. Start 0 is the Procrustes alignment of
    the two families, scored as it is with 0 iterations; start k >= 1 is the
    end point of outer restart k - 1, up to ``outer_iters`` polar steps
    (``_polar_ascent``) with the inner minimum handled by Danskin's rule at
    the current worst state. Restart 0 ascends from the alignment, the rest
    from seeded Haar unitaries. During the ascent the inner minimum runs on
    a reduced budget with a warm start; ``tol`` bounds the ascent's
    Riemannian gradient |V†G - G†V|. Each scored cheat gets the worst state
    that ``min_over_states``'s full inner search finds for it (its starts
    include the claimed-branch kernel states, each kept on its kernel; the
    ascent's reduced searches start from them on the whole sphere), and a
    dual certificate built from the kernel states and that worst state. A
    certificate bounds an average over its states at every cheat, so a
    scored cheat above the smallest one by more than ``BRACKET_GUARD`` has a
    state its search missed: a search on the scoring budget runs at that
    cheat from the scored worst states, the lower score is kept, and a trace
    note gives the new search's score. The best score is the estimate, and
    the trace's ``best_start`` names the scored cheat that holds it (the
    earliest on a tie); the smallest certificate, capped at 1, is
    ``binding_upper``. The loop stops at the first scored cheat after which
    the bound lies within ``CERTIFIED_WIDTH`` of the estimate, with a note
    naming that cheat: no cheat can do better by more than that. An
    estimate above the certified bound by more than ``BRACKET_GUARD`` raises
    ``BracketInversionError``. With ``include_swapped`` the other direction
    is estimated by the same call and reported as ``swapped``.
    """
    require_valid(spec)
    _require_count("outer_restarts", outer_restarts, 1)
    _require_count("outer_iters", outer_iters, 0)
    _require_count("inner_restarts", inner_restarts, 1)
    tol = _require_tolerance(tol)
    committed, claimed = _directed(spec, direction)
    m = spec.cardinality
    ck, cl = committed.ops, claimed.ops
    kernel, spans = _kernel_starts(cl)
    # Scores search as min_over_states does, each kernel start on its kernel.
    # The loose budget only steers the outer ascent, from whole-sphere kernel
    # starts (kept on their kernels there, they steered a random panel to
    # lower estimates); each restart's end point is re-scored with the full one.
    full = dict(restarts=inner_restarts, seed=seed, tol=min(tol, INNER_TOL), spans=spans)
    loose = dict(restarts=min(2, inner_restarts), seed=seed, tol=max(tol, 1e-6), max_iter=40)

    procrustes = linalg.require_unitary(
        align_families(committed, claimed), tol=linalg.UNITARY_CONSTRUCTION_TOL
    )
    trace = SolverTrace(extra_starts=1, tol=float(tol), max_iter=int(outer_iters))
    trace.notes.append("start 0: Procrustes alignment of the two families")
    scored = []
    witness = np.inf
    v, iters, converged = procrustes, 0, True
    for k in range(outer_restarts + 1):
        if k:
            ridx = k - 1
            start = linalg.random_unitary(m, linalg.spawn_rng(seed, 3, ridx)) if ridx else procrustes
            warm = []

            def surrogate(v):
                res = _worst_state(ck, cl, v, kernel + warm, rng_tags=(4, ridx), **loose)
                trace.count(res.trace)
                warm[:] = [res.vector]
                b, inv_d, c = _overlaps(ck, cl, v, res.vector[None])
                return res.value, (c.conj() * inv_d)[0, :, None] * b[0]

            v, iters, converged = _polar_ascent(surrogate, start, outer_iters, tol)
        inner = _worst_state(ck, cl, v, kernel, rng_tags=(2,), **full)
        trace.count(inner.trace)
        # Every (mu, Y) certifies, so each scored cheat's certificate counts.
        witness = min(witness, _dual_bound(ck, cl, v, kernel + [inner.vector])[0])
        scored.append((v, inner))
        # A certificate bounds a mu-average of its states at every cheat, so a
        # scored cheat above it missed a state. Its kernel and seeded starts
        # would rerun as they ran, so only the scored worst states are new.
        worst = [res.vector for _, res in scored]
        for i, (u, res) in enumerate(scored):
            if res.value > witness + BRACKET_GUARD:
                again = _worst_state(ck, cl, u, worst, tol=full["tol"])
                trace.count(again.trace)
                trace.notes.append(f"cheat {i} rescored from the scored worst states: {again.value!r}")
                if again.value < res.value:
                    scored[i] = (u, again)
        trace.values[:k] = [res.value for _, res in scored[:k]]
        best = trace.record([scored[k][1].value], [iters], [converged], maximize=True)
        width = min(witness, PAYOFF_CAP) - trace.values[best]
        if width <= CERTIFIED_WIDTH:
            head = f"certified after restart {k - 1}" if k else "Procrustes start certified"
            tail = "remaining restarts skipped" if k else "outer ascent skipped"
            trace.notes.append(
                f"{head}: binding_upper - estimate {width!r} <= "
                f"CERTIFIED_WIDTH {CERTIFIED_WIDTH!r}; {tail}"
            )
            break

    best_v, inner = scored[trace.best_start]
    estimate = inner.value
    routes = {"witness_dual": witness, "payoff_cap": PAYOFF_CAP}
    upper = min(routes.values())
    if estimate > upper + BRACKET_GUARD:
        raise BracketInversionError(
            f"binding estimate {estimate!r} exceeds certified upper bound {upper!r} "
            f"for protocol {spec.label!r}, direction {direction}"
        )

    report = BindingReport(
        label=spec.label,
        direction=direction,
        seed=int(seed),
        minimax_estimate=float(estimate),
        binding_upper=float(upper),
        upper_routes=routes,
        best_cheat_unitary=best_v,
        worst_state=inner.vector,
        solver_trace=trace,
        inner_trace=inner.trace,
    )
    if include_swapped:
        other = "10" if direction == "01" else "01"
        report.swapped = minimax_cheat(
            spec, other, outer_restarts, outer_iters, inner_restarts, seed, tol, False
        )
    return report
