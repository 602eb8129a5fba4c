"""Binding analysis: Alice's delayed-choice attack on the opening.

Alice commits one bit honestly up to the measurement, keeps everything
coherent, and later reindexes her opening labels with a unitary before
claiming the other bit. Her per-outcome success is a normalized squared
overlap between the reindexed committed branch and the claimed branch; the
protocol is binding exactly when no reindexing passes verification for every
input state Bob might have sent, since Bob keeps his choice to himself.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .optimize import SolverTrace, SphereResult, ascend_params, search_sphere
from .protocol import ProtocolSpec, align_families, require_valid

ZERO_OUTCOME_TOL = 1e-14
KERNEL_SINGULAR_TOL = 1e-7
MAX_KERNEL_STARTS = 8
PERFECT_PAYOFF_STOP = 1.0 - 1e-9

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
    zero_tol: float = ZERO_OUTCOME_TOL,
) -> float:
    """Alice's verification-passing probability for one cheat and one state.

    Direction "01" means committed 0, claimed 1; "10" swaps the roles.
    Opening outcomes whose claimed branch has squared norm at most
    ``zero_tol`` occur with vanishing probability under an honest claim and
    contribute zero.
    """
    require_valid(spec)
    committed, claimed = _directed(spec, direction)
    cheat = linalg.require_unitary(cheat)
    m = spec.cardinality
    if cheat.shape != (m, m):
        raise ValueError(
            f"cheat unitary shape {cheat.shape} does not match cardinality {m}"
        )
    phi = linalg.as_state(state)
    if phi.size != spec.dim_in:
        raise ValueError(
            f"state length {phi.size} does not match input dimension {spec.dim_in}"
        )
    a = _payoff_pieces(committed.stack(), claimed.stack(), cheat)
    (value,), _ = _payoff_fun_grad(a, claimed.stack(), zero_tol)(phi[None])
    return float(value)


def _payoff_pieces(committed_stack, claimed_stack, cheat):
    effective = np.einsum("jl,lab->jab", cheat, committed_stack)
    # a_j = effective_j† claimed_j drives both the payoff and its gradient.
    return np.einsum("jax,jay->jxy", effective.conj(), claimed_stack)


def _payoff_fun_grad(a, claimed_stack, zero_tol):
    # Batched over the rows of phis; alice_cheat_prob evaluates one row here,
    # so a reported payoff and the solver's value at the same point agree bit
    # for bit. A row that drops an outcome sums its kept terms alone: zeros in
    # the sum would change its rounding.
    a_conj = a.conj()
    claimed_conj = claimed_stack.conj()

    def fun_grad(phis: np.ndarray):
        c = np.einsum("rx,jxy,ry->rj", phis.conj(), a, phis)
        w = np.einsum("jab,rb->rja", claimed_stack, phis)
        d = np.einsum("rja,rja->rj", w.conj(), w).real
        mask = d > zero_tol
        d = np.where(mask, d, 1.0)
        c2 = np.abs(c) ** 2
        terms = np.where(mask, c2 / d, 0.0)
        values = terms.sum(axis=1)
        if not mask.all():
            for r in np.flatnonzero(~mask.all(axis=1)):
                values[r] = terms[r][mask[r]].sum()
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
    for op in claimed_stack:
        try:
            _, svals, vh = np.linalg.svd(op)
        except np.linalg.LinAlgError:
            continue
        for i in range(vh.shape[0]):
            sval = svals[i] if i < svals.size else 0.0
            if sval <= KERNEL_SINGULAR_TOL:
                starts.append(vh[i].conj())
        if len(starts) >= MAX_KERNEL_STARTS:
            break
    return starts[:MAX_KERNEL_STARTS]


def min_over_states(
    spec: ProtocolSpec,
    cheat,
    direction: str = "01",
    restarts: int = 16,
    seed: int = 0,
    tol: float = 1e-8,
    max_iter: int = 300,
    extra_starts=(),
) -> SphereResult:
    """Upper bound on the payoff over all states Bob could have chosen.

    Multi-start projected gradient descent on the state sphere; the achieved
    value is reported. Claimed-branch kernel states join the start list
    because the payoff can jump down on them.
    """
    require_valid(spec)
    committed, claimed = _directed(spec, direction)
    cheat = linalg.require_unitary(cheat)
    if cheat.shape != (spec.cardinality, spec.cardinality):
        raise ValueError(
            f"cheat unitary shape {cheat.shape} does not match cardinality "
            f"{spec.cardinality}"
        )
    a = _payoff_pieces(committed.stack(), claimed.stack(), cheat)
    starts = list(extra_starts) + _kernel_starts(claimed.stack())
    return search_sphere(
        _payoff_fun_grad(a, claimed.stack(), ZERO_OUTCOME_TOL),
        spec.dim_in,
        maximize=False,
        restarts=restarts,
        seed=seed,
        tol=tol,
        max_iter=max_iter,
        extra_starts=starts,
        rng_tags=(2,),
    )


@dataclass
class BindingReport:
    """Saddle estimate of Alice's best worst-case cheating probability."""

    label: str
    direction: str
    minimax_estimate: float
    payoff_at_saddle: float
    best_cheat_unitary: np.ndarray
    worst_state: np.ndarray
    solver_trace: SolverTrace
    inner_trace: SolverTrace
    swapped: "BindingReport | None" = None


def _wirtinger_cheat_gradient(committed_stack, claimed_stack, cheat, phi, zero_tol):
    """d payoff / d conj(cheat) at fixed state, for the outer maximizer."""
    u0 = np.einsum("lab,b->la", committed_stack, phi)
    w = np.einsum("jab,b->ja", claimed_stack, phi)
    pair = np.einsum("ja,la->jl", w, u0.conj())
    c = np.einsum("jl,jl->j", cheat.conj(), pair)
    d = np.real(np.einsum("ja,ja->j", w.conj(), w))
    mask = d > zero_tol
    scale = np.where(mask, np.conj(c) / np.where(mask, d, 1.0), 0.0)
    return scale[:, None] * pair


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
    """Estimate of max over cheats of the worst-case payoff.

    Outer gradient ascent over the real parameters of the cheat unitary with
    the inner minimum handled by Danskin's rule at the current worst state.
    The first outer restart starts from the Procrustes alignment of the two
    families, which is already optimal for perfectly concealing protocols;
    the rest start from seeded Haar unitaries. During the ascent the inner
    minimum runs on a reduced budget with a warm start; every restart's
    candidate is re-scored with the full inner budget, so the reported
    estimate is an honestly achieved value. The search stops early once the
    payoff cannot improve any further (it is capped at one).
    """
    if outer_restarts < 1:
        raise ValueError(f"outer_restarts must be at least 1, got {outer_restarts}")
    require_valid(spec)
    committed, claimed = _directed(spec, direction)
    m = spec.cardinality
    din = spec.dim_in
    ck = committed.stack()
    cl = claimed.stack()
    kernel = _kernel_starts(cl)
    eval_restarts = min(2, inner_restarts)

    outer_trace = SolverTrace(
        seed=int(seed),
        restarts=int(outer_restarts),
        extra_starts=0,
        tol=float(tol),
        max_iter=int(outer_iters),
    )
    outer_trace.notes.append("start 0: Procrustes alignment of the two families")

    best = None  # (estimate, params, inner SphereResult)
    for ridx in range(outer_restarts):
        if ridx == 0:
            v0 = align_families(committed, claimed)
        else:
            v0 = linalg.random_unitary(m, linalg.spawn_rng(seed, 3, ridx))
        warm = [None]

        def surrogate(rows, _ridx=ridx, _warm=warm):
            (v,), eig = linalg.unitaries_from_params(rows)
            a = _payoff_pieces(ck, cl, v)
            starts = list(kernel)
            if _warm[0] is not None:
                starts.append(_warm[0])
            # Loose budget: this minimum only steers the outer ascent, the
            # restart is re-scored afterwards with the full inner budget.
            res = search_sphere(
                _payoff_fun_grad(a, cl, ZERO_OUTCOME_TOL),
                din,
                maximize=False,
                restarts=eval_restarts,
                seed=seed,
                tol=max(tol, 1e-6),
                max_iter=40,
                extra_starts=starts,
                rng_tags=(4, _ridx),
                stall_tol=1e-7,
                stall_limit=5,
            )
            _warm[0] = res.vector
            gv = _wirtinger_cheat_gradient(ck, cl, v, res.vector, ZERO_OUTCOME_TOL)
            return [res.value], linalg.unitary_param_gradient(eig, gv[None])

        # Payoffs live in [0, 1]; chasing gains below a few 1e-8 only crawls
        # the dropped-outcome boundary layer, so the ascent stalls out there.
        [(params, _, iters, converged)] = ascend_params(
            surrogate,
            [linalg.params_from_unitary(v0)],
            trace=outer_trace,
            max_iter=outer_iters,
            tol=tol,
            stop_value=PERFECT_PAYOFF_STOP,
            stall_tol=2e-8,
            stall_limit=10,
        )
        inner = min_over_states(
            spec,
            linalg.unitary_from_params(params),
            direction=direction,
            restarts=inner_restarts,
            seed=seed,
            tol=min(tol, 1e-8),
        )
        outer_trace.iterations.append(iters)
        outer_trace.converged.append(converged)
        outer_trace.values.append(inner.value)
        if best is None or inner.value > best[0]:
            best = (inner.value, params, inner)
            outer_trace.best_start = ridx
        if best[0] >= PERFECT_PAYOFF_STOP:
            outer_trace.notes.append(
                f"stopped after restart {ridx}: payoff within 1e-9 of its cap"
            )
            break

    estimate, params, inner = best
    best_v = linalg.unitary_from_params(params)
    worst = inner.vector
    payoff = alice_cheat_prob(spec, best_v, worst, direction=direction)

    swapped = None
    if include_swapped:
        swapped = minimax_cheat(
            spec,
            direction="10" if direction == "01" else "01",
            outer_restarts=outer_restarts,
            outer_iters=outer_iters,
            inner_restarts=inner_restarts,
            seed=seed,
            tol=tol,
            include_swapped=False,
        )

    return BindingReport(
        label=spec.label,
        direction=direction,
        minimax_estimate=float(estimate),
        payoff_at_saddle=float(payoff),
        best_cheat_unitary=best_v,
        worst_state=worst,
        solver_trace=outer_trace,
        inner_trace=inner.trace,
        swapped=swapped,
    )
