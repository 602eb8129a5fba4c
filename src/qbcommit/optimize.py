"""Backtracking gradient search on the complex unit sphere or the unitary group.

One line-search engine drives the concealment maximizer, the binding
minimizer over states and the ascents over unitary reindexings. The geometry
is its only argument that changes the steps: on the sphere the gradient is
projected onto the tangent space and trial points are renormalized; on the
unitary group U(m) the iterate is the unitary V itself, the gradient is
projected onto V times the skew-Hermitian matrices, and trial points are
retracted to their polar factor. A polar factor is unitary by construction,
so ``ascend_params`` checks the starts it is given and the unitaries it
returns, not each trial point. Each iteration doubles the last
accepted step, backtracks until the Armijo condition holds, then halves
while smaller steps keep paying. A start ends on a small gradient, on a run
of accepted steps that each gain almost nothing, or when no step down to
``MIN_STEP`` meets the Armijo condition. The last case is treated as
stationary and counted in ``SolverTrace.line_search_failures``: it happens at
jump extrema, such as the binding payoff at a claimed branch's kernel state,
where the value jumps the wrong way in every direction and no gradient,
analytic or finite-difference, yields a step. It also happens at a smooth
optimum that a start has reached within round-off while its gradient norm is
still above ``tol``: there the gains the Armijo test asks for are below what
double precision resolves (3 of 8 dim-3 starts on a quadratic form end this
way), so the count is not a count of stuck starts alone.

The engine is a generator: it yields its start, then each unretracted
trial point, and receives (point, value, gradient) back, the point being
the trial point's retraction. Gradients are the objectives' own analytic
ones (d value / d conj(x), x a state or a unitary), each taken from the
pieces its value already computed; the engine takes no finite differences.
``search_sphere`` and ``ascend_params`` advance all their starts in
lockstep: each round after the first makes one retraction call on the
unfinished starts' trial points and one batched objective call on the
retracted stack. Both act row by row with the same arithmetic as on
one row, and a start's trajectory depends only on its own values, so the
result equals running the starts one by one.

Determinism contract: results are a pure function of the inputs and the
seed. Every restart derives its own generator from (seed, tags, restart
index), and the reduction runs in start order and keeps the earliest start
on ties, so adding restarts can only improve the result.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from . import linalg

ARMIJO = 1e-4
MIN_STEP = 1e-14

# A search whose value a certified bound meets within this much skips its
# remaining starts. Every certificate in the package (cb norm in [0, 2],
# binding payoff in [0, 1], Kraus gap) uses this one width.
CERTIFIED_WIDTH = 1e-5

# A search value above its certified bound by more than this is a solver bug,
# reported as a BracketInversionError by the concealment and binding analyses.
BRACKET_GUARD = 1e-8


@dataclass
class SolverTrace:
    """Reproducibility record attached to optimizer-backed reports.

    ``line_search_failures`` counts the starts that ended because no step
    down to ``MIN_STEP`` met the Armijo condition: stuck at a jump extremum,
    or within round-off of a smooth optimum with the gradient norm above ``tol``.
    """

    seed: int
    restarts: int
    extra_starts: int
    tol: float
    max_iter: int
    iterations: list = field(default_factory=list)
    converged: list = field(default_factory=list)
    values: list = field(default_factory=list)
    best_start: int = -1
    line_search_failures: int = 0
    notes: list = field(default_factory=list)

    def record(self, values, iterations, converged, maximize: bool) -> int:
        """Append per-start outcomes in start order; set and return
        ``best_start``, the earliest start holding the best value so far."""
        self.values.extend(float(v) for v in values)
        self.iterations.extend(iterations)
        self.converged.extend(converged)
        pick = max if maximize else min
        self.best_start = pick(range(len(self.values)), key=self.values.__getitem__)
        return self.best_start


@dataclass
class SphereResult:
    value: float
    vector: np.ndarray
    trace: SolverTrace


class _Geometry(NamedTuple):
    tangent: Callable  # (point, gradient) -> ascent direction at the point
    retract: Callable  # list of trial points -> stack of points of the search space
    max_step: float


def _project(psi: np.ndarray, grad: np.ndarray) -> np.ndarray:
    """Remove the radial component; the sphere tangent piece remains."""
    return grad - np.vdot(psi, grad).real * psi


def _normalize_rows(points) -> np.ndarray:
    """``linalg.normalize_state`` of each vector, stacked as rows."""
    return np.array([linalg.normalize_state(v) for v in points])


def _polar_factors(points) -> np.ndarray:
    """``linalg.polar_factor`` of the stacked matrices, looked up at call time."""
    return linalg.polar_factor(points)


def _skew_tangent(v: np.ndarray, grad: np.ndarray) -> np.ndarray:
    """Riemannian gradient V skew(V† ∇) on U(m), with ∇ = 2 ``grad`` the
    Euclidean gradient of a real function of V: a step along it gains its
    squared Frobenius norm to first order, as the Armijo test assumes."""
    a = v.conj().T @ grad
    return v @ (a - a.conj().T)


_SPHERE = _Geometry(_project, _normalize_rows, 1e3)
_UNITARY = _Geometry(_skew_tangent, _polar_factors, 1e2)


def _line_search(
    x: np.ndarray,
    geometry: _Geometry,
    sgn: float,
    *,
    tol: float,
    max_iter: int,
    stall_tol: float,
    stall_limit: int,
    polish=None,
):
    """Ascend ``sgn * fun`` from ``x``: yields ``x``, then unretracted trial
    points, and is sent (point, value, gradient) back for each, the point
    being the start itself and after that the trial point's retraction.
    Returns (x, value, iterations, converged, stuck), where ``stuck`` says
    that no step down to ``MIN_STEP`` met the Armijo condition."""
    tangent, _, max_step = geometry
    x, f, g = yield x
    step = 1.0
    stalled = 0
    it = 0
    for it in range(1, max_iter + 1):
        if polish is not None:
            cand = polish(x)
            if cand is not None:
                cand, fc, gc = yield cand
                if sgn * (fc - f) > 1e-15:
                    stalled = stalled + 1 if sgn * (fc - f) < stall_tol else 0
                    x, f, g = cand, fc, gc
        if stalled >= stall_limit:
            return x, f, it, True, False
        r = tangent(x, g)
        gn = float(linalg.vector_norm(r.ravel()))
        if gn <= tol:
            return x, f, it, True, False
        direction = sgn * r
        eta = min(step * 2.0, max_step)
        while eta > MIN_STEP:
            cand, fc, gc = yield x + eta * direction
            if sgn * (fc - f) >= ARMIJO * eta * gn * gn:
                break
            eta *= 0.5
        else:
            # No step down to MIN_STEP meets the Armijo condition: stationary.
            return x, f, it, True, True
        # A bare Armijo pass can sit on a reflecting step that crosses a
        # valley with almost no progress; probing smaller steps while they
        # keep improving escapes that.
        for _ in range(6):
            half, fh, gh = yield x + 0.5 * eta * direction
            if sgn * (fh - fc) <= 0.0:
                break
            cand, fc, gc = half, fh, gh
            eta *= 0.5
        stalled = stalled + 1 if sgn * (fc - f) < stall_tol else 0
        x, f, g, step = cand, fc, gc, eta
    return x, f, it, False, False


def _lockstep(searches, fun_grad, retract) -> list:
    """Run line-search generators together and return their outcomes.

    Round 0 evaluates the starts as given. Every later round retracts the
    pending trial points of the unfinished searches with one ``retract``
    call on their list, then evaluates the retracted stack with one
    ``fun_grad`` call. The list is not stacked first: at the few rows of a
    round, one more array build costs more than it saves.
    """
    pending = [next(search) for search in searches]
    outcomes = [None] * len(searches)
    active = list(range(len(searches)))
    points = np.array(pending)
    while active:
        values, grads = fun_grad(points)
        still = []
        for i, x, f, g in zip(active, points, values, grads):
            try:
                pending[i] = searches[i].send((x, f, g))
                still.append(i)
            except StopIteration as done:
                outcomes[i] = done.value
        active = still
        if active:
            points = retract([pending[i] for i in active])
    return outcomes


def search_sphere(
    fun_grad,
    dim: int,
    *,
    maximize: bool,
    restarts: int,
    seed: int,
    tol: float = 1e-8,
    max_iter: int = 500,
    extra_starts=(),
    polish=None,
    rng_tags=(),
    stall_tol: float = 1e-10,
    stall_limit: int = 8,
) -> SphereResult:
    """Best stationary value of ``fun_grad`` over unit vectors of ``dim``.

    ``fun_grad`` is batched: for unit vectors stacked as rows of an
    ``(R, dim)`` array it returns values ``(R,)`` and gradients d value /
    d conj(psi) ``(R, dim)``. The starts advance in lockstep: each round one
    retraction call, normalizing the stacked trial points of the unfinished
    starts row by row, and one objective call on them; a start's trajectory depends only on its own
    values, so the result equals running the starts one by one.
    ``extra_starts`` are deterministic starting vectors tried before
    the seeded random ones; ``polish`` may propose a candidate vector from a
    start's current iterate and is accepted only on strict improvement,
    keeping the search monotone. A run of ``stall_limit`` accepted steps each
    gaining less than ``stall_tol`` ends the start early; near-flat regions
    are not worth crawling.
    """
    if restarts < 0:
        raise ValueError("restarts must be nonnegative")
    sgn = 1.0 if maximize else -1.0
    starts = [linalg.normalize_state(s) for s in extra_starts]
    for r in range(restarts):
        starts.append(linalg.random_state(dim, linalg.spawn_rng(seed, *rng_tags, r)))
    if not starts:
        raise ValueError("no starting points: need restarts or extra_starts")

    trace = SolverTrace(
        seed=int(seed),
        restarts=int(restarts),
        extra_starts=len(starts) - restarts,
        tol=float(tol),
        max_iter=int(max_iter),
    )
    opts = dict(tol=tol, max_iter=max_iter, stall_tol=stall_tol, stall_limit=stall_limit)
    searches = [_line_search(s, _SPHERE, sgn, polish=polish, **opts) for s in starts]
    outcomes = _lockstep(searches, fun_grad, _SPHERE.retract)

    vectors, values, iterations, converged, stuck = zip(*outcomes)
    best = trace.record(values, iterations, converged, maximize)
    trace.line_search_failures += sum(stuck)
    return SphereResult(value=trace.values[best], vector=vectors[best], trace=trace)


def ascend_params(
    fun_grad,
    starts,
    *,
    trace: SolverTrace,
    max_iter: int,
    tol: float = 1e-7,
    stall_tol: float = 1e-9,
    stall_limit: int = 12,
) -> list:
    """Backtracking gradient ascent on the unitary group U(m).

    ``fun_grad`` is batched: for unitaries stacked as ``(R, m, m)`` it
    returns values ``(R,)`` and gradients d value / d conj(V) ``(R, m, m)``.
    Steps follow the Riemannian gradient and retract to the polar factor of
    the trial point. A polar factor is unitary by construction, so trial
    points are not checked; what enters and what leaves is: the stack of
    ``starts`` and the stack of returned unitaries are each checked finite
    and unitary within ``linalg.UNITARY_CONSTRUCTION_TOL``, so a bad start
    or a broken retraction raises ``ValueError``. All ``starts`` ascend in
    lockstep, each round one ``linalg.polar_factor`` call on the stacked
    trial points and one objective call on the result, each start as if it
    ran alone. A start stops on gradient norm, on step exhaustion
    (counted in ``trace.line_search_failures``), or on ``stall_limit``
    accepted steps in a row that each gain less than ``stall_tol``. Returns
    (unitary, value, iterations, converged) per start, in start order.
    """
    check_tol = linalg.UNITARY_CONSTRUCTION_TOL
    opts = dict(tol=tol, max_iter=max_iter, stall_tol=stall_tol, stall_limit=stall_limit)
    starts = linalg.require_unitary(np.array(starts), tol=check_tol)
    searches = [_line_search(s, _UNITARY, 1.0, **opts) for s in starts]
    outcomes = _lockstep(searches, fun_grad, _UNITARY.retract)
    linalg.require_unitary(np.array([v for v, *_ in outcomes]), tol=check_tol)
    trace.line_search_failures += sum(stuck for *_, stuck in outcomes)
    return [(v, float(f), it, converged) for v, f, it, converged, _ in outcomes]
