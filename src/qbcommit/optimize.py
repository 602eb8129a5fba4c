"""Backtracking gradient search on the complex unit sphere.

One line-search engine drives the concealment maximizer and the binding
minimizer over states. The gradient is projected onto the sphere's tangent
space and trial points are renormalized. Each iteration doubles the last
accepted step, backtracks until the Armijo condition holds, then halves
while smaller steps keep paying. A start ends on a small gradient, on a run
of accepted steps that each gain almost nothing, at a polish candidate that
is converged and level with the iterate (below), or when no step down to
``MIN_STEP`` meets the Armijo condition. The last case is treated as
stationary and counted in ``SolverTrace.line_search_failures``: it happens at
jump extrema, such as the binding payoff at a claimed branch's kernel state,
where the value jumps the wrong way in every direction and no gradient,
analytic or finite-difference, yields a step. It also happens at a smooth
optimum that a start has reached within round-off while its gradient norm is
still above ``tol``: there the gains the Armijo test asks for are below what
double precision resolves (3 of 8 dim-3 starts on a quadratic form end this
way), so the count is not a count of stuck starts alone.

A polish, tried first in each iteration, proposes a candidate or None. A
candidate that gains more than 1e-15 replaces the iterate and stands in for
the iteration's gradient step, which would gain almost nothing after it.
One level with the iterate within 1e-15 whose tangent gradient is within
``tol``, while the iterate's is not, ends the start as converged: past a
converged Newton point, gradient steps only crawl at round-off. A far worse
candidate is still ignored, and None costs no objective row. The rule
trusts the polish to propose only stationary points that are optima, as the
concealment's Newton point on its concave quotient is.

The engine is a generator: it yields its start, then each unnormalized
trial point, and receives (point, value, gradient, *pieces) back, the point
being the trial point normalized and ``pieces`` the objective's further
per-row outputs, which the polish reads at the iterate. Gradients are the
objectives' own analytic ones (d value / d conj(psi)), each taken from the
pieces its value already computed; the engine takes no finite differences.
``search_sphere`` advances all its starts in lockstep: each round after the
first makes one normalization call on the unfinished starts' trial points
and one batched objective call on the normalized stack. Both act row by row with the same
arithmetic as on one row, and a start's trajectory depends only on its own
values, so the result equals running the starts one by one.

Determinism contract: results are a pure function of the inputs and the
seed. Every restart derives its own generator from (seed, tags, restart
index), so the seeded starts are a pure function of (dimension, count, seed,
tags); ``linalg._seeded_states`` draws them once per key, and consecutive
searches of one key reuse the draw. The reduction runs in start order and
keeps the earliest start on ties, so adding restarts can only improve the result.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import linalg

ARMIJO = 1e-4
MIN_STEP = 1e-14
MAX_STEP = 1e3
# A run of STALL_LIMIT accepted steps each gaining less than STALL_TOL ends a
# start early; near-flat regions are not worth crawling.
STALL_TOL = 1e-10
STALL_LIMIT = 8

# A search whose value a certified bound meets within this much stops: two
# read it, binding (payoff in [0, 1]) to skip its remaining restarts and the
# Kraus-gap bracket to skip its remaining steps.
CERTIFIED_WIDTH = 1e-5

# A search value above its certified bound by more than this is a solver bug,
# reported as a BracketInversionError by the concealment and binding analyses.
BRACKET_GUARD = 1e-8


def _require_tolerance(tol) -> float:
    """``tol`` as a float, checked finite and nonnegative for every public
    entry point and ``--tol``: a negative slack invents violations, NaN hides them."""
    tol = float(tol)
    if not np.isfinite(tol) or tol < 0:
        raise ValueError(f"tolerance must be a finite, nonnegative number, got {tol!r}")
    return tol


def _require_count(name: str, value: int, minimum: int) -> None:
    """Raise ``ValueError`` when a budget count is below its CLI minimum."""
    if value < minimum:
        raise ValueError(f"{name} must be at least {minimum}, got {value}")


@dataclass
class SolverTrace:
    """How a report's search ran, read under its stop rule ``tol``, ``max_iter``.

    ``values``, ``iterations`` and ``converged`` hold one entry per start
    that ran, in start order: the ``extra_starts`` fixed starts, then
    ``len(values) - extra_starts`` seeded restarts, drawn with the report's
    seed (``BindingReport.seed``). ``best_start`` is the earliest start
    holding the best value, and the report's headline is read from that value.

    ``line_search_failures`` counts the sphere-search starts that ended
    because no step down to ``MIN_STEP`` met the Armijo condition: stuck at
    a jump extremum, or within round-off of a smooth optimum with the
    gradient norm above ``tol``. A concealment start moves mostly by Newton
    points, with no line search after them, and ends at a converged one.
    ``evaluations`` counts the objective rows, summed over lockstep rounds,
    and ``polish_calls`` the polish calls. Concealment's trace is that of its
    one search, from the entangled start. Binding's outer trace sums the rows
    and failures of every sphere search it ran, scored and surrogate; it has
    no polish. The Kraus-gap bracket's trace has one entry, its step count,
    and counts its ``eigh`` calls as ``evaluations``.
    """

    extra_starts: int
    tol: float
    max_iter: int
    iterations: list = field(default_factory=list)
    converged: list = field(default_factory=list)
    values: list = field(default_factory=list)
    best_start: int = -1
    line_search_failures: int = 0
    evaluations: int = 0
    polish_calls: int = 0
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

    def count(self, other: "SolverTrace") -> None:
        """Add the line-search failures, rows and polish calls of ``other``."""
        self.line_search_failures += other.line_search_failures
        self.evaluations += other.evaluations
        self.polish_calls += other.polish_calls


@dataclass
class SphereResult:
    value: float
    vector: np.ndarray
    trace: SolverTrace


def _project(psi: np.ndarray, grad: np.ndarray) -> np.ndarray:
    """Remove the radial component; the sphere tangent piece remains."""
    return grad - np.vdot(psi, grad).real * psi


def _normalize_rows(points) -> np.ndarray:
    """``linalg.normalize_state`` of each vector, stacked as rows."""
    return np.array([linalg.normalize_state(v) for v in points])


def _line_search(
    x: np.ndarray,
    sgn: float,
    *,
    tol: float,
    max_iter: int,
    polish=None,
    span=None,
):
    """Ascend ``sgn * fun`` from ``x``: yields ``x``, then unnormalized trial
    points, and is sent (point, value, gradient, *pieces) back for each, the
    point being the start itself and after that the trial point normalized,
    and ``pieces`` the objective's further per-row outputs. Returns (x,
    value, iterations, converged, stuck), where ``stuck`` says that no step
    down to ``MIN_STEP`` met the Armijo condition.

    ``polish(x, g, *pieces)`` returns a candidate or None. The candidate
    replaces the iterate on a gain above 1e-15, in place of the gradient
    step, and is returned as converged when it is level within 1e-15 and
    only its tangent gradient is within ``tol``. None costs no row.

    With ``span``, an orthonormal basis B whose range holds ``x``, the
    gradient g is replaced by B B† g before the tangent projection, so every
    trial point stays in that range: the search runs on its unit sphere."""

    def tangent(x, g):
        if span is not None:
            g = span @ (span.conj().T @ g)
        return _project(x, g)

    x, f, g, *pieces = yield x
    step = 1.0
    stalled = 0
    it = 0
    for it in range(1, max_iter + 1):
        skip = False
        cand = None if polish is None else polish(x, g, *pieces)
        if cand is not None:
            cand, fc, gc, *pc = yield cand
            gain = sgn * (fc - f)
            if gain > 1e-15:
                stalled = stalled + 1 if gain < STALL_TOL else 0
                x, f, g, pieces, skip = cand, fc, gc, pc, True
            elif gain >= -1e-15 and (
                linalg.vector_norm(tangent(cand, gc)) <= tol < linalg.vector_norm(tangent(x, g))
            ):
                return cand, fc, it, True, False
        if stalled >= STALL_LIMIT:
            return x, f, it, True, False
        r = tangent(x, g)
        gn = float(linalg.vector_norm(r))
        if gn <= tol:
            return x, f, it, True, False
        if skip:
            continue
        direction = sgn * r
        eta = min(step * 2.0, MAX_STEP)
        while eta > MIN_STEP:
            cand, fc, gc, *pc = yield x + eta * direction
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
            half, fh, gh, *ph = yield x + 0.5 * eta * direction
            if sgn * (fh - fc) <= 0.0:
                break
            cand, fc, gc, pc = half, fh, gh, ph
            eta *= 0.5
        stalled = stalled + 1 if sgn * (fc - f) < STALL_TOL else 0
        x, f, g, pieces, step = cand, fc, gc, pc, eta
    return x, f, it, False, False


def _lockstep(searches, fun_grad):
    """Run line-search generators together; return their outcomes and the
    number of objective rows evaluated.

    Round 0 evaluates the starts as given. Every later round normalizes the
    pending trial points of the unfinished searches with one
    ``_normalize_rows`` call on their list, then evaluates the normalized
    stack with one ``fun_grad`` call. The list is not stacked first: at the
    few rows of a round, one more array build costs more than it saves.
    """
    pending = [next(search) for search in searches]
    outcomes = [None] * len(searches)
    active = list(range(len(searches)))
    points = np.array(pending)
    rows = 0
    while active:
        rows += len(points)
        still = []
        for i, x, out in zip(active, points, zip(*fun_grad(points))):
            try:
                pending[i] = searches[i].send((x, *out))
                still.append(i)
            except StopIteration as done:
                outcomes[i] = done.value
        active = still
        if active:
            points = _normalize_rows([pending[i] for i in active])
    return outcomes, rows


def search_sphere(
    fun_grad,
    dim: int,
    *,
    maximize: bool,
    restarts: int = 0,
    seed: int = 0,
    tol: float = 1e-8,
    max_iter: int = 500,
    extra_starts=(),
    spans=None,
    polish=None,
    rng_tags=(),
) -> SphereResult:
    """Best stationary value of ``fun_grad`` over unit vectors of ``dim``.

    ``fun_grad`` is batched: for unit vectors stacked as rows of an
    ``(R, dim)`` array it returns values ``(R,)`` and gradients d value /
    d conj(psi) ``(R, dim)``. The starts advance in lockstep: each round one
    call normalizes the trial points of the unfinished starts row by row,
    and one objective call evaluates them; a start's trajectory depends only
    on its own values, so the result equals running the starts one by one.
    ``extra_starts`` are deterministic starting vectors tried before the
    ``restarts`` seeded random ones, the rows of ``linalg._seeded_states(dim,
    restarts, seed, rng_tags)``; with no restarts (the default) ``seed`` is
    unread, nothing is drawn and the last draw stays cached. ``spans``, one
    entry per extra start, confines that start to the unit sphere of the range
    of an orthonormal basis that holds it (``None`` for the whole sphere, and
    for every random start).
    ``fun_grad`` may return further ``(R, ...)`` arrays after the gradients.
    ``polish(psi, grad, *pieces)`` is called at the start of every iteration
    with the iterate, the gradient and the iterate's rows of those arrays,
    all as the search already holds them, and returns None or a vector,
    such as a Newton point, which the search normalizes and evaluates. It is
    accepted on a gain above 1e-15, keeping the search monotone, in place of
    the iteration's gradient step; it ends the start as converged when it is
    level with the iterate within 1e-15 and its tangent gradient is within
    ``tol`` while the iterate's is not. A run of ``STALL_LIMIT`` accepted
    steps each gaining less than ``STALL_TOL`` ends the start early.
    """
    _require_count("restarts", restarts, 0)
    sgn = 1.0 if maximize else -1.0
    starts = [linalg.normalize_state(s) for s in extra_starts]
    if restarts:
        starts.extend(linalg._seeded_states(dim, restarts, seed, tuple(rng_tags)))
    if not starts:
        raise ValueError("no starting points: need restarts or extra_starts")

    trace = SolverTrace(extra_starts=len(starts) - restarts, tol=float(tol), max_iter=int(max_iter))
    spans = (list(spans) if spans is not None else [None] * trace.extra_starts) + [None] * restarts
    searches = [
        _line_search(s, sgn, tol=tol, max_iter=max_iter, polish=polish, span=b)
        for s, b in zip(starts, spans, strict=True)
    ]
    outcomes, trace.evaluations = _lockstep(searches, fun_grad)

    vectors, values, iterations, converged, stuck = zip(*outcomes)
    best = trace.record(values, iterations, converged, maximize)
    trace.line_search_failures += sum(stuck)
    # Every iteration opens with one polish call.
    trace.polish_calls = sum(iterations) if polish is not None else 0
    return SphereResult(value=trace.values[best], vector=vectors[best], trace=trace)

