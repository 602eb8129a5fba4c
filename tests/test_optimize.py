import numpy as np
import pytest

from qbcommit import linalg, optimize
from qbcommit.binding import _kernel_starts, _payoff_fun_grad, minimax_cheat
from qbcommit.bounds import minimize_kraus_gap
from qbcommit.concealment import analyze_concealment
from qbcommit.families import dephasing_protocol, random_protocol
from qbcommit.optimize import search_sphere


def rowwise(fun_grad):
    """Batched objective for the search engines from a one-point objective."""

    def batched(points):
        pairs = [fun_grad(p) for p in points]
        return np.array([v for v, _ in pairs]), np.array([g for _, g in pairs])

    return batched


def quadratic_form(h):
    def fun_grad(psi):
        hp = h @ psi
        return float(np.real(np.vdot(psi, hp))), hp

    return fun_grad


def test_search_sphere_finds_extreme_eigenvalues():
    for dim in (2, 3, 5):
        rng = linalg.spawn_rng(60, dim)
        z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        h = (z + z.conj().T) / 2.0
        vals = np.linalg.eigvalsh(h)
        top = search_sphere(
            rowwise(quadratic_form(h)), dim, maximize=True, restarts=8, seed=0
        )
        bot = search_sphere(
            rowwise(quadratic_form(h)), dim, maximize=False, restarts=8, seed=0
        )
        assert abs(top.value - vals[-1]) < 1e-6
        assert abs(bot.value - vals[0]) < 1e-6
        assert abs(np.linalg.norm(top.vector) - 1.0) < 1e-12


def test_search_sphere_deterministic():
    rng = linalg.spawn_rng(61)
    z = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    h = (z + z.conj().T) / 2.0
    a = search_sphere(rowwise(quadratic_form(h)), 4, maximize=True, restarts=5, seed=3)
    b = search_sphere(rowwise(quadratic_form(h)), 4, maximize=True, restarts=5, seed=3)
    assert a.value == b.value
    np.testing.assert_array_equal(a.vector, b.vector)
    assert a.trace.values == b.trace.values
    assert a.trace.best_start == b.trace.best_start
    assert a.trace.line_search_failures == b.trace.line_search_failures == 0


def test_search_sphere_extra_start_is_used():
    h = np.diag([1.0, 0.0])
    res = search_sphere(
        rowwise(quadratic_form(h)),
        2,
        maximize=True,
        restarts=0,
        seed=0,
        extra_starts=[np.array([1.0, 0.0])],
    )
    assert abs(res.value - 1.0) < 1e-12
    assert res.trace.extra_starts == 1
    assert len(res.trace.values) - res.trace.extra_starts == 0


def test_search_sphere_escapes_reflecting_valley():
    # Minimizing (<psi|Z|psi>)^2 has a circle of minima; a bare Armijo
    # backtracking line search can bounce across the valley forever. The
    # halving probe must reach the floor in a handful of iterations.
    z = np.diag([1.0, -1.0])

    def fun_grad(psi):
        t = float(np.real(np.vdot(psi, z @ psi)))
        return t * t, 2.0 * t * (z @ psi)

    res = search_sphere(rowwise(fun_grad), 2, maximize=False, restarts=4, seed=0, tol=1e-10)
    assert res.value < 1e-18
    assert max(res.trace.iterations) < 25


def test_search_sphere_polish_only_improves():
    h = np.diag([2.0, 1.0, 0.0])
    calls = []

    def polish(psi, grad):
        calls.append(1)
        return np.array([0.0, 1.0, 0.0])  # worse than the start, must be ignored

    res = search_sphere(
        rowwise(quadratic_form(h)),
        3,
        maximize=True,
        restarts=0,
        seed=0,
        polish=polish,
        extra_starts=[np.array([1.0, 0.0, 0.0])],
    )
    assert abs(res.value - 2.0) < 1e-12
    assert calls


def test_search_sphere_ignores_a_lower_stationary_polish_point():
    # From a start that is not stationary, a polish that proposes a far
    # worse stationary point (an eigenvector of the least eigenvalue) must
    # be ignored: the search climbs on to the true maximum.
    h = np.diag([2.0, 1.0, 0.0])
    calls = []

    def polish(psi, grad):
        calls.append(1)
        return np.array([0.0, 0.0, 1.0])

    res = search_sphere(
        rowwise(quadratic_form(h)),
        3,
        maximize=True,
        restarts=0,
        seed=0,
        polish=polish,
        extra_starts=[np.ones(3)],
    )
    assert abs(res.value - 2.0) < 1e-9
    assert res.trace.converged == [True]
    assert len(calls) > 1


def test_search_sphere_ends_at_a_level_converged_polish_point():
    # The start (e1 + e3)/√2 is not stationary, but its value 1 ties the
    # eigenvector e2 within round-off, which has no tangent gradient: that
    # candidate is returned as converged after one iteration.
    h = np.diag([2.0, 1.0, 0.0])
    start = np.array([1.0, 0.0, 1.0]) / np.sqrt(2.0)
    level = np.array([0.0, 1.0, 0.0])
    res = search_sphere(
        rowwise(quadratic_form(h)),
        3,
        maximize=True,
        restarts=0,
        seed=0,
        polish=lambda psi, grad: level,
        extra_starts=[start],
    )
    np.testing.assert_array_equal(res.vector, level)
    assert res.value == 1.0
    assert res.trace.iterations == [1]
    assert res.trace.converged == [True]
    assert res.trace.line_search_failures == 0


@pytest.mark.parametrize("candidate", [True, False])
def test_search_sphere_polishes_again_after_an_accepted_newton_point(candidate):
    # Each candidate is a short ascent step, so every one gains, and takes
    # the gradient step's place: the next call is the polish again. A polish
    # that returns None costs no row, and the search then runs exactly as
    # it does without a polish.
    h = np.diag([3.0, 2.0, 1.0, 0.0])
    objective = rowwise(quadratic_form(h))
    events = []

    def fun_grad(points):
        events.extend(["eval"] * len(points))
        return objective(points)

    def polish(psi, grad):
        events.append("polish")
        return psi + 0.05 * grad if candidate else None

    opts = dict(maximize=True, restarts=0, seed=0, extra_starts=[np.ones(4)])
    res = search_sphere(fun_grad, 4, polish=polish, **opts)
    assert abs(res.value - 3.0) < 1e-9
    if candidate:
        assert events[:9] == ["eval"] + ["polish", "eval"] * 4
    else:
        assert events[:4] == ["eval", "polish", "eval", "eval"]
        bare = search_sphere(objective, 4, **opts)
        assert bare.value == res.value
        assert np.array_equal(bare.vector, res.vector)
        assert bare.trace.evaluations == res.trace.evaluations == events.count("eval")
        assert bare.trace.iterations == res.trace.iterations


def test_search_sphere_counts_objective_rows_and_polish_calls():
    # Three starts in lockstep; the trace counts every row the objective is
    # handed, over all rounds, and every polish call.
    h = np.diag([3.0, 2.0, 1.0, 0.0])
    objective = rowwise(quadratic_form(h))
    rows, polishes = [], []

    def fun_grad(points):
        rows.append(len(points))
        return objective(points)

    def polish(psi, grad):
        polishes.append(1)
        return psi + 0.05 * grad if len(polishes) % 2 else None

    res = search_sphere(fun_grad, 4, maximize=True, restarts=3, seed=1, polish=polish)
    assert len(rows) > 1
    assert res.trace.evaluations == sum(rows)
    assert res.trace.polish_calls == len(polishes)
    bare = search_sphere(fun_grad, 4, maximize=True, restarts=3, seed=1)
    assert bare.trace.polish_calls == 0


def test_search_sphere_restarts_survive_a_mutated_result():
    # A flat objective ends every start where it began, so the result is one
    # of the seeded starts; writing into it must not reach the next search's.
    seen = []

    def flat(points):
        seen.append(points.copy())
        return np.zeros(len(points)), np.zeros_like(points)

    opts = dict(maximize=False, restarts=4, seed=3, rng_tags=(2,))
    first = search_sphere(flat, 3, **opts)
    first.vector[:] = 0.0
    search_sphere(flat, 3, **opts)
    drawn = np.stack([linalg.random_state(3, linalg.spawn_rng(3, 2, r)) for r in range(4)])
    assert seen[0].tobytes() == seen[1].tobytes() == drawn.tobytes()


def test_search_sphere_trace_bookkeeping():
    h = np.diag([1.0, -1.0])
    res = search_sphere(rowwise(quadratic_form(h)), 2, maximize=True, restarts=3, seed=7)
    assert len(res.trace.values) == 3
    assert len(res.trace.iterations) == 3
    assert len(res.trace.converged) == 3
    assert 0 <= res.trace.best_start < 3
    assert len(res.trace.values) - res.trace.extra_starts == 3


def test_batched_retractions_match_one_row_retractions():
    # The lockstep engine normalizes a round's trial points in one call; each
    # row must come out bit for bit as its own normalization would.
    rng = linalg.spawn_rng(64)
    for dim in (1, 9, 81):
        rows = rng.standard_normal((3, dim)) + 1j * rng.standard_normal((3, dim))
        for stack in (rows, rows[:1]):
            got = optimize._normalize_rows(stack)
            assert got.shape == stack.shape
            for row, want in zip(got, stack):
                assert row.tobytes() == linalg.normalize_state(want).tobytes()


def test_sphere_retraction_rejects_a_zero_row():
    for stack in ([[0.0, 0.0]], [[1.0, 0.0], [0.0, 0.0]]):
        with pytest.raises(ValueError, match="zero vector"):
            optimize._normalize_rows(np.array(stack, dtype=complex))


def test_search_sphere_stops_at_jump_minimum():
    # The value is 0 only where psi[1] == 0 exactly, as the binding payoff is
    # lower only on a claimed branch's kernel: every step leaves that set and
    # jumps up, so the first line search fails and the start is stationary.
    def fun_grad(psi):
        value = 0.0 if psi[1] == 0 else 1.0 + psi[1].real
        return value, np.array([0.0, 0.5])

    res = search_sphere(
        rowwise(fun_grad),
        2,
        maximize=False,
        restarts=0,
        seed=0,
        extra_starts=[np.array([1.0, 0.0])],
    )
    assert res.value == 0.0
    np.testing.assert_array_equal(res.vector, [1.0, 0.0])
    assert res.trace.iterations == [1]
    assert res.trace.converged == [True]
    assert res.trace.line_search_failures == 1
    assert res.trace.notes == []


def test_search_sphere_keeps_spanned_starts_on_their_span():
    # A spanned start searches the unit sphere of its span's range; an
    # unspanned start in the same lockstep run is untouched by the other's span.
    rng = linalg.spawn_rng(71)
    a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    h = a + a.conj().T
    span = np.linalg.qr(rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2)))[0]
    inside = span @ linalg.random_state(2, rng)
    free = linalg.random_state(4, rng)
    rows = []

    def recording(points):
        rows.extend(points)
        return rowwise(quadratic_form(h))(points)

    opts = dict(maximize=False, restarts=0, seed=0, tol=1e-10)
    alone = search_sphere(recording, 4, extra_starts=[inside], spans=[span], **opts)
    assert alone.trace.iterations[0] > 1
    for row in rows:
        assert np.linalg.norm(row - span @ (span.conj().T @ row)) <= 1e-14
    assert abs(alone.value - np.linalg.eigvalsh(span.conj().T @ h @ span)[0]) <= 1e-12

    both = search_sphere(recording, 4, extra_starts=[inside, free], spans=[span, None], **opts)
    plain = search_sphere(recording, 4, extra_starts=[inside, free], **opts)
    assert both.trace.values[0] == alone.value
    for field in ("values", "iterations", "converged"):
        assert getattr(both.trace, field)[1] == getattr(plain.trace, field)[1]

    # One column: the tangent is zero, so the start ends at iteration 1
    # after one objective row.
    del rows[:]
    ray = search_sphere(recording, 4, extra_starts=[span[:, 0]], spans=[span[:, :1]], **opts)
    assert ray.trace.iterations == [1] and len(rows) == 1
    np.testing.assert_array_equal(ray.vector, linalg.normalize_state(span[:, 0]))


def test_lockstep_starts_match_one_start_searches():
    # At the identity cheat the dephasing payoff is flat at 1/2 except near
    # the claimed kernels: random starts stop at once, kernel starts crawl.
    spec = dephasing_protocol()
    claimed = spec.bit1.ops
    fun_grad = _payoff_fun_grad(spec.bit0.ops, claimed, np.eye(2, dtype=complex))
    starts = _kernel_starts(claimed)[0] + [
        linalg.random_state(2, linalg.spawn_rng(5, r)) for r in range(6)
    ]
    together = search_sphere(fun_grad, 2, maximize=False, restarts=0, seed=5, extra_starts=starts)
    alone = [
        search_sphere(fun_grad, 2, maximize=False, restarts=0, seed=5, extra_starts=[s])
        for s in starts
    ]
    assert max(together.trace.iterations) > 5 * min(together.trace.iterations)
    assert together.trace.values == [res.value for res in alone]
    assert together.trace.iterations == [res.trace.iterations[0] for res in alone]
    assert together.trace.converged == [res.trace.converged[0] for res in alone]
    best = min(range(len(alone)), key=lambda i: (alone[i].value, i))
    assert together.trace.best_start == best
    np.testing.assert_array_equal(together.vector, alone[best].vector)


def test_every_solver_trace_means_one_thing():
    # Every report's trace holds one entry per start that ran, within the
    # restart budget it was called with; its headline is the value of its
    # best start, the earliest one on a tie.
    scan = dict(outer_restarts=4, outer_iters=80, inner_restarts=8, include_swapped=False)
    binding = [
        minimax_cheat(dephasing_protocol(), seed=0),
        minimax_cheat(random_protocol(3, 3, 3, seed=3), "01", seed=1, **scan),
        minimax_cheat(random_protocol(2, 2, 2, seed=2), "10", seed=0, **scan),
    ]
    binding.append(binding[0].swapped)
    # Certified at the Procrustes start, uncertified, certified after restart 0.
    assert [len(r.solver_trace.values) for r in binding] == [1, 5, 2, 1]
    traces = []
    for r, outer_restarts in zip(binding, [8, 4, 4, 8]):
        assert r.minimax_estimate == r.solver_trace.values[r.solver_trace.best_start]
        traces.append((r.solver_trace, max, outer_restarts))
    # The entangled start certifies on dephasing, not on the other; both
    # traces hold that one start and no restarts.
    for spec in [dephasing_protocol(), random_protocol(3, 2, 3, seed=505)]:
        rep = analyze_concealment(spec)
        trace = rep.solver_trace
        assert len(trace.values) - trace.extra_starts == 0
        assert min(max(0.0, trace.values[trace.best_start]), rep.cb_upper) == rep.cb_lower
        traces.append((trace, max, 0))
    # The first protocol of the benchmark's bounds panel.
    gap = minimize_kraus_gap(random_protocol(3, 3, 3, np.random.default_rng([20020, 3, 3, 0])))
    assert gap.value == gap.trace.values[gap.trace.best_start]
    traces.append((gap.trace, min, 0))
    for trace, pick, restarts in traces:
        n = len(trace.values)
        assert n == len(trace.iterations) == len(trace.converged) <= restarts + trace.extra_starts
        assert trace.best_start == trace.values.index(pick(trace.values))
