import numpy as np
import pytest

from qbcommit import linalg, optimize
from qbcommit.binding import _kernel_starts, _payoff_fun_grad, _payoff_pieces
from qbcommit.families import dephasing_protocol
from qbcommit.optimize import SolverTrace, ascend_params, search_sphere


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
    assert res.trace.restarts == 0


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

    def polish(psi):
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


def test_search_sphere_trace_bookkeeping():
    h = np.diag([1.0, -1.0])
    res = search_sphere(rowwise(quadratic_form(h)), 2, maximize=True, restarts=3, seed=7)
    assert len(res.trace.values) == 3
    assert len(res.trace.iterations) == 3
    assert len(res.trace.converged) == 3
    assert 0 <= res.trace.best_start < 3
    assert res.trace.seed == 7


def trace_overlap(a):
    """Re Tr(A† V) and its gradient d / d conj(V) = A / 2, on the unitary group."""

    def fun_grad(v):
        return float(np.vdot(a, v).real), 0.5 * a

    return fun_grad


def test_ascend_params_reaches_trace_norm_at_polar_factor():
    # max over unitary V of Re Tr(A† V) is the trace norm of A, at polar(A).
    for dim in (1, 2, 3, 4):
        rng = linalg.spawn_rng(61, dim)
        a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        starts = [np.eye(dim), linalg.random_unitary(dim, rng)]
        trace = SolverTrace(seed=0, restarts=0, extra_starts=2, tol=1e-10, max_iter=500)
        results = ascend_params(
            rowwise(trace_overlap(a)), starts, trace=trace, max_iter=500, tol=1e-10
        )
        for v, value, iters, converged in results:
            assert converged and iters < 500
            assert linalg.unitarity_residual(v) < 1e-13
            # A small singular value flattens the optimum; the stall rule
            # ends the ascent a few 1e-10 short there.
            assert abs(value - linalg.trace_norm(a)) < 1e-9
            np.testing.assert_allclose(v, linalg.polar_factor(a), atol=1e-4)


def test_ascend_params_rejects_non_unitary_start():
    a = np.eye(2, dtype=complex)
    trace = SolverTrace(seed=0, restarts=0, extra_starts=1, tol=1e-8, max_iter=10)
    with pytest.raises(ValueError, match="not unitary"):
        ascend_params(rowwise(trace_overlap(a)), [1.001 * np.eye(2)], trace=trace, max_iter=10)


def test_ascend_params_checks_the_unitaries_it_returns(monkeypatch):
    # Trial points are not checked: a retraction that leaves the group is
    # caught on the way out.
    polar = linalg.polar_factor
    monkeypatch.setattr(linalg, "polar_factor", lambda a: 1.001 * polar(a))
    a = linalg.spawn_rng(63).standard_normal((2, 2)).astype(complex)
    trace = SolverTrace(seed=0, restarts=0, extra_starts=1, tol=1e-8, max_iter=10)
    with pytest.raises(ValueError, match="not unitary"):
        ascend_params(rowwise(trace_overlap(a)), [np.eye(2)], trace=trace, max_iter=10)


def test_batched_retractions_match_one_row_retractions():
    # The lockstep engine retracts a round's trial points as one stack; each
    # row must come out bit for bit as its own retraction would.
    rng = linalg.spawn_rng(64)
    for dim in (1, 9, 81):
        rows = rng.standard_normal((3, dim)) + 1j * rng.standard_normal((3, dim))
        for stack in (rows, rows[:1]):
            got = optimize._SPHERE.retract(stack)
            assert got.shape == stack.shape
            for row, want in zip(got, stack):
                assert row.tobytes() == linalg.normalize_state(want).tobytes()
    for m in range(1, 10):
        stack = rng.standard_normal((5, m, m)) + 1j * rng.standard_normal((5, m, m))
        got = optimize._UNITARY.retract(stack)
        for mat, want in zip(got, stack):
            assert mat.tobytes() == linalg.polar_factor(want).tobytes()


def test_sphere_retraction_rejects_a_zero_row():
    for stack in ([[0.0, 0.0]], [[1.0, 0.0], [0.0, 0.0]]):
        with pytest.raises(ValueError, match="zero vector"):
            optimize._SPHERE.retract(np.array(stack, dtype=complex))


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


def test_lockstep_starts_match_one_start_searches():
    # At the identity cheat the dephasing payoff is flat at 1/2 except near
    # the claimed kernels: random starts stop at once, kernel starts crawl.
    spec = dephasing_protocol()
    claimed = spec.bit1.ops
    a = _payoff_pieces(spec.bit0.ops, claimed, np.eye(2, dtype=complex))
    fun_grad = _payoff_fun_grad(a, claimed)
    starts = _kernel_starts(claimed) + [
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
