from pathlib import Path

import numpy as np
import pytest

import qbcommit.binding
import qbcommit.bounds
import qbcommit.concealment
import qbcommit.protocol
from qbcommit import linalg
from qbcommit.binding import (
    BRACKET_GUARD,
    CERTIFIED_WIDTH,
    MAX_KERNEL_STARTS,
    _dual_bound,
    _kernel_starts,
    _payoff_fun_grad,
    _payoffs,
    _polar_ascent,
    _simplex_min_norm,
    alice_cheat_prob,
    min_over_states,
    minimax_cheat,
)
from qbcommit.bounds import check_bounds
from qbcommit.errors import BracketInversionError, SpectralDecompositionError
from qbcommit.families import (
    concealing_pair,
    decoy_protocol,
    dephasing_protocol,
    identity_protocol,
    phase_flip_pair,
    random_protocol,
)
from qbcommit.fileio import load_protocol
from qbcommit.protocol import KrausFamily, ProtocolSpec, align_families

PROTOCOLS = Path(__file__).resolve().parent.parent / "protocols"


def loop_payoff(committed_ops, claimed_ops, cheat, phi, zero_tol=1e-14):
    """Plain-python reference: sum over kept branches of |<V E0 phi, E1 phi>|^2 / |E1 phi|^2."""
    m = len(committed_ops)
    total = 0.0
    for j in range(m):
        eff = sum(cheat[j, l] * committed_ops[l] for l in range(m))
        u = eff @ phi
        w = claimed_ops[j] @ phi
        d = float(np.real(np.vdot(w, w)))
        if d <= zero_tol:
            continue
        total += abs(np.vdot(u, w)) ** 2 / d
    return total


def test_alice_identity_protocol_always_wins():
    spec = identity_protocol(2)
    v = np.eye(1, dtype=complex)
    for i in range(5):
        phi = linalg.random_state(2, linalg.spawn_rng(40, i))
        assert abs(alice_cheat_prob(spec, v, phi) - 1.0) < 1e-12


def test_alice_dephasing_hand_values():
    spec = dephasing_protocol()
    eye = np.eye(2, dtype=complex)
    zero = np.array([1.0, 0.0])
    plus = np.array([1.0, 1.0]) / np.sqrt(2.0)
    assert abs(alice_cheat_prob(spec, eye, zero) - 0.5) < 1e-12
    assert abs(alice_cheat_prob(spec, eye, plus) - 0.25) < 1e-12
    # Committing to the measured bit and claiming the plain one: the kept
    # branch contributes |<+|0>/sqrt(2)|^2 = 1/4.
    assert abs(alice_cheat_prob(spec, eye, zero, direction="10") - 0.25) < 1e-12


def test_alice_matches_loop_reference():
    count = 0
    for i in range(40):
        rng = linalg.spawn_rng(41, i)
        din = int(rng.integers(2, 4))
        dout = int(rng.integers(2, 4))
        m = int(rng.integers(2, 4))
        spec = random_protocol(din, dout, m, seed=rng)
        v = linalg.random_unitary(spec.cardinality, rng)
        phi = linalg.random_state(din, rng)
        got = alice_cheat_prob(spec, v, phi)
        want = loop_payoff(spec.bit0.ops, spec.bit1.ops, v, phi)
        assert abs(got - want) < 1e-12
        count += 1
    assert count == 40


def test_kernel_start_svd_failure_raises(monkeypatch):
    # A failed full SVD of the claimed branches raises; it no longer drops
    # kernel starts unseen. The unitarity check's singular values still run.
    svd = np.linalg.svd

    def failing_svd(a, compute_uv=True, **kwargs):
        if compute_uv:
            raise np.linalg.LinAlgError("SVD did not converge")
        return svd(a, compute_uv=False, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", failing_svd)
    with pytest.raises(SpectralDecompositionError):
        min_over_states(dephasing_protocol(), np.eye(2))


def test_kernel_starts_take_one_svd_of_the_claimed_stack(monkeypatch):
    # One batched SVD per family. With dim_out < dim_in each operator's
    # kernel is spanned by its full right factor's rows past dim_out, and the
    # starts equal those of a full SVD taken one operator at a time. Each
    # start comes with its operator's orthonormal kernel basis, which holds it.
    claimed = random_protocol(3, 2, 3, seed=5).bit1.ops
    want = []
    for op in claimed:
        _, svals, vh = np.linalg.svd(op)
        want += [vh[i].conj() for i in range(3) if i >= svals.size or svals[i] <= 1e-7]
    calls = _count_calls(monkeypatch, linalg, "svd_or_error")
    got, spans = _kernel_starts(claimed)
    assert len(calls) == 1
    assert len(got) == len(spans) == len(want) == 3
    for g, w, span, op in zip(got, want, spans, claimed):
        assert np.array_equal(g, w)
        assert span.shape == (3, 1)
        np.testing.assert_allclose(span @ (span.conj().T @ g), g, atol=1e-15)
        assert np.linalg.norm(op @ span) <= 1e-7
    del calls[:]
    starts, spans = _kernel_starts(decoy_protocol(3).bit1.ops)
    assert len(starts) == 2 and len(calls) == 1
    assert [span.shape for span in spans] == [(2, 1), (2, 1)]


def test_kernel_starts_stop_at_the_cap():
    # Four 1 x 4 claimed operators have three kernel vectors each: twelve in
    # all, of which the first MAX_KERNEL_STARTS are kept, in operator order.
    claimed = random_protocol(4, 1, 4, seed=3).bit1.ops
    starts, spans = _kernel_starts(claimed)
    assert MAX_KERNEL_STARTS == 8
    assert len(starts) == len(spans) == MAX_KERNEL_STARTS
    for i, (start, span) in enumerate(zip(starts, spans)):
        op = claimed[i // 3]
        assert span.shape == (4, 3)
        assert np.linalg.norm(op @ start) <= 1e-14
        assert np.linalg.norm(op @ span) <= 1e-14
        np.testing.assert_allclose(span @ (span.conj().T @ start), start, atol=1e-15)


def test_payoff_objective_rows_match_payoff_and_finite_differences():
    # One batch mixes generic states with claimed-branch kernel states, where
    # an outcome is dropped: every row must agree with alice_cheat_prob.
    for spec in (dephasing_protocol(), decoy_protocol(2)):
        rng = linalg.spawn_rng(42, spec.cardinality)
        claimed = spec.bit1.ops
        v = linalg.random_unitary(spec.cardinality, rng)
        fun_grad = _payoff_fun_grad(spec.bit0.ops, claimed, v)
        generic = [linalg.random_state(spec.dim_in, rng) for _ in range(3)]
        kernel = _kernel_starts(claimed)[0]
        assert kernel
        phis = np.stack(generic[:2] + kernel + generic[2:])
        values, grads = fun_grad(phis)
        assert values.shape == (len(phis),) and grads.shape == phis.shape
        for phi, value in zip(phis, values):
            assert value == alice_cheat_prob(spec, v, phi)
        h = 1e-6
        for r in (0, 1, len(phis) - 1):
            phi, grad = phis[r], grads[r]
            for k in range(spec.dim_in):
                for unit in (1.0, 1j):
                    step = np.zeros(spec.dim_in, dtype=complex)
                    step[k] = h * unit
                    up, down = fun_grad(np.stack([phi + step, phi - step]))[0]
                    # d f = 2 Re(conj(grad) . d psi) for the Wirtinger gradient.
                    want = 2.0 * np.real(np.conj(grad[k]) * unit)
                    assert abs((up - down) / (2.0 * h) - want) < 1e-6


@pytest.mark.parametrize(
    "spec",
    [dephasing_protocol(), decoy_protocol(3), random_protocol(3, 3, 3, seed=1)],
    ids=["dephasing", "decoy-k3", "random-3x3x3"],
)
def test_payoff_objective_batch_rows_equal_one_row_calls(spec):
    rng = linalg.spawn_rng(43, spec.cardinality)
    claimed = spec.bit1.ops
    fun_grad = _payoff_fun_grad(spec.bit0.ops, claimed, linalg.random_unitary(spec.cardinality, rng))
    kernel = _kernel_starts(claimed)[0]
    # Kernel states, where an outcome is dropped, lead each batch.
    for count in (1, 3, 8, 17):
        randoms = [linalg.random_state(spec.dim_in, rng) for _ in range(count)]
        phis = np.stack((kernel + randoms)[:count])
        values, grads = fun_grad(phis)
        for phi, value, grad in zip(phis, values, grads):
            (one_value,), (one_grad,) = fun_grad(phi[None])
            assert value == one_value
            assert np.array_equal(grad, one_grad)


@pytest.mark.parametrize(
    "name, budget",
    [
        ("concealing-pair", {}),
        ("dephasing-zx", {"outer_restarts": 2, "outer_iters": 10}),
    ],
)
def test_payoff_at_saddle_equals_minimax_estimate(name, budget):
    # The public payoff of the reported cheat and state re-evaluates the
    # estimate, so it must be the same number, in both directions.
    spec = load_protocol(PROTOCOLS / f"{name}.json")
    report = minimax_cheat(spec, seed=1, **budget)
    for rep in (report, report.swapped):
        payoff = alice_cheat_prob(spec, rep.best_cheat_unitary, rep.worst_state, rep.direction)
        assert payoff == rep.minimax_estimate


def test_alice_payoff_within_unit_interval():
    for i in range(20):
        rng = linalg.spawn_rng(42, i)
        spec = random_protocol(2, 3, 2, seed=rng)
        v = linalg.random_unitary(2, rng)
        phi = linalg.random_state(2, rng)
        p = alice_cheat_prob(spec, v, phi)
        assert -1e-12 <= p <= 1.0 + 1e-9


def test_permutation_reindexing_equivariance():
    # Relabeling committed outcomes by P while compensating the cheat with
    # P^T leaves every payoff unchanged.
    for i in range(6):
        rng = linalg.spawn_rng(43, i)
        m = int(rng.integers(2, 5))
        spec = random_protocol(2, 2, m, seed=rng)
        perm = rng.permutation(m)
        pmat = np.zeros((m, m), dtype=complex)
        for row, col in enumerate(perm):
            pmat[row, col] = 1.0
        permuted = ProtocolSpec(
            label="permuted",
            bit0=KrausFamily([spec.bit0.ops[k] for k in perm]),
            bit1=spec.bit1,
        )
        v = linalg.random_unitary(m, rng)
        phi = linalg.random_state(2, rng)
        base = alice_cheat_prob(spec, v, phi)
        moved = alice_cheat_prob(permuted, v @ pmat.T, phi)
        assert abs(base - moved) < 1e-12


def test_min_over_states_dephasing_quarter():
    spec = dephasing_protocol()
    res = min_over_states(spec, np.eye(2, dtype=complex), restarts=8, seed=0)
    assert abs(res.value - 0.25) < 1e-6


def test_min_over_states_matches_bloch_grid():
    spec = dephasing_protocol()
    eye = np.eye(2, dtype=complex)
    thetas = np.linspace(0.0, np.pi, 181)
    lams = np.linspace(0.0, 2.0 * np.pi, 361)
    grid_min = np.inf
    for theta in thetas:
        c, s = np.cos(theta / 2.0), np.sin(theta / 2.0)
        for lam in lams:
            phi = np.array([c, np.exp(1j * lam) * s])
            grid_min = min(grid_min, alice_cheat_prob(spec, eye, phi))
    res = min_over_states(spec, eye, restarts=8, seed=0)
    assert abs(grid_min - 0.25) < 1e-12
    assert abs(res.value - grid_min) < 1e-6


def test_minimax_identity_protocol():
    spec = identity_protocol(2)
    rep = minimax_cheat(spec, include_swapped=False)
    assert abs(rep.minimax_estimate - 1.0) < 1e-12
    payoff = alice_cheat_prob(spec, rep.best_cheat_unitary, rep.worst_state, rep.direction)
    assert abs(payoff - 1.0) < 1e-12


def test_minimax_phase_flip_unbindable_commitment_fails():
    # Committing with {I} and claiming {Z}: any fixed phase cheat loses on
    # some state, and the optimum is flat zero.
    spec = phase_flip_pair()
    rep = minimax_cheat(
        spec,
        outer_restarts=4,
        outer_iters=80,
        inner_restarts=8,
        include_swapped=False,
    )
    assert rep.minimax_estimate <= 1e-9
    assert alice_cheat_prob(spec, rep.best_cheat_unitary, rep.worst_state, rep.direction) <= 1e-9


def test_minimax_dephasing_quarter():
    spec = dephasing_protocol()
    rep = minimax_cheat(
        spec,
        outer_restarts=4,
        outer_iters=60,
        inner_restarts=8,
        include_swapped=False,
    )
    assert abs(rep.minimax_estimate - 0.25) < 1e-4
    payoff = alice_cheat_prob(spec, rep.best_cheat_unitary, rep.worst_state, rep.direction)
    assert abs(payoff - rep.minimax_estimate) < 1e-6
    assert rep.direction == "01"
    assert rep.swapped is None


def test_minimax_concealing_pair_near_one():
    spec, relating = concealing_pair(seed=11, dim=2, cardinality=3)
    rep = minimax_cheat(spec, include_swapped=False, seed=0)
    assert rep.minimax_estimate >= 0.999
    payoff = alice_cheat_prob(spec, rep.best_cheat_unitary, rep.worst_state, rep.direction)
    assert abs(rep.minimax_estimate - payoff) < 1e-9
    # The Procrustes start's certificate meets its payoff, which ends the scan.
    assert any(note.startswith("Procrustes start certified") for note in rep.solver_trace.notes)
    assert rep.best_cheat_unitary.shape == (3, 3)


def test_minimax_stops_once_a_restart_certifies():
    rep = minimax_cheat(
        random_protocol(2, 2, 2, seed=2),
        "10",
        seed=0,
        outer_restarts=4,
        outer_iters=80,
        inner_restarts=8,
        include_swapped=False,
    )
    trace = rep.solver_trace
    assert len(trace.values) == 2
    assert trace.notes[-1].startswith("certified after restart 0")
    assert rep.binding_upper - rep.minimax_estimate <= CERTIFIED_WIDTH
    assert abs(rep.minimax_estimate - 0.3858716411108989) < 1e-12


def test_minimax_keeps_the_procrustes_score_when_no_restart_beats_it():
    # Every restart, the one ascending from the Procrustes alignment
    # included, ends below the alignment's own score under the full inner
    # search, so the alignment, start 0 of the trace, holds the estimate.
    spec = random_protocol(3, 3, 3, seed=0)
    rep = minimax_cheat(
        spec, "10", outer_restarts=4, outer_iters=80, inner_restarts=8, seed=1, include_swapped=False
    )
    v = align_families(spec.bit1, spec.bit0)
    direct = min_over_states(spec, v, "10", restarts=8, seed=1)
    assert rep.minimax_estimate == direct.value
    assert abs(rep.minimax_estimate - 0.04783656744013433) < 1e-12
    trace = rep.solver_trace
    assert trace.best_start == 0 and trace.values[0] == rep.minimax_estimate
    assert max(trace.values[1:]) < rep.minimax_estimate
    assert np.array_equal(rep.best_cheat_unitary, v)
    assert np.array_equal(rep.worst_state, direct.vector)
    payoff = alice_cheat_prob(spec, rep.best_cheat_unitary, rep.worst_state, rep.direction)
    assert payoff == rep.minimax_estimate


def test_minimax_swapped_report():
    rep = minimax_cheat(
        dephasing_protocol(),
        outer_restarts=2,
        outer_iters=40,
        inner_restarts=4,
        include_swapped=True,
    )
    assert rep.swapped is not None
    assert rep.swapped.direction == "10"
    assert rep.swapped.swapped is None
    assert 0.0 <= rep.swapped.minimax_estimate <= 1.0 + 1e-9


def test_minimax_rejects_zero_outer_restarts():
    with pytest.raises(ValueError, match="outer_restarts must be at least 1"):
        minimax_cheat(dephasing_protocol(), outer_restarts=0)


def _certificate_inputs(spec, rep):
    committed, claimed = (spec.bit0, spec.bit1) if rep.direction == "01" else (spec.bit1, spec.bit0)
    cl = claimed.ops
    return committed.ops, cl, _kernel_starts(cl)[0] + [rep.worst_state]


@pytest.mark.parametrize(
    "spec",
    [random_protocol(2, 2, 2, seed=s) for s in (0, 1)]
    + [random_protocol(3, 3, 3, seed=s) for s in (1, 2)]
    + [dephasing_protocol(), decoy_protocol(1)],
    ids=["r22-0", "r22-1", "r33-1", "r33-2", "dephasing", "decoy-k1"],
)
def test_binding_upper_bounds_estimate_and_weighted_payoffs(spec):
    rep = minimax_cheat(spec, outer_restarts=2, outer_iters=6, inner_restarts=2, seed=3)
    rng = linalg.spawn_rng(44, spec.cardinality)
    for r in (rep, rep.swapped):
        assert r.binding_upper >= r.minimax_estimate
        trace = r.solver_trace
        if len(trace.values) < 2 + trace.extra_starts:
            # Only a certificate ends the search before its last restart.
            assert r.binding_upper - r.minimax_estimate <= CERTIFIED_WIDTH
        assert r.binding_upper == min(r.upper_routes.values())
        assert r.upper_routes["payoff_cap"] == 1.0
        ck, cl, states = _certificate_inputs(spec, r)
        bound, mu = _dual_bound(ck, cl, r.best_cheat_unitary, states)
        # The reported certificate is the smallest over every scored cheat,
        # so it is at most the one built at the winner alone.
        assert r.upper_routes["witness_dual"] <= bound
        assert abs(mu.sum() - 1.0) < 1e-12 and (mu >= 0.0).all()
        phis = np.stack([linalg.normalize_state(s) for s in states])
        for _ in range(200):
            v = linalg.random_unitary(spec.cardinality, rng)
            assert mu @ _payoffs(ck, cl, v, phis) <= bound


def test_binding_upper_is_smallest_scored_certificate():
    # On this protocol the winner's own certificate is not the smallest one.
    spec = random_protocol(3, 3, 3, seed=1)
    rep = minimax_cheat(
        spec, outer_restarts=2, outer_iters=6, inner_restarts=2, seed=3, include_swapped=False
    )
    ck, cl, states = _certificate_inputs(spec, rep)
    winner_only, _ = _dual_bound(ck, cl, rep.best_cheat_unitary, states)
    assert rep.minimax_estimate <= rep.binding_upper < winner_only


@pytest.mark.parametrize("k", [0, 1, 2, 3])
def test_decoy_certified_at_closed_form(k):
    closed = 1.0 - 0.75 * 2.0**-k
    rep = minimax_cheat(decoy_protocol(k), outer_restarts=2, outer_iters=20, inner_restarts=4)
    for r in (rep, rep.swapped):
        assert abs(r.minimax_estimate - closed) < 1e-6
        assert abs(r.binding_upper - closed) < 1e-6
        assert r.binding_upper - r.minimax_estimate <= CERTIFIED_WIDTH


@pytest.mark.parametrize("spec, closed", [(dephasing_protocol(), 0.25), (decoy_protocol(2), 0.8125)])
def test_certificate_closes_at_complex_reindexing(spec, closed):
    # Mixing the committed family by a unitary and rephasing the claimed
    # branches leaves the maximin unchanged, but makes the cheat complex.
    rng = linalg.spawn_rng(45)
    mix = linalg.random_unitary(spec.cardinality, rng)
    phases = np.exp(2j * np.pi * rng.random(spec.cardinality))
    scrambled = ProtocolSpec(
        label="scrambled",
        bit0=KrausFamily(np.einsum("lk,kab->lab", mix, spec.bit0.ops)),
        bit1=KrausFamily(phases[:, None, None] * spec.bit1.ops),
    )
    rep = minimax_cheat(scrambled, outer_restarts=2, outer_iters=5, inner_restarts=2, include_swapped=False)
    assert np.abs(rep.best_cheat_unitary.imag).max() > 0.1
    assert abs(rep.binding_upper - closed) < 1e-6
    assert rep.binding_upper - rep.minimax_estimate <= CERTIFIED_WIDTH


def test_dephasing_certified_skip_matches_procrustes_score():
    spec = dephasing_protocol()
    rep = minimax_cheat(spec, outer_restarts=4, inner_restarts=8, seed=5, tol=1e-7)
    for r in (rep, rep.swapped):
        assert abs(r.binding_upper - 0.25) < 1e-6
        assert r.binding_upper - r.minimax_estimate <= CERTIFIED_WIDTH
        trace = r.solver_trace
        assert any("outer ascent skipped" in note for note in trace.notes)
        assert (r.seed, trace.extra_starts, trace.iterations, trace.best_start) == (5, 1, [0], 0)
        committed, claimed = (spec.bit0, spec.bit1) if r.direction == "01" else (spec.bit1, spec.bit0)
        v = align_families(committed, claimed)
        direct = min_over_states(spec, v, direction=r.direction, restarts=8, seed=5)
        assert r.minimax_estimate == direct.value
        assert np.array_equal(r.worst_state, direct.vector)
        assert np.array_equal(r.best_cheat_unitary, v)


def test_uncertified_protocol_runs_outer_ascent():
    rep = minimax_cheat(
        random_protocol(3, 3, 3, seed=1), outer_restarts=2, outer_iters=3, inner_restarts=2
    )
    for r in (rep, rep.swapped):
        assert r.binding_upper - r.minimax_estimate > CERTIFIED_WIDTH
        trace = r.solver_trace
        assert len(trace.iterations) - trace.extra_starts == 2 and len(trace.iterations) == 3
        assert not any("skipped" in note for note in r.solver_trace.notes)


@pytest.mark.parametrize(
    "spec, budget",
    [
        (load_protocol(PROTOCOLS / "decoy-k2.json"), {}),
        (random_protocol(3, 3, 3, seed=1), dict(outer_restarts=2, outer_iters=15, inner_restarts=2)),
    ],
    ids=["procrustes-certified", "surrogate"],
)
def test_outer_trace_counts_the_rows_and_failures_of_every_search(monkeypatch, spec, budget):
    # The outer trace sums the objective rows and line-search failures of
    # every sphere search the call ran, scored and surrogate, as wrappers on
    # the payoff objective and on the search see them.
    rows, searches = [], []
    build, search = qbcommit.binding._payoff_fun_grad, qbcommit.binding.search_sphere

    def counting(*args):
        fun_grad = build(*args)

        def counted(phis):
            rows.append(len(phis))
            return fun_grad(phis)

        return counted

    def recorded(*args, **kwargs):
        searches.append(search(*args, **kwargs))
        return searches[-1]

    monkeypatch.setattr(qbcommit.binding, "_payoff_fun_grad", counting)
    monkeypatch.setattr(qbcommit.binding, "search_sphere", recorded)
    trace = minimax_cheat(spec, include_swapped=False, **budget).solver_trace
    # One scored search per cheat in the trace, and the surrogate's besides
    # where the Procrustes start does not certify.
    assert (len(searches) > len(trace.values)) == bool(budget)
    assert trace.evaluations == sum(rows) > 0
    assert trace.line_search_failures == sum(r.trace.line_search_failures for r in searches)
    assert trace.polish_calls == 0


def trace_overlap(a):
    """Re Tr(A† V) and its gradient d / d conj(V) = A / 2, over unitaries."""

    def surrogate(v):
        return float(np.vdot(a, v).real), 0.5 * a

    return surrogate


def test_polar_ascent_reaches_trace_norm_at_polar_factor():
    # max over unitary V of Re Tr(A† V) is the trace norm of A, at polar(A).
    for dim in (1, 2, 3, 4):
        rng = linalg.spawn_rng(61, dim)
        a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        for start in (np.eye(dim), linalg.random_unitary(dim, rng)):
            v, steps, converged = _polar_ascent(trace_overlap(a), start, 500, 1e-10)
            assert converged and steps < 20
            assert linalg.unitarity_residual(v) < 1e-13
            assert abs(np.vdot(a, v).real - linalg.trace_norm(a)) < 1e-14
            np.testing.assert_allclose(v, linalg.polar_factor(a), rtol=0, atol=5e-8)


def test_polar_ascent_checks_the_unitary_it_returns(monkeypatch):
    # Proposals are not checked: a polar factor that leaves the group is
    # caught on the way out.
    polar = linalg.polar_factor
    monkeypatch.setattr(linalg, "polar_factor", lambda a: 1.001 * polar(a))
    a = linalg.spawn_rng(63).standard_normal((2, 2)).astype(complex)
    with pytest.raises(ValueError, match="not unitary"):
        _polar_ascent(trace_overlap(a), np.eye(2, dtype=complex), 10, 1e-8)


@pytest.mark.parametrize("inner_restarts", [1, 2, 3, 4, 8])
def test_certificate_below_a_scored_cheat_rescores_it(inner_restarts):
    # Restart 0's certificate bounds a mu-average of its states at every
    # cheat, so one of them scores at most 0.124909 at the Procrustes cheat,
    # which its own search put at 0.167144 with 1-3 inner restarts.
    spec = random_protocol(2, 2, 2, np.random.default_rng([515, 2, 2, 2, 2]))
    rep = minimax_cheat(spec, "01", 2, 15, inner_restarts, seed=0, include_swapped=False)
    assert rep.solver_trace.values[0] <= rep.binding_upper + BRACKET_GUARD
    assert rep.minimax_estimate == pytest.approx(0.1249086, abs=1e-6)
    assert 0.0 <= rep.binding_upper - rep.minimax_estimate <= CERTIFIED_WIDTH


def test_estimate_above_certificate_raises(monkeypatch):
    monkeypatch.setattr(
        qbcommit.binding, "_dual_bound", lambda *args: (0.25 - 1e-6, np.ones(1))
    )
    with pytest.raises(BracketInversionError, match="exceeds certified upper bound"):
        minimax_cheat(dephasing_protocol(), include_swapped=False)


@pytest.mark.parametrize("zero_tol", [1e-16, 1e-14, 1e-12, 1e-10, 1e-8])
@pytest.mark.parametrize("spec, closed", [(decoy_protocol(1), 0.625), (dephasing_protocol(), 0.25)])
def test_zero_outcome_tol_sweep(monkeypatch, zero_tol, spec, closed):
    # The headline values sit on claimed-branch kernel states, where an
    # outcome is dropped; the cut that decides the drop must not move them.
    monkeypatch.setattr(qbcommit.binding, "ZERO_OUTCOME_TOL", zero_tol)
    rep = minimax_cheat(spec, outer_restarts=2, outer_iters=20, inner_restarts=4)
    for r in (rep, rep.swapped):
        assert r.minimax_estimate <= r.binding_upper
        assert abs(r.minimax_estimate - closed) < 1e-12
        assert abs(r.binding_upper - closed) < 1e-12
        # The public payoff reads the same cut as the solver that reported it.
        direct = alice_cheat_prob(spec, r.best_cheat_unitary, r.worst_state, r.direction)
        assert direct == r.minimax_estimate


@pytest.mark.parametrize(
    "spec, closed",
    [(decoy_protocol(k), 1.0 - 0.75 * 2.0**-k) for k in range(6)] + [(dephasing_protocol(), 0.25)],
    ids=[f"decoy-k{k}" for k in range(6)] + ["dephasing"],
)
def test_kernel_starts_score_the_closed_form(spec, closed):
    # The worst state lies on a claimed branch's one-ray kernel. The scoring
    # search keeps each kernel start on its kernel, so the start ends at
    # iteration 1 on the closed form instead of walking into the layer where
    # the dropped outcome stays dropped while the kept ones shrink.
    rep = minimax_cheat(spec)
    m = spec.cardinality
    for r in (rep, rep.swapped):
        trace = r.inner_trace
        assert trace.extra_starts > 0
        assert trace.iterations[: trace.extra_starts] == [1] * trace.extra_starts
        assert abs(r.minimax_estimate - closed) <= 1e-12
        # The certificate adds its round-off allowance, which grows as m³ eps
        # (3.4e-12 at m = 33).
        assert 0.0 <= r.binding_upper - closed <= 1e-12 * max(1.0, (m / 16) ** 3)


def _count_calls(monkeypatch, module, name, *modules):
    """Patch ``name`` in ``module`` (and in ``modules``) to log each call's
    keyword arguments."""
    calls = []
    fn = getattr(module, name)

    def counting(*args, **kwargs):
        calls.append(kwargs)
        return fn(*args, **kwargs)

    for mod in (module, *modules):
        monkeypatch.setattr(mod, name, counting)
    return calls


def test_validation_runs_once_per_public_call(monkeypatch, residual_calls):
    # minimax_cheat computes each family's residual once for both directions
    # and checks no cheat: the Procrustes alignment and the ascent's results
    # are checked unitary where they are made. Each full-budget score is one
    # worst-state search with min_over_states' seed tags; the ascent's
    # surrogate searches use others.
    cheats = _count_calls(
        monkeypatch, qbcommit.protocol, "_require_cheat", qbcommit.binding, qbcommit.bounds
    )
    searches = _count_calls(monkeypatch, qbcommit.binding, "_worst_state")

    def scores():
        return sum(kwargs["rng_tags"] == (2,) for kwargs in searches)

    budget = dict(outer_restarts=2, outer_iters=3, inner_restarts=2)
    spec = random_protocol(3, 3, 3, seed=1)
    minimax_cheat(spec, include_swapped=False, **budget)
    # Uncertified: the Procrustes start and both restarts' candidates.
    assert (len(residual_calls), scores(), len(cheats)) == (2, 3, 0)
    assert len(searches) > scores()
    # A certified protocol scores once per direction.
    del residual_calls[:], searches[:], cheats[:]
    minimax_cheat(decoy_protocol(1), **budget)
    assert (len(residual_calls), scores(), len(cheats)) == (2, 2, 0)
    # A protocol already validated reads its cached residuals.
    del residual_calls[:], cheats[:]
    check_bounds(spec, cheat=linalg.random_unitary(3, 7), n_states=6, cb_lower=0.5)
    assert (len(residual_calls), len(cheats)) == (0, 1)


def test_mutating_a_worst_state_leaves_the_next_bind_unchanged():
    # The scoring searches of consecutive calls share one draw of seeded
    # starts; no report field may alias it.
    spec = random_protocol(2, 2, 2, np.random.default_rng([515, 2, 2, 2, 0]))
    opts = dict(outer_restarts=2, outer_iters=15, inner_restarts=3, seed=1, include_swapped=False)
    linalg._seeded_states.cache_clear()
    first = minimax_cheat(spec, **opts)
    state = first.worst_state.copy()
    first.worst_state[:] = 0.0
    again = minimax_cheat(spec, **opts)
    assert again.minimax_estimate == first.minimax_estimate
    assert again.worst_state.tobytes() == state.tobytes()


def _numpy_simplex_min_norm(gram):
    """Projected gradient descent on the simplex from the uniform weights,
    at the safe step 1/tr(gram), for up to 1000 steps: a comparator that
    Wolfe's exact algorithm must never lose to."""
    w = np.full(len(gram), 1.0 / len(gram))
    step = 1.0 / max(np.trace(gram), np.finfo(float).tiny)
    for _ in range(1000):
        y = w - step * (gram @ w)
        u = np.array(sorted(y, reverse=True))
        excess = np.cumsum(u) - 1.0
        k = np.flatnonzero(u * np.arange(1, y.size + 1) > excess)[-1]
        new = np.maximum(y - excess[k] / (k + 1), 0.0)
        moved = np.abs(new - w).sum()
        w = new
        if moved <= 1e-12:
            break
    return w


def _certificate_gradients(rng, case):
    """n = 1-25 gradient rows of one of five kinds, scaled over 7 decades."""
    n, d = int(rng.integers(1, 26)), int(rng.integers(1, 9))
    base = rng.standard_normal((2, d)) * 10.0 ** rng.uniform(-6, 1)
    pick = rng.integers(0, 2, n)
    if case == 0:  # two gradients, each duplicated
        return base[pick]
    if case == 1:  # one gradient and its opposite
        return base[0] * (1 - 2 * pick)[:, None]
    if case == 2:
        return np.zeros((n, d))
    if case == 3:  # multiples of one gradient, of either sign
        return rng.standard_normal((n, 1)) * base[0]
    # Generic rows: past two they take hundreds of steps at the 1/trace step.
    return rng.standard_normal((min(n, 2), d)) * base[0, 0]


def _simplex_optimal(gram, i):
    """Wolfe's w^T gram w, its weights checked to lie on the simplex and to
    meet its KKT condition (gram w)_i >= w^T gram w for every i, which is
    optimality there, within the solver's own stopping tolerance."""
    tol = 1e-12 * gram.diagonal().max()
    w = _simplex_min_norm(gram)
    gw = gram @ w
    assert (w >= 0.0).all() and abs(w.sum() - 1.0) <= 1e-14, (i, w)
    assert gw.min() >= w @ gw - tol, (i, gram)
    return w @ gw, tol


def test_simplex_min_norm_is_optimal_on_degenerate_and_generic_grams():
    # Duplicate, opposite, zero and collinear gradients make Wolfe's KKT
    # systems degenerate; the weights must still be an optimal point of the
    # simplex, and never lose to the projected-gradient comparator.
    rng = np.random.default_rng(35)
    for i in range(5000):
        g = _certificate_gradients(rng, i % 5)
        gram = g @ g.T
        value, tol = _simplex_optimal(gram, i)
        ref = _numpy_simplex_min_norm(gram)
        assert value <= ref @ gram @ ref + tol, (i, gram)
    # Generic points, 3-25 of them in 1-8 dimensions, run the minor cycle
    # that moves w towards v and drops a point from the corral; the
    # comparator crawls here, and the KKT check alone proves optimality.
    for i in range(2000):
        n, d = int(rng.integers(3, 26)), int(rng.integers(1, 9))
        g = rng.standard_normal((n, d)) * 10.0 ** rng.uniform(-6, 1)
        _simplex_optimal(g @ g.T, i)
