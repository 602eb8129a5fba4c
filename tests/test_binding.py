from pathlib import Path

import numpy as np
import pytest

import qbcommit.binding
import qbcommit.bounds
import qbcommit.concealment
import qbcommit.protocol
from qbcommit import linalg
from qbcommit.binding import (
    CERTIFIED_WIDTH,
    _dual_bound,
    _kernel_starts,
    _payoff_fun_grad,
    _payoff_pieces,
    _payoffs,
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
    # starts equal those of a full SVD taken one operator at a time.
    claimed = random_protocol(3, 2, 3, seed=5).bit1.ops
    want = []
    for op in claimed:
        _, svals, vh = np.linalg.svd(op)
        want += [vh[i].conj() for i in range(3) if i >= svals.size or svals[i] <= 1e-7]
    calls = _count_calls(monkeypatch, linalg, "svd_or_error")
    got = _kernel_starts(claimed)
    assert len(calls) == 1
    assert len(got) == len(want) == 3
    for g, w in zip(got, want):
        assert np.array_equal(g, w)
    del calls[:]
    assert len(_kernel_starts(decoy_protocol(3).bit1.ops)) == 2 and len(calls) == 1


def test_payoff_objective_rows_match_payoff_and_finite_differences():
    # One batch mixes generic states with claimed-branch kernel states, where
    # an outcome is dropped: every row must agree with alice_cheat_prob.
    for spec in (dephasing_protocol(), decoy_protocol(2)):
        rng = linalg.spawn_rng(42, spec.cardinality)
        claimed = spec.bit1.ops
        v = linalg.random_unitary(spec.cardinality, rng)
        fun_grad = _payoff_fun_grad(_payoff_pieces(spec.bit0.ops, claimed, v), claimed)
        generic = [linalg.random_state(spec.dim_in, rng) for _ in range(3)]
        kernel = _kernel_starts(claimed)
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
    "name, budget",
    [
        ("concealing-pair", {}),
        ("dephasing-zx", {"outer_restarts": 2, "outer_iters": 10}),
    ],
)
def test_payoff_at_saddle_equals_minimax_estimate(name, budget):
    # The reported payoff re-evaluates the estimate's own cheat and state, so
    # it must be the same number, in both directions.
    spec = load_protocol(PROTOCOLS / f"{name}.json")
    report = minimax_cheat(spec, seed=1, **budget)
    for rep in (report, report.swapped):
        assert rep.payoff_at_saddle == rep.minimax_estimate


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
            bit0=KrausFamily.from_ops([spec.bit0.ops[k] for k in perm]),
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
    rep = minimax_cheat(identity_protocol(2), include_swapped=False)
    assert abs(rep.minimax_estimate - 1.0) < 1e-12
    assert abs(rep.payoff_at_saddle - 1.0) < 1e-12


def test_minimax_phase_flip_unbindable_commitment_fails():
    # Committing with {I} and claiming {Z}: any fixed phase cheat loses on
    # some state, and the optimum is flat zero.
    rep = minimax_cheat(
        phase_flip_pair(),
        outer_restarts=4,
        outer_iters=80,
        inner_restarts=8,
        include_swapped=False,
    )
    assert rep.minimax_estimate <= 1e-9
    assert rep.payoff_at_saddle <= 1e-9


def test_minimax_dephasing_quarter():
    rep = minimax_cheat(
        dephasing_protocol(),
        outer_restarts=4,
        outer_iters=60,
        inner_restarts=8,
        include_swapped=False,
    )
    assert abs(rep.minimax_estimate - 0.25) < 1e-4
    assert abs(rep.payoff_at_saddle - rep.minimax_estimate) < 1e-6
    assert rep.direction == "01"
    assert rep.swapped is None


def test_minimax_concealing_pair_near_one():
    spec, relating = concealing_pair(seed=11, dim=2, cardinality=3)
    rep = minimax_cheat(spec, include_swapped=False, seed=0)
    assert rep.minimax_estimate >= 0.999
    assert abs(rep.minimax_estimate - rep.payoff_at_saddle) < 1e-9
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
    assert len(trace.values) == 1
    assert trace.notes[-1].startswith("certified after restart 0")
    assert rep.binding_upper - rep.minimax_estimate <= CERTIFIED_WIDTH
    assert abs(rep.minimax_estimate - 0.3858716411108989) < 1e-12


def test_minimax_keeps_the_procrustes_score_when_no_restart_beats_it():
    # Every restart, the one ascending from the Procrustes alignment
    # included, ends below the alignment's own score under the full inner
    # search, so the alignment holds the estimate and a note names it.
    spec = random_protocol(3, 3, 3, seed=3)
    rep = minimax_cheat(
        spec, "01", outer_restarts=4, outer_iters=80, inner_restarts=8, seed=1, include_swapped=False
    )
    v = align_families(spec.bit0, spec.bit1)
    direct = min_over_states(spec, v, restarts=8, seed=1)
    assert rep.minimax_estimate == direct.value
    assert abs(rep.minimax_estimate - 0.12915467289654115) < 1e-12
    assert max(rep.solver_trace.values) < rep.minimax_estimate
    assert np.array_equal(rep.best_cheat_unitary, v)
    assert np.array_equal(rep.worst_state, direct.vector)
    assert rep.payoff_at_saddle == rep.minimax_estimate
    assert rep.solver_trace.notes[-1].startswith("estimate from the Procrustes start")


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
    return committed.ops, cl, _kernel_starts(cl) + [rep.worst_state]


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
        if len(r.solver_trace.values) < 2:
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
        bit0=KrausFamily.from_ops(np.einsum("lk,kab->lab", mix, spec.bit0.ops)),
        bit1=KrausFamily.from_ops(phases[:, None, None] * spec.bit1.ops),
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
        assert (trace.restarts, trace.iterations, trace.best_start) == (1, [0], 0)
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
        assert r.solver_trace.restarts == 2 and len(r.solver_trace.iterations) == 2
        assert not any("skipped" in note for note in r.solver_trace.notes)


def test_estimate_above_certificate_raises(monkeypatch):
    monkeypatch.setattr(
        qbcommit.binding, "_dual_bound", lambda *args: (0.25 - 1e-6, np.ones(1))
    )
    with pytest.raises(BracketInversionError, match="exceeds certified upper bound"):
        minimax_cheat(dephasing_protocol(), include_swapped=False)


@pytest.mark.parametrize("zero_tol", [1e-16, 1e-14, 1e-12, 1e-10])
@pytest.mark.parametrize("spec, closed", [(decoy_protocol(1), 0.625), (dephasing_protocol(), 0.25)])
def test_zero_outcome_tol_sweep(monkeypatch, zero_tol, spec, closed):
    # The headline values sit on claimed-branch kernel states, where an
    # outcome is dropped; the cut that decides the drop must not move them.
    monkeypatch.setattr(qbcommit.binding, "ZERO_OUTCOME_TOL", zero_tol)
    rep = minimax_cheat(spec, outer_restarts=2, outer_iters=20, inner_restarts=4)
    for r in (rep, rep.swapped):
        assert r.minimax_estimate <= r.binding_upper
        assert abs(r.minimax_estimate - closed) < 1e-4
        assert abs(r.binding_upper - closed) < 1e-4
        # The public payoff reads the same cut as the solver that reported it.
        direct = alice_cheat_prob(spec, r.best_cheat_unitary, r.worst_state, r.direction)
        assert direct == r.payoff_at_saddle


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
