from pathlib import Path

import numpy as np
import pytest

from qbcommit import linalg
from qbcommit.binding import (
    ZERO_OUTCOME_TOL,
    _kernel_starts,
    _payoff_fun_grad,
    _payoff_pieces,
    alice_cheat_prob,
    min_over_states,
    minimax_cheat,
)
from qbcommit.families import (
    concealing_pair,
    decoy_protocol,
    dephasing_protocol,
    identity_protocol,
    phase_flip_pair,
    random_protocol,
)
from qbcommit.fileio import load_protocol
from qbcommit.protocol import KrausFamily, ProtocolSpec

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


def test_payoff_objective_rows_match_payoff_and_finite_differences():
    # One batch mixes generic states with claimed-branch kernel states, where
    # an outcome is dropped: every row must agree with alice_cheat_prob.
    for spec in (dephasing_protocol(), decoy_protocol(2)):
        rng = linalg.spawn_rng(42, spec.cardinality)
        claimed = spec.bit1.stack()
        v = linalg.random_unitary(spec.cardinality, rng)
        fun_grad = _payoff_fun_grad(
            _payoff_pieces(spec.bit0.stack(), claimed, v), claimed, ZERO_OUTCOME_TOL
        )
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


def test_alice_rejects_nonunitary_cheat():
    spec = dephasing_protocol()
    try:
        alice_cheat_prob(spec, np.ones((2, 2)), np.array([1.0, 0.0]))
    except ValueError:
        pass
    else:
        raise AssertionError("non-unitary cheat should be rejected")


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
    # Procrustes start plus the cap check should have ended the scan early.
    assert any("payoff within" in note for note in rep.solver_trace.notes)
    assert rep.best_cheat_unitary.shape == (3, 3)


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
