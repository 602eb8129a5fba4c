import numpy as np
import pytest

import qbcommit.concealment
from qbcommit import linalg
from qbcommit.optimize import search_sphere
from qbcommit.concealment import (
    CERTIFIED_WIDTH,
    _choi_difference,
    _difference_objective,
    _dual_routes,
    _witness_z,
    analyze_concealment,
    cb_lower_bound,
    cb_upper_bound,
    helstrom_prob,
)
from qbcommit.families import (
    decoy_protocol,
    dephasing_protocol,
    identity_protocol,
    phase_flip_pair,
    random_protocol,
)


def test_helstrom_identity_pair_is_coin_flip():
    spec = identity_protocol(2)
    psi = np.array([1.0, 0.0])
    assert abs(helstrom_prob(spec, psi) - 0.5) < 1e-12


def test_helstrom_phase_flip_on_plus_state():
    spec = phase_flip_pair()
    plus = np.array([1.0, 1.0]) / np.sqrt(2.0)
    # |+> and |-> are orthogonal, so the two commitments are told apart.
    assert abs(helstrom_prob(spec, plus) - 1.0) < 1e-12


def test_helstrom_dephasing_oracles():
    spec = dephasing_protocol()
    # M0(|0><0|) = |0><0|, M1(|0><0|) = I/2; trace distance 1/2.
    zero = np.array([1.0, 0.0])
    assert abs(helstrom_prob(spec, zero) - 0.75) < 1e-12
    # Same value on the maximally entangled input of the doubled space.
    bell = np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2.0)
    assert abs(helstrom_prob(spec, bell) - 0.75) < 1e-12


def test_cb_lower_phase_flip_reaches_two():
    spec = phase_flip_pair()
    res = cb_lower_bound(spec, restarts=8, seed=0)
    assert abs(res.value - 2.0) < 1e-9
    # The witness must let Bob distinguish the branches perfectly.
    assert abs(helstrom_prob(spec, res.vector) - 1.0) < 1e-9


def test_cb_lower_dephasing():
    spec = dephasing_protocol()
    res = cb_lower_bound(spec, restarts=8, seed=0)
    assert abs(res.value - 1.0) < 1e-6


def test_cb_lower_identity_is_zero():
    spec = identity_protocol(2)
    res = cb_lower_bound(spec, restarts=4, seed=0)
    assert 0.0 <= res.value <= 1e-8


def test_cb_upper_routes_phase_flip():
    spec = phase_flip_pair()
    upper, routes = cb_upper_bound(spec)
    assert abs(routes["j_plus"] - 2.0) < 1e-12
    assert routes["channel_pair_cap"] == 2.0
    assert abs(upper - 2.0) < 1e-12


def test_cb_upper_routes_dephasing():
    spec = dephasing_protocol()
    upper, routes = cb_upper_bound(spec)
    assert abs(routes["j_plus"] - 1.0) < 1e-12
    assert upper <= 2.0


def _certificate_specs():
    """Random protocols, three of them with fewer outputs than inputs."""
    shapes = [(2, 2, 2), (3, 3, 2), (3, 2, 3), (4, 2, 2), (4, 3, 2), (3, 3, 3)]
    return [random_protocol(din, dout, m, seed=520 + i) for i, (din, dout, m) in enumerate(shapes)]


CERTIFICATE_SPECS = _certificate_specs()


@pytest.mark.parametrize("spec", CERTIFICATE_SPECS, ids=[s.label for s in CERTIFICATE_SPECS])
def test_witness_dual_candidate_is_feasible_up_to_its_repair(spec):
    din, dout = spec.dim_in, spec.dim_out
    j = _choi_difference(spec)
    for ref_dim in (1, din, din + 1):
        for psi in _states(din * ref_dim, 2, 76, ref_dim):
            z = _witness_z(j, psi, din, dout)
            (_, t_plus), (_, t) = _dual_routes(spec, psi).values()
            slack = 1e-12 * max(1.0, np.abs(z).max())
            assert np.linalg.eigvalsh(z)[0] >= -t - slack
            assert np.linalg.eigvalsh(z - j)[0] >= -t - slack
            assert 0.0 <= t_plus <= 1e-12


@pytest.mark.parametrize("spec", CERTIFICATE_SPECS, ids=[s.label for s in CERTIFICATE_SPECS])
def test_witness_dual_never_below_the_lower_bound(spec):
    din = spec.dim_in
    best = max(
        cb_lower_bound(spec, restarts=4, seed=3, ref_dim=ref_dim).value
        for ref_dim in (1, din, din + 1)
    )
    for ref_dim in (1, din, din + 1):
        witness = cb_lower_bound(spec, restarts=4, seed=3, ref_dim=ref_dim).vector
        # Any state, a poor one included, yields a bound on the full norm.
        for psi in [witness, *_states(din * ref_dim, 2, 77, ref_dim)]:
            upper, routes = cb_upper_bound(spec, psi)
            assert routes["witness_dual"] >= best
            assert routes["j_plus"] >= best
            assert upper >= best


def test_dual_routes_close_the_bracket_at_closed_forms():
    # Both dual routes meet dephasing's 1 and every decoy value 2^-k.
    for spec, exact in [(dephasing_protocol(), 1.0)] + [
        (decoy_protocol(k), 0.5**k) for k in (1, 2, 3)
    ]:
        rep = analyze_concealment(spec, restarts=4, seed=0)
        assert abs(rep.cb_lower - exact) < 1e-12
        assert exact <= rep.upper_routes["witness_dual"] <= exact + 1e-12
        assert exact <= rep.upper_routes["j_plus"] <= exact + 1e-12
        assert rep.cb_upper - rep.cb_lower <= 1e-12


def test_certified_start_runs_no_random_restarts():
    for spec in [dephasing_protocol(), random_protocol(3, 3, 2, seed=61)]:
        res = cb_lower_bound(spec, restarts=8, seed=0)
        assert res.trace.restarts == 0
        assert len(res.trace.values) == 1
        (note,) = res.trace.notes
        assert "entangled start certified" in note
        assert f"CERTIFIED_WIDTH {CERTIFIED_WIDTH!r}" in note
        upper, _ = cb_upper_bound(spec, res.vector)
        assert upper - res.value <= CERTIFIED_WIDTH


def test_uncertified_start_runs_the_full_search_unchanged():
    # The witness of the entangled start is nearly a product state here, and
    # its certificate is far wider than CERTIFIED_WIDTH, so the restarts run.
    spec = random_protocol(4, 2, 2, seed=504)
    res = cb_lower_bound(spec, restarts=6, seed=2)
    fun_grad, polish = _difference_objective(spec, 4)
    entangled = np.eye(4, dtype=complex).reshape(-1) / 2.0
    direct = search_sphere(
        fun_grad,
        16,
        maximize=True,
        restarts=6,
        seed=2,
        extra_starts=[entangled],
        polish=polish,
        rng_tags=(1,),
    )
    assert res.trace.restarts == 6
    assert res.trace.notes == []
    assert res.value == max(0.0, direct.value)
    assert np.array_equal(res.vector, direct.vector)
    assert res.trace == direct.trace


def test_report_carries_the_dual_repair():
    rep = analyze_concealment(random_protocol(3, 3, 3, seed=62), restarts=4, seed=0)
    assert 0.0 <= rep.dual_repair <= 1e-9


@pytest.mark.parametrize(
    "spec, restarts, witnesses",
    [
        (dephasing_protocol(), 4, 1),
        (random_protocol(4, 2, 2, seed=504), 4, 2),
        (random_protocol(4, 2, 2, seed=504), 0, 1),
    ],
    ids=["certified", "uncertified", "no-restarts"],
)
def test_analyze_concealment_builds_each_witness_dual_once(monkeypatch, spec, restarts, witnesses):
    # The entangled start's build serves the upper routes and dual_repair
    # when it closes or no restarts are asked for; otherwise one more build
    # is made at the final witness.
    calls = []
    fn = qbcommit.concealment._witness_z

    def counting(*args, **kwargs):
        calls.append(1)
        return fn(*args, **kwargs)

    monkeypatch.setattr(qbcommit.concealment, "_witness_z", counting)
    rep = analyze_concealment(spec, restarts=restarts, seed=2)
    assert len(calls) == witnesses
    assert (rep.cb_upper, rep.upper_routes) == cb_upper_bound(spec, rep.witness_state)
    assert rep.dual_repair == _dual_routes(spec, rep.witness_state)["witness_dual"][1]


def test_bracket_ordering_random_protocols():
    for i in range(8):
        spec = random_protocol(2, 2, 2, seed=100 + i)
        rep = analyze_concealment(spec, restarts=6, seed=1)
        assert rep.cb_lower <= rep.cb_upper + 1e-12
        assert 0.0 <= rep.cb_lower
        assert rep.cb_upper <= 2.0 + 1e-12
        assert abs(rep.bob_cheat_lower - (0.5 + 0.25 * rep.cb_lower)) < 1e-15
        assert abs(rep.bob_cheat_upper - (0.5 + 0.25 * rep.cb_upper)) < 1e-15


def test_analyze_concealment_report_fields():
    spec = phase_flip_pair()
    rep = analyze_concealment(spec, restarts=6, seed=0)
    assert rep.label == spec.label
    assert abs(rep.cb_lower - 2.0) < 1e-8
    assert abs(rep.cb_upper - 2.0) < 1e-12
    assert abs(rep.bob_cheat_upper - 1.0) < 1e-12
    assert rep.witness_state.shape == (4,)
    # The entangled start is certified, so the trace records no restarts.
    assert rep.solver_trace.restarts == 0
    assert "entangled start certified" in rep.solver_trace.notes[0]


def test_cb_lower_ref_dim_one_still_bounded():
    spec = dephasing_protocol()
    res = cb_lower_bound(spec, restarts=6, seed=0, ref_dim=1)
    # Without a reference system the variational value can only drop.
    assert res.value <= 1.0 + 1e-9
    assert res.value >= 0.5


def test_cb_lower_rejects_bad_ref_dim():
    spec = dephasing_protocol()
    try:
        cb_lower_bound(spec, ref_dim=0)
    except ValueError:
        pass
    else:
        raise AssertionError("ref_dim=0 should be rejected")


def test_cb_lower_ref_dim_other_than_input_has_entangled_start():
    # With no random restarts the deterministic start alone must carry the
    # search: |0>|0> for a trivial reference, (|00> + |11>)/sqrt(2) for a
    # reference larger than the input. Both already reach the optimum 1.
    spec = dephasing_protocol()
    for ref_dim in (1, 3):
        res = cb_lower_bound(spec, restarts=0, seed=0, ref_dim=ref_dim)
        assert res.trace.extra_starts == 1
        assert res.vector.shape == (2 * ref_dim,)
        assert abs(res.value - 1.0) < 1e-9


def _objective_cases():
    """(spec, ref_dim) pairs: random 3x3 and 4x4 protocols and decoy-k2,
    whose output space is larger than its input, each at reference sizes
    1, dim_in and dim_in + 1."""
    specs = [
        random_protocol(3, 3, 2, seed=61),
        random_protocol(3, 3, 4, seed=62),
        random_protocol(4, 4, 3, seed=63),
        decoy_protocol(2),
    ]
    return [(spec, ref) for spec in specs for ref in (1, spec.dim_in, spec.dim_in + 1)]


OBJECTIVE_CASES = _objective_cases()
OBJECTIVE_IDS = [f"{spec.label}-ref{ref}" for spec, ref in OBJECTIVE_CASES]


def _reference_adjoint(spec, ref_dim, psi):
    """D*(S) at psi, one state at a time, through a three-operand einsum.

    The output difference has round-off eigenvalues on its kernel whenever
    its rank is below its size, and their signs enter D*(S) (though not
    D*(S) psi). So S is built along the objective's own arithmetic, which
    makes the kernel signs agree.
    """
    k0, k1 = spec.bit0.ops, spec.bit1.ops
    mat = psi.reshape(spec.dim_in, ref_dim)
    u1 = np.einsum("mab,br->mar", k1, mat).reshape(len(k1), -1)
    u0 = np.einsum("mab,br->mar", k0, mat).reshape(len(k0), -1)
    out = np.einsum("ma,mb->ab", u1, u1.conj()) - np.einsum("ma,mb->ab", u0, u0.conj())
    w, vecs = np.linalg.eigh(out)
    sign = (vecs * np.sign(w)) @ vecs.conj().T
    s4 = sign.reshape(spec.dim_out, ref_dim, spec.dim_out, ref_dim)
    back = np.einsum("mae,arbt,mbf->erft", k1.conj(), s4, k1) - np.einsum(
        "mae,arbt,mbf->erft", k0.conj(), s4, k0
    )
    n = spec.dim_in * ref_dim
    return back.reshape(n, n)


def _states(dim, count, *tags):
    return np.stack([linalg.random_state(dim, linalg.spawn_rng(*tags, i)) for i in range(count)])


@pytest.mark.parametrize("spec, ref_dim", OBJECTIVE_CASES, ids=OBJECTIVE_IDS)
def test_difference_objective_matches_helstrom_and_reference_adjoint(spec, ref_dim):
    fun_grad, _ = _difference_objective(spec, ref_dim)
    psis = _states(spec.dim_in * ref_dim, 4, 71, ref_dim)
    values, grads = fun_grad(psis)
    assert values.shape == (4,) and grads.shape == psis.shape
    for psi, value, grad in zip(psis, values, grads):
        assert abs(value - 4.0 * (helstrom_prob(spec, psi) - 0.5)) < 1e-12
        assert np.abs(grad - _reference_adjoint(spec, ref_dim, psi) @ psi).max() < 1e-12


@pytest.mark.parametrize("spec, ref_dim", OBJECTIVE_CASES, ids=OBJECTIVE_IDS)
def test_difference_objective_gradient_matches_finite_differences(spec, ref_dim):
    fun_grad, _ = _difference_objective(spec, ref_dim)
    n = spec.dim_in * ref_dim
    psis = _states(n, 2, 72, ref_dim)
    _, grads = fun_grad(psis)
    h = 1e-6
    for r, (psi, grad) in enumerate(zip(psis, grads)):
        for direction in _states(n, 3, 73, ref_dim, r):
            tangent = direction - np.vdot(psi, direction) * psi
            up, down = fun_grad(np.stack([psi + h * tangent, psi - h * tangent]))[0]
            # d f = 2 Re(conj(grad) . d psi) for the Wirtinger gradient.
            want = 2.0 * np.real(np.vdot(grad, tangent))
            assert abs((up - down) / (2.0 * h) - want) < 1e-6


@pytest.mark.parametrize("spec, ref_dim", OBJECTIVE_CASES, ids=OBJECTIVE_IDS)
def test_difference_objective_batch_rows_equal_one_row_calls(spec, ref_dim):
    fun_grad, _ = _difference_objective(spec, ref_dim)
    for count in (1, 3, 8):
        psis = _states(spec.dim_in * ref_dim, count, 74, ref_dim, count)
        values, grads = fun_grad(psis)
        for psi, value, grad in zip(psis, values, grads):
            (one_value,), (one_grad,) = fun_grad(psi[None])
            assert value == one_value
            assert np.array_equal(grad, one_grad)


@pytest.mark.parametrize("spec, ref_dim", OBJECTIVE_CASES, ids=OBJECTIVE_IDS)
def test_difference_objective_polish_is_top_eigenvector(spec, ref_dim):
    _, polish = _difference_objective(spec, ref_dim)
    for psi in _states(spec.dim_in * ref_dim, 2, 75, ref_dim):
        back = _reference_adjoint(spec, ref_dim, psi)
        herm = 0.5 * (back + back.conj().T)
        top = np.linalg.eigvalsh(herm)[-1]
        cand = polish(psi)
        assert abs(linalg.vector_norm(cand) - 1.0) < 1e-12
        assert abs(np.vdot(cand, herm @ cand).real - top) < 1e-12
        assert np.abs(herm @ cand - top * cand).max() < 1e-10
