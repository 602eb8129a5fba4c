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
    rep = analyze_concealment(spec, restarts=8, seed=0)
    assert abs(rep.cb_lower - 2.0) < 1e-9
    # The witness must let Bob distinguish the branches perfectly.
    assert abs(helstrom_prob(spec, rep.witness_state) - 1.0) < 1e-9


def test_cb_lower_dephasing():
    spec = dephasing_protocol()
    rep = analyze_concealment(spec, restarts=8, seed=0)
    assert abs(rep.cb_lower - 1.0) < 1e-6


def test_cb_lower_identity_is_zero():
    spec = identity_protocol(2)
    rep = analyze_concealment(spec, restarts=4, seed=0)
    assert 0.0 <= rep.cb_lower <= 1e-8


def test_cb_upper_routes_phase_flip():
    rep = analyze_concealment(phase_flip_pair(), restarts=0)
    assert abs(rep.upper_routes["j_plus"] - 2.0) < 1e-12
    assert rep.upper_routes["channel_pair_cap"] == 2.0
    assert abs(rep.cb_upper - 2.0) < 1e-12


def test_cb_upper_routes_dephasing():
    rep = analyze_concealment(dephasing_protocol(), restarts=0)
    assert abs(rep.upper_routes["j_plus"] - 1.0) < 1e-12
    assert rep.cb_upper <= 2.0


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


_REPORTS = {}


def _report(spec):
    """``analyze_concealment(spec, restarts=4, seed=3)``, once per protocol."""
    if spec.label not in _REPORTS:
        _REPORTS[spec.label] = analyze_concealment(spec, restarts=4, seed=3)
    return _REPORTS[spec.label]


@pytest.mark.parametrize("spec", CERTIFICATE_SPECS, ids=[s.label for s in CERTIFICATE_SPECS])
def test_witness_dual_never_below_the_lower_bound(spec):
    din = spec.dim_in
    rep = _report(spec)
    # Any state on any reference size, a poor one included, yields a bound
    # on the full norm.
    for ref_dim in (1, din, din + 1):
        states = _states(din * ref_dim, 2, 77, ref_dim)
        for psi in [rep.witness_state, *states] if ref_dim == din else states:
            for bound, _ in _dual_routes(spec, psi).values():
                assert bound >= rep.cb_lower


REFERENCE_CASES = [
    (spec, ref_dim) for spec in CERTIFICATE_SPECS for ref_dim in (1, spec.dim_in, spec.dim_in + 1)
]


@pytest.mark.parametrize(
    "spec, ref_dim", REFERENCE_CASES, ids=[f"{s.label}-ref{r}" for s, r in REFERENCE_CASES]
)
def test_input_sized_reference_suffices(spec, ref_dim):
    # The search fixes the reference to the input space. No state on a
    # reference of another size gets past the bracket, and on a larger one
    # the witness carried in by any isometry keeps its value.
    din = spec.dim_in
    rep = _report(spec)
    for psi in _states(din * ref_dim, 4, 78, ref_dim):
        assert 4.0 * (helstrom_prob(spec, psi) - 0.5) <= rep.cb_upper
    if ref_dim >= din:
        iso = linalg.random_isometry(ref_dim, din, linalg.spawn_rng(79, ref_dim))
        carried = rep.witness_state.reshape(din, din) @ iso.T
        assert abs(4.0 * (helstrom_prob(spec, carried.reshape(-1)) - 0.5) - rep.cb_lower) < 1e-12


# Protocols (din, dout, m, seed) whose entangled start does not certify, so
# the seeded restarts run; at random-4x2-m2 seed 506 and random-3x2-m3 seed
# 512 they tighten the dual.
UNCERTIFIED_CASES = [
    (4, 2, 2, 504),
    (4, 2, 2, 506),
    (3, 2, 3, 505),
    (3, 2, 3, 512),
    (4, 2, 4, 510),
    (3, 2, 2, 517),
]


@pytest.mark.parametrize(
    "din, dout, m, seed",
    UNCERTIFIED_CASES,
    ids=[f"random-{din}x{dout}-m{m}-seed{seed}" for din, dout, m, seed in UNCERTIFIED_CASES],
)
def test_restarts_only_narrow_the_bracket(din, dout, m, seed):
    spec = random_protocol(din, dout, m, seed=seed)
    first = analyze_concealment(spec, restarts=0, seed=5)
    rerun = analyze_concealment(spec, restarts=8, seed=5)
    assert first.cb_upper - first.cb_lower > CERTIFIED_WIDTH
    assert rerun.solver_trace.restarts == 8
    assert rerun.cb_upper <= first.cb_upper
    assert rerun.cb_lower >= first.cb_lower


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
        rep = analyze_concealment(spec, restarts=8, seed=0)
        assert rep.solver_trace.restarts == 0
        assert len(rep.solver_trace.values) == 1
        (note,) = rep.solver_trace.notes
        assert "entangled start certified" in note
        assert f"CERTIFIED_WIDTH {CERTIFIED_WIDTH!r}" in note
        assert rep.cb_upper - rep.cb_lower <= CERTIFIED_WIDTH


def test_uncertified_start_runs_the_full_search_unchanged():
    # The witness of the entangled start is nearly a product state here, and
    # its certificate is far wider than CERTIFIED_WIDTH, so the restarts run.
    spec = random_protocol(4, 2, 2, seed=504)
    rep = analyze_concealment(spec, restarts=6, seed=2)
    fun_grad, polish = _difference_objective(spec)
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
    assert rep.solver_trace.restarts == 6
    assert rep.solver_trace.notes == []
    assert rep.cb_lower == max(0.0, direct.value)
    assert np.array_equal(rep.witness_state, direct.vector)
    assert rep.solver_trace == direct.trace


def test_restarts_never_loosen_the_certified_upper_bound():
    # The entangled start does not certify here. The rerun's witness scores
    # higher by round-off, but its own dual is looser than the first one;
    # every dual certifies, so the report keeps the tighter build.
    spec = random_protocol(4, 2, 4, seed=4242)
    first = analyze_concealment(spec, restarts=0, seed=0)
    rerun = analyze_concealment(spec, restarts=16, seed=0)
    assert rerun.cb_upper <= first.cb_upper
    assert rerun.cb_lower >= first.cb_lower
    # The reported witness still attains the reported lower bound.
    assert abs(4.0 * (helstrom_prob(spec, rerun.witness_state) - 0.5) - rerun.cb_lower) < 1e-12
    # dual_repair belongs to the witness_dual that is reported.
    builds = [_dual_routes(spec, r.witness_state)["witness_dual"] for r in (first, rerun)]
    kept = min(builds)
    assert rerun.upper_routes["witness_dual"] == kept[0]
    assert rerun.dual_repair == kept[1]


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
    assert rep.cb_upper == min(rep.upper_routes.values())
    final = _dual_routes(spec, rep.witness_state)
    for name, (bound, _) in final.items():
        assert rep.upper_routes[name] <= bound
    if witnesses == 1:
        assert rep.upper_routes == {**{n: b for n, (b, _) in final.items()}, "channel_pair_cap": 2.0}
        assert rep.dual_repair == final["witness_dual"][1]


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


# Random 3x3 and 4x4 protocols, one with more outputs than inputs and one
# with fewer, and decoy-k2, whose output space is larger than its input.
# Then single-operator families (isometries, and the unitary pair of
# identity-vs-phase-flip), a 5-dimensional input on a 2-dimensional output,
# and dephasing, whose output difference is singular at every state.
OBJECTIVE_SPECS = [
    random_protocol(3, 3, 2, seed=61),
    random_protocol(3, 3, 4, seed=62),
    random_protocol(4, 4, 3, seed=63),
    random_protocol(2, 3, 2, seed=64),
    random_protocol(4, 2, 3, seed=65),
    decoy_protocol(2),
    random_protocol(2, 4, 1, seed=66),
    random_protocol(3, 5, 1, seed=67),
    phase_flip_pair(),
    random_protocol(5, 2, 3, seed=68),
    dephasing_protocol(),
    decoy_protocol(1),
]
OBJECTIVE_IDS = [spec.label for spec in OBJECTIVE_SPECS]


def _reference_adjoint(spec, psi):
    """D*(S) at psi, one state at a time, through a three-operand einsum.

    The output difference has round-off eigenvalues on its kernel whenever
    its rank is below its size, and their signs enter D*(S) (though not
    D*(S) psi). So S is built along the objective's own arithmetic, which
    makes the kernel signs agree.
    """
    k0, k1 = spec.bit0.ops, spec.bit1.ops
    ref_dim = spec.dim_in
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


@pytest.mark.parametrize("spec", OBJECTIVE_SPECS, ids=OBJECTIVE_IDS)
def test_difference_objective_matches_helstrom_and_reference_adjoint(spec):
    fun_grad, _ = _difference_objective(spec)
    psis = _states(spec.dim_in**2, 4, 71, spec.dim_in)
    values, grads = fun_grad(psis)
    assert values.shape == (4,) and grads.shape == psis.shape
    for psi, value, grad in zip(psis, values, grads):
        assert abs(value - 4.0 * (helstrom_prob(spec, psi) - 0.5)) < 1e-12
        assert np.abs(grad - _reference_adjoint(spec, psi) @ psi).max() < 1e-12


@pytest.mark.parametrize("spec", OBJECTIVE_SPECS, ids=OBJECTIVE_IDS)
def test_difference_objective_gradient_matches_finite_differences(spec):
    fun_grad, _ = _difference_objective(spec)
    n = spec.dim_in**2
    psis = _states(n, 2, 72, spec.dim_in)
    _, grads = fun_grad(psis)
    h = 1e-6
    for r, (psi, grad) in enumerate(zip(psis, grads)):
        for direction in _states(n, 3, 73, spec.dim_in, r):
            tangent = direction - np.vdot(psi, direction) * psi
            up, down = fun_grad(np.stack([psi + h * tangent, psi - h * tangent]))[0]
            # d f = 2 Re(conj(grad) . d psi) for the Wirtinger gradient.
            want = 2.0 * np.real(np.vdot(grad, tangent))
            assert abs((up - down) / (2.0 * h) - want) < 1e-6


@pytest.mark.parametrize("spec", OBJECTIVE_SPECS, ids=OBJECTIVE_IDS)
def test_difference_objective_batch_rows_equal_one_row_calls(spec):
    fun_grad, _ = _difference_objective(spec)
    for count in (1, 3, 8):
        psis = _states(spec.dim_in**2, count, 74, spec.dim_in, count)
        values, grads = fun_grad(psis)
        for psi, value, grad in zip(psis, values, grads):
            (one_value,), (one_grad,) = fun_grad(psi[None])
            assert value == one_value
            assert np.array_equal(grad, one_grad)


@pytest.mark.parametrize("spec", OBJECTIVE_SPECS, ids=OBJECTIVE_IDS)
def test_difference_objective_polish_is_top_eigenvector(spec):
    _, polish = _difference_objective(spec)
    for psi in _states(spec.dim_in**2, 2, 75, spec.dim_in):
        back = _reference_adjoint(spec, psi)
        herm = 0.5 * (back + back.conj().T)
        top = np.linalg.eigvalsh(herm)[-1]
        cand = polish(psi)
        assert abs(linalg.vector_norm(cand) - 1.0) < 1e-12
        assert abs(np.vdot(cand, herm @ cand).real - top) < 1e-12
        assert np.abs(herm @ cand - top * cand).max() < 1e-10
