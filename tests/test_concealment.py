import inspect
from pathlib import Path

import numpy as np
import pytest

import qbcommit.concealment
from qbcommit import linalg
from qbcommit.optimize import CERTIFIED_WIDTH, search_sphere
from qbcommit.concealment import (
    _choi_difference,
    _difference_objective,
    _dual_bound,
    _shared_cut,
    _witness_z,
    analyze_concealment,
    helstrom_prob,
)
from qbcommit.families import (
    concealing_pair,
    decoy_protocol,
    dephasing_protocol,
    identity_protocol,
    phase_flip_pair,
    random_kraus_family,
    random_protocol,
)
from qbcommit.fileio import load_protocol, write_protocol_file
from qbcommit.protocol import KrausFamily, ProtocolSpec, apply_extended_channel

PROTOCOLS = Path(__file__).resolve().parents[1] / "protocols"


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
    rep = analyze_concealment(spec)
    assert abs(rep.cb_lower - 2.0) < 1e-9
    # The witness must let Bob distinguish the branches perfectly.
    assert abs(helstrom_prob(spec, rep.witness_state) - 1.0) < 1e-9


def test_cb_lower_dephasing():
    spec = dephasing_protocol()
    rep = analyze_concealment(spec)
    assert abs(rep.cb_lower - 1.0) < 1e-6


def test_cb_lower_identity_is_zero():
    spec = identity_protocol(2)
    rep = analyze_concealment(spec)
    assert 0.0 <= rep.cb_lower <= 1e-8


def test_one_dimensional_input_reads_the_output_difference():
    # With dim_in = 1 the only input is the one state, the polish's Newton
    # step has no free direction, and the norm is the trace norm of the
    # difference of the two output states.
    spec = random_protocol(1, 3, 2, seed=4)
    out = [sum(k @ k.conj().T for k in fam.ops) for fam in (spec.bit1, spec.bit0)]
    rep = analyze_concealment(spec)
    assert abs(rep.cb_lower - linalg.trace_norm(out[0] - out[1])) <= 1e-12
    assert rep.cb_lower <= rep.cb_upper


def test_cb_upper_routes_phase_flip():
    rep = analyze_concealment(phase_flip_pair())
    assert rep.upper_routes["channel_pair_cap"] == 2.0
    assert abs(rep.cb_upper - 2.0) < 1e-12


def test_cb_upper_routes_dephasing():
    rep = analyze_concealment(dephasing_protocol())
    assert abs(rep.upper_routes["witness_dual"] - 1.0) < 1e-12
    assert rep.cb_upper <= 2.0


def _certificate_specs():
    """Random protocols, three of them with fewer outputs than inputs."""
    shapes = [(2, 2, 2), (3, 3, 2), (3, 2, 3), (4, 2, 2), (4, 3, 2), (3, 3, 3)]
    return [random_protocol(din, dout, m, seed=520 + i) for i, (din, dout, m) in enumerate(shapes)]


CERTIFICATE_SPECS = _certificate_specs()


def _witness_dual(spec, psi):
    """(bound, repair) of the witness dual that ``analyze_concealment`` builds at psi."""
    j = _choi_difference(spec)
    return _dual_bound(_witness_z(j, psi, spec.dim_in, spec.dim_out), j, spec.dim_out)


@pytest.mark.parametrize("spec", CERTIFICATE_SPECS, ids=[s.label for s in CERTIFICATE_SPECS])
def test_witness_dual_candidate_is_feasible_up_to_its_repair(spec):
    din, dout = spec.dim_in, spec.dim_out
    j = _choi_difference(spec)
    for ref_dim in (1, din, din + 1):
        for psi in _states(din * ref_dim, 2, 76, ref_dim):
            z = _witness_z(j, psi, din, dout)
            _, t = _dual_bound(z, j, dout)
            slack = 1e-12 * max(1.0, np.abs(z).max())
            assert np.linalg.eigvalsh(z)[0] >= -t - slack
            assert np.linalg.eigvalsh(z - j)[0] >= -t - slack


_REPORTS = {}


def _report(spec):
    """``analyze_concealment(spec)``, once per protocol."""
    if spec.label not in _REPORTS:
        _REPORTS[spec.label] = analyze_concealment(spec)
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
            assert _witness_dual(spec, psi)[0] >= rep.cb_lower


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


def _panel(din, dout, m, s):
    """A protocol of the 250-protocol random concealment panel."""
    return random_protocol(din, dout, m, np.random.default_rng([4242, din, dout, m, s]))


# Protocols whose entangled start does not certify, each with the bracket
# that the search reached when it still ran seeded random restarts after
# that start (8 restarts; 16 on 4x2-m4 seed 4242). Those restarts won on the
# three panel protocols, by round-off. At random-3x2-m3 seeds 505 and 512,
# random-4x2-m4 seeds 511 and 4242 and random-3x2-m2 seed 591 they
# tightened the dual, by at most 1.8e-8.
UNCERTIFIED_CASES = {
    "random-3x2-m3-seed505": (random_protocol(3, 2, 3, seed=505), 1.7216298970573356, 1.8398566609003626),
    "random-3x2-m3-seed512": (random_protocol(3, 2, 3, seed=512), 1.5454340927392658, 1.5572173633332576),
    "random-4x2-m4-seed510": (random_protocol(4, 2, 4, seed=510), 1.7909517645427548, 2.0),
    "random-4x2-m4-seed511": (random_protocol(4, 2, 4, seed=511), 1.7706166511896455, 1.9461687511793933),
    "random-3x2-m2-seed517": (random_protocol(3, 2, 2, seed=517), 1.9824899283974706, 2.0),
    "random-3x2-m2-seed591": (random_protocol(3, 2, 2, seed=591), 1.9773766175769847, 1.9937336261991394),
    "random-4x2-m4-seed4242": (random_protocol(4, 2, 4, seed=4242), 1.5276979000516082, 1.578193381199452),
    "panel-3x3-m3-s24": (_panel(3, 3, 3, 24), 1.7710440635465559, 1.8296924930604497),
    "panel-3x2-m3-s15": (_panel(3, 2, 3, 15), 1.6896145118480925, 1.7039557476794582),
    "panel-4x2-m3-s1": (_panel(4, 2, 3, 1), 1.9434633677779414, 1.997895100539293),
}


@pytest.mark.parametrize("spec, lower, upper", UNCERTIFIED_CASES.values(), ids=UNCERTIFIED_CASES.keys())
def test_brackets_where_restarts_ran_hold_without_them(spec, lower, upper):
    rep = analyze_concealment(spec)
    assert abs(rep.cb_lower - lower) <= 1e-12
    assert rep.cb_upper <= upper + 2e-8
    assert rep.cb_upper - rep.cb_lower > CERTIFIED_WIDTH
    # The reported witness attains the reported lower bound, and
    # dual_repair belongs to the witness_dual that is reported.
    assert abs(4.0 * (helstrom_prob(spec, rep.witness_state) - 0.5) - rep.cb_lower) < 1e-12
    assert (rep.upper_routes["witness_dual"], rep.dual_repair) == _witness_dual(spec, rep.witness_state)


def test_witness_dual_closes_the_bracket_at_closed_forms():
    # The witness dual meets dephasing's 1 and every decoy value 2^-k.
    for spec, exact in [(dephasing_protocol(), 1.0)] + [
        (decoy_protocol(k), 0.5**k) for k in (1, 2, 3)
    ]:
        rep = analyze_concealment(spec)
        assert abs(rep.cb_lower - exact) < 1e-12
        assert exact <= rep.upper_routes["witness_dual"] <= exact + 1e-12
        assert rep.cb_upper - rep.cb_lower <= 1e-12


def test_certified_start_runs_no_random_restarts():
    for spec in [dephasing_protocol(), random_protocol(3, 3, 2, seed=61)]:
        rep = analyze_concealment(spec)
        assert len(rep.solver_trace.values) - rep.solver_trace.extra_starts == 0
        assert len(rep.solver_trace.values) == 1
        assert rep.solver_trace.notes == []
        assert rep.cb_upper - rep.cb_lower <= CERTIFIED_WIDTH


def test_uncertified_start_runs_the_full_search_unchanged():
    # The certificate at the entangled start's witness is far wider than
    # CERTIFIED_WIDTH here; the report is still that one search's.
    spec = random_protocol(3, 2, 3, seed=505)
    rep = analyze_concealment(spec)
    fun_grad, polish, _ = _difference_objective(spec, 1e-8)
    entangled = np.eye(3, dtype=complex).reshape(-1) / np.sqrt(3.0)
    direct = search_sphere(
        fun_grad,
        9,
        maximize=True,
        restarts=0,
        seed=0,
        extra_starts=[entangled],
        polish=polish,
    )
    assert rep.cb_upper - rep.cb_lower > CERTIFIED_WIDTH
    assert rep.solver_trace.notes == []
    assert rep.cb_lower == max(0.0, direct.value)
    assert np.array_equal(rep.witness_state, direct.vector)
    assert rep.solver_trace == direct.trace


def test_report_carries_the_dual_repair():
    rep = analyze_concealment(random_protocol(3, 3, 3, seed=62))
    assert 0.0 <= rep.dual_repair <= 1e-9


@pytest.mark.parametrize(
    "spec",
    [dephasing_protocol(), random_protocol(3, 2, 3, seed=505)],
    ids=["certified", "uncertified"],
)
def test_analyze_concealment_builds_each_witness_dual_once(monkeypatch, spec):
    # The witness's one build serves the upper routes and dual_repair,
    # whether or not the bracket certifies.
    calls = []
    fn = qbcommit.concealment._witness_z

    def counting(*args, **kwargs):
        calls.append(1)
        return fn(*args, **kwargs)

    monkeypatch.setattr(qbcommit.concealment, "_witness_z", counting)
    rep = analyze_concealment(spec)
    assert len(calls) == 1
    assert rep.cb_upper == min(rep.upper_routes.values())
    final = _witness_dual(spec, rep.witness_state)
    assert rep.upper_routes == {"witness_dual": final[0], "channel_pair_cap": 2.0}
    assert rep.dual_repair == final[1]


def test_analyze_concealment_builds_the_choi_difference_once(monkeypatch):
    # The dual reads one J, and no eigendecomposition is taken of J itself.
    spec = random_protocol(3, 2, 3, seed=535)
    j = _choi_difference(spec)
    builds, decomposed = [], []
    choi_difference, eigh = qbcommit.concealment._choi_difference, linalg.eigh_or_error

    def building(*args):
        builds.append(1)
        return choi_difference(*args)

    def recording(h):
        decomposed.append(h.shape == j.shape and np.array_equal(h, j))
        return eigh(h)

    monkeypatch.setattr(qbcommit.concealment, "_choi_difference", building)
    monkeypatch.setattr(linalg, "eigh_or_error", recording)
    analyze_concealment(spec)
    assert builds == [1]
    assert decomposed and not any(decomposed)


@pytest.mark.parametrize(
    "spec", [dephasing_protocol(), random_protocol(3, 2, 2, seed=7)], ids=["dephasing", "random-3x2"]
)
def test_dual_allowance_covers_a_large_candidate(spec):
    # At Z = c I the dual's exact value is 2 c dout and needs no repair; the
    # rounded-up bound sits above it by no more than its documented allowance
    # 2 (dout + 1) n eps (||Z|| + ||Z - J||).
    dout = spec.dim_out
    j = _choi_difference(spec)
    c, n = 1e6, len(j)
    assert c >= np.abs(np.linalg.eigvalsh(j)).max()
    bound, repair = _dual_bound(c * np.eye(n), j, dout)
    exact = 2.0 * c * dout
    gap_norm = np.abs(c - np.linalg.eigvalsh(j)).max()
    allowance = 2.0 * (dout + 1) * n * np.finfo(float).eps * (c + gap_norm)
    assert repair == 0.0
    assert exact <= bound <= exact + allowance


def test_uncertified_start_is_searched_once(monkeypatch):
    # One search from the entangled start, and no random restarts after it,
    # even though its bracket does not certify.
    calls = []
    fn = qbcommit.concealment.search_sphere

    def recording(*args, **kwargs):
        bound = inspect.signature(fn).bind(*args, **kwargs)
        bound.apply_defaults()
        calls.append((len(bound.arguments["extra_starts"]), bound.arguments["restarts"]))
        return fn(*args, **kwargs)

    monkeypatch.setattr(qbcommit.concealment, "search_sphere", recording)
    rep = analyze_concealment(random_protocol(3, 2, 3, seed=505))
    assert calls == [(1, 0)]
    assert len(rep.solver_trace.values) == 1


def test_bracket_ordering_random_protocols():
    for i in range(8):
        spec = random_protocol(2, 2, 2, seed=100 + i)
        rep = analyze_concealment(spec)
        assert rep.cb_lower <= rep.cb_upper + 1e-12
        assert 0.0 <= rep.cb_lower
        assert rep.cb_upper <= 2.0 + 1e-12
        assert abs(rep.bob_cheat_lower - (0.5 + 0.25 * rep.cb_lower)) < 1e-15
        assert abs(rep.bob_cheat_upper - (0.5 + 0.25 * rep.cb_upper)) < 1e-15


def test_analyze_concealment_report_fields():
    spec = phase_flip_pair()
    rep = analyze_concealment(spec)
    assert rep.label == spec.label
    assert abs(rep.cb_lower - 2.0) < 1e-8
    assert abs(rep.cb_upper - 2.0) < 1e-12
    assert abs(rep.bob_cheat_upper - 1.0) < 1e-12
    assert rep.witness_state.shape == (4,)
    # The entangled start is the one start, and the trace holds no seed.
    trace = rep.solver_trace
    assert (len(trace.values) - trace.extra_starts, trace.extra_starts) == (0, 1)
    assert not hasattr(trace, "seed")
    assert len(rep.solver_trace.values) == 1
    assert rep.solver_trace.notes == []


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
    """D*(S_r) at psi, one state at a time, through a three-operand einsum.

    The output difference comes from ``apply_extended_channel`` and S_r
    keeps the signs of its min(2m, dout * din) largest eigenvalues in
    magnitude, 0 on the rest: the structural kernel, whose round-off signs
    would enter D*(S) (though not D*(S) psi).
    """
    k0, k1 = spec.bit0.ops, spec.bit1.ops
    ref_dim = spec.dim_in
    rho = np.outer(psi, psi.conj())
    out1, out0 = (apply_extended_channel(fam, rho, ref_dim) for fam in (spec.bit1, spec.bit0))
    out = out1 - out0
    w, vecs = np.linalg.eigh(out)
    sign = np.sign(w)
    sign[np.argsort(np.abs(w))[: len(w) - min(len(k0) + len(k1), len(w))]] = 0.0
    s4 = ((vecs * sign) @ vecs.conj().T).reshape(spec.dim_out, ref_dim, spec.dim_out, ref_dim)
    back = np.einsum("mae,arbt,mbf->erft", k1.conj(), s4, k1) - np.einsum(
        "mae,arbt,mbf->erft", k0.conj(), s4, k0
    )
    n = spec.dim_in * ref_dim
    return back.reshape(n, n)


def _states(dim, count, *tags):
    return np.stack([linalg.random_state(dim, linalg.spawn_rng(*tags, i)) for i in range(count)])


@pytest.mark.parametrize("spec", OBJECTIVE_SPECS, ids=OBJECTIVE_IDS)
def test_difference_objective_matches_helstrom_and_reference_adjoint(spec):
    fun_grad = _difference_objective(spec, 1e-8).fun_grad
    psis = _states(spec.dim_in**2, 4, 71, spec.dim_in)
    values, grads, *_ = fun_grad(psis)
    assert values.shape == (4,) and grads.shape == psis.shape
    for psi, value, grad in zip(psis, values, grads):
        assert abs(value - 4.0 * (helstrom_prob(spec, psi) - 0.5)) < 1e-12
        assert np.abs(grad - _reference_adjoint(spec, psi) @ psi).max() < 1e-12


@pytest.mark.parametrize("spec", OBJECTIVE_SPECS, ids=OBJECTIVE_IDS)
def test_difference_objective_gradient_matches_finite_differences(spec):
    fun_grad = _difference_objective(spec, 1e-8).fun_grad
    n = spec.dim_in**2
    psis = _states(n, 2, 72, spec.dim_in)
    _, grads, *_ = fun_grad(psis)
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
    fun_grad = _difference_objective(spec, 1e-8).fun_grad
    # Batches of 1 to 17 rows, each row checked against its own one-row call.
    for count in (1, 3, 8, 17):
        psis = _states(spec.dim_in**2, count, 74, spec.dim_in, count)
        values, grads, *pieces = fun_grad(psis)
        for r, (psi, value, grad) in enumerate(zip(psis, values, grads)):
            (one_value,), (one_grad,), *one_pieces = fun_grad(psi[None])
            assert value == one_value
            assert np.array_equal(grad, one_grad)
            # The polish reads a row's images and eigenpairs from its batch.
            for piece, (one_piece,) in zip(pieces, one_pieces, strict=True):
                assert np.array_equal(piece[r], one_piece)


@pytest.mark.parametrize("spec", OBJECTIVE_SPECS, ids=OBJECTIVE_IDS)
def test_difference_objective_polish_is_top_eigenvector(spec):
    # A gradient with no tangent part, as at a stationary point, gets no
    # candidate. At the report's witness, stationary, the top eigenvector of
    # D*(S_r) is the witness itself, with the value as its eigenvalue: a
    # top-eigenvector candidate would gain nothing there either.
    objective = _difference_objective(spec, 1e-8)
    for psi in _states(spec.dim_in**2, 2, 75, spec.dim_in):
        _, _, *pieces = objective.fun_grad(psi[None])
        assert objective.polish(psi, 2.0 * psi, *(p[0] for p in pieces)) is None
    witness = analyze_concealment(spec).witness_state
    (value,), (grad,), *pieces = objective.fun_grad(witness[None])
    assert objective.polish(witness, grad, *(p[0] for p in pieces)) is None
    back = _reference_adjoint(spec, witness)
    herm = 0.5 * (back + back.conj().T)
    assert abs(np.linalg.eigvalsh(herm)[-1] - value) < 1e-13
    assert np.abs(herm @ witness - value * witness).max() < 1e-7


# Random 3x3 m3, 4x2 m2 (the output difference has a kernel), 2x3 m4
# (2m exceeds dout * din, so it has none) and decoy k = 1, whose shared
# operators cancel and leave round-off eigenvalues among the 2m largest.
CURVATURE_SPECS = [
    random_protocol(3, 3, 3, seed=81),
    random_protocol(4, 2, 2, seed=82),
    random_protocol(2, 3, 4, seed=83),
    decoy_protocol(1),
]


@pytest.mark.parametrize("spec", CURVATURE_SPECS, ids=[s.label for s in CURVATURE_SPECS])
def test_difference_objective_curvature_matches_gradient_differences(spec):
    # The gradient moves by (H + P) δ + conj(Q δ) along any δ, not only
    # tangent ones: the value is defined off the sphere too.
    objective = _difference_objective(spec, 1e-8)
    n = spec.dim_in**2
    h = 1e-5
    for r, psi in enumerate(_states(n, 2, 84, spec.dim_in)):
        hp, q = objective.curvature(psi)
        assert np.abs(hp - hp.conj().T).max() < 1e-12
        assert np.abs(q - q.T).max() < 1e-12
        for delta in _states(n, 3, 85, spec.dim_in, r):
            _, (up, down), *_ = objective.fun_grad(np.stack([psi + h * delta, psi - h * delta]))
            want = hp @ delta + np.conj(q @ delta)
            assert np.abs((up - down) / (2.0 * h) - want).max() < 1e-8


# The first protocol of the benchmark's conceal panel.
PANEL_P0 = random_protocol(3, 3, 3, np.random.default_rng([20020, 3, 3, 0]))


def test_newton_polish_finishes_the_entangled_start_quickly():
    rep = analyze_concealment(PANEL_P0)
    assert len(rep.solver_trace.iterations) == 1
    assert rep.solver_trace.iterations[0] <= 10


def test_newton_polish_closes_the_bracket_tightly():
    rep = analyze_concealment(PANEL_P0)
    assert rep.cb_upper - rep.cb_lower <= 1e-7


def test_newton_point_improves_a_generic_state_near_the_optimum():
    # Near the witness the reduced Hessian is negative definite and the
    # gradient is far above tol, so the polish proposes the Newton point:
    # it gains, and it closes more than 99.9 % of the gap to the optimum.
    objective = _difference_objective(PANEL_P0, 1e-8)
    witness = analyze_concealment(PANEL_P0).witness_state
    nudge = _states(9, 1, 86)[0]
    psi = linalg.normalize_state(witness + 1e-3 * (nudge - np.vdot(witness, nudge) * witness))
    (value,), (grad,), *pieces = objective.fun_grad(psi[None])
    cand = linalg.normalize_state(objective.polish(psi, grad, *(p[0] for p in pieces)))
    (best,), *_ = objective.fun_grad(witness[None])
    (newton,), *_ = objective.fun_grad(cand[None])
    assert value < newton <= best + 1e-12
    assert best - newton < 1e-3 * (best - value)


def _eigh_newton_step(spec, psi, grad, hp, q, slope):
    """The quotient Newton step solved through two Hermitian eigensolves: the
    free directions as the n - 1 least eigenvectors of the fixed directions'
    Gram, then the reduced Hessian's eigenpairs. Returns (step, definite):
    unless that reduced Hessian is negative definite, the step is
    saddle-free, each eigenvalue μ replaced by -max(|μ|, slope)."""
    din, n = spec.dim_in, spec.dim_in**2
    w = np.block([[hp, q.conj()], [q, hp.conj()]])
    gauge = 1j * linalg.hermitian_basis(din).transpose(0, 2, 1)
    fixed = np.concatenate([psi[None], (psi.reshape(din, din) @ gauge).reshape(-1, n)])
    fixed = np.concatenate([fixed, fixed.conj()], axis=1)
    free = np.linalg.eigh(fixed.T @ fixed.conj())[1][:, : n - 1]
    mu, y = np.linalg.eigh(free.conj().T @ w @ free)
    definite = mu[-1] < 0.0
    curvature = -mu if definite else np.maximum(np.abs(mu), slope)
    g = free.conj().T @ np.concatenate([grad, grad.conj()])
    return free[:n] @ (y @ ((y.conj().T @ g) / curvature)), definite


NEWTON_SPECS = [
    random_protocol(3, 3, 3, seed=91),
    random_protocol(4, 4, 3, seed=92),
    random_protocol(3, 2, 3, seed=93),
]


@pytest.mark.parametrize("spec", NEWTON_SPECS, ids=[s.label for s in NEWTON_SPECS])
def test_newton_point_matches_the_eigendecomposition_solve(spec):
    # Around the witness, at scales where the reduced Hessian is and is not
    # negative definite, the polish proposes psi plus the reference step:
    # the Newton step where it is, the saddle-free step elsewhere.
    # Nearer the witness the reference itself drifts: its Gram squares the
    # fixed directions' condition number, so its free basis leaks into them
    # by about 1e-13 (the QR basis by 1e-16), and at 1e-3 from the witness
    # that moves its step by up to 1e-8 relative.
    objective = _difference_objective(spec, 1e-8)
    n = spec.dim_in**2
    witness = analyze_concealment(spec).witness_state
    outcomes = set()
    for r, nudge in enumerate(_states(n, 12, 94, spec.dim_in)):
        scale = (0.03, 0.1, 0.3, 1.0)[r % 4]
        psi = linalg.normalize_state(witness + scale * nudge)
        (value,), (grad,), *pieces = objective.fun_grad(psi[None])
        hp, q = objective.curvature(psi)
        slope = linalg.vector_norm(grad - np.vdot(psi, grad).real * psi)
        step, definite = _eigh_newton_step(spec, psi, grad, hp - (value + slope) * np.eye(n), q, slope)
        cand = objective.polish(psi, grad, *(p[0] for p in pieces))
        assert linalg.vector_norm(cand - psi - step) <= 1e-10 * linalg.vector_norm(step)
        outcomes.add(definite)
    assert outcomes == {True, False}


@pytest.mark.parametrize("spec", NEWTON_SPECS, ids=[s.label for s in NEWTON_SPECS])
def test_saddle_free_candidate_gains_at_an_indefinite_point(spec):
    # Where the reduced Hessian is indefinite, a plain Newton step could
    # head for a saddle; the saddle-free step ascends along every curvature
    # direction, and its candidate beats the iterate.
    objective = _difference_objective(spec, 1e-8)
    n = spec.dim_in**2
    witness = analyze_concealment(spec).witness_state
    seen = 0
    for nudge in _states(n, 6, 96, spec.dim_in):
        psi = linalg.normalize_state(witness + nudge)
        (value,), (grad,), *pieces = objective.fun_grad(psi[None])
        hp, q = objective.curvature(psi)
        slope = linalg.vector_norm(grad - np.vdot(psi, grad).real * psi)
        if _eigh_newton_step(spec, psi, grad, hp - (value + slope) * np.eye(n), q, slope)[1]:
            continue
        seen += 1
        cand = linalg.normalize_state(objective.polish(psi, grad, *(p[0] for p in pieces)))
        (gained,), *_ = objective.fun_grad(cand[None])
        assert gained > value + 1e-3
    assert seen


@pytest.mark.parametrize("din, m, draw", [(4, 4, 1), (3, 3, 3)])
def test_entangled_start_ends_at_its_converged_newton_point(tmp_path, monkeypatch, din, m, draw):
    # Benchmark panel protocols, written and reloaded as the benchmark does.
    # Once a Newton point is converged and level with the iterate within
    # round-off, the start ends there instead of crawling on by gradient
    # steps to a line-search failure (74 and 82 objective rows before).
    path = tmp_path / "panel.json"
    rng = np.random.default_rng([20020, din, m, draw])
    write_protocol_file(path, random_protocol(din, din, m, rng))
    spec = load_protocol(path)
    rows = []
    build = qbcommit.concealment._difference_objective

    def counting(*args):
        objective = build(*args)

        def fun_grad(psis):
            rows.append(len(psis))
            return objective.fun_grad(psis)

        return objective._replace(fun_grad=fun_grad)

    monkeypatch.setattr(qbcommit.concealment, "_difference_objective", counting)
    rep = analyze_concealment(spec)
    assert rep.solver_trace.converged == [True]
    assert rep.solver_trace.line_search_failures == 0
    assert sum(rows) <= 30
    (_,), (grad,), *_ = build(spec, 1e-8).fun_grad(rep.witness_state[None])
    psi = rep.witness_state
    assert linalg.vector_norm(grad - np.vdot(psi, grad).real * psi) <= rep.solver_trace.tol


def _shared_pair(din, dout, m, seed):
    """Two Kraus forms of one random protocol whose bits share their last
    operator, its range overlapping the others'. The second writes bit 1's
    shared operator as two copies scaled by 1/sqrt(2), so no index matches."""
    rng = np.random.default_rng([seed, din, dout, m])
    bit0 = random_kraus_family(din, dout, m, rng)
    shared = bit0.ops[-1]
    w, u = np.linalg.eigh(np.eye(din) - shared.conj().T @ shared)
    root = (u * np.sqrt(np.maximum(w, 0.0))) @ u.conj().T
    rest = (linalg.random_isometry(dout * (m - 1), din, rng) @ root).reshape(m - 1, dout, din)
    ops = [np.concatenate([rest, shared[None]]), np.concatenate([rest, [shared / np.sqrt(2.0)] * 2])]
    return [ProtocolSpec(label, bit0, KrausFamily(din, dout, o)) for label, o in zip(("shared", "split"), ops)]


@pytest.mark.parametrize("din, dout, m", [(3, 3, 3), (2, 3, 2), (3, 2, 3)])
@pytest.mark.parametrize("seed", [0, 1])
def test_shared_cut_is_exact(din, dout, m, seed):
    # The cut drops the shared operator; the split form of the same channels
    # runs uncut. Both brackets certify and their lower bounds agree, and the
    # cut's witness reaches its value on the full protocol.
    spec, split = _shared_pair(din, dout, m, seed)
    cut, note = _shared_cut(spec)
    assert note == f"shared operators dropped: 1 of {m}; output rows kept: {dout} of {dout}"
    assert cut.cardinality == m - 1
    split_cut, split_note = _shared_cut(split)
    assert split_cut is split and split_note is None
    reports = [analyze_concealment(s) for s in (spec, split)]
    for rep in reports:
        assert rep.cb_upper - rep.cb_lower <= CERTIFIED_WIDTH
    assert abs(reports[0].cb_lower - reports[1].cb_lower) <= 1e-9
    assert reports[0].solver_trace.notes[-1] == note
    assert note not in reports[1].solver_trace.notes
    assert abs(helstrom_prob(spec, reports[0].witness_state) - 0.5 - reports[0].cb_lower / 4) <= 1e-12


def test_decoy_points_are_cut_to_two_operators():
    # The 2^k - 1 decoy operators are shared and cancel; the dephasing pair
    # left writes 2 of the 2^(k+1) output rows. The bracket is 2^-k, wider
    # only by the dual's round-off allowance, which scales with it (1.5e-14
    # at k = 0, where nothing is cut).
    for k in range(9):
        rep = analyze_concealment(decoy_protocol(k), 1e-7)
        exact = 0.5**k
        assert abs(rep.cb_lower - exact) <= 1e-14 * exact
        assert exact <= rep.cb_upper <= exact + 2e-14 * exact
        notes = [n for n in rep.solver_trace.notes if n.startswith("shared operators")]
        dropped = f"shared operators dropped: {2**k - 1} of {2**k + 1}; output rows kept: 2 of {2 ** (k + 1)}"
        assert notes == ([dropped] if k else [])


def test_decoy_concealment_decomposes_no_large_matrix(monkeypatch):
    # Without the cut, decoy k = 6 decomposes 256 x 256 output differences.
    sizes = []
    eigh = linalg.eigh_or_error

    def recording(h):
        sizes.append(h.shape[-1])
        return eigh(h)

    monkeypatch.setattr(linalg, "eigh_or_error", recording)
    rep = analyze_concealment(decoy_protocol(6), 1e-7)
    assert abs(rep.cb_upper - rep.cb_lower) <= 1e-14
    assert sizes and max(sizes) <= 4


def test_identical_families_are_cut_entirely():
    spec = identity_protocol(2)
    cut, note = _shared_cut(spec)
    assert note == "shared operators dropped: 1 of 1; output rows kept: 0 of 2"
    assert not cut.bit0.ops.any() and not cut.bit1.ops.any()
    rep = analyze_concealment(spec)
    assert (rep.cb_lower, rep.cb_upper) == (0.0, 0.0)
    assert (rep.bob_cheat_lower, rep.bob_cheat_upper) == (0.5, 0.5)
    assert rep.upper_routes == {"witness_dual": 0.0, "channel_pair_cap": 2.0}
    assert rep.dual_repair == 0.0
    assert rep.witness_state.shape == (4,)
    assert abs(linalg.vector_norm(rep.witness_state) - 1.0) <= 1e-12
    assert rep.solver_trace.notes == [note]
    assert abs(helstrom_prob(spec, rep.witness_state) - 0.5) <= 1e-12


NO_CUT_SPECS = [
    random_protocol(d, d, m, np.random.default_rng([20020, d, m, s]), f"random-{d}x{d}-m{m}-p{s}")
    for d in (3, 4)
    for m in (2, 3, 4)
    for s in (0, 1)
] + [
    load_protocol(PROTOCOLS / f"{name}.json")
    for name in ("concealing-pair", "dephasing-zx", "identity-vs-phase-flip")
] + [
    ProtocolSpec(
        "disjoint-outputs",
        KrausFamily(2, 4, np.eye(4, 2)[None]),
        KrausFamily(2, 4, np.eye(4, 2, k=-2)[None]),
    )
]


@pytest.mark.parametrize("spec", NO_CUT_SPECS, ids=[s.label for s in NO_CUT_SPECS])
def test_nothing_to_cut_returns_the_spec_itself(spec):
    # The benchmark's random concealment panel and the shipped protocols
    # without shared operators keep the uncut path, and so does a protocol
    # whose bits write disjoint output rows: each row is reached by one bit.
    cut, note = _shared_cut(spec)
    assert cut is spec and note is None


def test_trace_counts_the_rows_and_polish_calls_of_its_search(monkeypatch):
    # The entangled start does not certify here; the report's trace counts
    # the rows and polish calls of its one search, as wrappers on the
    # objective see them.
    rows, polishes = [], []
    build = qbcommit.concealment._difference_objective

    def counting(*args):
        objective = build(*args)

        def fun_grad(psis):
            rows.append(len(psis))
            return objective.fun_grad(psis)

        def polish(*args):
            polishes.append(1)
            return objective.polish(*args)

        return objective._replace(fun_grad=fun_grad, polish=polish)

    monkeypatch.setattr(qbcommit.concealment, "_difference_objective", counting)
    rep = analyze_concealment(random_protocol(3, 2, 3, seed=505))
    assert len(rep.solver_trace.values) == 1
    assert rep.solver_trace.evaluations == sum(rows)
    assert rep.solver_trace.polish_calls == len(polishes)


def test_benchmark_panel_entangled_starts_take_few_objective_rows():
    # The benchmark's 12 random concealment protocols from their entangled
    # starts alone. An accepted Newton point is polished again rather than
    # followed by a gradient line search: 304 rows when it was followed by one.
    total = 0
    for spec in NO_CUT_SPECS[:12]:
        trace = analyze_concealment(spec).solver_trace
        assert trace.converged == [True]
        assert trace.line_search_failures == 0
        total += trace.evaluations
    assert total <= 200
