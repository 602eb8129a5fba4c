import numpy as np
import pytest

import qbcommit as qc
from qbcommit import bounds, linalg
from qbcommit.errors import ProtocolValidationError


def bell_state():
    return np.array([1.0, 0.0, 0.0, 1.0], dtype=complex) / np.sqrt(2.0)


def test_kraus_family_construction():
    fam = qc.KrausFamily.from_ops([np.eye(2)])
    assert fam.dim_in == 2 and fam.dim_out == 2 and fam.cardinality == 1
    assert fam.completeness_residual() < 1e-15
    with pytest.raises(ValueError):
        qc.KrausFamily.from_ops([])
    with pytest.raises(ValueError):
        qc.KrausFamily.from_ops([np.eye(2), np.zeros((3, 2))])


def test_kraus_family_ops_are_read_only():
    fam = qc.KrausFamily.from_ops([np.eye(2)])
    with pytest.raises(ValueError):
        fam.ops[0][0, 0] = 5.0


def test_kraus_family_ops_are_read_only_on_every_construction_path():
    # Built directly from writable arrays, padded, or reindexed: the family
    # holds its own read-only copy, so its cached residual cannot go stale.
    source = np.eye(2)
    direct = qc.KrausFamily(2, 2, (source,))
    padded = direct.padded(2)
    reindexed = qc.apply_cheat_unitary(padded, np.eye(2))
    for fam in (direct, padded, reindexed):
        assert fam.ops.shape == (fam.cardinality, 2, 2)
        assert fam.completeness_residual() < 1e-15
        with pytest.raises(ValueError):
            fam.ops[0][0, 0] = 0.5
    source[0, 0] = 0.5
    assert direct.completeness_residual() < 1e-15
    assert qc.KrausFamily(2, 2, (source,)).completeness_residual() == pytest.approx(0.75)


def test_kraus_family_rejects_ops_that_do_not_match_its_dimensions():
    with pytest.raises(ValueError, match="expected"):
        qc.KrausFamily(2, 3, (np.eye(2),))
    with pytest.raises(ValueError, match="expected"):
        qc.KrausFamily(2, 2, np.zeros((0, 2, 2)))


def test_array_holding_dataclasses_compare_by_identity():
    # Generated __eq__ and __hash__ would compare and hash the operator arrays.
    spec = qc.dephasing_protocol()
    assert {spec: "kept"}[spec] == "kept"
    assert spec.bit0 == spec.bit0
    assert qc.dephasing_protocol().bit0 != spec.bit0
    dilation = qc.dilate(spec.bit0)
    assert dilation == dilation and hash(dilation) == hash(dilation)


def test_completeness_residual_hand_value():
    # A lone 0.5*identity gives sum E^dag E = 0.25*I, residual 0.75 per axis.
    fam = qc.KrausFamily.from_ops([0.5 * np.eye(2)])
    assert abs(fam.completeness_residual() - 0.75) < 1e-12


def test_protocol_pads_cardinality():
    spec = qc.ProtocolSpec(
        label="pad",
        bit0=qc.KrausFamily.from_ops([np.eye(2)]),
        bit1=qc.KrausFamily.from_ops(qc.dephasing_protocol().bit1.ops),
    )
    assert spec.bit0.cardinality == 2 and spec.bit1.cardinality == 2
    assert np.abs(spec.bit0.ops[1]).max() == 0.0
    # zero padding leaves the channel untouched
    rho = np.array([[0.7, 0.2j], [-0.2j, 0.3]])
    np.testing.assert_allclose(qc.apply_channel(spec.bit0, rho), rho, atol=1e-12)


def test_protocol_rejects_dimension_mismatch():
    with pytest.raises(ValueError):
        qc.ProtocolSpec(
            label="bad",
            bit0=qc.KrausFamily.from_ops([np.eye(2)]),
            bit1=qc.KrausFamily.from_ops([np.eye(3)]),
        )


def test_validate_accepts_and_rejects():
    good = qc.dephasing_protocol()
    rep = qc.validate(good)
    assert rep.accepted
    assert rep.completeness_residual_bit0 < 1e-12
    bad = qc.ProtocolSpec(
        label="incomplete",
        bit0=qc.KrausFamily.from_ops([0.5 * np.eye(2)]),
        bit1=qc.KrausFamily.from_ops([np.eye(2)]),
    )
    rep2 = qc.validate(bad)
    assert not rep2.accepted
    with pytest.raises(ProtocolValidationError) as err:
        qc.require_valid(bad)
    assert err.value.report is not None
    assert err.value.report.label == "incomplete"


def test_apply_channel_dephasing_kills_coherences():
    spec = qc.dephasing_protocol()
    rho = np.array([[0.6, 0.5], [0.5, 0.4]], dtype=complex)
    out = qc.apply_channel(spec.bit0, rho)
    np.testing.assert_allclose(out, np.diag([0.6, 0.4]), atol=1e-12)


def test_apply_extended_channel_reference_is_untouched():
    spec = qc.dephasing_protocol()
    psi = bell_state()
    rho = np.outer(psi, psi.conj())
    out = qc.apply_extended_channel(spec.bit0, rho, 2)
    # Dephasing tensor identity on a Bell state leaves the classical mixture.
    expect = np.zeros((4, 4), dtype=complex)
    expect[0, 0] = 0.5
    expect[3, 3] = 0.5
    np.testing.assert_allclose(out, expect, atol=1e-12)
    # ref_dim 1 reduces to the plain channel
    rho2 = np.array([[0.6, 0.5], [0.5, 0.4]], dtype=complex)
    np.testing.assert_allclose(
        qc.apply_extended_channel(spec.bit0, rho2, 1),
        qc.apply_channel(spec.bit0, rho2),
        atol=1e-12,
    )


def test_choi_of_identity_channel():
    fam = qc.KrausFamily.from_ops([np.eye(2)])
    c = qc.choi(fam)
    w = np.array([1, 0, 0, 1], dtype=complex)
    np.testing.assert_allclose(c, np.outer(w, w.conj()), atol=1e-12)


def test_choi_trace_preservation_marginal():
    # Tracing out the output slot of the Choi operator returns the identity
    # on the input space exactly when the family is complete.
    for seed in range(5):
        rng = linalg.spawn_rng(50, seed)
        din = int(rng.integers(1, 4))
        dout = int(rng.integers(1, 4))
        m = int(rng.integers(1, 4))
        if dout * m < din:
            m = -(-din // dout)
        fam = qc.random_kraus_family(din, dout, m, rng)
        c = qc.choi(fam)
        assert c.shape == (din * dout, din * dout)
        marginal = linalg.partial_trace(c, (din, dout), 1)
        np.testing.assert_allclose(marginal, np.eye(din), atol=1e-10)


def test_cheat_unitary_leaves_channel_invariant():
    for seed in range(6):
        rng = linalg.spawn_rng(51, seed)
        m = int(rng.integers(1, 5))
        fam = qc.random_kraus_family(2, 3, m, rng)
        v = linalg.random_unitary(m, rng)
        mixed = qc.apply_cheat_unitary(fam, v)
        assert qc.choi_distance(fam, mixed) < 1e-12


CHEAT_ENTRY_POINTS = {
    "alice_cheat_prob": lambda spec, v: qc.alice_cheat_prob(spec, v, np.array([1.0, 0.0])),
    "min_over_states": lambda spec, v: qc.min_over_states(spec, v, restarts=1),
    "kraus_gap": qc.kraus_gap,
    "apply_cheat_unitary": lambda spec, v: qc.apply_cheat_unitary(spec.bit0, v),
    "check_bounds": lambda spec, v: qc.check_bounds(spec, v, n_states=1, cb_lower=0.5),
}
BAD_CHEATS = {
    "wrong-size": (np.eye(3), "does not match cardinality"),
    "non-square": (np.eye(2, 3), "does not match cardinality"),
    "non-finite": (np.array([[np.nan, 0.0], [0.0, 1.0]]), "non-finite"),
    "non-unitary": (np.diag([1.0, 1.5]), "not unitary"),
}


@pytest.mark.parametrize("bad", BAD_CHEATS.values(), ids=BAD_CHEATS.keys())
@pytest.mark.parametrize("entry", CHEAT_ENTRY_POINTS.values(), ids=CHEAT_ENTRY_POINTS.keys())
def test_every_cheat_entry_point_rejects_bad_cheats(entry, bad):
    cheat, message = bad
    with pytest.raises(ValueError, match=message):
        entry(qc.dephasing_protocol(), cheat)


_TINY_SCAN = qc.ScanBudgets(cb_restarts=1, outer_restarts=1, outer_iters=2, inner_restarts=1)


def _basis(dim):
    return np.eye(dim)[0]


def _identity(spec):
    return np.eye(spec.cardinality)


def _fresh(spec):
    """``spec`` rebuilt from new families, so no residual is cached yet."""
    bit0, bit1 = (qc.KrausFamily(f.dim_in, f.dim_out, f.ops) for f in (spec.bit0, spec.bit1))
    return qc.ProtocolSpec(spec.label, bit0, bit1)


# Every public function that takes a protocol.
PROTOCOL_ENTRY_POINTS = {
    "require_valid": qc.require_valid,
    "helstrom_prob": lambda spec: qc.helstrom_prob(spec, _basis(spec.dim_in)),
    "analyze_concealment": lambda spec: qc.analyze_concealment(spec, restarts=2),
    "alice_cheat_prob": lambda spec: qc.alice_cheat_prob(
        spec, _identity(spec), _basis(spec.dim_in)
    ),
    "min_over_states": lambda spec: qc.min_over_states(spec, _identity(spec), restarts=1),
    "minimax_cheat": lambda spec: qc.minimax_cheat(
        spec, outer_restarts=2, outer_iters=2, inner_restarts=1
    ),
    "kraus_gap": qc.kraus_gap,
    "minimize_kraus_gap": qc.minimize_kraus_gap,
    "check_bounds": lambda spec: qc.check_bounds(spec, n_states=2, cb_lower=0.5),
    "bounds_report": lambda spec: qc.bounds_report(spec, restarts=2, n_states=2, minimize=True),
    "epsilon_delta_scan": lambda spec: qc.epsilon_delta_scan(
        lambda _: spec, [0.0, 1.0], budgets=_TINY_SCAN
    ),
}


# Dephasing certifies every search at its first start; the random protocols
# run the binding ascent (2x2x2) and the norm search's restarts (4x2x2).
@pytest.mark.parametrize(
    "spec",
    [
        qc.dephasing_protocol(),
        qc.random_protocol(2, 2, 2, seed=3),
        qc.random_protocol(4, 2, 2, seed=504),
    ],
    ids=["certified", "random-2x2", "random-4x2"],
)
@pytest.mark.parametrize("entry", PROTOCOL_ENTRY_POINTS.values(), ids=PROTOCOL_ENTRY_POINTS.keys())
def test_every_public_call_validates_once(residual_calls, spec, entry):
    # Each family's residual is computed once, by the first call that needs
    # it; every later validation, nested or repeated, reads the cached value.
    spec = _fresh(spec)
    entry(spec)
    assert len(residual_calls) == 2
    del residual_calls[:]
    entry(spec)
    assert residual_calls == []


@pytest.mark.parametrize("incomplete", ["bit0", "bit1"])
@pytest.mark.parametrize(
    "name, entry", PROTOCOL_ENTRY_POINTS.items(), ids=PROTOCOL_ENTRY_POINTS.keys()
)
def test_every_entry_point_rejects_incomplete_protocol(name, entry, incomplete):
    families = {bit: qc.KrausFamily.from_ops([np.eye(2)]) for bit in ("bit0", "bit1")}
    families[incomplete] = qc.KrausFamily.from_ops([0.5 * np.eye(2)])
    spec = qc.ProtocolSpec("half-identity", **families)
    if name == "epsilon_delta_scan":
        # A scan records a rejected point as skipped and goes on.
        result = entry(spec)
        assert result.points == []
        assert [reason.split(":")[0] for _, reason in result.skipped] == [
            "ProtocolValidationError"
        ] * 2
    else:
        with pytest.raises(ProtocolValidationError):
            entry(spec)


def test_align_families_recovers_relating_unitary():
    spec, relating = qc.concealing_pair(seed=9, dim=2, cardinality=3)
    v = qc.align_families(spec.bit0, spec.bit1)
    assert qc.kraus_gap(spec, v) < 1e-20


def test_kraus_gap_operator_phase_pair_hand_values():
    # One operator per family: identity against the phase flip. At cheat
    # phase t the gap operator is diag(|e^{it}-1|^2, |e^{it}+1|^2).
    spec = qc.phase_flip_pair()
    for t in (0.0, 0.7, np.pi / 2, 2.5):
        v = np.array([[np.exp(1j * t)]])
        op = bounds._gap_operator(v, spec.bit0.ops, spec.bit1.ops)
        lo = abs(np.exp(1j * t) - 1.0) ** 2
        hi = abs(np.exp(1j * t) + 1.0) ** 2
        np.testing.assert_allclose(op, np.diag([lo, hi]), atol=1e-12)
        assert abs(qc.kraus_gap(spec, v) - (2.0 + 2.0 * abs(np.cos(t)))) < 1e-12


def test_dilation_dimensions_square_case():
    fam = qc.random_kraus_family(2, 2, 3, linalg.spawn_rng(53))
    dil = qc.dilate(fam)
    assert dil.ancilla_dim == dil.environment_dim == 3
    assert dil.unitary.shape == (6, 6)
    assert linalg.unitarity_residual(dil.unitary) < 1e-10


def test_dilation_dimensions_rectangular_case():
    fam = qc.random_kraus_family(2, 3, 2, linalg.spawn_rng(54))
    dil = qc.dilate(fam)
    # total space must factor both as in*ancilla and out*environment
    assert dil.dim_in * dil.ancilla_dim == dil.dim_out * dil.environment_dim
    assert dil.environment_dim >= fam.cardinality
    assert linalg.unitarity_residual(dil.unitary) < 1e-10


def test_dilation_reproduces_channel():
    for seed in range(8):
        rng = linalg.spawn_rng(55, seed)
        din = int(rng.integers(1, 5))
        dout = int(rng.integers(1, 5))
        m = int(rng.integers(1, 5))
        if dout * m < din:
            m = -(-din // dout)
        fam = qc.random_kraus_family(din, dout, m, rng)
        dil = qc.dilate(fam)
        rho = rng.standard_normal((din, din)) + 1j * rng.standard_normal((din, din))
        np.testing.assert_allclose(
            dil.apply(rho), qc.apply_channel(fam, rho), atol=1e-9
        )


def test_identity_protocol_and_phase_flip_shapes():
    ident = qc.identity_protocol(3)
    assert ident.dim_in == 3 and qc.validate(ident).accepted
    pf = qc.phase_flip_pair()
    assert pf.cardinality == 1 and qc.validate(pf).accepted


def test_random_kraus_family_complete():
    for seed in range(6):
        rng = linalg.spawn_rng(56, seed)
        fam = qc.random_kraus_family(3, 2, 2, rng)
        assert fam.completeness_residual() < 1e-12
    with pytest.raises(ValueError):
        qc.random_kraus_family(4, 1, 2, linalg.spawn_rng(57))


def test_concealing_pair_channels_match():
    spec, relating = qc.concealing_pair(seed=12, dim=3, cardinality=2)
    assert qc.choi_distance(spec.bit0, spec.bit1) < 1e-12
    mixed = qc.apply_cheat_unitary(spec.bit0, relating)
    for a, b in zip(mixed.ops, spec.bit1.ops):
        np.testing.assert_allclose(a, b, atol=1e-12)


def test_decoy_protocol_structure():
    for k in range(4):
        spec = qc.decoy_protocol(k)
        assert spec.dim_in == 2
        assert spec.dim_out == 2 ** (k + 1)
        assert spec.cardinality == 2**k + 1
        assert qc.validate(spec).accepted


def test_decoy_zero_matches_plain_dephasing():
    plain = qc.dephasing_protocol()
    decoy = qc.decoy_protocol(0)
    assert qc.choi_distance(plain.bit0, decoy.bit0) < 1e-12
    assert qc.choi_distance(plain.bit1, decoy.bit1) < 1e-12


def test_decoy_rejects_negative_count():
    with pytest.raises(ValueError):
        qc.decoy_protocol(-1)
