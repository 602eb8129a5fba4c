"""Concealment analysis: how well can Bob distinguish the two commitments.

Bob's optimal cheating probability is 1/2 + 1/4 times the completely bounded
norm of the channel difference. ``analyze_concealment`` brackets the exact
norm from below by a variational search over pure inputs on the committed
space extended with a reference of the same dimension, which suffices for
exactness, and from above by Watrous's dual for the cb norm of a difference
of channels: ||Phi1 - Phi0||_cb <= 2 ||Tr_out Z|| for every Z >= 0 with
Z >= J, J the Choi operator of the difference. One Z is built from the
search's witness and meets the lower bound at a stationary point, so the
bracket closes; when it closes at the entangled start, the random restarts
are skipped. The bracket transfers directly to Bob's cheating probability.
The search's objective evaluates a whole batch of states per call and takes
its gradient from the branch images K_m psi it already has, so it never
builds the adjoint map's matrix; only the eigenvector polish does, once per
call.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import sqrt

import numpy as np

from . import linalg
from .errors import BracketInversionError
from .optimize import BRACKET_GUARD, CERTIFIED_WIDTH, SolverTrace
from .optimize import _require_tolerance, search_sphere
from .protocol import ProtocolSpec, apply_extended_channel, choi, require_valid

# Two trace-preserving channels can never sit further apart than this.
CB_NORM_CAP = 2.0

# Weight mixed evenly into the witness's Schmidt coefficients before its dual
# is built, so that the reference factor of the state is invertible.
SCHMIDT_FLOOR = 1e-7


def helstrom_prob(spec: ProtocolSpec, psi) -> float:
    """Bob's optimal discrimination probability for one extended input state.

    ``psi`` lives on the committed space tensored with a reference of any
    size (the committed factor is the slow slot). Equal priors are assumed.
    """
    require_valid(spec)
    psi = linalg.as_state(psi)
    din = spec.dim_in
    if psi.size % din != 0:
        raise ValueError(
            f"state length {psi.size} is not a multiple of the input dimension {din}"
        )
    ref = psi.size // din
    rho = np.outer(psi, psi.conj())
    out1 = apply_extended_channel(spec.bit1, rho, ref)
    out0 = apply_extended_channel(spec.bit0, rho, ref)
    return 0.5 + 0.25 * linalg.trace_norm(out1 - out0)


def _difference_objective(spec: ProtocolSpec):
    """Trace-norm objective with analytic subgradient and eigenvector polish.

    For a unit vector psi on the committed space ⊗ a reference of dim_in,
    the value is the trace norm of the extended channel difference applied
    to |psi><psi|. The subgradient comes from the spectral sign operator S:
    the value equals <psi| D*(S) |psi> with D* the adjoint difference map,
    so d value / d conj(psi) = D*(S) psi. Since
    D*(S) psi = sum_m A_m† S A_m psi over the extended operators
    A_m = K_m ⊗ I_ref (bit 1 minus bit 0), the gradient comes from the
    branch images u_m = A_m psi that the value already needs, as v_m = S u_m
    and then sum_m A_m† v_m, without forming D*(S). The objective does this
    for a whole batch of states at once, with one stacked
    eigendecomposition. The polish candidate is the top eigenvector of the
    Hermitian part of D*(S) at one state, built from the extended stacks; it
    never decreases the objective and sharpens convergence near the optimum.
    """
    din, n = spec.dim_in, spec.dim_in**2
    k0, k1 = spec.bit0.ops, spec.bit1.ops
    # Adjoint of each Kraus stack flattened over the Kraus index: (din, m * dout).
    k0h, k1h = (k.reshape(-1, din).conj().T for k in (k0, k1))
    # The operators K_m ⊗ I_ref of each bit: (m, dout * din, n).
    a0, a1 = (
        np.einsum("mab,rs->marbs", k, np.eye(din)).reshape(len(k), -1, n) for k in (k0, k1)
    )

    def sign_and_images(psis: np.ndarray):
        mats = psis.reshape(len(psis), din, din)
        u1 = np.einsum("mab,Rbr->Rmar", k1, mats).reshape(len(psis), len(k1), -1)
        u0 = np.einsum("mab,Rbr->Rmar", k0, mats).reshape(len(psis), len(k0), -1)
        out = np.einsum("Rma,Rmb->Rab", u1, u1.conj()) - np.einsum(
            "Rma,Rmb->Rab", u0, u0.conj()
        )
        w, vecs = linalg.eigh_or_error(out)
        sign = (vecs * np.sign(w)[:, None, :]) @ vecs.conj().transpose(0, 2, 1)
        return np.sum(np.abs(w), axis=1), sign, u0, u1

    def fun_grad(psis: np.ndarray):
        values, sign, u0, u1 = sign_and_images(psis)
        # v_m = S u_m, then sum_m (K_m ⊗ I)† v_m; bit 1 minus bit 0.
        sign_t = sign.transpose(0, 2, 1)
        v1 = (u1 @ sign_t).reshape(len(psis), -1, din)
        v0 = (u0 @ sign_t).reshape(len(psis), -1, din)
        return values, (k1h @ v1 - k0h @ v0).reshape(len(psis), n)

    def polish(psi: np.ndarray):
        _, (sign,), _, _ = sign_and_images(psi[None])
        # D*(S) = A1† (S A1) - A0† (S A0), each stack flattened over its Kraus index.
        adj1, adj0 = (a.reshape(-1, n).conj().T @ (sign @ a).reshape(-1, n) for a in (a1, a0))
        back = adj1 - adj0
        _, vecs = linalg.eigh_or_error(0.5 * (back + back.conj().T))
        return vecs[:, -1]

    return fun_grad, polish


def _choi_difference(spec: ProtocolSpec) -> np.ndarray:
    """Choi operator of the channel difference with the output on the slow slot.

    J = sum_ab (Phi1 - Phi0)(|a><b|) ⊗ |a><b|, so for a state psi whose
    coefficient matrix is M (input rows, reference columns) the extended
    output difference is (I ⊗ B) J (I ⊗ B)† with B = M^T.
    """
    din, dout = spec.dim_in, spec.dim_out
    diff = (choi(spec.bit1) - choi(spec.bit0)).reshape(din, dout, din, dout)
    return diff.transpose(1, 0, 3, 2).reshape(dout * din, dout * din)


def _sandwich(x: np.ndarray, b: np.ndarray, dout: int) -> np.ndarray:
    """(I_out ⊗ b) x (I_out ⊗ b)† for x on the output ⊗ b's column space."""
    r, c = b.shape
    out = np.einsum("ra,iajb,sb->irjs", b, x.reshape(dout, c, dout, c), b.conj())
    return out.reshape(dout * r, dout * r)


def _witness_z(j: np.ndarray, witness: np.ndarray, din: int, dout: int) -> np.ndarray:
    """Dual candidate (I ⊗ B⁻¹) out₊ (I ⊗ B⁻¹)† from a witness state.

    The witness is reduced to its Schmidt form on din x din: the eigenvectors
    U of M M† and its Schmidt weights, zero-padded when the reference is
    smaller than the input, with the reference isometry dropped (it does not
    change the value). The weights are flattened by ``SCHMIDT_FLOOR`` so that
    B = diag(s) U^T is invertible, and out₊ is the positive part of the output
    difference at that state. The candidate is feasible by construction: it
    is positive, and it minus J is (I ⊗ B⁻¹) out₋ (I ⊗ B⁻¹)†. Its reduced
    operator B⁻¹ σ₊ B⁻† has the spectrum of ρ_ref^-1/2 σ₊ ρ_ref^-1/2, which is
    flat on the support at a stationary witness, so the dual value meets the
    trace norm there.
    """
    m = witness.reshape(din, -1)
    weights, u = linalg.eigh_or_error(m @ m.conj().T)
    weights = (1.0 - SCHMIDT_FLOOR) * np.maximum(weights, 0.0) + SCHMIDT_FLOOR / din
    root = np.sqrt(weights)
    w, vecs = linalg.eigh_or_error(_sandwich(j, root[:, None] * u.T, dout))
    out_plus = (vecs * np.maximum(w, 0.0)) @ vecs.conj().T
    return _sandwich(out_plus, u.conj() / root, dout)


def _dual_bound(z: np.ndarray, j: np.ndarray, dout: int, j_norm: float):
    """Watrous's dual value 2 ||Tr_out Z|| for a candidate Z, made feasible
    and rounded up; returns (bound, repair).

    Any Hermitian Z becomes feasible (Z >= 0 and Z >= J) once t I is added,
    with the repair t = max(0, -λmin Z, -λmin(Z - J)); that adds 2 t dout to
    the value. A backward-stable Hermitian eigensolver errs by at most about
    n eps times the operator norm of an n x n matrix, and the repair scales the
    error in t by dout, so the value is raised by
    2 (dout + 1) n eps (||Z|| + ||J||): round-off never puts the route below
    the true norm.
    """
    n = len(z)
    (zvals, gapvals), _ = linalg.eigh_or_error(np.stack([z, z - j]))
    repair = max(0.0, -zvals[0], -gapvals[0])
    reduced, _ = linalg.eigh_or_error(linalg.partial_trace(z, (dout, n // dout), 0))
    value = 2.0 * (reduced[-1] + repair * dout)
    z_norm = max(-zvals[0], zvals[-1])
    allowance = 2.0 * (dout + 1) * n * np.finfo(float).eps * (z_norm + j_norm)
    return float(value + allowance), float(repair)


def _dual_routes(spec: ProtocolSpec, witness: np.ndarray) -> dict:
    """Dual upper bounds on the cb norm, {route: (bound, repair)}.

    ``j_plus`` takes Z = J₊, the positive part of the Choi difference; its
    value never exceeds the Choi trace norm, because Tr J = 0.
    ``witness_dual`` takes the candidate built from a unit ``witness`` on the
    committed space ⊗ a reference of any size.
    """
    din, dout = spec.dim_in, spec.dim_out
    j = _choi_difference(spec)
    w, vecs = linalg.eigh_or_error(j)
    j_norm = max(-w[0], w[-1])
    candidates = {
        "j_plus": (vecs * np.maximum(w, 0.0)) @ vecs.conj().T,
        "witness_dual": _witness_z(j, witness, din, dout),
    }
    return {name: _dual_bound(z, j, dout, j_norm) for name, z in candidates.items()}


@dataclass
class ConcealmentReport:
    """Bracketed cb norm of the channel difference and Bob's cheating bound.

    ``dual_repair`` is the multiple t of the identity that the witness's dual
    candidate needed to become feasible; 0 when round-off left it feasible.
    """

    label: str
    cb_lower: float
    cb_upper: float
    bob_cheat_lower: float
    bob_cheat_upper: float
    witness_state: np.ndarray
    upper_routes: dict
    dual_repair: float
    solver_trace: SolverTrace


def analyze_concealment(
    spec: ProtocolSpec,
    restarts: int = 16,
    seed: int = 0,
    tol: float = 1e-8,
) -> ConcealmentReport:
    """Bracket the cb norm of the channel difference for one protocol.

    ``cb_lower`` is the value that projected gradient ascent over pure states
    of the committed space ⊗ a reference of dim_in achieves at
    ``witness_state``. The maximally entangled start runs first, alone; when
    the bracket at its witness is within ``CERTIFIED_WIDTH``, a trace note
    says so and the random restarts are skipped. Otherwise the search reruns
    from that start plus ``restarts`` seeded ones, as if the first run had
    not happened. ``cb_upper`` is the least of ``upper_routes``:
    ``witness_dual`` (the dual built from a witness), ``j_plus`` (the dual at
    the positive part of the Choi difference) and ``channel_pair_cap`` (2).
    The duals are rounded up for round-off, so the cap wins where one meets
    it exactly. Every dual certifies, so each keeps the smaller of its builds
    at the two runs' witnesses, and ``dual_repair`` is the repair of the
    ``witness_dual`` kept. A lower bound above the upper one beyond
    ``BRACKET_GUARD`` is a solver bug and raises ``BracketInversionError``;
    smaller inversions are clipped to keep the bracket ordered.
    """
    require_valid(spec)
    if restarts < 0:
        raise ValueError("restarts must be nonnegative")
    tol = _require_tolerance(tol)
    din = spec.dim_in
    fun_grad, polish = _difference_objective(spec)
    # Maximally entangled start; frequently already the maximizer.
    entangled = np.eye(din, dtype=complex).reshape(-1) / sqrt(din)
    opts = dict(
        maximize=True,
        seed=seed,
        tol=tol,
        max_iter=500,
        extra_starts=[entangled],
        polish=polish,
        rng_tags=(1,),
    )
    lower = search_sphere(fun_grad, din * din, restarts=0, **opts)
    duals = _dual_routes(spec, lower.vector)
    if restarts > 0:
        width = min(CB_NORM_CAP, *(bound for bound, _ in duals.values())) - max(0.0, lower.value)
        if width <= CERTIFIED_WIDTH:
            lower.trace.notes.append(
                f"entangled start certified: bracket width {width!r} <= "
                f"CERTIFIED_WIDTH {CERTIFIED_WIDTH!r}; random restarts skipped"
            )
        else:
            lower = search_sphere(fun_grad, din * din, restarts=restarts, **opts)
            rerun = _dual_routes(spec, lower.vector)
            duals = {name: min(pair, duals[name]) for name, pair in rerun.items()}
    routes = {name: bound for name, (bound, _) in duals.items()}
    routes["channel_pair_cap"] = CB_NORM_CAP
    upper = min(routes.values())
    value = max(0.0, lower.value)
    if value > upper + BRACKET_GUARD:
        raise BracketInversionError(
            f"certified lower bound {value!r} exceeds upper bound "
            f"{upper!r} for protocol {spec.label!r}"
        )
    cb_lo = min(value, upper)
    return ConcealmentReport(
        label=spec.label,
        cb_lower=cb_lo,
        cb_upper=upper,
        bob_cheat_lower=0.5 + 0.25 * cb_lo,
        bob_cheat_upper=0.5 + 0.25 * upper,
        witness_state=lower.vector,
        upper_routes=routes,
        dual_repair=duals["witness_dual"][1],
        solver_trace=lower.trace,
    )
