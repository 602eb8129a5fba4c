"""Concealment analysis: how well can Bob distinguish the two commitments.

Bob's optimal cheating probability is 1/2 + 1/4 times the completely bounded
norm of the channel difference. ``analyze_concealment`` brackets the exact
norm from below by a variational search over pure inputs on the committed
space extended with a reference of the same dimension, which suffices for
exactness, and from above by Watrous's dual for the cb norm of a difference
of channels: ||Phi1 - Phi0||_cb <= 2 ||Tr_out Z|| for every Z >= 0 with
Z >= J, J the Choi operator of the difference. Both sides see only the
difference: Kraus operators both bits share cancel in it and are dropped,
with the output rows no remaining operator reaches (each decoy point is a
2-operator problem), and the cut map is still trace-annihilating, as
Watrous's dual asks. J is built once per call, and Z from the search's
witness; Z meets the lower bound at a stationary point, so the bracket
closes. The search runs once, from the maximally entangled start, and takes
no seed: the value is concave in the reduced state (below), so a random
restart could only escape a saddle, which the regularized Newton step
already escapes. The bracket transfers to Bob's cheating probability
directly.
One routine builds the branch images K_m psi of a batch of states and their
output difference's eigenpairs for the value and gradient, and the objective
returns them too, so the polish reads the iterate's from the call that
evaluated it. Once per iteration, unless the iterate is stationary, the
polish proposes a Newton point: the value depends on the state only through
its reduced state on the committed space, where it is concave (a partial
maximum of Watrous's SDP), so Newton steps on the quotient by reference
unitaries converge quadratically. Its maximizers need not be isolated (a
product-input optimum, or a flat ridge of them), so the Newton model is
regularized by the tangent gradient's norm: such a step converges
quadratically to a non-isolated solution set under a local error bound,
without running along it (Li, Fukushima, Qi and Yamashita, Comput. Optim.
Appl. 28, 2004). Where the model's reduced Hessian is not negative
definite, away from the optimum, the step is saddle-free (Dauphin et al.,
NeurIPS 2014): its eigenvalues are replaced by minus their absolute values.
An accepted point is polished again at the next iteration, with no gradient
line search after it, and a start ends at a converged point level with its
iterate, rather than crawling on at round-off.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import sqrt
from typing import Callable, NamedTuple

import numpy as np

from . import linalg
from .errors import BracketInversionError
from .optimize import BRACKET_GUARD, SolverTrace, _require_tolerance, search_sphere
from .protocol import KrausFamily, ProtocolSpec, apply_extended_channel, choi, require_valid
from .protocol import _branch_images

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


class _Objective(NamedTuple):
    fun_grad: Callable  # batched value, gradient d value / d conj(psi), then images and eigenpairs
    polish: Callable  # (psi, gradient, u, λ, V) -> Newton point, or None (stationary psi, din = 1)
    curvature: Callable  # psi -> (H + P, Q): the gradient moves by (H + P) δ + conj(Q δ)


def _difference_objective(spec: ProtocolSpec, tol: float) -> _Objective:
    """Trace-norm objective with analytic gradient and a Newton polish.

    For a unit vector psi on the committed space ⊗ a reference of dim_in,
    the value is the trace norm of X = sum_m s_m u_m u_m†, the extended
    channel difference applied to |psi><psi|, over the branch images
    u_m = A_m psi of the operators A_m = K_m ⊗ I_ref (bit 1 with s_m = 1,
    then bit 0 with s_m = -1). With S the spectral sign operator of X the
    value is <psi| D*(S) |psi>, D* the adjoint difference map, so
    d value / d conj(psi) = D*(S) psi = sum_m s_m A_m† S u_m. One helper
    builds the u_m and the eigenpairs of X for a batch of states; the value
    and the gradient read it, and ``fun_grad`` returns (values, gradients,
    u, λ, V) so that the search hands the polish the iterate's own.

    The polish works at one state from X = V Λ V†. Its signs σ are those of
    the min(2m, dout·din) largest |λ| and 0 on the rest, the structural
    kernel, so S_r = V diag(σ) V† and H = D*(S_r) do not follow the signs of
    the kernel's round-off. To second order the value moves by
    2 Re(grad† δ) + δ†Hδ + ½ sum_ij Γ_ij |Ẽ_ij(δ)|², where
    Ẽ(δ) = V† sum_m s_m (A_m δ u_m† + u_m (A_m δ)†) V and
    Γ_ij = (σ_i - σ_j) / (λ_i - λ_j), 0 where σ_i = σ_j; only the pairs
    that touch the range are built. The value depends on psi only through
    its reduced state on the committed space, so Newton runs on the tangent
    space with psi and the reference-gauge directions vec(M (iK)^T) removed,
    M being psi as a din x din matrix and K a Hermitian basis; the value is
    homogeneous of degree 2, so the sphere adds -value |δ|², and the
    regularization subtracts |g| |δ|², g the tangent gradient (see the
    module docstring). When |g| exceeds ``tol`` and din > 1, the polish
    proposes the Newton point, saddle-free where the reduced Hessian is not
    negative definite; otherwise it returns None. The point replaces the
    iterate only when it gains more than 1e-15, and is then polished again
    instead of being followed by a gradient step; a converged point level
    with the iterate ends the start (see ``optimize._line_search``).
    """
    din, n = spec.dim_in, spec.dim_in**2
    # The Kraus operators, bit 1 then bit 0, and A_m = K_m ⊗ I_ref: (2m, dout * din, n).
    ops = np.concatenate([spec.bit1.ops, spec.bit0.ops])
    a = np.einsum("mab,rs->marbs", ops, np.eye(din)).reshape(len(ops), -1, n)
    signs = np.repeat([1.0, -1.0], [spec.bit1.cardinality, spec.bit0.cardinality])
    # sum_m s_m A_m† w_m is this times the stacked w_m.
    signed_adjoint = (signs[:, None, None] * a).reshape(-1, n).conj().T
    rank = min(a.shape[:2])
    # The gauge directions are psi reshaped din x din times each (iK)^T.
    gauge = 1j * linalg.hermitian_basis(din).transpose(0, 2, 1)

    def images(psis: np.ndarray):
        """Images u_m = A_m psi = vec(K_m M) of each row, and the eigenpairs of X."""
        u = _branch_images(ops, psis)
        return u, *linalg.eigh_or_error((u.transpose(0, 2, 1) * signs) @ u.conj())

    def fun_grad(psis: np.ndarray):
        u, lam, vecs = images(psis)
        sign = (vecs * np.sign(lam)[:, None, :]) @ vecs.conj().transpose(0, 2, 1)
        # The rows S u_m, stacked over m, then sum_m s_m A_m† S u_m.
        su = (u @ sign.transpose(0, 2, 1)).reshape(len(psis), -1, 1)
        grads = (signed_adjoint @ su).reshape(len(psis), n)
        return np.sum(np.abs(lam), axis=1), grads, u, lam, vecs

    def model(u, lam, vecs):
        """Rank-aware signs σ and the second-order pieces (H + P, Q) at one
        state, from its images and eigenpairs of X: H = D*(S_r), and
        ½ sum_ij Γ_ij |Ẽ_ij(δ)|² = δ†Pδ + Re(δ^T Q δ).

        Ẽ_ij = L_ij δ + conj(L_ji δ) with L_ij = sum_m s_m conj(ũ_mj) (V† A_m)_i,
        ũ_m = V† u_m. Each pair is met once from its row i in the range, at
        half weight when j is in the range too (it is met again from j).
        """
        sigma = np.sign(lam)
        # The structural kernel: the window of len(lam) - rank eigenvalues,
        # contiguous in the sorted spectrum, whose largest |λ| is least.
        kernel = len(lam) - rank
        if kernel:
            first = np.argmin(np.maximum(np.abs(lam[: rank + 1]), np.abs(lam[kernel - 1 :])))
            sigma[first : first + kernel] = 0.0
        h = signed_adjoint @ (((vecs * sigma) @ vecs.conj().T) @ a).reshape(-1, n)
        live = np.flatnonzero(sigma)
        t = vecs.conj().T @ a
        c = signs[:, None] * (u.conj() @ vecs)
        rows = c.T @ t[:, live].transpose(1, 0, 2)  # L_ij, i live
        cols = (c[:, live].T @ t.reshape(len(t), -1)).reshape(len(live), -1, n)  # L_ji, i live
        with np.errstate(divide="ignore", invalid="ignore"):
            gamma = (sigma[live, None] - sigma) / (lam[live, None] - lam)
        # 0/0 where σ_i = σ_j and λ_i = λ_j; ±inf for a round-off pair across
        # the kernel's edge. Every other entry is finite and nonnegative.
        gamma[~np.isfinite(gamma)] = 0.0
        gamma[:, live] *= 0.5
        root = np.sqrt(gamma)[..., None]
        left, right = (root * rows).reshape(-1, n), (root * cols).reshape(-1, n)
        q = left.T @ right
        return sigma, h + (left.conj().T @ left + right.conj().T @ right), q + q.T

    def curvature(psi: np.ndarray):
        (u,), (lam,), (vecs,) = images(psi[None])
        return model(u, lam, vecs)[1:]

    def newton_step(psi, grad, hp, q, slope):
        """Newton step on the quotient for the model with Hessian pieces
        (hp, q) on the sphere and tangent gradient norm ``slope``; din > 1.

        In the coordinates ζ = (δ, conj δ) the model is γ†ζ + ½ ζ† W ζ
        with γ = (grad, conj grad) and W = [[hp, conj q], [q, conj hp]], so
        its stationary point is W ζ = -γ on the free directions: the
        conjugation-symmetric ones orthogonal to psi and the gauge. They are
        the last n - 1 columns of a complete QR of the n + 1 fixed
        directions, which spans their complement without forming their Gram
        (that squares their condition number); the reduced Hessian is formed
        from the two n-row halves of that basis, without building W. It is
        negative definite exactly when its negative has a Cholesky factor
        L L†, which then solves the system. Without one, the step is
        saddle-free: one ``eigh`` of the reduced Hessian, each eigenvalue μ
        replaced by -max(|μ|, slope), so that it ascends along every
        eigendirection, and by at most 1 / slope per unit of gradient.
        """
        fixed = np.concatenate([psi[None], (psi.reshape(din, din) @ gauge).reshape(-1, n)])
        fixed = np.concatenate([fixed, fixed.conj()], axis=1)
        free = np.linalg.qr(fixed.T, mode="complete")[0][:, n + 1 :]
        top, bottom = free[:n], free[n:]
        reduced = top.conj().T @ (hp @ top + q.conj() @ bottom) + bottom.conj().T @ (
            q @ top + hp.conj() @ bottom
        )
        g = top.conj().T @ grad + bottom.conj().T @ grad.conj()
        try:
            low = np.linalg.cholesky(-reduced)
        except np.linalg.LinAlgError:
            mu, y = linalg.eigh_or_error(reduced)
            return top @ (y @ ((y.conj().T @ g) / np.maximum(np.abs(mu), slope)))
        return top @ np.linalg.solve(low.conj().T, np.linalg.solve(low, g))

    def polish(psi: np.ndarray, grad: np.ndarray, u, lam, vecs):
        slope = linalg.vector_norm(grad - np.vdot(psi, grad).real * psi)
        if slope <= tol or n == 1:
            return None
        sigma, hp, q = model(u, lam, vecs)
        # The sphere adds -value |δ|², the value being homogeneous of
        # degree 2, and the regularization -slope |δ|².
        return psi + newton_step(psi, grad, hp - (float(sigma @ lam) + slope) * np.eye(n), q, slope)

    return _Objective(fun_grad, polish, curvature)


def _shared_cut(spec: ProtocolSpec):
    """The channel difference on fewer operators and output rows, exactly;
    returns (cut spec, trace note), or (``spec`` itself, None) when nothing
    is cut.

    An index j whose two operators are equal entry for entry adds the same
    term to both channels, so it cancels in Phi1 - Phi0 and in J. An output
    row on which every remaining operator is zero carries none of the
    difference, so dropping it changes no trace norm of an extended output.
    Both tests compare the stored entries exactly, with no tolerance, so the
    cut map is the same map on fewer output rows, still trace-annihilating,
    and Watrous's dual holds for it unchanged. The cut families are not
    complete and are never validated. Identical channels leave the zero map,
    held as one zero operator on one output row. The check when nothing is
    cut is one comparison of the two operator stacks.
    """
    ops1, ops0 = spec.bit1.ops, spec.bit0.ops
    differ = ops1 != ops0
    # Every entry differs from its partner, so every operator and row stays.
    if differ.all():
        return spec, None
    kept = differ.reshape(len(differ), -1).any(axis=1)
    rows = np.concatenate([ops1[kept], ops0[kept]]).any(axis=(0, 2))
    if kept.all() and rows.all():
        return spec, None
    note = (
        f"shared operators dropped: {np.count_nonzero(~kept)} of {len(kept)}; "
        f"output rows kept: {np.count_nonzero(rows)} of {len(rows)}"
    )
    if kept.any():
        cut = [ops[kept][:, rows] for ops in (ops1, ops0)]
    else:
        cut = [np.zeros((1, 1, spec.dim_in))] * 2
    bit1, bit0 = map(KrausFamily, cut)
    return ProtocolSpec(label=spec.label, bit0=bit0, bit1=bit1), note


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

    The witness, read as a din x din matrix M, is reduced to its Schmidt
    form: the eigenvectors U of M M† and its Schmidt weights, with the
    reference unitary dropped (it does not change the value). The weights
    are flattened by ``SCHMIDT_FLOOR`` so that B = diag(s) U^T is
    invertible, and out₊ is the positive part of the output
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


def _dual_bound(z: np.ndarray, j: np.ndarray, dout: int):
    """Watrous's dual value 2 ||Tr_out Z|| for a candidate Z, made feasible
    and rounded up; returns (bound, repair).

    Any Hermitian Z becomes feasible (Z >= 0 and Z >= J) once t I is added,
    with the repair t = max(0, -λmin Z, -λmin(Z - J)); that adds 2 t dout to
    the value. A backward-stable Hermitian eigensolver errs by at most about
    n eps times the operator norm of an n x n matrix: n eps ||Z|| in λmin Z,
    n eps ||Z - J|| in λmin(Z - J) and, Tr_out Z being n/dout square with
    norm at most dout ||Z||, n eps ||Z|| in its λmax. Both norms come from
    the two spectra the repair takes. The repair scales the error in t by
    dout, so the value is raised by 2 (dout + 1) n eps (||Z|| + ||Z - J||):
    round-off never puts the bound below the true norm. ``analyze_concealment``
    passes the shared-operator cut's J and Z, so n and dout are the cut's.
    """
    n = len(z)
    (zvals, gapvals), _ = linalg.eigh_or_error(np.stack([z, z - j]))
    repair = max(0.0, -zvals[0], -gapvals[0])
    reduced, _ = linalg.eigh_or_error(linalg.partial_trace(z, (dout, n // dout), 0))
    value = 2.0 * (reduced[-1] + repair * dout)
    norms = max(-zvals[0], zvals[-1]) + max(-gapvals[0], gapvals[-1])
    allowance = 2.0 * (dout + 1) * n * np.finfo(float).eps * norms
    return float(value + allowance), float(repair)


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


def analyze_concealment(spec: ProtocolSpec, tol: float = 1e-8) -> ConcealmentReport:
    """Bracket the cb norm of the channel difference for one protocol.

    After validation the protocol is cut down to the difference it measures
    (``_shared_cut``, counted in the trace's last note). The objective, J and
    the witness dual are built from the cut, which is deliberately not
    complete and never validated. The input space is never cut, so
    ``witness_state`` and ``helstrom_prob`` stay on the full protocol.
    Binding and the Kraus gap run on the full protocol.

    ``cb_lower`` is the value that projected gradient ascent over pure
    states of the committed space ⊗ a reference of dim_in achieves at
    ``witness_state``, from one start, the maximally entangled state; the
    report depends on the protocol and ``tol`` alone. ``cb_upper`` is the
    least of ``upper_routes``: ``witness_dual`` (Watrous's dual built from
    the witness) and ``channel_pair_cap`` (2). The dual is rounded up for
    round-off, so the cap wins where the dual meets it exactly;
    ``dual_repair`` is its repair. A bracket wider than
    ``optimize.CERTIFIED_WIDTH`` is reported open, as it stands. A lower bound above the upper one beyond
    ``BRACKET_GUARD`` is a solver bug and raises ``BracketInversionError``;
    smaller inversions are clipped to keep the bracket ordered.
    """
    require_valid(spec)
    tol = _require_tolerance(tol)
    cut, cut_note = _shared_cut(spec)
    din, dout = cut.dim_in, cut.dim_out
    j = _choi_difference(cut)
    fun_grad, polish, _ = _difference_objective(cut, tol)
    entangled = np.eye(din, dtype=complex).reshape(-1) / sqrt(din)
    lower = search_sphere(
        fun_grad,
        din * din,
        maximize=True,
        tol=tol,
        extra_starts=[entangled],
        polish=polish,
    )
    trace = lower.trace
    dual = _dual_bound(_witness_z(j, lower.vector, din, dout), j, dout)
    if cut_note:
        trace.notes.append(cut_note)
    routes = {"witness_dual": dual[0], "channel_pair_cap": CB_NORM_CAP}
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
        dual_repair=dual[1],
        solver_trace=trace,
    )
