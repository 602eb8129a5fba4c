"""Concealment analysis: how well can Bob distinguish the two commitments.

Bob's optimal cheating probability is 1/2 + 1/4 times the completely bounded
norm of the channel difference. The exact norm is bracketed from below by a
variational search over pure inputs on the committed space extended with a
reference, and from above by cheap certified routes; the bracket transfers
directly to Bob's cheating probability. The search's objective evaluates a
whole batch of states per call and takes its gradient from the branch images
K_m psi it already has, so it never builds the adjoint map's matrix; only
the eigenvector polish does, once per call.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import sqrt

import numpy as np

from . import linalg
from .errors import BracketInversionError
from .optimize import SolverTrace, SphereResult, search_sphere
from .protocol import (
    ProtocolSpec,
    align_families,
    apply_extended_channel,
    choi,
    kraus_gap_operator,
    require_valid,
)

# Two trace-preserving channels can never sit further apart than this.
CB_NORM_CAP = 2.0

BRACKET_GUARD = 1e-8


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


def _difference_objective(spec: ProtocolSpec, ref_dim: int):
    """Trace-norm objective with analytic subgradient and eigenvector polish.

    For a unit vector psi, the value is the trace norm of the extended
    channel difference applied to |psi><psi|. The subgradient comes from the
    spectral sign operator S: the value equals <psi| D*(S) |psi> with D* the
    adjoint difference map, so d value / d conj(psi) = D*(S) psi. Since
    D*(S) psi = sum_m A_m† S A_m psi over the extended operators
    A_m = K_m ⊗ I_ref (bit 1 minus bit 0), the gradient comes from the branch
    images u_m = A_m psi that the value already needs, as v_m = S u_m and then
    sum_m A_m† v_m, without forming D*(S). The objective does this for a whole
    batch of states at once, with one stacked eigendecomposition. The polish
    candidate is the top eigenvector of the Hermitian part of D*(S) at one
    state, built from the extended stacks; it never decreases the objective
    and sharpens convergence near the optimum.
    """
    din, n = spec.dim_in, spec.dim_in * ref_dim
    k0, k1 = spec.bit0.stack(), spec.bit1.stack()
    # Adjoint of each Kraus stack flattened over the Kraus index: (din, m * dout).
    k0h, k1h = (k.reshape(-1, din).conj().T for k in (k0, k1))
    # The operators K_m ⊗ I_ref of each bit: (m, dout * ref, n).
    a0, a1 = (
        np.einsum("mab,rs->marbs", k, np.eye(ref_dim)).reshape(len(k), -1, n) for k in (k0, k1)
    )

    def sign_and_images(psis: np.ndarray):
        mats = psis.reshape(len(psis), din, ref_dim)
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
        v1 = (u1 @ sign_t).reshape(len(psis), -1, ref_dim)
        v0 = (u0 @ sign_t).reshape(len(psis), -1, ref_dim)
        return values, (k1h @ v1 - k0h @ v0).reshape(len(psis), n)

    def polish(psi: np.ndarray):
        _, (sign,), _, _ = sign_and_images(psi[None])
        # D*(S) = A1† (S A1) - A0† (S A0), each stack flattened over its Kraus index.
        adj1, adj0 = (a.reshape(-1, n).conj().T @ (sign @ a).reshape(-1, n) for a in (a1, a0))
        back = adj1 - adj0
        _, vecs = linalg.eigh_or_error(0.5 * (back + back.conj().T))
        return vecs[:, -1]

    return fun_grad, polish


def cb_lower_bound(
    spec: ProtocolSpec,
    restarts: int = 16,
    seed: int = 0,
    tol: float = 1e-8,
    ref_dim: int | None = None,
    max_iter: int = 500,
) -> SphereResult:
    """Certified lower bound on the cb norm of the channel difference.

    Multi-start projected gradient ascent over pure states of the committed
    space extended by ``ref_dim`` (defaults to the committed dimension, which
    suffices for exactness of the variational form). The achieved objective
    is itself the bound; the witness state is returned alongside.
    """
    require_valid(spec)
    ref = spec.dim_in if ref_dim is None else int(ref_dim)
    if ref < 1:
        raise ValueError(f"reference dimension must be positive, got {ref}")
    fun_grad, polish = _difference_objective(spec, ref)
    # Maximally entangled start on the first min(dim_in, ref) levels of each
    # factor; frequently already the maximizer.
    k = min(spec.dim_in, ref)
    entangled = np.eye(spec.dim_in, ref, dtype=complex).reshape(-1) / sqrt(k)
    result = search_sphere(
        fun_grad,
        spec.dim_in * ref,
        maximize=True,
        restarts=restarts,
        seed=seed,
        tol=tol,
        max_iter=max_iter,
        extra_starts=[entangled],
        polish=polish,
        rng_tags=(1,),
    )
    result.value = max(0.0, result.value)
    return result


def cb_upper_bound(spec: ProtocolSpec, cheat=None):
    """Cheapest certified upper bound on the cb norm of the channel difference.

    Three routes, all valid upper bounds, minimum reported:
    the trace norm of the Choi-operator difference; twice the square root of
    the Kraus gap at a reindexing unitary (identity and a Procrustes
    alignment always, plus any caller-supplied one); and the universal cap
    of 2 for a pair of trace-preserving channels.
    """
    require_valid(spec)
    routes = {}
    routes["choi_trace_norm"] = linalg.trace_norm(choi(spec.bit1) - choi(spec.bit0))
    candidates = {
        "kraus_gap_identity": np.eye(spec.cardinality, dtype=complex),
        "kraus_gap_aligned": align_families(spec.bit0, spec.bit1),
    }
    if cheat is not None:
        candidates["kraus_gap_supplied"] = linalg.as_operator(cheat)
    for name, v in candidates.items():
        gap = linalg.operator_norm(kraus_gap_operator(spec, v))
        routes[name] = 2.0 * sqrt(gap)
    routes["channel_pair_cap"] = CB_NORM_CAP
    value = min(routes.values())
    return value, routes


@dataclass
class ConcealmentReport:
    """Bracketed cb norm of the channel difference and Bob's cheating bound."""

    label: str
    cb_lower: float
    cb_upper: float
    bob_cheat_lower: float
    bob_cheat_upper: float
    witness_state: np.ndarray
    upper_routes: dict
    solver_trace: SolverTrace


def analyze_concealment(
    spec: ProtocolSpec,
    restarts: int = 16,
    seed: int = 0,
    tol: float = 1e-8,
    ref_dim: int | None = None,
    max_iter: int = 500,
    cheat=None,
) -> ConcealmentReport:
    """Assemble the concealment bracket for one protocol.

    A lower bound exceeding the upper bound beyond a small guard signals a
    solver bug and raises instead of reporting; inversions within the guard
    are clipped to keep the bracket ordered.
    """
    lower = cb_lower_bound(
        spec, restarts=restarts, seed=seed, tol=tol, ref_dim=ref_dim, max_iter=max_iter
    )
    upper, routes = cb_upper_bound(spec, cheat=cheat)
    if lower.value > upper + BRACKET_GUARD:
        raise BracketInversionError(
            f"certified lower bound {lower.value!r} exceeds upper bound "
            f"{upper!r} for protocol {spec.label!r}"
        )
    cb_lo = min(lower.value, upper)
    return ConcealmentReport(
        label=spec.label,
        cb_lower=cb_lo,
        cb_upper=upper,
        bob_cheat_lower=0.5 + 0.25 * cb_lo,
        bob_cheat_upper=0.5 + 0.25 * upper,
        witness_state=lower.vector,
        upper_routes=routes,
        solver_trace=lower.trace,
    )
