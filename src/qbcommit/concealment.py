"""Concealment analysis: how well can Bob distinguish the two commitments.

Bob's optimal cheating probability is 1/2 + 1/4 times the completely bounded
norm of the channel difference. The exact norm is bracketed from below by a
variational search over pure inputs on the committed space extended with a
reference, and from above by cheap certified routes; the bracket transfers
directly to Bob's cheating probability.
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


def _extended_stacks(spec: ProtocolSpec, ref_dim: int):
    k0 = spec.bit0.stack()
    k1 = spec.bit1.stack()
    return k0, k1, spec.dim_in * ref_dim, spec.dim_out * ref_dim


def _difference_objective(spec: ProtocolSpec, ref_dim: int):
    """Trace-norm objective with analytic subgradient and eigenvector polish.

    For a unit vector psi, the value is the trace norm of the extended
    channel difference applied to |psi><psi|. The subgradient comes from the
    spectral sign operator S: the value equals <psi| D*(S) |psi> with D* the
    adjoint difference map, so d value / d conj(psi) = D*(S) psi. The
    objective maps this over the rows of a batch of states. The polish
    candidate is the top eigenvector of D*(S) at one state, which never
    decreases the objective and sharpens convergence near the optimum.
    """
    k0, k1, dim_total, _ = _extended_stacks(spec, ref_dim)
    din, dout = spec.dim_in, spec.dim_out

    def pieces(psi: np.ndarray):
        mat = psi.reshape(din, ref_dim)
        u1 = np.einsum("mab,br->mar", k1, mat).reshape(len(k1), -1)
        u0 = np.einsum("mab,br->mar", k0, mat).reshape(len(k0), -1)
        out = np.einsum("ma,mb->ab", u1, u1.conj()) - np.einsum(
            "ma,mb->ab", u0, u0.conj()
        )
        w, vecs = linalg.eigh_or_error(out)
        value = float(np.sum(np.abs(w)))
        sign = (vecs * np.sign(w)) @ vecs.conj().T
        s4 = sign.reshape(dout, ref_dim, dout, ref_dim)
        back = np.einsum("mae,arbt,mbf->erft", k1.conj(), s4, k1) - np.einsum(
            "mae,arbt,mbf->erft", k0.conj(), s4, k0
        )
        back = back.reshape(dim_total, dim_total)
        return value, back

    def fun_grad(psis: np.ndarray):
        values = np.empty(len(psis))
        grads = np.empty_like(psis)
        for r, psi in enumerate(psis):
            values[r], back = pieces(psi)
            grads[r] = back @ psi
        return values, grads

    def polish(psi: np.ndarray):
        _, back = pieces(psi)
        w, vecs = linalg.eigh_or_error(0.5 * (back + back.conj().T))
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
    extra = []
    if ref == spec.dim_in:
        # Maximally entangled start; frequently already the maximizer.
        extra.append(np.eye(spec.dim_in, dtype=complex).reshape(-1) / sqrt(spec.dim_in))
    result = search_sphere(
        fun_grad,
        spec.dim_in * ref,
        maximize=True,
        restarts=restarts,
        seed=seed,
        tol=tol,
        max_iter=max_iter,
        extra_starts=extra,
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
