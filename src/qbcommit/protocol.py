"""Protocol model: Kraus families, validation, channels, dilations.

A commitment protocol is a pair of Kraus families acting from the committed
space (dim_in) into the output space (dim_out), one family per bit value.
Families are non-aborting: the operators of each family sum, as op†op, to
the identity on the input space.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import ceil, gcd

import numpy as np

from . import linalg
from .errors import ProtocolValidationError

COMPLETENESS_TOL = 1e-9


def _freeze(a: np.ndarray) -> np.ndarray:
    a = np.array(a, dtype=complex, copy=True)
    a.flags.writeable = False
    return a


@dataclass(frozen=True, eq=False)
class KrausFamily:
    """An ordered family of Kraus operators sharing one input/output space,
    held as one read-only ``(cardinality, dim_out, dim_in)`` array ``ops``."""

    dim_in: int
    dim_out: int
    ops: np.ndarray

    def __post_init__(self):
        ops = _freeze(self.ops)
        if ops.ndim != 3 or not len(ops) or ops.shape[1:] != (self.dim_out, self.dim_in):
            raise ValueError(
                f"expected (m, {self.dim_out}, {self.dim_in}) operators, got {ops.shape}"
            )
        object.__setattr__(self, "ops", ops)

    @classmethod
    def from_ops(cls, ops) -> "KrausFamily":
        mats = [linalg.as_operator(op) for op in ops]
        if not mats:
            raise ValueError("a Kraus family needs at least one operator")
        dout, din = mats[0].shape
        for i, op in enumerate(mats):
            if op.shape != (dout, din):
                raise ValueError(
                    f"operator {i} has shape {op.shape}, expected {(dout, din)}"
                )
        return cls(dim_in=din, dim_out=dout, ops=mats)

    @property
    def cardinality(self) -> int:
        return len(self.ops)

    @cached_property
    def _residual(self) -> float:
        if not np.isfinite(self.ops).all():
            return float("inf")
        # sum_m K_m† K_m is one product of the stacked (m·dout, din) operators.
        stacked = self.ops.reshape(-1, self.dim_in)
        return linalg.operator_norm(stacked.conj().T @ stacked - np.eye(self.dim_in))

    def completeness_residual(self) -> float:
        """Operator-norm distance of the op†op sum from the identity; inf
        when an operator has a non-finite entry."""
        return self._residual

    def padded(self, cardinality: int) -> "KrausFamily":
        """Copy extended with zero operators up to ``cardinality``."""
        if cardinality < self.cardinality:
            raise ValueError("cannot pad to a smaller cardinality")
        if cardinality == self.cardinality:
            return self
        zeros = np.zeros((cardinality - self.cardinality, self.dim_out, self.dim_in))
        padded = KrausFamily(self.dim_in, self.dim_out, np.concatenate([self.ops, zeros]))
        # Zero operators add nothing to the op†op sum: the residual carries over
        # (one product over the longer stack may round its last bit differently).
        if "_residual" in self.__dict__:
            padded.__dict__["_residual"] = self._residual
        return padded


@dataclass(frozen=True, eq=False)
class ProtocolSpec:
    """A labelled pair of same-shaped Kraus families, one per bit value."""

    label: str
    bit0: KrausFamily
    bit1: KrausFamily

    def __post_init__(self):
        if (self.bit0.dim_in, self.bit0.dim_out) != (self.bit1.dim_in, self.bit1.dim_out):
            raise ValueError(
                "families act on different spaces: "
                f"bit0 {(self.bit0.dim_in, self.bit0.dim_out)} vs "
                f"bit1 {(self.bit1.dim_in, self.bit1.dim_out)}"
            )
        # Families declared with different cardinalities are reconciled here
        # by zero padding, which leaves both channels unchanged.
        m = max(self.bit0.cardinality, self.bit1.cardinality)
        object.__setattr__(self, "bit0", self.bit0.padded(m))
        object.__setattr__(self, "bit1", self.bit1.padded(m))

    @property
    def dim_in(self) -> int:
        return self.bit0.dim_in

    @property
    def dim_out(self) -> int:
        return self.bit0.dim_out

    @property
    def cardinality(self) -> int:
        return self.bit0.cardinality


@dataclass(frozen=True)
class ValidationReport:
    label: str
    dim_in: int
    dim_out: int
    cardinality: int
    completeness_residual_bit0: float
    completeness_residual_bit1: float
    tol: float
    accepted: bool


def validate(spec: ProtocolSpec, tol: float = COMPLETENESS_TOL) -> ValidationReport:
    """Check both families for completeness.

    Always returns a report; callers treat a non-accepted report as rejection.
    """
    r0 = spec.bit0.completeness_residual()
    r1 = spec.bit1.completeness_residual()
    return ValidationReport(
        label=spec.label,
        dim_in=spec.dim_in,
        dim_out=spec.dim_out,
        cardinality=spec.cardinality,
        completeness_residual_bit0=r0,
        completeness_residual_bit1=r1,
        tol=tol,
        accepted=r0 <= tol and r1 <= tol,
    )


def require_valid(spec: ProtocolSpec) -> ValidationReport:
    """``validate`` at ``COMPLETENESS_TOL``; a rejected protocol raises."""
    report = validate(spec)
    if not report.accepted:
        raise ProtocolValidationError(
            f"protocol {spec.label!r} rejected: completeness residuals "
            f"({report.completeness_residual_bit0!r}, "
            f"{report.completeness_residual_bit1!r}) with tolerance {report.tol!r}",
            report=report,
        )
    return report


def apply_channel(family: KrausFamily, rho) -> np.ndarray:
    """Channel action sum_J op_J rho op_J† on a density operator."""
    rho = linalg.as_operator(rho)
    if rho.shape != (family.dim_in, family.dim_in):
        raise ValueError(
            f"state shape {rho.shape} does not match input dimension {family.dim_in}"
        )
    k = family.ops
    return np.einsum("mab,bd,mcd->ac", k, rho, k.conj())


def apply_extended_channel(family: KrausFamily, rho, ref_dim: int) -> np.ndarray:
    """Action of (channel ⊗ identity) on a state of the input ⊗ reference space.

    The reference factor is the fast (trailing) slot.
    """
    ref_dim = int(ref_dim)
    if ref_dim < 1:
        raise ValueError(f"reference dimension must be positive, got {ref_dim}")
    rho = linalg.as_operator(rho)
    n = family.dim_in * ref_dim
    if rho.shape != (n, n):
        raise ValueError(
            f"state shape {rho.shape} does not match input ⊗ reference dims "
            f"({family.dim_in} * {ref_dim})"
        )
    k = family.ops
    rho4 = rho.reshape(family.dim_in, ref_dim, family.dim_in, ref_dim)
    out = np.einsum("mab,brds,mcd->arcs", k, rho4, k.conj())
    n_out = family.dim_out * ref_dim
    return out.reshape(n_out, n_out)


def choi(family: KrausFamily) -> np.ndarray:
    """Unnormalized Choi operator with the input factor on the slow slot.

    Positive semidefinite; its partial trace over the output slot is the
    identity on the input space exactly when the family is complete.
    """
    vecs = family.ops.transpose(0, 2, 1).reshape(family.cardinality, -1)
    return vecs.T @ vecs.conj()


def choi_distance(fam_a: KrausFamily, fam_b: KrausFamily) -> float:
    """Frobenius distance between the Choi operators of two families."""
    if (fam_a.dim_in, fam_a.dim_out) != (fam_b.dim_in, fam_b.dim_out):
        raise ValueError("families act on different spaces")
    return float(np.linalg.norm(choi(fam_a) - choi(fam_b)))


def _branch_images(stack, states) -> np.ndarray:
    """Images K_m M of each row of ``states`` under each operator of the
    ``(m, dim_out, dim_in)`` stack, M being the row of dim_in·c entries read
    as a dim_in x c matrix, as a ``(rows, m, dim_out·c)`` array. Each product
    is one row's own, so a row's bits do not depend on the batch it sits in."""
    dim_in = stack.shape[-1]
    mats = states.reshape(len(states), dim_in, -1)
    return (stack.reshape(-1, dim_in) @ mats).reshape(len(states), len(stack), -1)


def _require_cheat(cheat, cardinality: int) -> np.ndarray:
    """``cheat`` as a finite complex ``cardinality`` x ``cardinality`` matrix,
    checked unitary; every public function that takes a cheat calls this."""
    cheat = linalg.as_operator(cheat)
    if cheat.shape != (cardinality, cardinality):
        raise ValueError(
            f"cheat unitary shape {cheat.shape} does not match cardinality {cardinality}"
        )
    return linalg.require_unitary(cheat)


def apply_cheat_unitary(family: KrausFamily, v) -> KrausFamily:
    """Reindex a family by a unitary on the opening-label space.

    The new operator J is sum_L v[J, L] * op_L; the induced channel is
    unchanged and the cardinality is kept.
    """
    v = _require_cheat(v, family.cardinality)
    new_ops = np.einsum("jl,lab->jab", v, family.ops)
    return KrausFamily(family.dim_in, family.dim_out, new_ops)


def align_families(source: KrausFamily, target: KrausFamily) -> np.ndarray:
    """Unitary reindexing of ``source`` closest to ``target`` in Frobenius norm.

    Solves the orthogonal-Procrustes alignment over the opening labels; when
    ``target`` is an exact reindexing of ``source`` the returned unitary
    reproduces it exactly.
    """
    if (source.dim_in, source.dim_out) != (target.dim_in, target.dim_out):
        raise ValueError("families act on different spaces")
    m = source.cardinality
    if m != target.cardinality:
        raise ValueError("families have different cardinalities")
    overlap = np.einsum("jab,lab->jl", target.ops.conj(), source.ops)
    p, _, qh = linalg.svd_or_error(overlap.T)
    return qh.conj().T @ p.conj().T


@dataclass(frozen=True, eq=False)
class Dilation:
    """Unitary dilation of a Kraus family with a measured environment.

    The unitary acts on input ⊗ ancilla; the same space is re-read as
    output ⊗ environment with the environment on the fast (trailing) slot.
    Feeding the ancilla with its basis-0 state and tracing the environment
    reproduces the channel.
    """

    dim_in: int
    dim_out: int
    ancilla_dim: int
    environment_dim: int
    unitary: np.ndarray

    def apply(self, rho) -> np.ndarray:
        """Push ``rho`` through the dilation and trace out the environment.

        Linear in ``rho``; accepts any matrix on the input space, which lets
        callers reconstruct the full channel action entry by entry.
        """
        rho = linalg.as_operator(rho)
        if rho.shape != (self.dim_in, self.dim_in):
            raise ValueError(
                f"state shape {rho.shape} does not match input dimension {self.dim_in}"
            )
        anc = np.zeros((self.ancilla_dim, self.ancilla_dim), dtype=complex)
        anc[0, 0] = 1.0
        big = self.unitary @ np.kron(rho, anc) @ self.unitary.conj().T
        return linalg.partial_trace(big, (self.dim_out, self.environment_dim), 1)


def dilate(family: KrausFamily) -> Dilation:
    """Unitary dilation with the minimal ancilla compatible with the spaces.

    For equal input and output dimensions the ancilla dimension equals the
    Kraus cardinality; unequal dimensions round the environment up so that
    input * ancilla = output * environment holds exactly. The unitary
    carries the family's completeness residual, so a family whose cached
    residual exceeds ``linalg.UNITARY_CONSTRUCTION_TOL`` is refused with
    ``ValueError``.
    """
    din, dout, m = family.dim_in, family.dim_out, family.cardinality
    res = family.completeness_residual()
    if res > linalg.UNITARY_CONSTRUCTION_TOL:
        raise ValueError(
            f"family is not complete enough to dilate: completeness residual {res!r} "
            f"exceeds {linalg.UNITARY_CONSTRUCTION_TOL!r}"
        )
    g = gcd(din, dout)
    t = ceil(m * g / din)
    env = (din // g) * t
    anc = (dout // g) * t

    # Isometry: input -> output ⊗ environment, opening label J on the
    # environment slot.
    w = np.zeros((dout, env, din), dtype=complex)
    w[:, :m] = family.ops.transpose(1, 0, 2)
    w = w.reshape(-1, din)
    # The left singular vectors past the first din span the complement of
    # w's range; w's column i sits at i * anc, where the ancilla occupies
    # its basis-0 state.
    rest = linalg.svd_or_error(w)[0][:, din:]
    unitary = np.insert(rest, np.arange(din) * (anc - 1), w, axis=1)
    linalg.require_unitary(unitary, tol=linalg.UNITARY_CONSTRUCTION_TOL)
    return Dilation(
        dim_in=din,
        dim_out=dout,
        ancilla_dim=anc,
        environment_dim=env,
        unitary=_freeze(unitary),
    )
