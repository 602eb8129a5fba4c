"""Built-in protocol constructions and random generators.

Everything here is deterministic per seed; generators accept either an
integer seed or a numpy Generator.
"""

from __future__ import annotations

from math import cos, pi, sin

import numpy as np

from . import linalg
from .protocol import KrausFamily, ProtocolSpec, apply_cheat_unitary


def identity_protocol(dim: int = 2) -> ProtocolSpec:
    """Both bits act as the identity channel; nothing is committed."""
    eye = np.eye(dim, dtype=complex)
    fam = KrausFamily.from_ops([eye])
    return ProtocolSpec(label=f"identity-d{dim}", bit0=fam, bit1=fam)


def phase_flip_pair() -> ProtocolSpec:
    """Identity for bit 0 against a phase flip for bit 1 on one qubit."""
    eye = np.eye(2, dtype=complex)
    z = np.diag([1.0, -1.0]).astype(complex)
    return ProtocolSpec(
        label="identity-vs-phase-flip",
        bit0=KrausFamily.from_ops([eye]),
        bit1=KrausFamily.from_ops([z]),
    )


def _basis_projectors(angle: float) -> list:
    """Rank-one projectors of the qubit basis rotated by ``angle`` about Y."""
    c, s = cos(angle / 2.0), sin(angle / 2.0)
    v0 = np.array([c, s], dtype=complex)
    v1 = np.array([-s, c], dtype=complex)
    return [np.outer(v0, v0.conj()), np.outer(v1, v1.conj())]


def dephasing_protocol(angle: float = pi / 2) -> ProtocolSpec:
    """Dephasing in the computational basis against a rotated basis.

    The default angle pits Z-basis dephasing against X-basis dephasing.
    """
    bit0 = KrausFamily.from_ops(_basis_projectors(0.0))
    bit1 = KrausFamily.from_ops(_basis_projectors(angle))
    return ProtocolSpec(label=f"dephasing-angle-{angle:.6g}", bit0=bit0, bit1=bit1)


def random_kraus_family(dim_in: int, dim_out: int, cardinality: int, seed) -> KrausFamily:
    """Haar-style random complete family via a random isometry split in blocks."""
    if dim_out * cardinality < dim_in:
        raise ValueError(
            "no complete family exists with "
            f"dim_out * cardinality = {dim_out * cardinality} < dim_in = {dim_in}"
        )
    q = linalg.random_isometry(dim_out * cardinality, dim_in, seed)
    ops = [q[j * dim_out : (j + 1) * dim_out, :] for j in range(cardinality)]
    return KrausFamily.from_ops(ops)


def random_protocol(
    dim_in: int, dim_out: int, cardinality: int, seed, label: str | None = None
) -> ProtocolSpec:
    """Two independent random families; generically neither concealing nor binding."""
    rng = linalg._as_rng(seed)
    bit0 = random_kraus_family(dim_in, dim_out, cardinality, rng)
    bit1 = random_kraus_family(dim_in, dim_out, cardinality, rng)
    return ProtocolSpec(
        label=label or f"random-{dim_in}x{dim_out}-m{cardinality}",
        bit0=bit0,
        bit1=bit1,
    )


def concealing_pair(seed, dim: int = 2, cardinality: int = 2):
    """Perfectly concealing protocol plus the reindexing unitary relating its bits.

    Bit 1 is a unitary reindexing of bit 0, so both channels coincide exactly
    and the returned unitary is a perfect cheat for Alice.
    """
    rng = linalg._as_rng(seed)
    bit0 = random_kraus_family(dim, dim, cardinality, rng)
    relating = linalg.random_unitary(cardinality, rng)
    bit1 = apply_cheat_unitary(bit0, relating)
    spec = ProtocolSpec(
        label=f"concealing-d{dim}-m{cardinality}", bit0=bit0, bit1=bit1
    )
    return spec, relating


def decoy_protocol(decoy_qubits: int, angle: float = pi / 2) -> ProtocolSpec:
    """Dephasing diluted by decoys Alice appends to the committed qubit.

    Alice draws a secret string from her ``decoy_qubits`` ancilla qubits
    (uniform, so Bob receives them maximally mixed) and applies the
    bit-dependent dephasing only when the string is all zeros; otherwise the
    committed qubit passes through untouched. The decoys ride along into the
    output, so the output dimension grows with the decoy count while the
    channels for the two bits draw together geometrically.
    """
    k = int(decoy_qubits)
    if k < 0:
        raise ValueError(f"decoy count must be nonnegative, got {k}")
    branches = 2**k
    weight = branches**-0.5
    eye = np.eye(2, dtype=complex)

    def embed(op: np.ndarray, branch: int) -> np.ndarray:
        col = np.zeros((branches, 1), dtype=complex)
        col[branch, 0] = 1.0
        return weight * np.kron(op, col)

    families = []
    for basis_angle in (0.0, angle):
        ops = [embed(proj, 0) for proj in _basis_projectors(basis_angle)]
        ops.extend(embed(eye, branch) for branch in range(1, branches))
        families.append(KrausFamily.from_ops(ops))
    return ProtocolSpec(
        label=f"decoy-k{k}-angle-{angle:.6g}", bit0=families[0], bit1=families[1]
    )


#: Families addressable from scan configuration files, keyed by name.
#: Each entry maps an integer family parameter to a protocol.
def _decoy_family(param, angle: float = pi / 2) -> ProtocolSpec:
    return decoy_protocol(int(round(float(param))), angle=angle)


def _dephasing_family(param) -> ProtocolSpec:
    return dephasing_protocol(float(param))


FAMILY_REGISTRY = {
    "decoy": _decoy_family,
    "dephasing": _dephasing_family,
}
