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
    fam = KrausFamily([eye])
    return ProtocolSpec(label=f"identity-d{dim}", bit0=fam, bit1=fam)


def phase_flip_pair() -> ProtocolSpec:
    """Identity for bit 0 against a phase flip for bit 1 on one qubit."""
    eye = np.eye(2, dtype=complex)
    z = np.diag([1.0, -1.0]).astype(complex)
    return ProtocolSpec(
        label="identity-vs-phase-flip",
        bit0=KrausFamily([eye]),
        bit1=KrausFamily([z]),
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
    bit0 = KrausFamily(_basis_projectors(0.0))
    bit1 = KrausFamily(_basis_projectors(angle))
    return ProtocolSpec(label=f"dephasing-angle-{angle:.6g}", bit0=bit0, bit1=bit1)


def random_kraus_family(dim_in: int, dim_out: int, cardinality: int, seed) -> KrausFamily:
    """Haar-style random complete family via a random isometry split in blocks."""
    if dim_out * cardinality < dim_in:
        raise ValueError(
            "no complete family exists with "
            f"dim_out * cardinality = {dim_out * cardinality} < dim_in = {dim_in}"
        )
    q = linalg.random_isometry(dim_out * cardinality, dim_in, seed)
    return KrausFamily(q.reshape(cardinality, dim_out, dim_in))


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


def decoy_protocol(decoy_qubits: float, angle: float = pi / 2) -> ProtocolSpec:
    """Dephasing diluted by decoys Alice appends to the committed qubit.

    Each bit is a flagged mixture: Alice draws a string uniformly from her
    ``decoy_qubits`` ancilla qubits and sends it to Bob as the flag. String
    0 runs the bit-dependent dephasing block (the two projectors), the other
    2^k - 1 run pass-through blocks. The flags ride into the output, so its
    dimension grows with the decoy count while the channels for the two bits
    draw together geometrically. A fractional count is rounded to the
    nearest integer, ties to even.
    """
    k = int(round(decoy_qubits))
    if k < 0:
        raise ValueError(f"decoy count must be nonnegative, got {k}")
    # The operator stack's 16 (2^k + 1) 2^(k + 2) bytes must fit numpy's
    # largest array; the first test keeps a huge count from forming 2^k.
    if k >= np.iinfo(np.intp).bits or 16 * (2**k + 1) * 2 ** (k + 2) > np.iinfo(np.intp).max:
        raise ValueError(f"decoy count {k}: its operator stack exceeds numpy's largest array")
    branches = 2**k
    weight = branches**-0.5
    # Operator j is weight · kron(block_j, e_s), block j's string s as row j
    # of the flag matrix, laid out as (qubit out, string, qubit in).
    flags = np.eye(branches + 1, branches, -1, dtype=complex)
    flags[0, 0] = 1.0
    passes = np.eye(2)[None].repeat(branches - 1, axis=0)
    families = []
    for basis_angle in (0.0, angle):
        blocks = np.concatenate([_basis_projectors(basis_angle), passes])
        ops = blocks[:, :, None, :] * flags[:, None, :, None]
        ops *= weight
        families.append(KrausFamily(ops.reshape(branches + 1, 2 * branches, 2)))
    return ProtocolSpec(label=f"decoy-k{k}-angle-{angle:.6g}", bit0=families[0], bit1=families[1])


#: Families addressable from scan configuration files, keyed by name: each
#: builder takes the scanned number as its first argument, so ``decoy``
#: rounds it to the decoy qubit count and takes the basis angle as an
#: option, and ``dephasing`` reads it as bit 1's basis angle in radians.
FAMILY_REGISTRY = {"decoy": decoy_protocol, "dephasing": dephasing_protocol}
