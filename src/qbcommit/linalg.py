"""Dense complex linear algebra primitives.

Matrices are plain numpy arrays with dtype complex128 in row-major layout;
states are 1-d unit-norm arrays. Composite spaces use the big-endian slot
convention throughout the package: in a tensor product the first factor is
the slowest-varying index, matching ``numpy.kron`` ordering.
"""

from __future__ import annotations

import numpy as np

from .errors import SpectralDecompositionError

STATE_NORM_TOL = 1e-12
UNITARY_CONSTRUCTION_TOL = 1e-10


def as_operator(m) -> np.ndarray:
    """Coerce ``m`` to a 2-d complex array, rejecting non-finite entries."""
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2:
        raise ValueError(f"expected a matrix, got array of ndim {a.ndim}")
    if not np.all(np.isfinite(a.real)) or not np.all(np.isfinite(a.imag)):
        raise ValueError("matrix has non-finite entries")
    return a


def as_state(v) -> np.ndarray:
    """Coerce ``v`` to a 1-d complex unit vector within ``STATE_NORM_TOL``."""
    a = np.asarray(v, dtype=complex)
    if a.ndim != 1:
        raise ValueError(f"expected a state vector, got array of ndim {a.ndim}")
    if not np.all(np.isfinite(a.real)) or not np.all(np.isfinite(a.imag)):
        raise ValueError("state has non-finite entries")
    nrm = vector_norm(a)
    if abs(nrm - 1.0) > STATE_NORM_TOL:
        raise ValueError(f"state norm {nrm!r} differs from 1 beyond {STATE_NORM_TOL!r}")
    return a


def vector_norm(v: np.ndarray):
    """``np.linalg.norm`` of a 1-d array, same arithmetic, without its dispatch."""
    if v.dtype.kind == "c":
        re, im = v.real, v.imag
        return np.sqrt(re.dot(re) + im.dot(im))
    return np.sqrt(v.dot(v))


def normalize_state(v) -> np.ndarray:
    """Scale ``v`` to unit norm; rejects (near-)zero vectors."""
    a = np.asarray(v, dtype=complex)
    if a.ndim != 1:
        raise ValueError(f"expected a state vector, got array of ndim {a.ndim}")
    nrm = vector_norm(a)
    if nrm < 1e-15:
        raise ValueError("cannot normalize a zero vector")
    return a / nrm


def partial_trace(m, dims, traced: int) -> np.ndarray:
    """Trace out slot ``traced`` (0, the slow slot, or 1) of a square operator
    on a two-factor space with factor dimensions ``dims = (a, b)``."""
    m = as_operator(m)
    a, b = (int(d) for d in dims)
    if a < 1 or b < 1:
        raise ValueError(f"factor dimensions must be positive, got {dims}")
    if m.shape != (a * b, a * b):
        raise ValueError(f"operator shape {m.shape} does not match dims {dims}")
    if traced not in (0, 1):
        raise ValueError(f"traced slot must be 0 or 1, got {traced!r}")
    t = m.reshape(a, b, a, b)
    if traced == 0:
        return np.einsum("abad->bd", t)
    return np.einsum("abcb->ac", t)


def _singular_values(m: np.ndarray) -> np.ndarray:
    try:
        return np.linalg.svd(m, compute_uv=False)
    except np.linalg.LinAlgError as exc:
        raise SpectralDecompositionError(
            f"singular value decomposition failed to converge: {exc}"
        ) from exc


def trace_norm(m) -> float:
    """Sum of singular values of a square matrix."""
    m = as_operator(m)
    if m.shape[0] != m.shape[1]:
        raise ValueError(f"trace norm expects a square matrix, got {m.shape}")
    return float(np.sum(_singular_values(m)))


def operator_norm(m) -> float:
    """Largest singular value of a square matrix."""
    m = as_operator(m)
    if m.shape[0] != m.shape[1]:
        raise ValueError(f"operator norm expects a square matrix, got {m.shape}")
    vals = _singular_values(m)
    return float(vals[0]) if vals.size else 0.0


def eigh_or_error(m: np.ndarray):
    """Hermitian eigendecomposition with the package's error type.

    Non-finite entries are rejected up front: LAPACK is free to hand back
    garbage for them instead of failing.
    """
    if not np.isfinite(m).all():
        raise SpectralDecompositionError(
            "matrix has non-finite entries, refusing eigendecomposition"
        )
    try:
        return np.linalg.eigh(m)
    except np.linalg.LinAlgError as exc:
        raise SpectralDecompositionError(
            f"hermitian eigendecomposition failed to converge: {exc}"
        ) from exc


def polar_factor(a: np.ndarray) -> np.ndarray:
    """Unitary polar factor ``u @ vh`` of a square matrix, from one SVD: the
    unitary closest to ``a`` in Frobenius norm. A stack ``(..., m, m)`` is
    factored matrix by matrix, each as it would be alone."""
    try:
        u, _, vh = np.linalg.svd(a)
    except np.linalg.LinAlgError as exc:
        raise SpectralDecompositionError(
            f"singular value decomposition failed to converge: {exc}"
        ) from exc
    return u @ vh


def unitarity_residual(v) -> float:
    """Operator-norm distance of ``v.conj().T @ v`` from the identity; for a
    stack of square matrices ``(..., m, m)``, the largest over the stack."""
    v = np.asarray(v, dtype=complex)
    if v.ndim < 2 or v.shape[-1] != v.shape[-2]:
        raise ValueError(f"expected a square matrix or a stack of them, got shape {v.shape}")
    if not np.isfinite(v).all():
        raise ValueError("matrix has non-finite entries")
    if v.size == 0:
        return 0.0
    gram = v.conj().swapaxes(-1, -2) @ v - np.eye(v.shape[-1])
    return float(_singular_values(gram)[..., 0].max())


def require_unitary(v, tol: float = 1e-8) -> np.ndarray:
    """``v`` as a complex array, checked finite and unitary within ``tol``.

    A stack of square matrices is checked in one batched call. This is the
    package's one unitarity check.
    """
    v = np.asarray(v, dtype=complex)
    res = unitarity_residual(v)
    if res > tol:
        raise ValueError(f"matrix is not unitary: residual {res!r} exceeds {tol!r}")
    return v


def _as_rng(seed) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def spawn_rng(seed: int, *tags: int) -> np.random.Generator:
    """Deterministic per-task generator derived from a base seed and counters."""
    return np.random.default_rng([int(seed)] + [int(t) for t in tags])


def random_state(dim: int, seed) -> np.ndarray:
    """Haar-like random pure state, phase-fixed and deterministic per seed.

    The global phase is fixed by making the first nonzero component real
    and positive, so random_state(1, seed) is always the scalar [1].
    """
    if dim < 1:
        raise ValueError(f"state dimension must be positive, got {dim}")
    rng = _as_rng(seed)
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    v /= vector_norm(v)
    idx = int(np.flatnonzero(np.abs(v) > 1e-12)[0])
    v *= np.exp(-1j * np.angle(v[idx]))
    return v


def random_isometry(rows: int, cols: int, seed) -> np.ndarray:
    """Haar-distributed ``rows`` x ``cols`` isometry, ``rows >= cols``: QR of a
    complex Gaussian matrix with the diagonal of R phase-fixed."""
    rng = _as_rng(seed)
    z = rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))
    q, r = np.linalg.qr(z)
    d = np.diag(r)
    return q * (d / np.abs(d))


def random_unitary(dim: int, seed) -> np.ndarray:
    """Haar-distributed random unitary: a square ``random_isometry``."""
    if dim < 1:
        raise ValueError(f"unitary dimension must be positive, got {dim}")
    return random_isometry(dim, dim, seed)
