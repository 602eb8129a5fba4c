"""Dense complex linear algebra primitives.

Matrices are plain numpy arrays with dtype complex128 in row-major layout;
states are 1-d unit-norm arrays. Composite spaces use the big-endian slot
convention throughout the package: in a tensor product the first factor is
the slowest-varying index, matching ``numpy.kron`` ordering.
"""

from __future__ import annotations

from functools import lru_cache

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


def as_state(v, tol: float = STATE_NORM_TOL) -> np.ndarray:
    """Coerce ``v`` to a 1-d complex unit vector within ``tol``."""
    a = np.asarray(v, dtype=complex)
    if a.ndim != 1:
        raise ValueError(f"expected a state vector, got array of ndim {a.ndim}")
    if not np.all(np.isfinite(a.real)) or not np.all(np.isfinite(a.imag)):
        raise ValueError("state has non-finite entries")
    nrm = vector_norm(a)
    if abs(nrm - 1.0) > tol:
        raise ValueError(f"state norm {nrm!r} differs from 1 beyond {tol!r}")
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


def partial_trace(m, dims, traced_slots) -> np.ndarray:
    """Trace out ``traced_slots`` of a square operator on a composite space.

    ``dims`` lists the factor dimensions from slowest to fastest slot; the
    remaining slots keep their relative order in the output.
    """
    m = as_operator(m)
    dims = [int(d) for d in dims]
    if any(d < 1 for d in dims):
        raise ValueError(f"factor dimensions must be positive, got {dims}")
    total = int(np.prod(dims))
    if m.shape != (total, total):
        raise ValueError(f"operator shape {m.shape} does not match dims {dims}")
    traced = sorted(set(int(s) for s in traced_slots))
    if any(s < 0 or s >= len(dims) for s in traced):
        raise ValueError(f"traced slot out of range for {len(dims)} slots: {traced}")

    n = len(dims)
    t = m.reshape(dims + dims)
    # Row index letters, then column index letters; traced slots share a letter.
    letters = "abcdefghijklmnopqrstuvwxyz"
    if 2 * n > len(letters):
        raise ValueError("too many tensor slots for partial trace")
    row = list(letters[:n])
    col = list(letters[n : 2 * n])
    for s in traced:
        col[s] = row[s]
    keep = [i for i in range(n) if i not in traced]
    out = "".join(row[i] for i in keep) + "".join(col[i] for i in keep)
    reduced = np.einsum("".join(row) + "".join(col) + "->" + out, t)
    kept_dim = int(np.prod([dims[i] for i in keep])) if keep else 1
    return reduced.reshape(kept_dim, kept_dim)


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


def unitarity_residual(v) -> float:
    """Operator-norm distance of ``v.conj().T @ v`` from the identity."""
    v = as_operator(v)
    if v.shape[0] != v.shape[1]:
        raise ValueError(f"expected a square matrix, got {v.shape}")
    return operator_norm(v.conj().T @ v - np.eye(v.shape[0]))


def require_unitary(v, tol: float = 1e-8) -> np.ndarray:
    v = as_operator(v)
    res = unitarity_residual(v)
    if res > tol:
        raise ValueError(f"matrix is not unitary: residual {res!r} exceeds {tol!r}")
    return v


@lru_cache(maxsize=None)
def _upper_indices(m: int):
    """Row and column indices of the strict upper triangle, row-major."""
    return np.triu_indices(m, 1)


def hermitian_from_params(params) -> np.ndarray:
    """Assemble a Hermitian matrix from ``m**2`` real parameters.

    Layout: the first ``m`` entries are the diagonal; the rest are
    (real, imag) pairs for the strictly upper triangle in row-major order.
    A stack of parameter rows ``(R, m**2)`` gives a stack ``(R, m, m)``.
    """
    p = np.asarray(params, dtype=float)
    if p.ndim not in (1, 2):
        raise ValueError("parameters must be a flat real vector or a stack of them")
    m = int(round(np.sqrt(p.shape[-1])))
    if m * m != p.shape[-1]:
        raise ValueError(f"parameter count {p.shape[-1]} is not a perfect square")
    if not np.all(np.isfinite(p)):
        raise ValueError("parameters have non-finite entries")
    h = np.zeros(p.shape[:-1] + (m, m), dtype=complex)
    h[..., range(m), range(m)] = p[..., :m]
    rows, cols = _upper_indices(m)
    h[..., rows, cols] = p[..., m::2] + 1j * p[..., m + 1 :: 2]
    h[..., cols, rows] = p[..., m::2] - 1j * p[..., m + 1 :: 2]
    return h


def params_from_hermitian(h) -> np.ndarray:
    """Inverse of :func:`hermitian_from_params` (Hermitized input)."""
    h = as_operator(h)
    m = h.shape[0]
    if h.shape[0] != h.shape[1]:
        raise ValueError(f"expected a square matrix, got {h.shape}")
    h = 0.5 * (h + h.conj().T)
    p = np.empty(m * m, dtype=float)
    p[:m] = np.real(np.diag(h))
    upper = h[_upper_indices(m)]
    p[m::2] = upper.real
    p[m + 1 :: 2] = upper.imag
    return p


def unitaries_from_params(params):
    """Map parameter rows ``(R, m**2)`` to exp(i H) for each assembled H.

    Returns the unitaries ``(R, m, m)`` and the eigendecomposition ``(w, u)``
    that :func:`unitary_param_gradient` reuses. Every row must come out finite
    and unitary within ``UNITARY_CONSTRUCTION_TOL``.
    """
    w, u = eigh_or_error(hermitian_from_params(params))
    v = (u * np.exp(1j * w)[..., None, :]) @ u.conj().swapaxes(-1, -2)
    if not np.isfinite(v).all():
        raise ValueError("matrix has non-finite entries")
    gram = v.conj().swapaxes(-1, -2) @ v - np.eye(v.shape[-1])
    res = float(_singular_values(gram)[..., 0].max())
    if res > UNITARY_CONSTRUCTION_TOL:
        raise SpectralDecompositionError(
            f"constructed matrix misses unitarity: residual {res!r}"
        )
    return v, (w, u)


def unitary_from_params(params) -> np.ndarray:
    """Map ``m**2`` real parameters to exp(i H) for the assembled Hermitian H."""
    return unitaries_from_params(np.asarray(params, dtype=float)[None])[0][0]


def params_from_unitary(v) -> np.ndarray:
    """Real parameters whose :func:`unitary_from_params` image is ``v``.

    Uses the principal logarithm: eigenphases are taken in (-pi, pi], so
    the round trip reproduces ``v`` but not necessarily the original
    parameter vector.
    """
    import scipy.linalg

    v = require_unitary(v, tol=1e-8)
    # Schur of a (near-)unitary matrix is diagonal with orthonormal vectors,
    # which stays stable under degenerate eigenvalues, unlike np.linalg.eig.
    t, z = scipy.linalg.schur(v, output="complex")
    phases = np.angle(np.diag(t))
    h = (z * phases) @ z.conj().T
    return params_from_hermitian(h)


def unitary_param_gradient(eig, wirtinger_grad) -> np.ndarray:
    """Pull gradients on the unitaries back to the real parameter rows.

    ``eig`` is the ``(w, u)`` pair that :func:`unitaries_from_params` returned
    for the rows; ``wirtinger_grad`` stacks d f / d conj(V) ``(R, m, m)`` for a
    real-valued f at each V. The result ``(R, m**2)`` is the ordinary gradient
    of f with respect to each row's real parameters, computed through the
    spectral first-divided-difference kernel of the matrix exponential.
    """
    w, u = eig
    m = w.shape[-1]
    g = np.asarray(wirtinger_grad, dtype=complex)
    if g.shape != u.shape:
        raise ValueError(f"gradient shape {g.shape} does not match unitaries {u.shape}")
    if not np.isfinite(g).all():
        raise ValueError("matrix has non-finite entries")
    # First divided differences of x -> exp(i x) on each eigenvalue grid.
    diff = w[:, :, None] - w[:, None, :]
    ew = np.exp(1j * w)
    num = ew[:, :, None] - ew[:, None, :]
    small = np.abs(diff) < 1e-12
    kernel = np.where(small, 1j * ew[:, :, None], num / np.where(small, 1.0, diff))

    uh = u.conj().swapaxes(-1, -2)
    gt = uh @ g @ u
    d = np.conj(gt) * kernel
    wmat = u @ d.swapaxes(-1, -2) @ uh

    out = np.empty(w.shape[:-1] + (m * m,), dtype=float)
    out[:, :m] = 2.0 * np.real(np.diagonal(wmat, axis1=-2, axis2=-1))
    rows, cols = _upper_indices(m)
    above, below = wmat[:, rows, cols], wmat[:, cols, rows]
    out[:, m::2] = 2.0 * np.real(below + above)
    out[:, m + 1 :: 2] = 2.0 * (np.imag(above) - np.imag(below))
    return out


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


def random_unitary(dim: int, seed) -> np.ndarray:
    """Haar-distributed random unitary (QR with phase-fixed diagonal)."""
    if dim < 1:
        raise ValueError(f"unitary dimension must be positive, got {dim}")
    rng = _as_rng(seed)
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(z)
    d = np.diag(r)
    q = q * (d / np.abs(d))
    return q
