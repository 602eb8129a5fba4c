import ast
from pathlib import Path

import numpy as np
import pytest

from qbcommit import linalg
from qbcommit.errors import SpectralDecompositionError


def test_partial_trace_of_product_states():
    rng = np.random.default_rng(3)
    for _ in range(10):
        a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        b = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        m = np.kron(a, b)
        np.testing.assert_allclose(
            linalg.partial_trace(m, (2, 3), 1), a * np.trace(b), atol=1e-12
        )
        np.testing.assert_allclose(
            linalg.partial_trace(m, (2, 3), 0), b * np.trace(a), atol=1e-12
        )


def test_partial_trace_rejects_a_third_slot():
    with pytest.raises(ValueError, match="traced slot must be 0 or 1"):
        linalg.partial_trace(np.eye(6), (2, 3), 2)


def test_trace_norm_hand_value():
    m = np.diag([3.0, -4.0])
    assert abs(linalg.trace_norm(m) - 7.0) < 1e-12


def test_trace_norm_against_svd():
    rng = np.random.default_rng(11)
    for _ in range(10):
        m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        s = np.linalg.svd(m, compute_uv=False)
        assert abs(linalg.trace_norm(m) - s.sum()) < 1e-10


def test_norms_reject_nonsquare():
    with pytest.raises(ValueError):
        linalg.trace_norm(np.zeros((2, 3)))


def test_as_state_normalization_check():
    v = linalg.as_state([1.0, 0.0])
    np.testing.assert_allclose(v, [1.0, 0.0])
    with pytest.raises(ValueError):
        linalg.as_state([1.0, 1.0])
    with pytest.raises(ValueError):
        linalg.as_state(np.zeros(3))


def test_normalize_state():
    v = linalg.normalize_state(np.array([3.0, 4.0j]))
    assert abs(np.linalg.norm(v) - 1.0) < 1e-12
    with pytest.raises(ValueError):
        linalg.normalize_state(np.zeros(2))


def test_vector_norm_matches_numpy_bit_for_bit():
    rng = linalg.spawn_rng(72)
    for n in range(1, 65):
        x = rng.standard_normal(n) * 10.0 ** rng.uniform(-8, 8)
        z = x + 1j * rng.standard_normal(n)
        assert linalg.vector_norm(x) == np.linalg.norm(x)
        assert linalg.vector_norm(z) == np.linalg.norm(z)


def test_polar_factor_is_closest_unitary():
    # u @ vh of the SVD: unitary, and it maximizes Re Tr(A† V) at the trace norm.
    for dim in range(1, 6):
        rng = linalg.spawn_rng(22, dim)
        a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        p = linalg.polar_factor(a)
        assert linalg.unitarity_residual(p) < 1e-14
        assert abs(np.trace(a.conj().T @ p).real - linalg.trace_norm(a)) < 1e-12
        v = linalg.random_unitary(dim, rng)
        np.testing.assert_allclose(linalg.polar_factor(v), v, atol=1e-14)


def test_require_unitary():
    v = linalg.random_unitary(3, linalg.spawn_rng(31))
    linalg.require_unitary(v)
    with pytest.raises(ValueError):
        linalg.require_unitary(v * 1.01)
    bent = v.copy()
    bent[0, 1] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        linalg.require_unitary(bent)
    with pytest.raises(ValueError, match="square"):
        linalg.require_unitary(np.zeros((2, 3)))
    # One matrix only: a (k, m, m) stack is refused.
    with pytest.raises(ValueError, match="square"):
        linalg.require_unitary(np.array([v, v]))


def _callers(name: str):
    """(module, enclosing function) of every call to ``name`` in the package."""
    found = []
    for path in sorted(Path(linalg.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for func in ast.walk(tree):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(func):
                callee = getattr(node, "func", None)
                if name in (getattr(callee, "id", None), getattr(callee, "attr", None)):
                    found.append((path.stem, func.name))
    return found


def test_require_unitary_is_the_one_unitarity_check():
    # Every unitarity check goes through ``require_unitary``, which holds
    # the package's one call to ``unitarity_residual``.
    assert _callers("unitarity_residual") == [("linalg", "require_unitary")]


def test_random_state_deterministic_and_phase_fixed():
    a = linalg.random_state(4, linalg.spawn_rng(7, 1))
    b = linalg.random_state(4, linalg.spawn_rng(7, 1))
    c = linalg.random_state(4, linalg.spawn_rng(7, 2))
    np.testing.assert_array_equal(a, b)
    assert np.abs(a - c).max() > 1e-3
    assert abs(np.linalg.norm(a) - 1.0) < 1e-12
    first = a[np.flatnonzero(np.abs(a) > 1e-12)[0]]
    assert abs(first.imag) < 1e-12 and first.real > 0.0
    np.testing.assert_allclose(
        linalg.random_state(1, linalg.spawn_rng(0)), [1.0], atol=1e-12
    )


def test_random_unitary_deterministic():
    a = linalg.random_unitary(3, linalg.spawn_rng(8, 0))
    b = linalg.random_unitary(3, linalg.spawn_rng(8, 0))
    np.testing.assert_array_equal(a, b)
    assert linalg.unitarity_residual(a) < 1e-12


def test_random_isometry_orthonormal_columns_and_square_case():
    v = linalg.random_isometry(6, 2, linalg.spawn_rng(9, 0))
    assert v.shape == (6, 2)
    np.testing.assert_allclose(v.conj().T @ v, np.eye(2), atol=1e-12)
    # The square draw is random_unitary, bit for bit, at the same seed.
    np.testing.assert_array_equal(
        linalg.random_isometry(3, 3, linalg.spawn_rng(8, 0)),
        linalg.random_unitary(3, linalg.spawn_rng(8, 0)),
    )


def test_spawn_rng_tags_give_distinct_streams():
    x = linalg.spawn_rng(1, 2, 3).standard_normal(4)
    y = linalg.spawn_rng(1, 2, 4).standard_normal(4)
    assert np.abs(x - y).max() > 1e-6


@pytest.mark.parametrize(
    "dim, count, seed, tags",
    [(1, 1, 0, ()), (2, 8, 0, (2,)), (3, 5, 7, (4, 1)), (4, 3, 1902, (4, 0)), (6, 10, 9, (5,))],
)
def test_seeded_states_are_the_per_restart_draws_read_only(dim, count, seed, tags):
    rows = linalg._seeded_states(dim, count, seed, tags)
    assert rows.shape == (count, dim)
    for r, row in enumerate(rows):
        drawn = linalg.random_state(dim, linalg.spawn_rng(seed, *tags, r))
        assert row.tobytes() == drawn.tobytes()
    assert linalg._seeded_states(dim, count, seed, tags) is rows
    assert not rows.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        rows[0, 0] = 0.0


def test_eigh_or_error_raises_typed():
    bad = np.full((2, 2), np.nan)
    with pytest.raises(SpectralDecompositionError):
        linalg.eigh_or_error(bad)
