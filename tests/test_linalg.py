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
            linalg.partial_trace(m, (2, 3), (1,)), a * np.trace(b), atol=1e-12
        )
        np.testing.assert_allclose(
            linalg.partial_trace(m, (2, 3), (0,)), b * np.trace(a), atol=1e-12
        )
        np.testing.assert_allclose(
            linalg.partial_trace(m, (2, 3), (0, 1)),
            np.array([[np.trace(a) * np.trace(b)]]),
            atol=1e-12,
        )


def test_partial_trace_three_slots():
    # Tracing the middle slot of a triple product leaves the outer product.
    rng = np.random.default_rng(4)
    a = rng.standard_normal((2, 2))
    b = rng.standard_normal((2, 2))
    c = rng.standard_normal((3, 3))
    m = np.kron(np.kron(a, b), c)
    np.testing.assert_allclose(
        linalg.partial_trace(m, (2, 2, 3), (1,)), np.kron(a, c) * np.trace(b),
        atol=1e-12,
    )


def test_trace_norm_hand_value():
    m = np.diag([3.0, -4.0])
    assert abs(linalg.trace_norm(m) - 7.0) < 1e-12
    assert abs(linalg.operator_norm(m) - 4.0) < 1e-12


def test_trace_norm_against_svd():
    rng = np.random.default_rng(11)
    for _ in range(10):
        m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        s = np.linalg.svd(m, compute_uv=False)
        assert abs(linalg.trace_norm(m) - s.sum()) < 1e-10
        assert abs(linalg.operator_norm(m) - s.max()) < 1e-10


def test_norms_reject_nonsquare():
    with pytest.raises(ValueError):
        linalg.trace_norm(np.zeros((2, 3)))
    with pytest.raises(ValueError):
        linalg.operator_norm(np.zeros((2, 3)))


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


def test_hermitian_params_round_trip():
    for dim in range(1, 6):
        rng = linalg.spawn_rng(21, dim)
        z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        h = (z + z.conj().T) / 2.0
        p = linalg.params_from_hermitian(h)
        assert p.size == dim * dim
        np.testing.assert_allclose(linalg.hermitian_from_params(p), h, atol=1e-12)


def test_hermitian_params_layout_matches_loop_reference():
    # Diagonal first, then (real, imag) pairs of the strict upper triangle in
    # row-major order, built entry by entry.
    for dim in range(1, 10):
        p = linalg.spawn_rng(23, dim).standard_normal(dim * dim)
        ref = np.zeros((dim, dim), dtype=complex)
        ref[np.diag_indices(dim)] = p[:dim]
        k = dim
        for i in range(dim):
            for j in range(i + 1, dim):
                ref[i, j] = p[k] + 1j * p[k + 1]
                ref[j, i] = p[k] - 1j * p[k + 1]
                k += 2
        h = linalg.hermitian_from_params(p)
        assert h.tobytes() == ref.tobytes()
        assert linalg.params_from_hermitian(h).tobytes() == p.tobytes()


def test_unitary_params_round_trip():
    for dim in range(1, 6):
        v = linalg.random_unitary(dim, linalg.spawn_rng(22, dim))
        p = linalg.params_from_unitary(v)
        v2 = linalg.unitary_from_params(p)
        np.testing.assert_allclose(v2, v, atol=1e-10)
        assert linalg.unitarity_residual(v2) < 1e-12


def test_unitary_from_params_is_unitary():
    rng = np.random.default_rng(5)
    for dim in (1, 2, 3, 4):
        p = rng.standard_normal(dim * dim) * 2.0
        v = linalg.unitary_from_params(p)
        assert v.shape == (dim, dim)
        assert linalg.unitarity_residual(v) < 1e-12


def test_unitary_from_params_rejects_bad_length():
    with pytest.raises(ValueError):
        linalg.unitary_from_params(np.zeros(5))


def test_unitary_param_gradient_matches_finite_differences():
    # Pushing a Wirtinger gradient through V = exp(iH(p)) is the one piece
    # of calculus everything else leans on, so it gets a direct check.
    for dim in (1, 2, 3):
        rng = linalg.spawn_rng(23, dim)
        p0 = linalg.params_from_unitary(linalg.random_unitary(dim, rng))
        g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))

        def f(p):
            v = linalg.unitary_from_params(p)
            return float(np.real(np.sum(np.conj(g) * v) + np.sum(g * np.conj(v))))

        _, eig = linalg.unitaries_from_params(p0[None])
        grad = linalg.unitary_param_gradient(eig, g[None])[0]
        h = 1e-6
        for i in range(p0.size):
            bump = np.zeros_like(p0)
            bump[i] = h
            fd = (f(p0 + bump) - f(p0 - bump)) / (2.0 * h)
            assert abs(grad[i] - fd) < 5e-6


def test_unitary_param_gradient_degenerate_eigenvalues():
    # Identity has a fully degenerate spectrum; the divided-difference kernel
    # must fall back to its diagonal limit there.
    dim = 3
    p0 = np.zeros(dim * dim)
    rng = linalg.spawn_rng(24)
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))

    def f(p):
        v = linalg.unitary_from_params(p)
        return float(np.real(np.sum(np.conj(g) * v) + np.sum(g * np.conj(v))))

    _, eig = linalg.unitaries_from_params(p0[None])
    grad = linalg.unitary_param_gradient(eig, g[None])[0]
    h = 1e-6
    for i in range(p0.size):
        bump = np.zeros_like(p0)
        bump[i] = h
        fd = (f(p0 + bump) - f(p0 - bump)) / (2.0 * h)
        assert abs(grad[i] - fd) < 5e-6


def test_batched_parametrization_rows_match_one_row_results():
    # Zero and 1e-13-scaled rows give (near-)degenerate spectra, where the
    # divided-difference kernel takes its diagonal limit.
    for m in range(1, 8):
        rng = linalg.spawn_rng(25, m)
        for batch in (1, 3, 8):
            scales = [(0.0, 1e-13, 1.0)[(batch + r) % 3] for r in range(batch)]
            p = rng.standard_normal((batch, m * m)) * np.array(scales)[:, None]
            g = rng.standard_normal((batch, m, m)) + 1j * rng.standard_normal((batch, m, m))
            v, eig = linalg.unitaries_from_params(p)
            grad = linalg.unitary_param_gradient(eig, g)
            assert v.shape == (batch, m, m) and grad.shape == (batch, m * m)
            for r in range(batch):
                v1, eig1 = linalg.unitaries_from_params(p[r : r + 1])
                assert v[r].tobytes() == v1[0].tobytes()
                assert v[r].tobytes() == linalg.unitary_from_params(p[r]).tobytes()
                grad1 = linalg.unitary_param_gradient(eig1, g[r : r + 1])
                assert grad[r].tobytes() == grad1[0].tobytes()


def test_batched_parametrization_rejects_non_finite_rows():
    p = np.zeros((3, 4))
    p[1, 2] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        linalg.unitaries_from_params(p)
    _, eig = linalg.unitaries_from_params(np.zeros((3, 4)))
    g = np.zeros((3, 2, 2), dtype=complex)
    g[2, 0, 1] = np.inf
    with pytest.raises(ValueError, match="non-finite"):
        linalg.unitary_param_gradient(eig, g)


def test_require_unitary():
    v = linalg.random_unitary(3, linalg.spawn_rng(31))
    linalg.require_unitary(v)
    with pytest.raises(ValueError):
        linalg.require_unitary(v * 1.01)


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


def test_spawn_rng_tags_give_distinct_streams():
    x = linalg.spawn_rng(1, 2, 3).standard_normal(4)
    y = linalg.spawn_rng(1, 2, 4).standard_normal(4)
    assert np.abs(x - y).max() > 1e-6


def test_eigh_or_error_raises_typed():
    bad = np.full((2, 2), np.nan)
    with pytest.raises(SpectralDecompositionError):
        linalg.eigh_or_error(bad)
