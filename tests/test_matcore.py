import numpy as np
import numpy.testing as nptest
import pytest
from hypothesis import given
from hypothesis import strategies as st

from sepball import matcore
from sepball.errors import ConvergenceError, DimensionError, HermiticityError


def _rng(seed):
    return np.random.default_rng(seed)


def _random_hermitian(rng, d):
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return (g + g.conj().T) / 2


def test_as_matrix_copies_and_casts():
    a = np.eye(2, dtype=float)
    b = matcore.as_matrix(a)
    assert b.dtype == np.complex128
    b[0, 0] = 5
    assert a[0, 0] == 1


def test_as_matrix_rejects_non_2d_and_empty():
    with pytest.raises(DimensionError):
        matcore.as_matrix(np.ones(4))
    with pytest.raises(DimensionError):
        matcore.as_matrix(np.ones((0, 2)))


def test_operator_norm_nilpotent():
    # largest singular value, not spectral radius (which would be 0 here)
    assert matcore.operator_norm(np.array([[0.0, 3.0], [0.0, 0.0]])) == 3.0


def test_check_hermitian_names_worst_entry():
    m = np.eye(2, dtype=complex)
    m[0, 1] = 1e-3
    with pytest.raises(HermiticityError) as err:
        matcore.check_hermitian(m)
    assert "m[0,1]" in str(err.value)


def test_check_hermitian_beyond_the_norm_range():
    # ||m||_F overflows here; the bound must not
    with pytest.raises(HermiticityError):
        matcore.check_hermitian([[1e200, 1e199], [0.0, 1.0]])
    m = np.array([[1e300, 1e300j], [-1e300j, 1e300]])
    nptest.assert_array_equal(matcore.check_hermitian(m), m)


def test_check_hermitian_bound_is_unchanged_where_the_norm_fits():
    m = np.array([[3.0, 4.0 + 1e-11], [4.0, 5.0]])
    fro = float(np.linalg.norm(m))
    with pytest.raises(HermiticityError) as err:
        matcore.check_hermitian(m)
    assert str(err.value).endswith(
        f"exceeds {matcore.HERMITICITY_RTOL * fro:.3e}")


def test_check_hermitian_symmetrizes_roundoff():
    m = np.array([[1.0, 1e-15j], [0.0, 2.0]])
    out = matcore.check_hermitian(m)
    nptest.assert_allclose(out, out.conj().T)


def test_eig_hermitian_ascending():
    vals, vecs = matcore.eig_hermitian(np.diag([3.0, -1.0, 2.0]))
    nptest.assert_allclose(vals, [-1.0, 2.0, 3.0])
    # columns are eigenvectors
    m = np.diag([3.0, -1.0, 2.0]).astype(complex)
    nptest.assert_allclose(m @ vecs, vecs @ np.diag(vals), atol=1e-12)


def test_eig_rejects_nonhermitian():
    with pytest.raises(HermiticityError):
        matcore.eig_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_kron_product_oracle():
    a = np.array([[1, 2], [3, 4]], dtype=complex)
    b = np.array([[0, 1], [1, 0]], dtype=complex)
    nptest.assert_allclose(matcore.kron(a, b), np.kron(a, b))


def test_swap_oracle_d2():
    f = matcore.swap_operator(2)
    nptest.assert_allclose(np.linalg.eigvalsh(f), [-1.0, 1.0, 1.0, 1.0])
    nptest.assert_allclose(f @ f, np.eye(4))
    # F (u tensor v) = v tensor u
    u = np.array([1.0, 2.0])
    v = np.array([-1.0, 0.5])
    nptest.assert_allclose(f @ np.kron(u, v), np.kron(v, u))


def test_max_entangled_projector_oracle():
    p = matcore.max_entangled_projector(3)
    vals = np.linalg.eigvalsh(p)
    nptest.assert_allclose(vals[:-1], np.zeros(8), atol=1e-12)
    nptest.assert_allclose(vals[-1], 3.0)
    nptest.assert_allclose(np.trace(p), 3.0)


def test_swap_partial_transpose_is_projector():
    for d in (2, 3):
        f = matcore.swap_operator(d)
        p = matcore.max_entangled_projector(d)
        nptest.assert_allclose(
            matcore.partial_transpose(f, (d, d), "second"), p)
        nptest.assert_allclose(
            matcore.partial_transpose(f, (d, d), "first"), p)


def test_partial_transpose_on_product():
    rng = _rng(7)
    a = _random_hermitian(rng, 2)
    b = _random_hermitian(rng, 3)
    x = np.kron(a, b)
    nptest.assert_allclose(
        matcore.partial_transpose(x, (2, 3), "second"), np.kron(a, b.T))
    nptest.assert_allclose(
        matcore.partial_transpose(x, (2, 3), "first"), np.kron(a.T, b))


@given(st.integers(0, 200))
def test_partial_transpose_involution_and_composition(seed):
    rng = _rng(seed)
    x = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    pt2 = matcore.partial_transpose(x, (2, 3), "second")
    nptest.assert_allclose(
        matcore.partial_transpose(pt2, (2, 3), "second"), x)
    both = matcore.partial_transpose(pt2, (2, 3), "first")
    nptest.assert_allclose(both, x.T)


@given(st.integers(0, 200))
def test_partial_transpose_preserves_trace_and_hermiticity(seed):
    rng = _rng(seed)
    x = _random_hermitian(rng, 6)
    g = matcore.partial_transpose(x, (3, 2), "second")
    assert abs(np.trace(g) - np.trace(x)) < 1e-12
    nptest.assert_allclose(g, g.conj().T, atol=1e-12)


def test_partial_trace_oracles():
    rng = _rng(3)
    a = _random_hermitian(rng, 2)
    b = _random_hermitian(rng, 3)
    x = np.kron(a, b)
    nptest.assert_allclose(
        matcore.partial_trace(x, (2, 3), "first"), np.trace(a) * b)
    nptest.assert_allclose(
        matcore.partial_trace(x, (2, 3), "second"), np.trace(b) * a)
    f = matcore.swap_operator(2)
    nptest.assert_allclose(matcore.partial_trace(f, (2, 2), "first"),
                           np.eye(2))


def test_partial_shape_mismatch():
    with pytest.raises(DimensionError):
        matcore.partial_transpose(np.eye(5), (2, 3), "second")
    with pytest.raises(DimensionError):
        matcore.partial_trace(np.eye(6), (2, 2), "first")


def test_matrix_unit():
    e = matcore.matrix_unit(3, 0, 2)
    assert e[0, 2] == 1.0 and np.count_nonzero(e) == 1


def test_embedded_swap_matches_corner():
    f = matcore.embedded_swap(2, 2, 2)
    nptest.assert_allclose(f, matcore.swap_operator(2))
    g = matcore.embedded_swap(2, 3, 4)
    # action survives on the corner, vanishes off it
    for i in range(2):
        for j in range(2):
            u = np.zeros(3)
            v = np.zeros(4)
            u[i] = 1.0
            v[j] = 1.0
            out = g @ np.kron(u, v)
            expect = np.zeros(12)
            expect[j * 4 + i] = 1.0
            nptest.assert_allclose(out, expect)
    u = np.zeros(3)
    u[2] = 1.0
    v = np.zeros(4)
    v[0] = 1.0
    nptest.assert_allclose(g @ np.kron(u, v), np.zeros(12))


def test_embedded_swap_size_guard():
    with pytest.raises(DimensionError):
        matcore.embedded_swap(3, 2, 4)


def test_min_eigenvalue():
    assert abs(matcore.min_eigenvalue(np.diag([0.5, -0.25, 3.0])) + 0.25) < 1e-14


def test_frobenius_norm():
    assert abs(matcore.frobenius_norm(np.array([[3, 4], [0, 0]])) - 5.0) < 1e-12


def test_pauli_x_spectrum():
    vals, _ = matcore.eig_hermitian(np.array([[0.0, 1.0], [1.0, 0.0]]))
    nptest.assert_allclose(vals, [-1.0, 1.0])


def test_partial_trace_identity_factor():
    nptest.assert_allclose(
        matcore.partial_trace(np.eye(6), (2, 3), "first"), 2 * np.eye(3))


@given(st.integers(0, 100))
def test_operator_norm_matches_extreme_eigenvalue(seed):
    m = _random_hermitian(_rng(seed), 5)
    vals, _ = matcore.eig_hermitian(m)
    assert abs(matcore.operator_norm(m) - max(abs(vals[0]), abs(vals[-1]))) < 1e-10


@given(st.integers(0, 100))
def test_kron_multiplicative_and_associative(seed):
    rng = _rng(seed)
    a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    b = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    c = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    assert abs(matcore.operator_norm(matcore.kron(a, b))
               - matcore.operator_norm(a) * matcore.operator_norm(b)) < 1e-10
    nptest.assert_allclose(
        matcore.kron(matcore.kron(a, b), c),
        matcore.kron(a, matcore.kron(b, c)), atol=1e-12)


@given(st.integers(0, 100))
def test_partial_transpose_frobenius_isometry(seed):
    rng = _rng(seed)
    x = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    g = matcore.partial_transpose(x, (2, 3), "first")
    assert abs(matcore.frobenius_norm(g) - matcore.frobenius_norm(x)) < 1e-12


def test_eig_reconstruction_residual():
    m = _random_hermitian(_rng(11), 6)
    vals, vecs = matcore.eig_hermitian(m)
    resid = matcore.frobenius_norm(m @ vecs - vecs @ np.diag(vals))
    assert resid <= 1e-10 * max(1.0, matcore.frobenius_norm(m))
    nptest.assert_allclose(vecs @ vecs.conj().T, np.eye(6), atol=1e-12)
