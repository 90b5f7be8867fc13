import numpy as np
import numpy.testing as nptest
import pytest
from hypothesis import given
from hypothesis import strategies as st

from sepball import maps, matcore, sampling
from sepball.errors import DimensionError, HermiticityError, LinearityError


def _rng(seed):
    return sampling.rng_from(0x7E57, seed)


def _random_map(seed, n, m):
    return maps.LinearMapRep(
        n, m, sampling.random_complex_choi(_rng(seed), n, m))


def test_choi_conventions():
    nptest.assert_allclose(maps.transpose_map(2).choi,
                           matcore.swap_operator(2))
    nptest.assert_allclose(maps.identity_map(3).choi,
                           matcore.max_entangled_projector(3))
    nptest.assert_allclose(maps.reduction_map(2).choi,
                           np.eye(4) - matcore.max_entangled_projector(2))


def test_identity_choi_rank_and_trace():
    c = maps.identity_map(2).choi
    assert np.linalg.matrix_rank(c) == 1
    assert abs(np.trace(c) - 2.0) < 1e-12


def test_trace_state_choi():
    m = 3
    f = maps.choi_of_map(lambda x: np.eye(m) * np.trace(x) / m, m, m)
    nptest.assert_allclose(f.choi, np.eye(m * m) / m, atol=1e-12)


def test_choi_of_map_rejects_nonlinear():
    with pytest.raises(LinearityError):
        maps.choi_of_map(lambda x: x @ x, 2, 2)


def test_apply_map_oracles():
    x = np.array([[1, 2j], [-2j, 5]], dtype=complex)
    nptest.assert_allclose(maps.apply_map(maps.transpose_map(2), x), x.T)
    nptest.assert_allclose(maps.apply_map(maps.identity_map(2), x), x)
    nptest.assert_allclose(maps.apply_map(maps.reduction_map(2), x),
                           np.trace(x) * np.eye(2) - x)
    e12 = matcore.matrix_unit(2, 0, 1)
    nptest.assert_allclose(maps.apply_map(maps.transpose_map(2), e12),
                           matcore.matrix_unit(2, 1, 0))


@given(st.integers(0, 100))
def test_apply_matches_basis_expansion(seed):
    f = _random_map(seed, 3, 2)
    rng = _rng(seed + 10_000)
    x = sampling.complex_gaussian(rng, (3, 3))
    direct = maps.apply_map(f, x)
    expanded = np.zeros((2, 2), dtype=complex)
    for i in range(3):
        for j in range(3):
            expanded += x[i, j] * maps.apply_map(f, matcore.matrix_unit(3, i, j))
    nptest.assert_allclose(direct, expanded, atol=1e-10)


@given(st.integers(0, 100))
def test_choi_roundtrip(seed):
    f = _random_map(seed, 2, 3)
    g = maps.choi_of_map(lambda x: maps.apply_map(f, x), 2, 3)
    nptest.assert_allclose(g.choi, f.choi, atol=1e-10)


def test_amplify_identity():
    amp = maps.amplify(maps.identity_map(2), 3)
    nptest.assert_allclose(amp.choi, maps.identity_map(6).choi, atol=1e-12)


def test_amplify_transpose_on_swap():
    # (Id_2 (x) T)(F) is the partial transpose of F on its second leg
    amp = maps.amplify(maps.transpose_map(2), 2)
    f = matcore.swap_operator(2)
    nptest.assert_allclose(maps.apply_map(amp, f),
                           matcore.max_entangled_projector(2), atol=1e-12)


def test_amplify_choi_is_permuted_kron():
    # Choi(Id_k (x) f) = S (P_k (x) Choi(f)) S^T with S the middle-leg flip
    k, n, m = 2, 2, 3
    f = _random_map(5, n, m)
    amp = maps.amplify(f, k)
    s = np.zeros((k * n * k * m, k * k * n * m))
    for i in range(k):
        for r in range(n):
            for a in range(k):
                for c in range(m):
                    row = ((i * n + r) * k + a) * m + c
                    col = ((i * k + a) * n + r) * m + c
                    s[row, col] = 1.0
    kronform = matcore.kron(matcore.max_entangled_projector(k), f.choi)
    nptest.assert_allclose(amp.choi, s @ kronform @ s.T, atol=1e-12)


def test_amplify_agrees_with_second_leg_application():
    f = _random_map(8, 2, 2)
    amp = maps.amplify(f, 2)
    rng = _rng(42)
    x = sampling.complex_gaussian(rng, (4, 4))
    nptest.assert_allclose(maps.apply_map(amp, x),
                           maps.apply_to_second_leg(f, x, 2), atol=1e-12)


def test_amplify_cap():
    with pytest.raises(matcore.SizeCapError):
        maps.amplify(maps.identity_map(8), 10)


@given(st.integers(0, 50))
def test_second_leg_adjoint_duality(seed):
    f = _random_map(seed, 3, 2)
    rng = _rng(seed + 1)
    x = sampling.complex_gaussian(rng, (6, 6))
    a = sampling.complex_gaussian(rng, (4, 4))
    lhs = np.trace(a.conj().T @ maps.apply_to_second_leg(f, x, 2))
    rhs = np.trace(maps.adjoint_apply_to_second_leg(f, a, 2).conj().T @ x)
    assert abs(lhs - rhs) < 1e-9


def test_is_completely_positive():
    ok, margin = maps.is_completely_positive(maps.identity_map(2))
    assert ok and abs(margin) < 1e-12
    bad, margin = maps.is_completely_positive(maps.transpose_map(2))
    assert not bad
    assert abs(margin + 1.0) < 1e-12
    kr = maps.LinearMapRep(3, 2, sampling.random_kraus_choi(_rng(0), 3, 2))
    assert maps.is_completely_positive(kr)[0]


def test_is_cp_rejects_nonhermitian_choi():
    c = np.zeros((4, 4), dtype=complex)
    c[0, 1] = 1.0
    with pytest.raises(HermiticityError):
        maps.is_completely_positive(maps.LinearMapRep(2, 2, c))


def test_hat_functional_identity_on_pairing_projector():
    # brute-force double sum: sum_kl Tr(e_kl^T e_kl) = n^2
    for n in (2, 3):
        f = maps.identity_map(n)
        p = matcore.max_entangled_projector(n)
        val = maps.hat_functional(f, p)
        brute = sum(
            np.trace(matcore.matrix_unit(n, k, l).T
                     @ maps.apply_map(f, matcore.matrix_unit(n, k, l)))
            for k in range(n) for l in range(n)
        )
        assert abs(brute - n * n) < 1e-12
        assert abs(val - brute) < 1e-10


def test_hat_functional_trace_state():
    m = 3
    f = maps.choi_of_map(lambda b: np.array([[np.trace(b) / m]]), m, 1)
    x = np.eye(m, dtype=complex)  # 1 (x) I on C^1 (x) C^m
    assert abs(maps.hat_functional(f, x) - 1.0) < 1e-12


@given(st.integers(0, 100))
def test_hat_functional_product_oracle(seed):
    rng = _rng(seed + 77)
    n, m = 2, 3
    f = _random_map(seed, m, n)  # M_m -> M_n
    a = sampling.complex_gaussian(rng, (n, n))
    b = sampling.complex_gaussian(rng, (m, m))
    val = maps.hat_functional(f, matcore.kron(a, b))
    oracle = np.trace(a.T @ maps.apply_map(f, b))
    assert abs(val - oracle) < 1e-10


@given(st.integers(0, 100))
def test_hat_functional_blockwise_oracle(seed):
    # second formula: sum_ij [phi(x_ij)]_ij over the n x n block grid of x
    rng = _rng(seed + 177)
    n, m = 2, 3
    f = _random_map(seed + 1, m, n)
    x = sampling.complex_gaussian(rng, (n * m, n * m))
    x4 = x.reshape(n, m, n, m)
    oracle = sum(maps.apply_map(f, x4[i, :, j, :])[i, j]
                 for i in range(n) for j in range(n))
    assert abs(maps.hat_functional(f, x) - oracle) < 1e-10


def test_hat_functional_shape_guard():
    with pytest.raises(DimensionError):
        maps.hat_functional(maps.identity_map(2), np.eye(6))


def test_embedded_transpose_action():
    f = maps.embedded_transpose(2, 3, 4)
    x = np.arange(9, dtype=complex).reshape(3, 3)
    out = maps.apply_map(f, x)
    assert out.shape == (4, 4)
    nptest.assert_allclose(out[:2, :2], x[:2, :2].T)
    nptest.assert_allclose(out[2:, :], np.zeros((2, 4)))
