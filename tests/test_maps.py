import numpy as np
import numpy.testing as nptest
import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from sepball import maps, matcore, sampling
from sepball.errors import DimensionError


def _rng(seed):
    return sampling.rng_from(0x7E57, seed)


def _random_map(seed, n, m):
    return maps.LinearMapRep(
        n, m, oracles.random_complex_choi(_rng(seed), n, m))


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


def test_apply_map_oracles():
    x = np.array([[1, 2j], [-2j, 5]], dtype=complex)
    def apply(f, a):
        return maps.apply_to_second_leg(f, a, 1)

    nptest.assert_allclose(apply(maps.transpose_map(2), x), x.T)
    nptest.assert_allclose(apply(maps.identity_map(2), x), x)
    nptest.assert_allclose(apply(maps.reduction_map(2), x),
                           np.trace(x) * np.eye(2) - x)
    e12 = matcore.matrix_unit(2, 0, 1)
    nptest.assert_allclose(apply(maps.transpose_map(2), e12),
                           matcore.matrix_unit(2, 1, 0))


@given(st.integers(0, 100))
def test_apply_matches_basis_expansion(seed):
    f = _random_map(seed, 3, 2)
    rng = _rng(seed + 10_000)
    x = sampling.complex_gaussian(rng, (3, 3))
    direct = maps.apply_to_second_leg(f, x, 1)
    expanded = np.zeros((2, 2), dtype=complex)
    for i in range(3):
        for j in range(3):
            expanded += x[i, j] * maps.apply_to_second_leg(
                f, matcore.matrix_unit(3, i, j), 1)
    nptest.assert_allclose(direct, expanded, atol=1e-10)


def test_amplify_identity():
    amp = oracles.amplify(maps.identity_map(2), 3)
    nptest.assert_allclose(amp.choi, maps.identity_map(6).choi, atol=1e-12)


def test_amplify_transpose_on_swap():
    # (Id_2 (x) T)(F) is the partial transpose of F on its second leg
    amp = oracles.amplify(maps.transpose_map(2), 2)
    f = matcore.swap_operator(2)
    nptest.assert_allclose(maps.apply_to_second_leg(amp, f, 1),
                           matcore.max_entangled_projector(2), atol=1e-12)


def test_amplify_choi_is_permuted_kron():
    # Choi(Id_k (x) f) = S (P_k (x) Choi(f)) S^T with S the middle-leg flip
    k, n, m = 2, 2, 3
    f = _random_map(5, n, m)
    amp = oracles.amplify(f, k)
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
    amp = oracles.amplify(f, 2)
    rng = _rng(42)
    x = sampling.complex_gaussian(rng, (4, 4))
    nptest.assert_allclose(maps.apply_to_second_leg(amp, x, 1),
                           maps.apply_to_second_leg(f, x, 2), atol=1e-12)


@given(st.integers(0, 50))
def test_second_leg_adjoint_duality(seed):
    f = _random_map(seed, 3, 2)
    rng = _rng(seed + 1)
    x = sampling.complex_gaussian(rng, (6, 6))
    a = sampling.complex_gaussian(rng, (4, 4))
    lhs = np.trace(a.conj().T @ maps.apply_to_second_leg(f, x, 2))
    rhs = np.trace(maps.adjoint_apply_to_second_leg(f, a, 2).conj().T @ x)
    assert abs(lhs - rhs) < 1e-9


def test_hat_functional_identity_on_pairing_projector():
    # brute-force double sum: sum_kl Tr(e_kl^T e_kl) = n^2
    for n in (2, 3):
        f = maps.identity_map(n)
        p = matcore.max_entangled_projector(n)
        val = oracles.hat_functional(f, p)
        brute = sum(
            np.trace(matcore.matrix_unit(n, k, l).T
                     @ maps.apply_to_second_leg(
                         f, matcore.matrix_unit(n, k, l), 1))
            for k in range(n) for l in range(n)
        )
        assert abs(brute - n * n) < 1e-12
        assert abs(val - brute) < 1e-10


def test_hat_functional_trace_state():
    m = 3
    f = maps.LinearMapRep(m, 1, np.eye(m) / m)  # b -> Tr(b) / m
    x = np.eye(m, dtype=complex)  # 1 (x) I on C^1 (x) C^m
    assert abs(oracles.hat_functional(f, x) - 1.0) < 1e-12


@given(st.integers(0, 100))
def test_hat_functional_product_oracle(seed):
    rng = _rng(seed + 77)
    n, m = 2, 3
    f = _random_map(seed, m, n)  # M_m -> M_n
    a = sampling.complex_gaussian(rng, (n, n))
    b = sampling.complex_gaussian(rng, (m, m))
    val = oracles.hat_functional(f, matcore.kron(a, b))
    oracle = np.trace(a.T @ maps.apply_to_second_leg(f, b, 1))
    assert abs(val - oracle) < 1e-10


@given(st.integers(0, 100))
def test_hat_functional_blockwise_oracle(seed):
    # second formula: sum_ij [phi(x_ij)]_ij over the n x n block grid of x
    rng = _rng(seed + 177)
    n, m = 2, 3
    f = _random_map(seed + 1, m, n)
    x = sampling.complex_gaussian(rng, (n * m, n * m))
    x4 = x.reshape(n, m, n, m)
    oracle = sum(maps.apply_to_second_leg(f, x4[i, :, j, :], 1)[i, j]
                 for i in range(n) for j in range(n))
    assert abs(oracles.hat_functional(f, x) - oracle) < 1e-10


def test_hat_functional_shape_guard():
    with pytest.raises(DimensionError):
        oracles.hat_functional(maps.identity_map(2), np.eye(6))


def test_embedded_transpose_action():
    f = maps.embedded_transpose(2, 3, 4)
    x = np.arange(9, dtype=complex).reshape(3, 3)
    out = maps.apply_to_second_leg(f, x, 1)
    assert out.shape == (4, 4)
    nptest.assert_allclose(out[:2, :2], x[:2, :2].T)
    nptest.assert_allclose(out[2:, :], np.zeros((2, 4)))
