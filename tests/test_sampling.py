import numpy as np
import numpy.testing as nptest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from sepball import matcore, sampling


def test_rng_from_is_keyed_and_reproducible():
    a = sampling.rng_from(1, 2, 3).normal(size=4)
    b = sampling.rng_from(1, 2, 3).normal(size=4)
    c = sampling.rng_from(1, 2, 4).normal(size=4)
    nptest.assert_allclose(a, b)
    assert not np.allclose(a, c)


@given(st.integers(0, 100))
def test_gue_hermitian(seed):
    m = sampling.gue(sampling.rng_from(seed), 5)
    nptest.assert_allclose(m, m.conj().T)


@given(st.integers(0, 100))
def test_random_unitary(seed):
    u = oracles.random_unitary(sampling.rng_from(seed), 4)
    nptest.assert_allclose(u @ u.conj().T, np.eye(4), atol=1e-12)


@given(st.integers(0, 100))
def test_random_contraction_norm_one(seed):
    x = sampling.random_contraction(sampling.rng_from(seed), 5)
    assert abs(matcore.operator_norm(x) - 1.0) < 1e-12


@given(st.integers(0, 50))
def test_kraus_choi_is_psd(seed):
    c = oracles.random_kraus_choi(sampling.rng_from(seed), 3, 2)
    nptest.assert_allclose(c, c.conj().T, atol=1e-12)
    assert matcore.min_eigenvalue(c) >= -1e-10


@given(st.integers(0, 50))
def test_unital_channel_choi_unital(seed):
    d = 3
    c = oracles.random_unital_channel_choi(sampling.rng_from(seed), d)
    assert matcore.min_eigenvalue(c) >= -1e-10
    # unital: Tr over the domain leg gives the identity on the output leg
    nptest.assert_allclose(
        matcore.partial_trace(c, (d, d)), np.eye(d), atol=1e-10)


def test_hermitian_choi():
    c = oracles.random_hermitian_choi(sampling.rng_from(3), 2, 3)
    assert c.shape == (6, 6)
    nptest.assert_allclose(c, c.conj().T)
