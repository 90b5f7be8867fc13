import numpy as np
import numpy.testing as nptest
import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from sepball import algebra
from sepball.errors import DimensionError, SizeCapError


def test_algebra_validation():
    a = algebra.FdAlgebra((2, 3))
    assert a.rank == 3
    with pytest.raises(DimensionError):
        algebra.FdAlgebra((2, 0))
    with pytest.raises(DimensionError):
        algebra.FdAlgebra(())
    with pytest.raises(SizeCapError):
        algebra.FdAlgebra((40, 30))


def _element(seed=0):
    rng = np.random.default_rng(seed)
    alg_a = algebra.FdAlgebra((2, 3))
    alg_b = algebra.FdAlgebra((2,))
    parts = []
    for n in (2, 3):
        d = n * 2
        g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        parts.append(g)
    return algebra.BipartiteElement(alg_a, alg_b, tuple(parts))


def test_bipartite_element_accessors():
    x = _element()
    assert x.pairs() == [(0, 0), (1, 0)]
    assert x.pair_dims(0, 0) == (2, 2)
    assert x.pair_dims(1, 0) == (3, 2)
    assert x.part(0, 0).shape == (4, 4)
    assert x.part(1, 0).shape == (6, 6)


def test_bipartite_element_shape_guard():
    alg = algebra.FdAlgebra((2,))
    with pytest.raises(DimensionError):
        algebra.BipartiteElement(alg, alg, (np.eye(3),))
    with pytest.raises(DimensionError):
        algebra.BipartiteElement(alg, alg, (np.eye(4), np.eye(4)))


def test_norm_is_max_over_parts():
    alg_a = algebra.FdAlgebra((1, 1))
    alg_b = algebra.FdAlgebra((2,))
    x = algebra.BipartiteElement(
        alg_a, alg_b, (np.diag([3.0, 0.0]), np.diag([1.0, -5.0])))
    assert oracles.norm(x) == 5.0


def test_split_assemble_roundtrip():
    x = _element(4)
    pieces = {kl: x.part(*kl) for kl in x.pairs()}
    y = algebra.assemble(x.alg_a, x.alg_b, pieces)
    for (k, l) in x.pairs():
        nptest.assert_allclose(y.part(k, l), x.part(k, l))


def test_assemble_missing_pair_is_zero():
    alg_a = algebra.FdAlgebra((2, 3))
    alg_b = algebra.FdAlgebra((2,))
    y = algebra.assemble(alg_a, alg_b, {(0, 0): np.eye(4)})
    nptest.assert_allclose(y.part(1, 0), np.zeros((6, 6)))


def test_assemble_rejects_bad_pair():
    alg = algebra.FdAlgebra((2,))
    with pytest.raises(DimensionError):
        algebra.assemble(alg, alg, {(0, 1): np.eye(4)})
    with pytest.raises(DimensionError):
        algebra.assemble(alg, alg, {(0, 0): np.eye(5)})


def test_identity_and_identity_minus():
    alg_a = algebra.FdAlgebra((2, 3))
    alg_b = algebra.FdAlgebra((2,))
    one = oracles.bipartite_identity(alg_a, alg_b)
    for (k, l) in one.pairs():
        d = alg_a.blocks[k] * alg_b.blocks[l]
        nptest.assert_allclose(one.part(k, l), np.eye(d))
    x = _element(9)
    y = algebra.identity_minus(x)
    for (k, l) in x.pairs():
        d = x.part(k, l).shape[0]
        nptest.assert_allclose(y.part(k, l), np.eye(d) - x.part(k, l))


def test_hermitized_and_is_hermitian():
    x = _element(2)
    assert not all(np.allclose(p, p.conj().T) for p in x.parts)
    h = x.hermitized()
    for (k, l) in h.pairs():
        p = h.part(k, l)
        nptest.assert_allclose(p, p.conj().T)


@given(st.integers(0, 50))
def test_norm_triangle_inequality(seed):
    x = _element(seed)
    y = _element(seed + 1000)
    s = algebra.BipartiteElement(
        x.alg_a, x.alg_b,
        tuple(px + py for px, py in zip(x.parts, y.parts)))
    assert oracles.norm(s) <= oracles.norm(x) + oracles.norm(y) + 1e-12
