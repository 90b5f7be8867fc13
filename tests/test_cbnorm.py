import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sepball import cbnorm, maps, matcore, sampling, verify
from sepball.errors import DimensionError


def test_transpose_cb_norm_is_dimension():
    for n in (2, 3):
        res = cbnorm.cb_norm(maps.transpose_map(n))
        assert res.lower <= res.upper + 1e-9
        assert abs(res.lower - n) < 1e-6
        assert abs(res.upper - n) < 1e-6
        assert not res.loose
        assert res.level == n


def test_identity_cb_norm_is_one():
    res = cbnorm.cb_norm(maps.identity_map(3))
    assert abs(res.upper - 1.0) < 1e-7
    assert abs(res.lower - 1.0) < 1e-7


def test_cp_upper_equals_unit_image_norm():
    rng = sampling.rng_from(0xCB7E, 0)
    for seed in range(5):
        rng = sampling.rng_from(0xCB7E, seed)
        f = maps.LinearMapRep(3, 2, sampling.random_kraus_choi(rng, 3, 2))
        upper, pair, _ = cbnorm.cb_upper_sdp(f)
        unit = maps.apply_map(f, np.eye(3))
        assert abs(upper - matcore.operator_norm(unit)) < 1e-6
        assert pair.psd_margin() >= -1e-7
        assert abs(pair.bound() - upper) < 1e-5


def test_majorizing_pair_certifies_upper():
    f = maps.transpose_map(3)
    upper, pair, _ = cbnorm.cb_upper_sdp(f)
    assert pair.psd_margin() >= -1e-7
    assert pair.bound() <= upper + 1e-5
    # the pinned off-diagonal block is the target's Choi matrix
    q = f.choi.shape[0]
    np.testing.assert_allclose(pair.block_matrix()[:q, q:], f.choi)


@settings(max_examples=10)
@given(st.integers(0, 1000))
def test_upper_bounded_by_dimension_times_norm(seed):
    rng = sampling.rng_from(0xCB7E, seed, 1)
    n, m = 3, 2
    c = sampling.random_hermitian_choi(rng, n, m)
    f = maps.LinearMapRep(n, m, c)
    upper, _, _ = cbnorm.cb_upper_sdp(f)
    base, _ = cbnorm.amplification_norm(f, 1)
    assert upper <= min(n, m) * base + 1e-5 + 1e-5 * base


def test_amplification_monotone_in_level():
    f = maps.transpose_map(2)
    v1, _ = cbnorm.amplification_norm(f, 1)
    v2, _ = cbnorm.amplification_norm(f, 2)
    assert v1 <= v2 + 1e-12
    assert abs(v1 - 1.0) < 1e-8
    assert abs(v2 - 2.0) < 1e-8


def test_amplification_witness_is_contraction():
    f = maps.transpose_map(3)
    value, x = cbnorm.amplification_norm(f, 3)
    assert matcore.operator_norm(x) <= 1.0 + 1e-10
    amp = maps.amplify(f, 3)
    attained = matcore.operator_norm(maps.apply_map(amp, x))
    assert abs(attained - value) < 1e-9


def test_amplification_rejects_bad_level():
    with pytest.raises(DimensionError):
        cbnorm.amplification_norm(maps.identity_map(2), 0)


def test_loose_flag_set_when_level_capped():
    # at level 1 the transpose lower bound is 1 while the upper stays 2
    res = cbnorm.cb_norm(maps.transpose_map(2), level=1)
    assert res.loose
    assert abs(res.lower - 1.0) < 1e-8
    assert abs(res.upper - 2.0) < 1e-6


def test_embedded_transpose_cb_norm():
    # only the d x d corner is transposed, so the cb norm is d
    f = maps.embedded_transpose(2, 3, 3)
    res = cbnorm.cb_norm(f)
    assert abs(res.upper - 2.0) < 1e-5
    assert res.lower >= 2.0 - 1e-6


@pytest.mark.parametrize("d,n,m", [(1, 1, 2), (2, 2, 2), (2, 2, 3),
                                   (2, 3, 2), (3, 3, 4), (4, 4, 4)])
def test_embedded_transpose_closed_form_matches_sdp(d, n, m):
    res = cbnorm.embedded_transpose_norm(d, n, m)
    psi = maps.embedded_transpose(d, n, m)
    assert np.array_equal(res.pair.target.choi, psi.choi)
    sdp_upper, _, _ = cbnorm.cb_upper_sdp(psi)
    assert abs(res.upper - sdp_upper) <= 1e-6 * d
    assert abs(res.lower - d) <= 1e-12
    searched, _ = cbnorm.amplification_norm(psi, min(n, m))
    assert res.lower >= searched - 1e-9
    assert res.pair.psd_margin() >= -1e-12
    assert matcore.operator_norm(res.witness) <= 1.0 + 1e-12
    assert res.level == min(n, m) and not res.loose


def cp_map_45():
    """Criterion 03's CP map #45: its raw SDP iterate sits 3.6e-9 outside
    the cone, so the primal value undercuts the dual-witness lower bound."""
    rng = sampling.rng_from(0xAC3, 45)
    return maps.LinearMapRep(3, 2, sampling.random_kraus_choi(rng, 3, 2))


def _general(n, m):
    rng = sampling.rng_from(0xD0A1, n, m)
    return maps.LinearMapRep(n, m, sampling.random_complex_choi(rng, n, m))


DUAL_CASES = {
    "transpose:2": lambda: maps.transpose_map(2),
    "transpose:3": lambda: maps.transpose_map(3),
    "identity:3": lambda: maps.identity_map(3),
    "reduction:3": lambda: maps.reduction_map(3),
    "cp-45": cp_map_45,
    "zero-2-3": lambda: maps.LinearMapRep(2, 3, np.zeros((6, 6))),
    "general-3-4": lambda: _general(3, 4),
    "general-4-2": lambda: _general(4, 2),
    "general-2-4": lambda: _general(2, 4),
}


@pytest.mark.parametrize("name", sorted(DUAL_CASES))
def test_dual_witness_closes_the_sandwich_without_search(name, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the default cb_norm path must not search")

    monkeypatch.setattr(cbnorm, "amplification_norm", refuse)
    f = DUAL_CASES[name]()
    res = cbnorm.cb_norm(f)
    assert res.level == f.dim_out
    assert res.lower <= res.upper + 1e-12 * max(1.0, res.upper)
    assert res.upper - res.lower <= 1e-8 * max(1.0, res.upper)
    assert matcore.operator_norm(res.witness) <= 1.0 + 1e-12
    assert res.pair.bound() == res.upper
    checks = verify.cbnorm_result(res)
    assert all(c.passed for c in checks), checks


def test_certified_pair_is_psd_where_the_iterate_is_not():
    upper, pair, _ = cbnorm.cb_upper_sdp(cp_map_45())
    scale = matcore.operator_norm(pair.block_matrix())
    assert pair.psd_margin() >= -1e-14 * scale
    assert upper == pair.bound()
    unit = maps.apply_map(pair.target, np.eye(3))
    assert abs(upper - matcore.operator_norm(unit)) <= 1e-7


def test_scaled_witness_fails_lower_reproduced():
    res = cbnorm.cb_norm(maps.transpose_map(2))
    bad = dataclasses.replace(res, witness=1.01 * res.witness)
    checks = {c.name: c for c in verify.cbnorm_result(bad)}
    assert not checks["lower-reproduced"].passed
    assert all(c.passed for name, c in checks.items()
               if name != "lower-reproduced")
