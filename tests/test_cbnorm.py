import dataclasses

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from sepball import cbnorm, maps, matcore, sampling, sdp, verify
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
        f = maps.LinearMapRep(3, 2, oracles.random_kraus_choi(rng, 3, 2))
        upper, pair, _ = cbnorm.cb_upper_sdp(f)
        unit = maps.apply_to_second_leg(f, np.eye(3), 1)
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
    c = oracles.random_hermitian_choi(rng, n, m)
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
    amp = oracles.amplify(f, 3)
    attained = matcore.operator_norm(maps.apply_to_second_leg(amp, x, 1))
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


def _check_closed_form(psi, exact):
    res = cbnorm.closed_form(psi)
    assert res.pair.target is psi
    assert abs(res.upper - exact) <= 1e-12 * exact
    assert abs(res.lower - exact) <= 1e-12 * exact
    assert res.lower <= res.upper
    sdp_upper, _, _ = cbnorm.cb_upper_sdp(psi)
    assert abs(res.upper - sdp_upper) <= 1e-6 * exact
    searched, _ = cbnorm.amplification_norm(psi, min(psi.dim_in, psi.dim_out))
    assert res.lower >= searched - 1e-9
    assert res.pair.psd_margin() >= -1e-12
    assert matcore.operator_norm(res.witness) <= 1.0 + 1e-12
    assert res.level == psi.dim_out and not res.loose
    assert all(c.passed for c in verify.cbnorm_result(res))


@pytest.mark.parametrize("d,n,m", [(1, 1, 2), (2, 2, 2), (2, 2, 3),
                                   (2, 3, 2), (3, 3, 4), (4, 4, 4)])
def test_embedded_transpose_closed_form_matches_sdp(d, n, m):
    _check_closed_form(maps.embedded_transpose(d, n, m), d)


@pytest.mark.parametrize("n", [2, 3])
def test_closed_form_matches_sdp_on_transpose_and_identity(n):
    _check_closed_form(maps.transpose_map(n), n)
    _check_closed_form(maps.identity_map(n), 1)


def criterion_03_map(i):
    """Criterion 03's CP map #i (``test_criterion_03_cp_consistency``)."""
    n, m = ((2, 2), (3, 2), (2, 3), (3, 3))[i % 4]
    rng = sampling.rng_from(0xAC3, i)
    return maps.LinearMapRep(n, m, oracles.random_kraus_choi(rng, n, m))


def cp_map_45():
    """Criterion 03's CP map #45: its raw SDP iterate sits 3.6e-9 outside
    the cone, so the primal value undercuts the dual-witness lower bound."""
    return criterion_03_map(45)


def _general(n, m):
    rng = sampling.rng_from(0xD0A1, n, m)
    return maps.LinearMapRep(n, m, oracles.random_complex_choi(rng, n, m))


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
def test_dual_witness_closes_the_sandwich_without_search(name):
    f = DUAL_CASES[name]()
    upper, pair, witness = cbnorm.cb_upper_sdp(f)
    lower = matcore.operator_norm(
        maps.apply_to_second_leg(f, witness, f.dim_out))
    assert lower <= upper + 1e-12 * max(1.0, upper)
    assert upper - lower <= 1e-8 * max(1.0, upper)
    assert matcore.operator_norm(witness) <= 1.0 + 1e-12
    assert pair.bound() == upper
    res = cbnorm.CbNormResult(lower=lower, upper=upper, pair=pair,
                              witness=witness, level=f.dim_out, loose=False)
    checks = verify.cbnorm_result(res)
    assert all(c.passed for c in checks), checks


def test_sdp_matches_unit_image_norm_on_criterion_03_maps():
    # criterion 03's cb_norm takes the closed form; this keeps the solver
    # checked against the same exact values
    for i in range(8):
        f = criterion_03_map(i)
        upper, _, _ = cbnorm.cb_upper_sdp(f)
        unit = matcore.operator_norm(
            maps.apply_to_second_leg(f, np.eye(f.dim_in), 1))
        assert abs(upper - unit) <= 1e-6 * unit


class _Solved(Exception):
    pass


def test_cb_norm_solves_only_where_the_closed_form_is_open(monkeypatch):
    def refuse(*args, **kwargs):
        raise _Solved

    monkeypatch.setattr(sdp, "solve", refuse)
    closed = [(maps.transpose_map(n), n) for n in (2, 3, 6)]
    closed += [(maps.identity_map(n), 1) for n in (2, 5)]
    closed += [(maps.embedded_transpose(d, n, m), d)
               for d, n, m in ((2, 3, 4), (3, 4, 3), (5, 5, 5))]
    closed += [(f, matcore.operator_norm(
                   maps.apply_to_second_leg(f, np.eye(f.dim_in), 1)))
               for f in map(criterion_03_map, range(100))]
    for f, exact in closed:
        res = cbnorm.cb_norm(f)
        assert abs(res.lower - exact) <= 1e-12 * exact
        assert abs(res.upper - exact) <= 1e-12 * exact
        assert res.lower <= res.upper and res.level == f.dim_out
        assert all(c.passed for c in verify.cbnorm_result(res))
    for f in (maps.reduction_map(3), _general(3, 4)):
        with pytest.raises(_Solved):
            cbnorm.cb_norm(f)


@pytest.mark.parametrize("name", ["cp-45", "reduction:3", "general-4-2"])
def test_cb_norm_is_homogeneous(name):
    f = DUAL_CASES[name]()
    base = cbnorm.cb_norm(f)
    for c in (1e-8, 1e8, 1e20):
        res = cbnorm.cb_norm(maps.LinearMapRep(f.dim_in, f.dim_out,
                                               c * f.choi))
        assert abs(res.lower - c * base.lower) <= 1e-6 * c * base.lower
        assert abs(res.upper - c * base.upper) <= 1e-6 * c * base.upper
        assert all(chk.passed for chk in verify.cbnorm_result(res))


@pytest.mark.parametrize("v", [1e20, 1e150])
def test_sdp_on_a_huge_choi_entry(v):
    # the program is solved at unit scale: unscaled it ended in maxiter
    choi = maps.transpose_map(2).choi.copy()
    choi[1, 0] = v
    f = maps.LinearMapRep(2, 2, choi)
    upper, pair, _ = cbnorm.cb_upper_sdp(f)
    closed = cbnorm.closed_form(f)
    assert abs(upper - closed.upper) <= 1e-6 * closed.upper
    assert pair.target is f and pair.bound() == upper


def test_certified_pair_is_psd_where_the_iterate_is_not():
    upper, pair, _ = cbnorm.cb_upper_sdp(cp_map_45())
    scale = matcore.operator_norm(pair.block_matrix())
    assert pair.psd_margin() >= -1e-14 * scale
    assert upper == pair.bound()
    unit = maps.apply_to_second_leg(pair.target, np.eye(3), 1)
    assert abs(upper - matcore.operator_norm(unit)) <= 1e-7


def test_scaled_witness_fails_lower_reproduced():
    res = cbnorm.cb_norm(maps.transpose_map(2))
    bad = dataclasses.replace(res, witness=1.01 * res.witness)
    checks = {c.name: c for c in verify.cbnorm_result(bad)}
    assert not checks["lower-reproduced"].passed
    assert all(c.passed for name, c in checks.items()
               if name != "lower-reproduced")


def _dense_upper_problem(psi):
    """The majorizing-pair program built one dense matrix per row,
    through the dense ``SdpProblem`` constructor."""
    n, m = psi.dim_in, psi.dim_out
    q = n * m
    big = 2 * q
    constraints = []
    b = psi.choi
    for u in range(q):
        for w in range(q):
            re = np.zeros((big, big), dtype=np.complex128)
            re[u, q + w] = 1.0
            re[q + w, u] = 1.0
            constraints.append((2.0 * float(b[u, w].real), (re,)))
            im = np.zeros((big, big), dtype=np.complex128)
            im[u, q + w] = 1.0j
            im[q + w, u] = -1.0j
            constraints.append((2.0 * float(b[u, w].imag), (im,)))
    basis = sdp.hermitian_basis(m)
    last = basis[m - 1]
    traceless = [e - last for e in basis[:m - 1]] + basis[m:]
    zero = np.zeros((m, m))
    # Tr_1 Y_11 = Tr_1 Y_22, then Tr_1 Y_11 = t 1
    for h11, h22 in [(h, -h) for h in basis] + [(h, zero) for h in traceless]:
        constraints.append((0.0, (scipy.linalg.block_diag(
            matcore.kron(np.eye(n), h11), matcore.kron(np.eye(n), h22)),)))
    return sdp.SdpProblem(blocks=(big,), objective=(np.eye(big),),
                          constraints=constraints)


@pytest.mark.parametrize("n,m", [(2, 3), (3, 3), (3, 4), (1, 3), (4, 1)])
def test_upper_problem_matches_dense_construction(n, m):
    rng = sampling.rng_from(0xCB0, n, m)
    g = sampling.complex_gaussian(rng, (n * m, n * m))
    for choi in (g + g.conj().T, g):
        psi = maps.LinearMapRep(n, m, choi)
        got, want = cbnorm._upper_problem(psi), _dense_upper_problem(psi)
        assert got.blocks == want.blocks
        assert got.rhs.tobytes() == want.rhs.tobytes()
        for x, y in zip(got.objective, want.objective):
            assert x.tobytes() == y.tobytes()
        (x,), (y,) = got.rows, want.rows
        assert x.indptr.tobytes() == y.indptr.tobytes()
        assert x.indices.tobytes() == y.indices.tobytes()
        # equal values; the dense constructor's Hermitian part may flip
        # the sign of a zero real or imaginary part of a negated entry
        assert np.array_equal(x.data, y.data)


def _decomposable(n, m):
    """Phi_1 + T o Phi_2 for random CP maps Phi_1, Phi_2: a positive map."""
    rng = sampling.rng_from(0xDEC, n, m)
    c1 = oracles.random_kraus_choi(rng, n, m)
    c2 = oracles.random_kraus_choi(rng, n, m)
    return maps.LinearMapRep(
        n, m, c1 + matcore.partial_transpose(c2, (n, m), "second"))


def _oracle_sandwich(psi, program):
    """The sandwich of one of the oracle programs."""
    scale = matcore.operator_norm(psi.choi)
    unit = maps.LinearMapRep(psi.dim_in, psi.dim_out, psi.choi / scale)
    sol = sdp.solve(program(unit))
    assert sol.status == "optimal"
    pair = cbnorm._certified_pair(psi, sol, scale)
    witness = cbnorm._dual_witness(psi, sol)
    lower = matcore.operator_norm(
        maps.apply_to_second_leg(psi, witness, psi.dim_out))
    return cbnorm._sandwich(lower, pair.bound(), pair, witness, psi.dim_out)


def _assert_same_sandwich(new, old):
    for res in (new, old):
        checks = verify.cbnorm_result(res)
        assert all(c.passed for c in checks), checks
        assert not res.loose
    assert abs(new.upper - old.upper) <= 1e-8 * old.upper
    assert abs(new.lower - old.lower) <= 1e-8 * old.upper


def _oracle_case(name):
    rng = sampling.rng_from(0x2B, 3, 4)
    return {"general-3-4": lambda: _general(3, 4),
            "general-2-5": lambda: _general(2, 5),
            "hermitian-3-4": lambda: maps.LinearMapRep(
                3, 4, oracles.random_hermitian_choi(rng, 3, 4)),
            "decomposable-3-4": lambda: _decomposable(3, 4),
            "reduction:3": lambda: maps.reduction_map(3),
            "reduction:4": lambda: maps.reduction_map(4)}[name]()


@pytest.mark.parametrize("name", ["general-3-4", "hermitian-3-4",
                                  "decomposable-3-4"])
def test_two_block_program_matches_the_four_block_one(name):
    # adding 1/n (x) rho_j to Y_jj maps the slack program's points to the
    # two-block program's, and rho_j = 0 maps them back: one optimum
    f = _oracle_case(name)
    closed = cbnorm.closed_form(f)
    assert closed.upper - closed.lower > 1e-3 * closed.upper  # SDP needed
    _assert_same_sandwich(
        _oracle_sandwich(f, oracles.two_block_upper_problem),
        _oracle_sandwich(f, oracles.four_block_upper_problem))


@pytest.mark.parametrize("name", ["general-3-4", "general-2-5",
                                  "hermitian-3-4", "decomposable-3-4",
                                  "reduction:3", "reduction:4"])
def test_one_block_program_matches_the_two_block_one(name):
    # Tr Y = 2 m t on the one-block program's points, so minimizing Tr Y
    # minimizes t, and the slack's diagonal blocks keep the form 1 (x) rho_j
    f = _oracle_case(name)
    closed = cbnorm.closed_form(f)
    assert closed.upper - closed.lower > 1e-3 * closed.upper  # SDP needed
    _assert_same_sandwich(cbnorm.cb_norm(f),
                          _oracle_sandwich(f, oracles.two_block_upper_problem))
