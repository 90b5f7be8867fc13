import numpy as np
import numpy.testing as nptest
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from sepball import algebra, maps, matcore, sampling, sdp, separability, verify
from sepball.errors import DimensionError, PositivityError


M2 = algebra.FdAlgebra((2,))
M3 = algebra.FdAlgebra((3,))


def _single(alg_a, alg_b, mat):
    return algebra.BipartiteElement(alg_a, alg_b, (mat,))


def _rng(seed):
    return sampling.rng_from(0x5E9A, seed)


def test_ppt_check_on_swap_perturbation():
    x = _single(M2, M2, np.eye(4) - 0.6 * matcore.swap_operator(2))
    ok, margins = separability.ppt_check(x)
    assert not ok
    assert abs(margins[0] + 0.2) < 1e-12


def test_ppt_check_identity():
    x = oracles.bipartite_identity(algebra.FdAlgebra((2, 3)), M2)
    ok, margins = separability.ppt_check(x)
    assert ok
    assert all(abs(m - 1.0) < 1e-12 for m in margins)


def test_ppt_check_scales_tolerance_and_skips_needless_norms(monkeypatch):
    calls = []
    norm = matcore.operator_norm
    monkeypatch.setattr(matcore, "operator_norm",
                        lambda m: calls.append(1) or norm(m))
    # margin -1 passes -tol * ||part|| = -10 but not -tol: the norm decides
    part = 1e4 * np.eye(4) - (1e4 + 1.0) * matcore.swap_operator(2) / 2
    big = _single(M2, M2, part)
    ok, margins = separability.ppt_check(big, tol=1e-3)
    assert abs(margins[0] + 1.0) < 1e-9 and ok and len(calls) == 1
    calls.clear()
    ok, _ = separability.ppt_check(oracles.bipartite_identity(M2, M3))
    assert ok and calls == []


@pytest.mark.parametrize("tol", [-1e-9, float("nan")])
def test_ppt_check_refuses_bad_tolerance(tol):
    with pytest.raises(DimensionError):
        separability.ppt_check(oracles.bipartite_identity(M2, M2), tol=tol)


def _witness_problem(part, dims):
    """The decomposable-witness SDP on one pair, in standard form:

    minimize Tr(C1 x) + Tr(C2 x^G)  subject to  Tr C1 + Tr C2 = 1.
    """
    d = part.shape[0]
    gamma = matcore.partial_transpose(part, dims, "second")
    eye = np.eye(d, dtype=np.complex128)
    return sdp.SdpProblem(blocks=(d, d), objective=(part, gamma),
                          constraints=((1.0, (eye, eye)),))


def _witness_oracle(part, dims):
    return min(
        matcore.min_eigenvalue(part),
        matcore.min_eigenvalue(matcore.partial_transpose(part, dims, "second")),
    )


@settings(max_examples=25)
@given(st.integers(0, 1000))
def test_witness_sdp_matches_eigenvalue_oracle(seed):
    # the interior-point solver reproduces the closed-form optimum
    rng = _rng(seed)
    g = sampling.complex_gaussian(rng, (4, 4))
    part = (g + g.conj().T) / 2
    sol = sdp.solve(_witness_problem(part, (2, 2)))
    assert sol.status == "optimal"
    assert abs(sol.primal_obj - _witness_oracle(part, (2, 2))) < 1e-6


@pytest.mark.parametrize("dims", [(2, 2), (2, 3), (2, 4), (3, 3), (3, 4),
                                  (1, 3)])
def test_closed_form_witness_without_solver(dims, monkeypatch):
    def no_solve(*args, **kwargs):
        raise AssertionError("the witness path must not run the SDP solver")

    monkeypatch.setattr(sdp, "solve", no_solve)
    n, m = dims
    alg_a, alg_b = algebra.FdAlgebra((n,)), algebra.FdAlgebra((m,))
    elements = [
        algebra.identity_minus(
            separability._gue_element(alg_a, alg_b, r, _rng(i)))
        for i, r in enumerate((0.2, 0.5, 0.8, 0.95))
    ]
    if min(dims) >= 2:
        elements.append(separability.extremal_direction(alg_a, alg_b))
    entangled = 0
    for x in elements:
        verdict = separability.entanglement_witness(x)
        (report,) = verdict.pair_reports
        part = x.part(0, 0)
        assert abs(report.witness_value - _witness_oracle(part, dims)) <= 1e-12
        if verdict.status == "entangled-certified":
            entangled += 1
            w = verdict.witness.witness_matrix
            assert abs(np.trace(w) - 1.0) <= 1e-12
            assert abs(np.trace(w @ part) - report.witness_value) <= 1e-12
            checks = verify.verdict(x, verdict)
            assert all(c.passed for c in checks), checks
    if min(dims) >= 2:
        assert entangled >= 1
    else:
        assert entangled == 0


def test_extremal_entangled_is_certified():
    x = separability.extremal_entangled(2, eps=0.05)
    verdict = separability.entanglement_witness(x)
    assert verdict.status == "entangled-certified"
    assert verdict.margin < 0
    w = verdict.witness
    assert w is not None
    assert w.violation < 0
    # the certificate reproduces: moved element has the negative eigenvalue
    part = x.part(*w.pair)
    n, m = x.pair_dims(*w.pair)
    moved = maps.apply_to_second_leg(w.map, part, n)
    lam, vec = matcore.eig_hermitian(moved)
    assert abs(lam[0] - w.violation) < 1e-8
    resid = np.linalg.norm(moved @ w.vector - w.violation * w.vector)
    assert resid < 1e-6


def test_extremal_entangled_ppt_margin():
    x = separability.extremal_entangled(3, eps=0.05)
    ok, margins = separability.ppt_check(x)
    assert not ok
    assert abs(margins[0] + 0.05) < 1e-10


def test_boundary_swap_is_separable():
    x = algebra.identity_minus(
        _single(M2, M2, 0.5 * matcore.swap_operator(2)))
    verdict = separability.entanglement_witness(x)
    assert verdict.status == "separable-certified"
    assert verdict.margin >= -1e-12


def test_identity_large_pair_undecided():
    a = algebra.FdAlgebra((3,))
    x = oracles.bipartite_identity(a, M3)
    verdict = separability.entanglement_witness(x)
    assert verdict.status == "undecided"
    assert verdict.pair_reports[0].status == "undecided"


def test_scalar_leg_decomposition():
    ones = algebra.FdAlgebra((1,))
    rng = _rng(3)
    g = sampling.complex_gaussian(rng, (3, 3))
    p = g @ g.conj().T
    x = _single(ones, M3, p)
    verdict = separability.entanglement_witness(x)
    assert verdict.status == "separable-certified"
    assert verdict.decomposition is not None
    ((pair, factors),) = verdict.decomposition
    rebuilt = sum(matcore.kron(a, b) for a, b in factors)
    nptest.assert_allclose(rebuilt, p, atol=1e-9)


def test_conjunction_any_entangled_wins():
    a = algebra.FdAlgebra((2, 2))
    f = matcore.swap_operator(2)
    parts = {(0, 0): np.eye(4), (1, 0): np.eye(4) - 0.6 * f}
    x = algebra.assemble(a, M2, parts)
    x = algebra.BipartiteElement(
        x.alg_a, x.alg_b,
        (np.eye(4), x.part(1, 0)))
    verdict = separability.entanglement_witness(x)
    assert verdict.status == "entangled-certified"
    assert verdict.witness.pair == (1, 0)


def test_conjunction_all_separable():
    a = algebra.FdAlgebra((2, 2))
    x = oracles.bipartite_identity(a, M2)
    verdict = separability.entanglement_witness(x)
    assert verdict.status == "separable-certified"
    statuses = {r.status for r in verdict.pair_reports}
    assert statuses == {"separable-certified"}


def test_positivity_precondition():
    x = _single(M2, M2, np.eye(4) - 1.5 * matcore.max_entangled_projector(2))
    with pytest.raises(PositivityError):
        separability.entanglement_witness(x)


def test_hermitization_is_applied():
    rng = _rng(11)
    g = sampling.complex_gaussian(rng, (4, 4))
    x = _single(M2, M2, np.eye(4) + 0.01 * g)
    verdict = separability.entanglement_witness(x)
    assert verdict.status in ("separable-certified", "undecided",
                              "entangled-certified")


def test_induced_witness_map_roundtrip():
    rng = _rng(5)
    g = sampling.complex_gaussian(rng, (6, 6))
    w = (g + g.conj().T) / 2
    f = separability.induced_witness_map(w, 2, 3)
    assert f.dim_in == 3 and f.dim_out == 2
    # pairing identity: Tr(W x) equals the hat pairing of the induced map
    x = sampling.complex_gaussian(rng, (6, 6))
    lhs = np.trace(w @ x)
    rhs = oracles.hat_functional(f, x)
    assert abs(lhs - rhs) < 1e-9


def test_dilation_embed_norm_and_shape():
    x = _single(M2, M2, 0.5 * matcore.swap_operator(2))
    y = oracles.dilation_embed(x, 0.5)
    assert y.alg_a == M2
    assert y.alg_b.blocks == (4,)
    # the dilation is a self-adjoint contraction perturbation of 1
    dev = algebra.identity_minus(y)
    for p in y.parts:
        matcore.check_hermitian(p)
    assert oracles.norm(dev) <= 0.5 * oracles.norm(x) + 1e-12


def test_dilation_embed_separable_at_gamma():
    x = _single(M2, M2, matcore.swap_operator(2))
    y = oracles.dilation_embed(x, 0.5)
    verdict = separability.entanglement_witness(y)
    assert verdict.status != "entangled-certified"


def test_dilation_embed_rejects_bad_radius():
    x = _single(M2, M2, 0.5 * np.eye(4))
    with pytest.raises(DimensionError):
        oracles.dilation_embed(x, 1.5)
    big = _single(M2, M2, 2.0 * np.eye(4))
    with pytest.raises(DimensionError):
        oracles.dilation_embed(big, 0.5)


def test_extremal_direction_margin():
    x = separability.extremal_direction(M2, M3, eps=0.05)
    ok, margins = separability.ppt_check(x)
    assert not ok
    assert abs(min(margins) + 0.05) < 1e-10


def test_extremal_direction_needs_rank_two():
    with pytest.raises(DimensionError):
        separability.extremal_direction(algebra.FdAlgebra((1,)), M2)


def test_scan_counts_and_onset():
    report = separability.sep_ball_scan(
        M2, M2, radii=(0.4, 0.6), samples=3, seed=0)
    assert report.samples == 3
    assert len(report.rows) == 2
    for row in report.rows:
        assert row.separable + row.entangled + row.undecided == 4
    assert report.rows[0].directed_status == "separable-certified"
    assert report.rows[1].directed_status == "entangled-certified"
    assert report.onset == 0.6


def test_scan_thread_count_is_immaterial():
    kw = dict(radii=(0.45, 0.55), samples=4, seed=1)
    a = separability.sep_ball_scan(M2, M2, threads=1, **kw)
    b = separability.sep_ball_scan(M2, M2, threads=4, **kw)
    assert a.rows == b.rows
    assert a.onset == b.onset


def test_scan_no_onset_inside_ball():
    report = separability.sep_ball_scan(M2, M2, radii=(0.3,), samples=2, seed=0)
    assert report.onset is None
    assert report.rows[0].entangled == 0


@pytest.mark.parametrize("radii,samples", [((float("nan"),), 2),
                                           ((0.3, float("inf")), 2),
                                           ((), 2),
                                           ((0.3,), -3)])
def test_scan_rejects_bad_radii_and_samples(radii, samples):
    with pytest.raises(DimensionError):
        separability.sep_ball_scan(M2, M2, radii=radii, samples=samples)


def test_gue_sample_norm_is_radius():
    x = separability._gue_element(M2, M3, 0.37, _rng(0))
    assert abs(oracles.norm(x) - 0.37) < 1e-12
