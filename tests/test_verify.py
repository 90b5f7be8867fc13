import dataclasses
from fractions import Fraction

import numpy as np

import oracles
from sepball import algebra, cbnorm, maps, sdp, separability, theorems, verify

M2 = algebra.FdAlgebra((2,))


def _names(checks):
    assert all(isinstance(c, theorems.NamedCheck) for c in checks)
    assert all(c.passed == (c.margin >= 0) for c in checks), checks
    return [c.name for c in checks]


def test_cbnorm_result_checks():
    # the default dual witness and the --level search carry the same checks
    for level in (None, 1):
        res = cbnorm.cb_norm(maps.transpose_map(2), level=level)
        checks = verify.cbnorm_result(res)
        assert _names(checks) == ["majorizing-pair-psd",
                                  "pair-bound-matches-upper",
                                  "sandwich-ordered", "lower-reproduced"]
        assert all(c.passed for c in checks)


def test_verdict_checks_per_status():
    sep = algebra.identity_minus(separability._directed_element(M2, M2, 0.5))
    v = separability.entanglement_witness(sep)
    assert v.status == "separable-certified"
    assert _names(verify.verdict(sep, v)) == ["ppt-margin-0-0"]

    ent = separability.extremal_direction(M2, M2)
    checks = verify.verdict(ent, separability.entanglement_witness(ent))
    assert _names(checks) == ["moved-element-negative",
                              "violation-reproduced", "witness-vector-eigen"]
    assert all(c.passed for c in checks)

    M3 = algebra.FdAlgebra((3,))
    und = oracles.bipartite_identity(M3, M3)
    v = separability.entanglement_witness(und)
    assert v.status == "undecided"
    assert _names(verify.verdict(und, v)) == ["undecided-nothing-to-verify"]


def test_decomposition_check_uses_the_verdict_slack(monkeypatch):
    # lambda_min = -5e-8 against the slack 1e-9 * ||part|| = 1e-7 passes;
    # at a tenth of the slack the same factor fails, with a negative margin
    x = algebra.BipartiteElement(algebra.FdAlgebra((1,)), M2,
                                 (np.diag([100.0, -5e-8]),))
    v = separability.entanglement_witness(x)
    assert v.status == "separable-certified"
    check = verify.verdict(x, v)[-1]
    assert _names([check]) == ["decomposition-0-0"] and check.passed
    monkeypatch.setattr(separability, "PSD_SLACK", 1e-10)
    check = verify.verdict(x, v)[-1]
    assert _names([check]) == ["decomposition-0-0"] and not check.passed
    assert abs(check.margin + 4e-8) < 1e-15


def test_scan_checks():
    rep = separability.sep_ball_scan(M2, M2, (0.4, 0.6), samples=1)
    checks = verify.scan(rep)
    assert _names(checks) == ["row-0-counts", "row-0-directed-ppt",
                              "row-1-counts", "row-1-directed-npt",
                              "onset-consistent"]
    assert all(c.passed for c in checks)


def _failed(checks):
    """The failed checks as (name, margin), each failure checked for a
    negative margin by ``_names``."""
    _names(checks)
    return [(c.name, c.margin) for c in checks if not c.passed]


def test_row_counts_one_short_fails_with_negative_margin():
    rep = separability.sep_ball_scan(M2, M2, (0.4,), samples=2)
    row = rep.rows[0]
    short = dataclasses.replace(rep, rows=(dataclasses.replace(
        row, separable=row.separable - 1),))
    assert _failed(verify.scan(short)) == [("row-0-counts", -1.0)]


def test_onset_inconsistent_fails_with_negative_margin():
    rep = separability.sep_ball_scan(M2, M2, (0.4, 0.6), samples=1)
    assert rep.onset == 0.6
    wrong = dataclasses.replace(rep, onset=0.4)
    assert _failed(verify.scan(wrong)) == [("onset-consistent", -1.0)]


def test_eta_gamma_product_fails_with_negative_margin():
    report = theorems.rank_formula_report(M2, M2, samples=1)
    wrong = dataclasses.replace(report, gamma_value=Fraction(1, 3))
    assert _failed(verify.rank_report(wrong)) == [("eta-gamma-product", -1.0)]


def test_rank_and_kappa_report_checks():
    report = theorems.rank_formula_report(
        algebra.FdAlgebra((2,)), algebra.FdAlgebra((1, 2)), samples=1)
    checks = verify.rank_report(report)
    assert _names(checks) == ["eta-gamma-product", "sandwich-brackets-eta",
                              "majorizing-pair-psd",
                              "pair-bound-matches-upper", "sandwich-ordered",
                              "lower-reproduced",
                              "kappa-majorizing-pair-psd",
                              "kappa-pair-bound-matches-upper",
                              "kappa-below-upper", "extremal-witness-npt"]
    assert all(c.passed for c in checks)
    # the kappa upper bound is re-certified, not trusted
    wrong = dataclasses.replace(report, kappa_report=dataclasses.replace(
        report.kappa_report, upper=report.kappa_report.upper + 1.0))
    failed = [c.name for c in verify.rank_report(wrong) if not c.passed]
    assert failed == ["kappa-pair-bound-matches-upper"]
    checks = verify.kappa_report(report.kappa_report)
    assert _names(checks) == ["lower-reproduced", "lower-below-upper",
                              "majorizing-pair-psd",
                              "pair-bound-matches-upper"]
    assert all(c.passed for c in checks)


def test_sdp_solution_checks():
    prob = sdp.SdpProblem(blocks=(2,), objective=(np.diag([2.0, 1.0]),),
                          constraints=((1.0, (np.eye(2),)),))
    checks = verify.sdp_solution(prob, sdp.solve(prob))
    assert _names(checks) == ["primal-feasible", "primal-psd-0",
                              "dual-psd-0", "dual-slack-consistent",
                              "gap-small"]
    assert all(c.passed for c in checks)
    infeasible = sdp.SdpProblem(blocks=(2,), objective=(np.eye(2),),
                                constraints=((-1.0, (np.eye(2),)),))
    checks = verify.sdp_solution(infeasible, sdp.solve(infeasible))
    assert _names(checks) == ["certificate-emitted"]


def test_psd_check_beyond_the_float_range():
    # eigvalsh of the unscaled matrices returns +-inf
    indefinite = verify._psd_check(
        "x", np.array([[1e308, 1.5e308], [1.5e308, -1e308]]))
    assert not indefinite.passed
    psd = verify._psd_check("x", np.array([[1e308, 1e308], [1e308, 1e308]]))
    assert psd.passed and np.isfinite(psd.margin)
