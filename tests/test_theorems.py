import math
from fractions import Fraction

import numpy as np
import pytest

from sepball import algebra, cbnorm, maps, sdp, separability, theorems, verify
from sepball.errors import DimensionError, SizeCapError


M2 = algebra.FdAlgebra((2,))
M23 = algebra.FdAlgebra((2, 3))
M4 = algebra.FdAlgebra((4,))


def test_eta_certificate_value_and_witness():
    value, witness = theorems.eta_certificate(M23, M4)
    assert value == 3
    assert witness.dim_in == 3 and witness.dim_out == 4
    res = cbnorm.cb_norm(witness)
    assert abs(res.upper - 3.0) < 1e-3
    assert abs(res.lower - 3.0) < 1e-3


def test_eta_is_min_of_ranks():
    assert theorems.eta_certificate(M2, M4)[0] == 2
    assert theorems.eta_certificate(M4, M2)[0] == 2
    ones = algebra.FdAlgebra((1, 1))
    assert theorems.eta_certificate(ones, M4)[0] == 1


def test_gamma_certificate_exact_fraction():
    value, evidence, extremal = theorems.gamma_certificate(
        M23, M4, samples=2, seed=0)
    assert value == Fraction(1, 3)
    assert evidence.rows[0].entangled == 0
    assert extremal is not None
    assert min(separability.ppt_check(extremal)) < 0


def test_gamma_no_extremal_at_rank_one():
    ones = algebra.FdAlgebra((1,))
    value, evidence, extremal = theorems.gamma_certificate(
        ones, M2, samples=2, seed=0)
    assert value == Fraction(1, 1)
    assert extremal is None


def test_kappa_matrix_check():
    lower, report = theorems.kappa_matrix_check(2, 5)
    assert abs(lower - 2.0) < 1e-9
    assert report.passed
    assert abs(report.value - 2.0) < 1e-9
    assert report.upper >= report.lower - 1e-9
    names = {c.name for c in report.checks}
    assert "functional-unital" in names
    assert all(c.passed for c in report.checks)


def test_kappa_cap(monkeypatch):
    # the corner transpose's Choi matrix has side n m and the outputs of
    # Id_n (x) phi side n n, so both are capped
    assert theorems.kappa_matrix_check(7, 20)[1].passed

    def refuse(*args, **kwargs):
        raise AssertionError("applied the corner transpose past the cap")

    monkeypatch.setattr(maps, "apply_to_second_leg", refuse)
    for n, m in ((13, 13), (13, 1), (20, 7), (144, 1)):
        with pytest.raises(SizeCapError):
            theorems.kappa_matrix_check(n, m)


@pytest.mark.parametrize("ranks", [(13, 12), (13, 1), (64, 2)])
def test_rank_formula_refuses_an_oversized_pair_before_building(
        monkeypatch, ranks):
    def refuse(*args, **kwargs):
        raise AssertionError("built a witness or a scan past the cap")

    monkeypatch.setattr(maps, "embedded_transpose", refuse)
    monkeypatch.setattr(separability, "sep_ball_scan", refuse)
    with pytest.raises(SizeCapError):
        theorems.rank_formula_report(algebra.FdAlgebra((ranks[0],)),
                                     algebra.FdAlgebra((ranks[1],)), samples=1)


def test_rank_formula_report_product_identity():
    rep = theorems.rank_formula_report(M23, M4, samples=2)
    assert rep.passed
    assert rep.eta_value == 3
    assert rep.gamma_value == Fraction(1, 3)
    assert Fraction(rep.eta_value) * rep.gamma_value == 1
    assert abs(rep.kappa_value - 3.0) < 1e-3
    assert all(c.passed for c in rep.checks)


def test_rank_formula_report_scalar_pair():
    ones = algebra.FdAlgebra((1, 1))
    rep = theorems.rank_formula_report(ones, algebra.FdAlgebra((3,)), samples=2)
    assert rep.passed
    assert rep.eta_value == 1
    assert rep.gamma_value == Fraction(1, 1)
    assert rep.gamma_upper_witness is None


def test_symbolic_values_finite():
    vals = theorems.symbolic_rank_values(3, 7)
    assert vals.eta == 3.0
    assert vals.gamma == pytest.approx(1.0 / 3.0)
    assert vals.desk_verifiable


def test_symbolic_values_infinite():
    vals = theorems.symbolic_rank_values("inf", 4)
    assert vals.eta == 4.0
    assert vals.gamma == 0.25
    assert not vals.desk_verifiable
    both = theorems.symbolic_rank_values("inf", "infinity")
    assert math.isinf(both.eta)
    assert both.gamma == 0.0
    assert not both.desk_verifiable
    vals2 = theorems.symbolic_rank_values(2, math.inf)
    assert vals2.eta == 2.0
    assert vals2.gamma == 0.5
    assert not vals2.desk_verifiable


def test_symbolic_values_reject_bad_rank():
    with pytest.raises(DimensionError):
        theorems.symbolic_rank_values(0, 2)
    for bad in ("x", "2.5", "1e400", "-inf", 2.5, -math.inf, math.nan):
        with pytest.raises(DimensionError):
            theorems.symbolic_rank_values(bad, 2)


def test_pairing_vector_is_unit():
    w = theorems._pairing_vector(3, 2)
    assert abs(np.linalg.norm(w) - 1.0) < 1e-12


def test_eta_and_kappa_certificates_without_solver(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("eta/kappa certificates must not solve or search")
    monkeypatch.setattr(sdp, "solve", refuse)
    monkeypatch.setattr(cbnorm, "amplification_norm", refuse)
    for alg_a, alg_b in ((M4, algebra.FdAlgebra((1, 4))), (M23, M4),
                         (algebra.FdAlgebra((1, 1)), algebra.FdAlgebra((3,)))):
        rep = theorems.rank_formula_report(alg_a, alg_b, samples=1)
        assert rep.passed
        d = rep.eta_value
        assert abs(rep.eta_sandwich.lower - d) <= 1e-12
        assert abs(rep.eta_sandwich.upper - d) <= 1e-12
        assert all(c.passed for c in verify.rank_report(rep))
        assert all(c.passed for c in verify.kappa_report(rep.kappa_report))
    for n, m in ((5, 5), (12, 12)):
        _, report = theorems.kappa_matrix_check(n, m)
        assert report.passed
        assert abs(report.upper - n) <= 1e-12
        assert all(c.passed for c in verify.kappa_report(report))
