"""Closed-form constants of the separability ball, with checkable witnesses.

For finite direct sums of matrix blocks the three constants coincide up
to inversion:

    eta   = min(rank A, rank B)      largest cb norm of a contractive
                                     positive map A -> B
    gamma = 1 / eta                  radius of the separable ball around
                                     the identity of A (x) B
    kappa = eta                      largest max-norm of a unital
                                     functional positive on separables

Each evaluator returns the exact value (rational arithmetic where the
identity eta * gamma = 1 is claimed) together with constructive
witnesses: an embedded transpose map whose closed-form cb-norm
sandwich brackets eta, a scan showing no entanglement inside radius gamma, an
extremal element entangled just past it, and the swap pairing that
pushes the kappa functional to its bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import algebra, cbnorm, maps, matcore, separability
from .errors import DimensionError

CB_BRACKET_TOL = 1e-3
KAPPA_LOWER_TOL = 1e-3
KAPPA_UPPER_SLACK = 1e-6
EXTREMAL_EPS = 0.05  # the extremal witness sits at radius (1 + eps)/min(rank)


@dataclass(frozen=True)
class NamedCheck:
    name: str
    passed: bool
    margin: float  # tolerance minus deviation; nonnegative iff passed


@dataclass(frozen=True)
class KappaReport:
    n: int
    m: int
    value: int
    lower: float
    upper: float
    checks: tuple[NamedCheck, ...]
    # the sandwich behind ``upper``, whose pair --verify re-checks
    sandwich: cbnorm.CbNormResult = field(repr=False)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


@dataclass(frozen=True)
class RankFormulaReport:
    eta_value: int
    gamma_value: Fraction
    kappa_value: int
    eta_witness: maps.LinearMapRep
    eta_sandwich: cbnorm.CbNormResult
    gamma_evidence: separability.ScanReport
    gamma_upper_witness: algebra.BipartiteElement | None
    kappa_report: KappaReport
    checks: tuple[NamedCheck, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


def eta_certificate(alg_a: algebra.FdAlgebra, alg_b: algebra.FdAlgebra):
    """(min rank, witness map attaining it).

    The witness transposes the top min-rank corner of the largest block
    of A into the largest block of B and annihilates everything else.
    On its corner it is the honest unital transpose; overall it is
    positive and contractive, and its cb norm equals the corner size.
    """
    d = min(alg_a.rank, alg_b.rank)
    witness = maps.embedded_transpose(d, alg_a.rank, alg_b.rank)
    return d, witness


def gamma_certificate(alg_a: algebra.FdAlgebra, alg_b: algebra.FdAlgebra,
                      samples: int = 6, seed: int = 0):
    """(exact radius, scan evidence at the radius, entangled witness past it).

    The witness is ``separability.extremal_direction`` at EXTREMAL_EPS.
    It is None when min(rank) = 1: the ball then fills the whole unit
    ball and there is nothing entangled to exhibit.
    """
    d = min(alg_a.rank, alg_b.rank)
    value = Fraction(1, d)
    evidence = separability.sep_ball_scan(
        alg_a, alg_b, radii=(float(value),), samples=samples, seed=seed)
    witness = None
    if d >= 2:
        witness = separability.extremal_direction(alg_a, alg_b, EXTREMAL_EPS)
    return value, evidence, witness


def _pairing_vector(n: int, d: int) -> np.ndarray:
    w = np.zeros(n * n, dtype=np.complex128)
    for k in range(d):
        w[k * n + k] = 1.0 / math.sqrt(d)
    return w


def kappa_matrix_check(n: int, m: int):
    """Lower-bound the best unital separable-positive functional on M_n (x) M_m.

    The functional is w* (Id (x) phi)(.) w with phi the embedded corner
    transpose M_m -> M_n and w the corner maximally entangled unit
    vector; it is unital and positive on separable elements, and the
    embedded swap y (self-adjoint, norm one) drives it to min(n, m).
    Returns (lower bound, report); the report also carries the cb-norm
    upper bound |Phi(y)| <= ||phi||_cb and its sandwich, certified with
    no solver by the polar pair of ``cbnorm.closed_form(phi)``.
    """
    if n < 1 or m < 1:
        raise DimensionError(f"matrix sizes must be positive, got ({n}, {m})")
    # phi's Choi matrix has side n m and (Id_n (x) phi)'s outputs side n n
    maps.check_size(n, max(n, m), f"--n {n} --m {m}: a matrix of side "
                    "n * max(n, m)")
    d = min(n, m)
    phi = maps.embedded_transpose(d, m, n)
    cb = cbnorm.closed_form(phi)
    y = matcore.embedded_swap(d, n, m)
    w = _pairing_vector(n, d)

    y_norm = matcore.operator_norm(y)
    herm_defect = float(np.max(np.abs(y - y.conj().T)))
    moved = maps.apply_to_second_leg(phi, y, n)
    phi_y = complex(w.conj() @ moved @ w)
    moved_norm = matcore.operator_norm(moved)

    ident = np.eye(n * m, dtype=np.complex128)
    unit_val = complex(w.conj() @ maps.apply_to_second_leg(phi, ident, n) @ w)

    lower = abs(phi_y) / y_norm
    upper = cb.upper

    checks = (
        NamedCheck("pairing-element-self-adjoint", herm_defect <= 1e-12,
                   1e-12 - herm_defect),
        NamedCheck("pairing-element-norm-one", abs(y_norm - 1.0) <= 1e-12,
                   1e-12 - abs(y_norm - 1.0)),
        NamedCheck("transpose-norm-attained", abs(moved_norm - d) <= 1e-9,
                   1e-9 - abs(moved_norm - d)),
        NamedCheck("functional-unital", abs(unit_val - 1.0) <= 1e-9,
                   1e-9 - abs(unit_val - 1.0)),
        NamedCheck("lower-matches-min-rank",
                   abs(lower - d) <= KAPPA_LOWER_TOL,
                   KAPPA_LOWER_TOL - abs(lower - d)),
        NamedCheck("lower-below-cb-upper",
                   lower <= upper + KAPPA_UPPER_SLACK,
                   upper + KAPPA_UPPER_SLACK - lower),
    )
    report = KappaReport(n=n, m=m, value=d, lower=float(lower),
                         upper=float(upper), checks=checks, sandwich=cb)
    return float(lower), report


def rank_formula_report(alg_a: algebra.FdAlgebra, alg_b: algebra.FdAlgebra,
                        seed: int = 0, samples: int = 6) -> RankFormulaReport:
    """Evaluate eta, gamma, kappa on one algebra pair and verify every witness.

    The eta witness and the scan's largest part have side rank_a * rank_b,
    and kappa's outputs side rank_a * rank_a, so kappa's size check runs
    before any of them is built."""
    maps.check_size(alg_a.rank, max(alg_a.rank, alg_b.rank),
                    f"ranks {alg_a.rank} and {alg_b.rank}: a matrix of side "
                    "rank A * max(rank A, rank B)")
    eta_value, eta_witness = eta_certificate(alg_a, alg_b)
    gamma_value, evidence, gamma_witness = gamma_certificate(
        alg_a, alg_b, samples=samples, seed=seed)

    product = Fraction(eta_value) * gamma_value
    checks = [
        NamedCheck("eta-times-gamma-is-one", product == 1,
                   -abs(float(product) - 1.0)),
    ]

    sandwich = cbnorm.closed_form(eta_witness)

    entangled_total = sum(row.entangled for row in evidence.rows)
    checks.append(NamedCheck("gamma-ball-scan-clean", entangled_total == 0,
                             -float(entangled_total)))

    if gamma_witness is not None:
        verdict = separability.entanglement_witness(gamma_witness)
        checks.append(NamedCheck(
            "gamma-extremal-entangled",
            verdict.status == "entangled-certified",
            -verdict.margin if verdict.status == "entangled-certified"
            else -1.0))

    kappa_lower, kappa_report = kappa_matrix_check(alg_a.rank, alg_b.rank)
    checks.extend(kappa_report.checks)

    return RankFormulaReport(
        eta_value=eta_value,
        gamma_value=gamma_value,
        kappa_value=min(alg_a.rank, alg_b.rank),
        eta_witness=eta_witness,
        eta_sandwich=sandwich,
        gamma_evidence=evidence,
        gamma_upper_witness=gamma_witness,
        kappa_report=kappa_report,
        checks=tuple(checks),
    )


@dataclass(frozen=True)
class SymbolicRankValues:
    rank_a: float  # math.inf allowed
    rank_b: float
    eta: float
    gamma: float
    desk_verifiable: bool
    note: str


def symbolic_rank_values(rank_a, rank_b) -> SymbolicRankValues:
    """Theorem values for ranks given symbolically, including infinity.

    Infinite rank cannot be modeled by the finite constructions here, so
    any infinite input yields desk_verifiable = False and the values are
    reported on the theorem's authority alone.
    """
    ranks = []
    for r in (rank_a, rank_b):
        if r in ("inf", "infinity") or r == math.inf:
            ranks.append(math.inf)
            continue
        try:
            ri = int(r)
        except (TypeError, ValueError, OverflowError):
            ri = 0
        # int() truncates 2.5 to 2; only integral numbers are ranks.
        if ri < 1 or (not isinstance(r, str) and ri != r):
            raise DimensionError(
                f"rank must be a positive integer or 'inf', got {r!r}")
        ranks.append(ri)
    ra, rb = ranks
    eta = min(ra, rb)
    gamma = 0.0 if math.isinf(eta) else float(Fraction(1, int(eta)))
    finite = not (math.isinf(ra) or math.isinf(rb))
    note = ("finite ranks; constructively verifiable" if finite else
            "infinite rank requested; values hold by the rank formula "
            "but are not desk-verifiable with finite witnesses")
    return SymbolicRankValues(rank_a=float(ra), rank_b=float(rb),
                              eta=float(eta), gamma=gamma,
                              desk_verifiable=finite, note=note)
