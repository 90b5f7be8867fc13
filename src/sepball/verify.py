"""Solver-free re-checks of the certificates that the reports carry.

One function per report type, each returning a tuple of
``theorems.NamedCheck`` (margin = tolerance minus deviation, nonnegative
iff the check passed).  Everything is recomputed from the emitted
certificate with plain eigendecompositions and norms; no interior-point
solve runs here.  Scales are max(1, ||.||), so slacks are relative for
large matrices and absolute for small ones.
"""

from __future__ import annotations

import numpy as np

from . import algebra, cbnorm, maps, matcore, sdp, separability, theorems
from .theorems import NamedCheck

SOLVER_PSD_SLACK = 1e-7  # relative eigenvalue slack on matrices an SDP made
SOLVER_RESIDUAL_TOL = 1e-6  # agreement of solver-derived numbers
SANDWICH_ORDER_SLACK = 1e-9  # round-off by which cb lower may exceed upper
VIOLATION_REPRODUCE_TOL = 1e-8  # witness: recomputed vs reported violation
EIGENVECTOR_RESIDUAL_TOL = 1e-6  # witness vector: ||M v - lambda v||
DECOMPOSITION_RESIDUAL_TOL = 1e-9  # max |sum p (x) q - part| entry
LOWER_REPRODUCE_TOL = 1e-12  # a lower bound, recomputed from its contraction


def _psd_check(name: str, m: np.ndarray) -> NamedCheck:
    """lambda_min(m) >= -slack * max(1, ||m||), from one eigvalsh of m
    scaled by ``matcore.binary_exponent``; a non-finite margin fails."""
    e = matcore.binary_exponent(m)
    w = matcore.eigvals_hermitian(m * 2.0 ** -e)
    lam = float(w[0])
    scale = max(2.0 ** -e, abs(lam), float(w[-1]))
    with np.errstate(over="ignore"):
        margin = float(np.ldexp(lam + SOLVER_PSD_SLACK * scale, e))
    return NamedCheck(name, lam >= -SOLVER_PSD_SLACK * scale
                      and bool(np.isfinite(margin)), margin)


def _pair_checks(pair: cbnorm.MajorizingPair, upper: float,
                 prefix: str = "") -> tuple[NamedCheck, ...]:
    bound = pair.bound()
    bound_tol = SOLVER_RESIDUAL_TOL * max(1.0, upper)
    return (
        _psd_check(f"{prefix}majorizing-pair-psd", pair.block_matrix()),
        NamedCheck(f"{prefix}pair-bound-matches-upper",
                   abs(bound - upper) <= bound_tol,
                   bound_tol - abs(bound - upper)),
    )


def _lower_check(f: maps.LinearMapRep, witness: np.ndarray, level: int,
                 lower: float) -> NamedCheck:
    """||(Id_level (x) f)(witness)|| reproduces ``lower``; witness a contraction."""
    value = matcore.operator_norm(maps.apply_to_second_leg(f, witness, level))
    tol = LOWER_REPRODUCE_TOL * max(1.0, lower)
    margin = min(tol - abs(value - lower),
                 1.0 + LOWER_REPRODUCE_TOL - matcore.operator_norm(witness))
    return NamedCheck("lower-reproduced", margin >= 0, margin)


def cbnorm_result(res: cbnorm.CbNormResult) -> tuple[NamedCheck, ...]:
    return _pair_checks(res.pair, res.upper) + (
        NamedCheck("sandwich-ordered",
                   res.upper >= res.lower - SANDWICH_ORDER_SLACK,
                   res.upper - res.lower + SANDWICH_ORDER_SLACK),
        _lower_check(res.pair.target, res.witness, res.level, res.lower),
    )


def _flag(name: str, passed: bool) -> NamedCheck:
    """A check with no scale to measure by: margin 0 if it passes, else -1."""
    return NamedCheck(name, passed, 0.0 if passed else -1.0)


def _npt_check(name: str, x: algebra.BipartiteElement) -> NamedCheck:
    margin = -min(separability.ppt_check(x))
    return NamedCheck(name, margin > 0, margin)


def verdict(x: algebra.BipartiteElement,
            v: separability.SepVerdict) -> tuple[NamedCheck, ...]:
    if v.status == "entangled-certified" and v.witness is not None:
        w = v.witness
        part = x.part(*w.pair)
        n = x.pair_dims(*w.pair)[0]
        moved = maps.apply_to_second_leg(w.map, part, n)
        lam = matcore.min_eigenvalue(moved)
        scale = max(1.0, matcore.operator_norm(part))
        resid = float(np.linalg.norm(moved @ w.vector
                                     - w.violation * w.vector))
        drift = abs(lam - w.violation)
        drift_tol = VIOLATION_REPRODUCE_TOL * scale
        slack = separability.PSD_SLACK * scale
        return (
            NamedCheck("moved-element-negative", lam < -slack,
                       -lam - slack),
            NamedCheck("violation-reproduced", drift <= drift_tol,
                       drift_tol - drift),
            NamedCheck("witness-vector-eigen",
                       resid <= EIGENVECTOR_RESIDUAL_TOL * scale,
                       EIGENVECTOR_RESIDUAL_TOL * scale - resid),
        )
    if v.status != "separable-certified":
        return (NamedCheck("undecided-nothing-to-verify", True, 0.0),)
    checks = [NamedCheck(f"ppt-margin-{k}-{l}", margin >= 0, margin)
              for (k, l), margin in zip(x.pairs(),
                                        separability.ppt_check(x))]
    for (pair, factors) in (v.decomposition or []):
        if not factors:
            continue
        part = x.part(*pair)
        # the verdict's own rule: lambda_min >= -PSD_SLACK * max(1, ||part||)
        slack = separability.PSD_SLACK * max(1.0, matcore.operator_norm(part))
        total = np.zeros_like(part)
        margins = []
        for (p, q) in factors:
            margins += [matcore.min_eigenvalue(p) + slack,
                        matcore.min_eigenvalue(q) + slack]
            total = total + matcore.kron(p, q)
        resid = float(np.max(np.abs(total - part)))
        # np.min keeps a NaN, which then fails the check
        margin = float(np.min(margins + [DECOMPOSITION_RESIDUAL_TOL - resid]))
        checks.append(NamedCheck(f"decomposition-{pair[0]}-{pair[1]}",
                                 margin >= 0, margin))
    return tuple(checks)


def scan(rep: separability.ScanReport) -> tuple[NamedCheck, ...]:
    checks = []
    for i, row in enumerate(rep.rows):
        total = row.separable + row.entangled + row.undecided
        checks.append(_flag(f"row-{i}-counts", total == rep.samples + 1))
        directed = algebra.identity_minus(separability._directed_element(
            rep.alg_a, rep.alg_b, row.radius))
        if row.directed_status == "entangled-certified":
            checks.append(_npt_check(f"row-{i}-directed-npt", directed))
        elif row.directed_status == "separable-certified":
            margin = min(separability.ppt_check(directed))
            checks.append(NamedCheck(f"row-{i}-directed-ppt", margin >= 0,
                                     margin))
    expected = next((row.radius for row in rep.rows if row.entangled > 0),
                    None)
    checks.append(_flag("onset-consistent", expected == rep.onset))
    return tuple(checks)


def rank_report(report: theorems.RankFormulaReport) -> tuple[NamedCheck, ...]:
    sandwich = report.eta_sandwich
    dev = max(abs(sandwich.lower - report.eta_value),
              abs(sandwich.upper - report.eta_value))
    kappa = report.kappa_report
    checks = [
        _flag("eta-gamma-product",
              report.gamma_value * report.eta_value == 1),
        NamedCheck("sandwich-brackets-eta", dev <= theorems.CB_BRACKET_TOL,
                   theorems.CB_BRACKET_TOL - dev),
        *cbnorm_result(sandwich),
        *_pair_checks(kappa.sandwich.pair, kappa.upper, prefix="kappa-"),
        NamedCheck("kappa-below-upper",
                   kappa.lower <= kappa.upper + theorems.KAPPA_UPPER_SLACK,
                   kappa.upper + theorems.KAPPA_UPPER_SLACK - kappa.lower),
    ]
    if report.gamma_upper_witness is not None:
        checks.append(_npt_check("extremal-witness-npt",
                                 report.gamma_upper_witness))
    return tuple(checks)


def kappa_report(report: theorems.KappaReport) -> tuple[NamedCheck, ...]:
    d = report.value
    pair = report.sandwich.pair
    y = matcore.embedded_swap(d, report.n, report.m)
    moved = maps.apply_to_second_leg(pair.target, y, report.n)
    w = theorems._pairing_vector(report.n, d)
    lower = abs(complex(w.conj() @ moved @ w)) / matcore.operator_norm(y)
    return (
        NamedCheck("lower-reproduced",
                   abs(lower - report.lower) <= LOWER_REPRODUCE_TOL,
                   LOWER_REPRODUCE_TOL - abs(lower - report.lower)),
        NamedCheck("lower-below-upper",
                   report.lower <= report.upper + theorems.KAPPA_UPPER_SLACK,
                   report.upper + theorems.KAPPA_UPPER_SLACK - report.lower),
        *_pair_checks(pair, report.upper),
    )


def sdp_solution(problem: sdp.SdpProblem,
                 sol: sdp.SdpSolution) -> tuple[NamedCheck, ...]:
    """Primal feasibility, PSD blocks, dual slack and gap of a solution.

    Solutions without an optimal or last iterate (infeasible, unbounded)
    carry no certificate beyond their status.
    """
    if sol.status not in ("optimal", "maxiter"):
        return (NamedCheck("certificate-emitted", True, 0.0),)
    b = problem.rhs
    # <A_i, X> = Re Tr(A_i X) = Re sum_kl conj(A_i[k, l]) X*[k, l]
    vals = sum(r.apply(x.conj().T) for r, x in zip(problem.rows, sol.primal))
    pres = float(np.linalg.norm(vals - b) / (1.0 + np.linalg.norm(b)))
    checks = [NamedCheck("primal-feasible", pres <= SOLVER_RESIDUAL_TOL,
                         SOLVER_RESIDUAL_TOL - pres)]
    checks += [_psd_check(f"primal-psd-{j}", x)
               for j, x in enumerate(sol.primal)]
    checks += [_psd_check(f"dual-psd-{j}", z)
               for j, z in enumerate(sol.dual_slack)]
    slack_gap = 0.0
    for c, z, r in zip(problem.objective, sol.dual_slack, problem.rows):
        rebuilt = c - r.adjoint(sol.dual_y).reshape(c.shape)
        slack_gap = max(slack_gap, float(np.max(np.abs(rebuilt - z))))
    # relative to the largest entries of C and of y_i A_i, absolute below 1
    a_max = max(float(np.max(np.abs(r.value), initial=0.0))
                for r in problem.rows)
    slack_tol = SOLVER_RESIDUAL_TOL * max(
        1.0, *(np.max(np.abs(c)) for c in problem.objective),
        np.max(np.abs(sol.dual_y)) * a_max)
    checks.append(NamedCheck("dual-slack-consistent", slack_gap <= slack_tol,
                             slack_tol - slack_gap))
    rel = abs(sol.primal_obj - sol.dual_obj) / max(1.0, abs(sol.primal_obj))
    checks.append(NamedCheck("gap-small", rel <= SOLVER_RESIDUAL_TOL,
                             SOLVER_RESIDUAL_TOL - rel))
    return tuple(checks)
