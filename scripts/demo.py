#!/usr/bin/env python3
"""Small guided tour of the library: norms, witnesses, scans, rank formula."""

import numpy as np

from sepball import algebra, cbnorm, maps, matcore, separability, theorems


def main() -> None:
    print("== cb norm of the transpose on M_3 ==")
    res = cbnorm.cb_norm(maps.transpose_map(3))
    print(f"  lower {res.lower:.6f}  upper {res.upper:.6f}  "
          f"level {res.level}  loose {res.loose}")

    print("== witness test on 1 - 0.525 F in M_2 (x) M_2 ==")
    m2 = algebra.FdAlgebra((2,))
    x = separability.extremal_direction(m2, m2, eps=0.05)
    verdict = separability.entanglement_witness(x)
    print(f"  status {verdict.status}  margin {verdict.margin:.4f}")
    if verdict.witness is not None:
        print(f"  witness pair {verdict.witness.pair}  "
              f"violation {verdict.witness.violation:.4f}")

    print("== witness test at the separable boundary r = 1/2 ==")
    boundary = algebra.identity_minus(algebra.BipartiteElement(
        m2, m2, (0.5 * matcore.embedded_swap(2, 2, 2),)))
    verdict = separability.entanglement_witness(boundary)
    print(f"  status {verdict.status}  margin {verdict.margin:.4f}")

    print("== radius scan on (M_2 + M_3) (x) M_3 ==")
    report = separability.sep_ball_scan(
        algebra.FdAlgebra((2, 3)), algebra.FdAlgebra((3,)),
        radii=(0.30, 0.34, 0.40), samples=4, seed=0)
    for row in report.rows:
        print(f"  r={row.radius:.2f}  sep={row.separable}  "
              f"ent={row.entangled}  und={row.undecided}  "
              f"directed={row.directed_status}")
    print(f"  entangled onset: {report.onset}")

    print("== rank formula on (M_2 + M_3) x M_4 ==")
    rep = theorems.rank_formula_report(
        algebra.FdAlgebra((2, 3)), algebra.FdAlgebra((4,)), samples=2)
    print(f"  eta {rep.eta_value}  gamma {rep.gamma_value}  "
          f"kappa {rep.kappa_value:.6f}  passed {rep.passed}")
    for check in rep.checks:
        print(f"    [{'ok' if check.passed else 'FAIL'}] {check.name}")


if __name__ == "__main__":
    main()
