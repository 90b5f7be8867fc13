"""Batch command line: parse inputs, dispatch, emit one JSON/CSV document.

Exit codes: 0 for any computed result (an entangled verdict is a
result), 2 for undecided verdicts under --strict, 1 for input or solver
errors.  Identical argv and seed give byte-identical output; nothing is
read from the environment and no timestamps are emitted.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

import numpy as np

from . import algebra, cbnorm, jsonio, maps, matcore, sampling, sdp
from . import separability, theorems
from .errors import SepballError

PROG = "sepball"


class _Parser(argparse.ArgumentParser):
    # Usage mistakes are input errors: exit 1, not argparse's default 2,
    # which this tool reserves for strict-mode undecided verdicts.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _tolerance(text: str) -> float:
    # NaN would fail every threshold comparison and turn verdicts around.
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not (0.0 <= value < math.inf):
        raise argparse.ArgumentTypeError(
            f"expected a finite nonnegative number, got {text!r}")
    return value


def _common_flags(p: argparse.ArgumentParser):
    p.add_argument("--seed", type=int, default=0,
                   help="master seed for all stochastic procedures")
    p.add_argument("--tol-psd", type=_tolerance, default=1e-9,
                   help="eigenvalue slack for positivity checks")
    p.add_argument("--tol-gap", type=_tolerance, default=1e-9,
                   help="duality-gap target for interior-point solves")
    p.add_argument("--threads", type=int, default=0,
                   help="worker threads for scans (0 = logical cores)")
    p.add_argument("--strict", action="store_true",
                   help="exit 2 on undecided verdicts")
    p.add_argument("--out", default=None, help="write the document here "
                   "instead of stdout")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--verify", action="store_true",
                   help="re-check emitted certificates with plain "
                   "eigendecompositions (no solver) and report the outcome")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog=PROG, description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True,
                               parser_class=_Parser)

    p = sub.add_parser("cbnorm",
                       help="completely bounded norm sandwich for a map")
    p.add_argument("--map", required=True,
                   help="transpose:N | identity:N | reduction:N | file:PATH")
    p.add_argument("--level", type=int, default=None,
                   help="amplification level for the lower bound "
                   "(default min(dimIn, dimOut))")
    _common_flags(p)

    p = sub.add_parser("sep-check",
                       help="separability verdict for a positive element")
    p.add_argument("--element", required=True,
                   help="id_minus:swap:R | id_minus:gue:R | gue:R | "
                   "extremal:EPS | file:PATH")
    p.add_argument("--dims", default=None,
                   help="NxM shorthand for single-block algebras")
    p.add_argument("--algA", dest="alg_a", default=None,
                   help="comma-separated block sizes of the first algebra")
    p.add_argument("--algB", dest="alg_b", default=None,
                   help="comma-separated block sizes of the second algebra")
    _common_flags(p)

    p = sub.add_parser("gamma-scan",
                       help="verdict counts over radii around the identity")
    p.add_argument("--algA", dest="alg_a", required=True)
    p.add_argument("--algB", dest="alg_b", required=True)
    p.add_argument("--radii", required=True,
                   help="comma-separated radii in [0, 1]")
    p.add_argument("--samples", type=int, default=50)
    _common_flags(p)

    p = sub.add_parser("eta",
                       help="rank-formula constants with witnesses")
    p.add_argument("--algA", dest="alg_a", default=None)
    p.add_argument("--algB", dest="alg_b", default=None)
    p.add_argument("--rankA", dest="rank_a", default=None,
                   help="symbolic rank (integer or 'inf') instead of --algA")
    p.add_argument("--rankB", dest="rank_b", default=None)
    p.add_argument("--samples", type=int, default=6,
                   help="scan samples behind the gamma evidence")
    _common_flags(p)

    p = sub.add_parser("kappa",
                       help="pairing-functional bound at the matrix level")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    _common_flags(p)

    p = sub.add_parser("sdp-solve",
                       help="solve a block SDP from a JSON file")
    p.add_argument("--problem", required=True, help="path to the problem JSON")
    _common_flags(p)

    return parser


def _parse_blocks(text: str, flag: str) -> algebra.FdAlgebra:
    try:
        blocks = tuple(int(tok) for tok in text.split(",") if tok != "")
    except ValueError:
        raise SepballError(f"{flag}: expected comma-separated integers, "
                           f"got {text!r}")
    if not blocks:
        raise SepballError(f"{flag}: no block sizes given")
    return algebra.FdAlgebra(blocks)


def _parse_algebras(args) -> tuple[algebra.FdAlgebra, algebra.FdAlgebra]:
    if args.dims is not None:
        toks = args.dims.lower().split("x")
        if len(toks) != 2:
            raise SepballError(f"--dims: expected NxM, got {args.dims!r}")
        try:
            n, m = int(toks[0]), int(toks[1])
        except ValueError:
            raise SepballError(f"--dims: expected NxM, got {args.dims!r}")
        return algebra.FdAlgebra((n,)), algebra.FdAlgebra((m,))
    if args.alg_a is None or args.alg_b is None:
        raise SepballError("need either --dims or both --algA and --algB")
    return _parse_blocks(args.alg_a, "--algA"), \
        _parse_blocks(args.alg_b, "--algB")


def _parse_map_spec(spec: str) -> maps.LinearMapRep:
    head, _, rest = spec.partition(":")
    if head == "file":
        return jsonio.decode_map(jsonio.load_document(rest), path=rest)
    try:
        n = int(rest)
    except ValueError:
        raise SepballError(f"--map: expected '{head}:N' with integer N, "
                           f"got {spec!r}")
    if head == "transpose":
        return maps.transpose_map(n)
    if head == "identity":
        return maps.identity_map(n)
    if head == "reduction":
        return maps.reduction_map(n)
    raise SepballError(f"--map: unknown constructor {head!r}")


def _parse_element_spec(args) -> algebra.BipartiteElement:
    spec = args.element
    if spec.startswith("file:"):
        path = spec[len("file:"):]
        return jsonio.decode_element(jsonio.load_document(path), path=path)
    alg_a, alg_b = _parse_algebras(args)
    toks = spec.split(":")
    if toks[0] == "id_minus" and len(toks) == 3 and toks[1] == "swap":
        r = _float_tok(toks[2], spec)
        return algebra.identity_minus(
            separability._directed_element(alg_a, alg_b, r))
    if (toks[0] == "id_minus" and len(toks) == 3 and toks[1] == "gue") \
            or (toks[0] == "gue" and len(toks) == 2):
        r = _float_tok(toks[-1], spec)
        rng = sampling.rng_from(0xE1E, args.seed)
        return algebra.identity_minus(
            separability._gue_element(alg_a, alg_b, r, rng))
    if toks[0] == "extremal" and len(toks) == 2:
        eps = _float_tok(toks[1], spec)
        return separability.extremal_direction(alg_a, alg_b, eps)
    raise SepballError(f"--element: unknown constructor {spec!r}")


def _float_tok(tok: str, spec: str, flag: str = "--element") -> float:
    message = f"{flag}: bad numeric field in {spec!r}"
    try:
        value = float(tok)
    except ValueError:
        raise SepballError(message)
    if not math.isfinite(value):
        raise SepballError(message)
    return value


def _check(name: str, passed: bool, margin: float) -> dict:
    return {"name": name, "passed": bool(passed), "margin": float(margin)}


def _verify_block(checks: list) -> dict:
    return {"passed": all(c["passed"] for c in checks), "checks": checks}


def _verify_cbnorm(res: cbnorm.CbNormResult) -> dict:
    margin = res.pair.psd_margin()
    scale = max(1.0, matcore.operator_norm(res.pair.block_matrix()))
    bound = res.pair.bound()
    checks = [
        _check("majorizing-pair-psd", margin >= -1e-7 * scale,
               margin + 1e-7 * scale),
        _check("pair-bound-matches-upper",
               abs(bound - res.upper) <= 1e-6 * max(1.0, res.upper),
               1e-6 * max(1.0, res.upper) - abs(bound - res.upper)),
        _check("sandwich-ordered", res.upper >= res.lower - 1e-9,
               res.upper - res.lower + 1e-9),
    ]
    return _verify_block(checks)


def _verify_verdict(x: algebra.BipartiteElement, v: separability.SepVerdict,
                    tol: float) -> dict:
    checks = []
    if v.status == "entangled-certified" and v.witness is not None:
        w = v.witness
        k, l = w.pair
        part = x.part(k, l)
        n = x.pair_dims(k, l)[0]
        moved = maps.apply_to_second_leg(w.map, part, n)
        lam = matcore.min_eigenvalue(moved)
        scale = max(1.0, matcore.operator_norm(part))
        checks.append(_check("moved-element-negative", lam < -tol * scale,
                             -lam - tol * scale))
        checks.append(_check("violation-reproduced",
                             abs(lam - w.violation) <= 1e-8 * scale,
                             1e-8 * scale - abs(lam - w.violation)))
        resid = float(np.linalg.norm(moved @ w.vector - w.violation * w.vector))
        checks.append(_check("witness-vector-eigen", resid <= 1e-6 * scale,
                             1e-6 * scale - resid))
    elif v.status == "separable-certified":
        for (k, l) in x.pairs():
            part = x.part(k, l)
            gamma = matcore.partial_transpose(
                part, x.pair_dims(k, l), "second")
            lam = matcore.min_eigenvalue(gamma)
            scale = max(1.0, matcore.operator_norm(part))
            checks.append(_check(f"ppt-margin-{k}-{l}", lam >= -tol * scale,
                                 lam + tol * scale))
        for (pair, factors) in (v.decomposition or []):
            if not factors:
                continue
            part = x.part(*pair)
            total = np.zeros_like(part)
            psd_ok = True
            for (p, q) in factors:
                psd_ok &= matcore.min_eigenvalue(p) >= -1e-9
                psd_ok &= matcore.min_eigenvalue(q) >= -1e-9
                total = total + matcore.kron(p, q)
            resid = float(np.max(np.abs(total - part)))
            checks.append(_check(f"decomposition-{pair[0]}-{pair[1]}",
                                 psd_ok and resid <= 1e-9, 1e-9 - resid))
    else:
        checks.append(_check("undecided-nothing-to-verify", True, 0.0))
    return _verify_block(checks)


def _verify_scan(rep: separability.ScanReport, tol: float) -> dict:
    checks = []
    for i, row in enumerate(rep.rows):
        total = row.separable + row.entangled + row.undecided
        checks.append(_check(f"row-{i}-counts", total == rep.samples + 1,
                             float(rep.samples + 1 - total)))
        directed = algebra.identity_minus(separability._directed_element(
            rep.alg_a, rep.alg_b, row.radius))
        _, margins = separability.ppt_check(directed, tol=tol)
        npt = min(margins) < -tol
        if row.directed_status == "entangled-certified":
            checks.append(_check(f"row-{i}-directed-npt", npt,
                                 -min(margins) - tol))
        elif row.directed_status == "separable-certified":
            checks.append(_check(f"row-{i}-directed-ppt", not npt,
                                 min(margins) + tol))
    expected = None
    for row in rep.rows:
        if row.entangled > 0:
            expected = row.radius
            break
    checks.append(_check("onset-consistent", expected == rep.onset, 0.0))
    return _verify_block(checks)


def _verify_rank(report: theorems.RankFormulaReport, tol: float) -> dict:
    checks = [
        _check("eta-gamma-product",
               report.gamma_value * report.eta_value == 1, 0.0),
        _check("sandwich-brackets-eta",
               max(abs(report.eta_sandwich[0] - report.eta_value),
                   abs(report.eta_sandwich[1] - report.eta_value)) <= 1e-3,
               1e-3 - max(abs(report.eta_sandwich[0] - report.eta_value),
                          abs(report.eta_sandwich[1] - report.eta_value))),
        _check("kappa-below-upper",
               report.kappa_report.lower <= report.kappa_report.upper + 1e-6,
               report.kappa_report.upper + 1e-6 - report.kappa_report.lower),
    ]
    if report.gamma_upper_witness is not None:
        _, margins = separability.ppt_check(report.gamma_upper_witness,
                                            tol=tol)
        checks.append(_check("extremal-witness-npt", min(margins) < -tol,
                             -min(margins) - tol))
    return _verify_block(checks)


def _verify_kappa(report: theorems.KappaReport) -> dict:
    d = report.value
    phi = maps.embedded_transpose(d, report.m, report.n)
    y = matcore.embedded_swap(d, report.n, report.m)
    moved = maps.apply_to_second_leg(phi, y, report.n)
    w = theorems._pairing_vector(report.n, d)
    lower = abs(complex(w.conj() @ moved @ w)) / matcore.operator_norm(y)
    checks = [
        _check("lower-reproduced", abs(lower - report.lower) <= 1e-12,
               1e-12 - abs(lower - report.lower)),
        _check("lower-below-upper", report.lower <= report.upper + 1e-6,
               report.upper + 1e-6 - report.lower),
    ]
    return _verify_block(checks)


def _verify_sdp(problem: sdp.SdpProblem, sol: sdp.SdpSolution) -> dict:
    if sol.status not in ("optimal", "maxiter"):
        return _verify_block([_check("certificate-emitted", True, 0.0)])
    checks = []
    b = np.array([rhs for (rhs, _) in problem.constraints])
    vals = np.array([
        sum(float(np.real(np.trace(a @ x)))
            for a, x in zip(mats, sol.primal))
        for (_, mats) in problem.constraints
    ])
    pres = float(np.linalg.norm(vals - b) / (1.0 + np.linalg.norm(b)))
    checks.append(_check("primal-feasible", pres <= 1e-6, 1e-6 - pres))
    for j, x in enumerate(sol.primal):
        lam = matcore.min_eigenvalue(x)
        scale = max(1.0, matcore.operator_norm(x))
        checks.append(_check(f"primal-psd-{j}", lam >= -1e-7 * scale,
                             lam + 1e-7 * scale))
    for j, z in enumerate(sol.dual_slack):
        lam = matcore.min_eigenvalue(z)
        scale = max(1.0, matcore.operator_norm(z))
        checks.append(_check(f"dual-psd-{j}", lam >= -1e-7 * scale,
                             lam + 1e-7 * scale))
    slack_gap = 0.0
    for j, (c, z) in enumerate(zip(problem.objective, sol.dual_slack)):
        rebuilt = c.astype(np.complex128).copy()
        for yi, (_, mats) in zip(sol.dual_y, problem.constraints):
            rebuilt -= yi * mats[j]
        slack_gap = max(slack_gap, float(np.max(np.abs(rebuilt - z))))
    checks.append(_check("dual-slack-consistent", slack_gap <= 1e-6,
                         1e-6 - slack_gap))
    gap = abs(sol.primal_obj - sol.dual_obj)
    rel = gap / max(1.0, abs(sol.primal_obj))
    checks.append(_check("gap-small", rel <= 1e-6, 1e-6 - rel))
    return _verify_block(checks)


def _csv_scalars(doc: dict) -> str:
    lines = ["key,value"]
    for key in sorted(doc):
        val = doc[key]
        if isinstance(val, (str, int, float, bool)) or val is None:
            lines.append(f"{key},{val}")
    return "\n".join(lines) + "\n"


def _csv_scan(doc: dict) -> str:
    lines = ["radius,separable,entangled,undecided,directedStatus"]
    for row in doc["rows"]:
        lines.append(f"{row['radius']!r},{row['separable']},"
                     f"{row['entangled']},{row['undecided']},"
                     f"{row['directedStatus']}")
    return "\n".join(lines) + "\n"


def _emit(args, doc: dict, csv_text: str | None = None) -> None:
    if args.format == "csv":
        text = csv_text if csv_text is not None else _csv_scalars(doc)
    else:
        text = jsonio.dumps(doc)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _sdp_options(args) -> sdp.SdpOptions:
    return sdp.SdpOptions(gap_tol=args.tol_gap, check_independence=False)


def _run_cbnorm(args) -> int:
    f = _parse_map_spec(args.map)
    res = cbnorm.cb_norm(f, level=args.level, seed=args.seed,
                         options=_sdp_options(args))
    doc = jsonio.encode_cbnorm_result(res)
    code = 0
    if args.verify:
        doc["verify"] = _verify_cbnorm(res)
        if not doc["verify"]["passed"]:
            code = 1
    if args.strict and res.loose and code == 0:
        code = 2
    _emit(args, doc)
    return code


def _run_sep_check(args) -> int:
    x = _parse_element_spec(args)
    verdict = separability.entanglement_witness(x, tol=args.tol_psd)
    doc = jsonio.encode_verdict(verdict)
    code = 0
    if args.verify:
        doc["verify"] = _verify_verdict(x, verdict, args.tol_psd)
        if not doc["verify"]["passed"]:
            code = 1
    if args.strict and verdict.status == "undecided" and code == 0:
        code = 2
    _emit(args, doc)
    return code


def _run_gamma_scan(args) -> int:
    alg_a = _parse_blocks(args.alg_a, "--algA")
    alg_b = _parse_blocks(args.alg_b, "--algB")
    radii = tuple(_float_tok(tok, args.radii, "--radii")
                  for tok in args.radii.split(",") if tok)
    threads = args.threads if args.threads > 0 else (os.cpu_count() or 1)
    rep = separability.sep_ball_scan(alg_a, alg_b, radii,
                                     samples=args.samples, seed=args.seed,
                                     threads=threads, tol=args.tol_psd)
    doc = jsonio.encode_scan_report(rep)
    code = 0
    if args.verify:
        doc["verify"] = _verify_scan(rep, args.tol_psd)
        if not doc["verify"]["passed"]:
            code = 1
    if args.strict and code == 0 and any(r.undecided > 0 for r in rep.rows):
        code = 2
    _emit(args, doc, csv_text=_csv_scan(doc) if args.format == "csv" else None)
    return code


def _run_eta(args) -> int:
    if args.rank_a is not None or args.rank_b is not None:
        if args.rank_a is None or args.rank_b is None:
            raise SepballError("symbolic mode needs both --rankA and --rankB")
        values = theorems.symbolic_rank_values(args.rank_a, args.rank_b)
        _emit(args, jsonio.encode_symbolic_values(values))
        return 0
    if args.alg_a is None or args.alg_b is None:
        raise SepballError("need --algA/--algB or --rankA/--rankB")
    alg_a = _parse_blocks(args.alg_a, "--algA")
    alg_b = _parse_blocks(args.alg_b, "--algB")
    report = theorems.rank_formula_report(alg_a, alg_b, seed=args.seed,
                                          samples=args.samples)
    doc = jsonio.encode_rank_report(report)
    code = 0 if report.passed else 1
    if args.verify:
        doc["verify"] = _verify_rank(report, args.tol_psd)
        if not doc["verify"]["passed"]:
            code = 1
    _emit(args, doc)
    return code


def _run_kappa(args) -> int:
    lower, report = theorems.kappa_matrix_check(args.n, args.m,
                                                options=_sdp_options(args))
    doc = jsonio.encode_kappa_report(report)
    code = 0 if report.passed else 1
    if args.verify:
        doc["verify"] = _verify_kappa(report)
        if not doc["verify"]["passed"]:
            code = 1
    _emit(args, doc)
    return code


def _run_sdp_solve(args) -> int:
    problem = jsonio.decode_sdp_problem(
        jsonio.load_document(args.problem), path=args.problem)
    sol = sdp.solve(problem, sdp.SdpOptions(gap_tol=args.tol_gap))
    doc = jsonio.encode_sdp_solution(sol)
    code = 0
    if sol.status == "maxiter":
        code = 1
    if args.verify:
        doc["verify"] = _verify_sdp(problem, sol)
        if not doc["verify"]["passed"]:
            code = 1
    _emit(args, doc)
    return code


_HANDLERS = {
    "cbnorm": _run_cbnorm,
    "sep-check": _run_sep_check,
    "gamma-scan": _run_gamma_scan,
    "eta": _run_eta,
    "kappa": _run_kappa,
    "sdp-solve": _run_sdp_solve,
}


def dispatch(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _HANDLERS[args.command](args)
    except SepballError as exc:
        sys.stderr.write(f"{PROG}: error: {exc}\n")
        return 1
    except OSError as exc:
        sys.stderr.write(f"{PROG}: error: {exc}\n")
        return 1


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
