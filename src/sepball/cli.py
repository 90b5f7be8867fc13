"""Batch command line: parse inputs, dispatch, emit one JSON/CSV document.

Exit codes: 0 for any computed result (an entangled verdict is a
result), 2 for undecided verdicts under --strict, 1 for input or solver
errors and failed --verify re-checks.  Identical argv and seed give
byte-identical output; nothing is read from the environment and no
timestamps are emitted.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys

import numpy as np

from . import algebra, cbnorm, jsonio, maps, sampling, sdp
from . import separability, theorems, verify
from .errors import SepballError

PROG = "sepball"


class _Parser(argparse.ArgumentParser):
    # Usage mistakes are input errors: exit 1, not argparse's default 2,
    # which this tool reserves for strict-mode undecided verdicts.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _nonnegative_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(
            f"expected a nonnegative integer, got {text!r}")
    return value


# Options shared by several subcommands.  Each subcommand declares only
# the ones it reads; --out, --format and --verify go on every one.
_SHARED_FLAGS = {
    "--seed": dict(type=int, default=0,
                   help="master seed for all stochastic procedures"),
    "--threads": dict(type=_nonnegative_int, default=0,
                      help="accepted and ignored: scans run in one thread; the "
                      "flag is removed once the benchmark stops passing it "
                      "(ROADMAP item 1)"),
    "--strict": dict(action="store_true",
                     help="exit 2 on undecided verdicts"),
    "--out": dict(default=None,
                  help="write the document here instead of stdout"),
    "--format": dict(choices=("json", "csv"), default="json"),
    "--verify": dict(action="store_true",
                     help="re-check emitted certificates with plain "
                     "eigendecompositions (no solver) and report the outcome"),
}


def _shared_flags(p: argparse.ArgumentParser, *flags: str) -> None:
    for flag in flags + ("--out", "--format", "--verify"):
        p.add_argument(flag, **_SHARED_FLAGS[flag])


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of this process, built on first use.  parse_args
    leaves it unchanged and returns a fresh Namespace on every call."""
    parser = _Parser(prog=PROG, description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True,
                               parser_class=_Parser)

    p = sub.add_parser("cbnorm",
                       help="completely bounded norm sandwich for a map")
    p.add_argument("--map", required=True,
                   help="transpose:N | identity:N | reduction:N | file:PATH")
    p.add_argument("--level", type=int, default=None,
                   help="search for the lower bound at amplification "
                   "levels 1..LEVEL (default: no search, the dual witness "
                   "of the upper-bound program at level dimOut)")
    _shared_flags(p, "--seed", "--strict")

    p = sub.add_parser("sep-check",
                       help="separability verdict for a positive element")
    p.add_argument("--element", required=True,
                   help="id_minus:swap:R | id_minus:gue:R | extremal:EPS | "
                   "file:PATH")
    p.add_argument("--algA", dest="alg_a", default=None,
                   help="comma-separated block sizes of the first algebra")
    p.add_argument("--algB", dest="alg_b", default=None,
                   help="comma-separated block sizes of the second algebra")
    _shared_flags(p, "--seed", "--strict")

    p = sub.add_parser("gamma-scan",
                       help="verdict counts over radii around the identity")
    p.add_argument("--algA", dest="alg_a", required=True)
    p.add_argument("--algB", dest="alg_b", required=True)
    p.add_argument("--radii", required=True,
                   help="comma-separated radii in [0, 1]")
    p.add_argument("--samples", type=int, default=50)
    _shared_flags(p, "--seed", "--threads", "--strict")

    p = sub.add_parser("eta",
                       help="rank-formula constants with witnesses")
    p.add_argument("--algA", dest="alg_a", default=None)
    p.add_argument("--algB", dest="alg_b", default=None)
    p.add_argument("--rankA", dest="rank_a", default=None,
                   help="symbolic rank (integer or 'inf') instead of --algA")
    p.add_argument("--rankB", dest="rank_b", default=None)
    p.add_argument("--samples", type=int, default=6,
                   help="scan samples behind the gamma evidence")
    _shared_flags(p, "--seed")

    p = sub.add_parser("kappa",
                       help="pairing-functional bound at the matrix level")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    _shared_flags(p)

    p = sub.add_parser("sdp-solve",
                       help="solve a block SDP from a JSON file")
    p.add_argument("--problem", required=True, help="path to the problem JSON")
    _shared_flags(p)

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
    if args.alg_a is None or args.alg_b is None:
        raise SepballError("need both --algA and --algB")
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
    build = {"transpose": maps.transpose_map, "identity": maps.identity_map,
             "reduction": maps.reduction_map}.get(head)
    if build is None:
        raise SepballError(f"--map: unknown constructor {head!r}")
    maps.check_size(n, n)
    return build(n)


def _parse_element_spec(args) -> algebra.BipartiteElement:
    spec = args.element
    if spec.startswith("file:"):
        if args.alg_a is not None or args.alg_b is not None:
            raise SepballError("--algA/--algB: a file: element carries its "
                               "own algebras")
        path = spec[len("file:"):]
        return jsonio.decode_element(jsonio.load_document(path), path=path)
    alg_a, alg_b = _parse_algebras(args)
    toks = spec.split(":")
    if toks[0] == "id_minus" and len(toks) == 3 and toks[1] == "swap":
        r = _float_tok(toks[2], spec)
        return algebra.identity_minus(
            separability._directed_element(alg_a, alg_b, r))
    if toks[0] == "id_minus" and len(toks) == 3 and toks[1] == "gue":
        r = _float_tok(toks[2], spec)
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


_CSV_WRITERS = {"gamma-scan": _csv_scan}


def _emit(args, doc: dict) -> None:
    if args.format == "csv":
        text = _CSV_WRITERS.get(args.command, _csv_scalars)(doc)
    else:
        text = jsonio.dumps(doc)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# Each handler only computes and encodes.  It returns (document, exit
# code, unsettled, checks): `unsettled` marks an undecided or loose result
# for --strict, and `checks` holds the --verify re-checks (None if not
# asked for or nothing to re-check).

def _run_cbnorm(args):
    f = _parse_map_spec(args.map)
    res = cbnorm.cb_norm(f, level=args.level, seed=args.seed)
    checks = verify.cbnorm_result(res) if args.verify else None
    return jsonio.encode_cbnorm_result(res), 0, res.loose, checks


def _run_sep_check(args):
    x = _parse_element_spec(args)
    v = separability.entanglement_witness(x)
    checks = verify.verdict(x, v) if args.verify else None
    return jsonio.encode_verdict(v), 0, v.status == "undecided", checks


def _run_gamma_scan(args):
    alg_a, alg_b = _parse_algebras(args)
    radii = tuple(_float_tok(tok, args.radii, "--radii")
                  for tok in args.radii.split(",") if tok)
    rep = separability.sep_ball_scan(alg_a, alg_b, radii,
                                     samples=args.samples, seed=args.seed)
    checks = verify.scan(rep) if args.verify else None
    unsettled = any(r.undecided > 0 for r in rep.rows)
    return jsonio.encode_scan_report(rep), 0, unsettled, checks


def _run_eta(args):
    if args.rank_a is not None or args.rank_b is not None:
        if args.rank_a is None or args.rank_b is None:
            raise SepballError("symbolic mode needs both --rankA and --rankB")
        values = theorems.symbolic_rank_values(args.rank_a, args.rank_b)
        return jsonio.encode_symbolic_values(values), 0, False, None
    if args.alg_a is None or args.alg_b is None:
        raise SepballError("need --algA/--algB or --rankA/--rankB")
    alg_a, alg_b = _parse_algebras(args)
    report = theorems.rank_formula_report(alg_a, alg_b, seed=args.seed,
                                          samples=args.samples)
    checks = verify.rank_report(report) if args.verify else None
    code = 0 if report.passed else 1
    return jsonio.encode_rank_report(report), code, False, checks


def _run_kappa(args):
    _, report = theorems.kappa_matrix_check(args.n, args.m)
    checks = verify.kappa_report(report) if args.verify else None
    code = 0 if report.passed else 1
    return jsonio.encode_kappa_report(report), code, False, checks


def _run_sdp_solve(args):
    problem = jsonio.decode_sdp_problem(
        jsonio.load_document(args.problem), path=args.problem)
    sol = sdp.solve(problem)
    checks = verify.sdp_solution(problem, sol) if args.verify else None
    code = 1 if sol.status == "maxiter" else 0
    return jsonio.encode_sdp_solution(sol), code, False, checks


_HANDLERS = {
    "cbnorm": _run_cbnorm,
    "sep-check": _run_sep_check,
    "gamma-scan": _run_gamma_scan,
    "eta": _run_eta,
    "kappa": _run_kappa,
    "sdp-solve": _run_sdp_solve,
}


def dispatch(argv) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        # Data too large for double precision end in a checked one-line
        # error (sdp.solve tests its iterates); numpy's overflow warnings
        # would only add stray lines to stderr.
        with np.errstate(over="ignore", invalid="ignore"):
            doc, code, unsettled, checks = _HANDLERS[args.command](args)
        if checks is not None:
            passed = all(c.passed for c in checks)
            doc["verify"] = {
                "passed": passed,
                "checks": [jsonio.encode_check(c) for c in checks]}
            if not passed:
                code = 1
        # --strict exists only on the commands that can be unsettled.
        if unsettled and code == 0 and args.strict:
            code = 2
        _emit(args, doc)
        return code
    except (SepballError, OSError) as exc:
        sys.stderr.write(f"{PROG}: error: {exc}\n")
        return 1


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
