"""JSON encoding shared by the CLI and the file-based constructors.

Complex scalars serialize as two-element arrays [re, im]; matrices as
row-major nested lists of such pairs.  Decoders track the path into the
document so schema errors name the exact offending location.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction

import numpy as np

from . import algebra, cbnorm, maps, sdp, separability, theorems
from .errors import SchemaError


def dumps(obj) -> str:
    """Canonical document text: sorted keys, no whitespace outside
    strings, one trailing newline.

    Without ``indent`` the json module takes its C encoder; pipe the text
    through ``python -m json.tool`` to read it indented.
    """
    try:
        return json.dumps(obj, sort_keys=True, separators=(",", ":"),
                          allow_nan=False) + "\n"
    except ValueError as exc:  # a NaN or an overflowed infinity
        raise SchemaError(f"report cannot be encoded: {exc}") from exc


def encode_matrix(m) -> list:
    """Row-major nested [re, im] pairs, for an array of any shape (witness
    vectors too).  tolist() yields the same Python floats, -0.0 included,
    as float() of each part, with no Python call per entry."""
    a = np.asarray(m, dtype=np.complex128)
    return np.stack([a.real, a.imag], axis=-1).tolist()


def _fail(path: str, expected: str, got) -> SchemaError:
    return SchemaError(f"{path}: expected {expected}, got {type(got).__name__}")


def _is_number(obj) -> bool:
    return isinstance(obj, (int, float)) and not isinstance(obj, bool)


def _finite(obj, path: str) -> float:
    """A JSON number as a float; the NaN, infinities and integers beyond
    the float range that Python's json reader accepts are refused."""
    try:
        v = float(obj)
    except OverflowError:
        raise SchemaError(f"{path}: number out of the float range") from None
    if not math.isfinite(v):
        raise SchemaError(f"{path}: expected a finite number, got {v}")
    return v


def decode_complex(obj, path: str) -> complex:
    if _is_number(obj):
        return complex(_finite(obj, path))
    if isinstance(obj, list) and len(obj) == 2 and all(map(_is_number, obj)):
        return complex(_finite(obj[0], f"{path}[0]"),
                       _finite(obj[1], f"{path}[1]"))
    raise _fail(path, "a number or [re, im] pair", obj)


def decode_matrix(obj, path: str) -> np.ndarray:
    if not isinstance(obj, list) or not obj:
        raise _fail(path, "a non-empty list of rows", obj)
    rows = []
    width = None
    for i, row in enumerate(obj):
        if not isinstance(row, list) or not row:
            raise _fail(f"{path}[{i}]", "a non-empty row list", row)
        if width is None:
            width = len(row)
        elif len(row) != width:
            raise SchemaError(
                f"{path}[{i}]: row length {len(row)} differs from {width}"
            )
        rows.append([decode_complex(v, f"{path}[{i}][{j}]")
                     for j, v in enumerate(row)])
    return np.array(rows, dtype=np.complex128)


def _get(obj, key: str, path: str):
    if not isinstance(obj, dict):
        raise _fail(path, "an object", obj)
    if key not in obj:
        raise SchemaError(f"{path}.{key}: missing required key")
    return obj[key]


def _int(obj, path: str) -> int:
    if isinstance(obj, bool) or not isinstance(obj, int):
        raise _fail(path, "an integer", obj)
    return obj


def encode_algebra(a: algebra.FdAlgebra) -> dict:
    return {"blocks": list(a.blocks)}


def decode_algebra(obj, path: str = "algebra") -> algebra.FdAlgebra:
    blocks = _get(obj, "blocks", path)
    if not isinstance(blocks, list) or not blocks:
        raise _fail(f"{path}.blocks", "a non-empty list of sizes", blocks)
    return algebra.FdAlgebra(tuple(
        _int(b, f"{path}.blocks[{i}]") for i, b in enumerate(blocks)))


def encode_element(x: algebra.BipartiteElement) -> dict:
    return {
        "algA": encode_algebra(x.alg_a),
        "algB": encode_algebra(x.alg_b),
        "parts": [{"k": k, "l": l, "m": encode_matrix(x.part(k, l))}
                  for (k, l) in x.pairs()],
    }


def decode_element(obj, path: str = "element") -> algebra.BipartiteElement:
    alg_a = decode_algebra(_get(obj, "algA", path), f"{path}.algA")
    alg_b = decode_algebra(_get(obj, "algB", path), f"{path}.algB")
    raw = _get(obj, "parts", path)
    if not isinstance(raw, list):
        raise _fail(f"{path}.parts", "a list", raw)
    pieces = {}
    for i, entry in enumerate(raw):
        here = f"{path}.parts[{i}]"
        k = _int(_get(entry, "k", here), f"{here}.k")
        l = _int(_get(entry, "l", here), f"{here}.l")
        if not (0 <= k < len(alg_a.blocks) and 0 <= l < len(alg_b.blocks)):
            raise SchemaError(f"{here}: pair ({k},{l}) outside the block grid")
        pieces[(k, l)] = decode_matrix(_get(entry, "m", here), f"{here}.m")
    try:
        return algebra.assemble(alg_a, alg_b, pieces)
    except Exception as exc:
        raise SchemaError(f"{path}: {exc}") from exc


def encode_map(f: maps.LinearMapRep) -> dict:
    return {"dimIn": f.dim_in, "dimOut": f.dim_out,
            "choi": encode_matrix(f.choi)}


def decode_map(obj, path: str = "map") -> maps.LinearMapRep:
    n = _int(_get(obj, "dimIn", path), f"{path}.dimIn")
    m = _int(_get(obj, "dimOut", path), f"{path}.dimOut")
    choi = decode_matrix(_get(obj, "choi", path), f"{path}.choi")
    try:
        return maps.LinearMapRep(n, m, choi)
    except Exception as exc:
        raise SchemaError(f"{path}: {exc}") from exc


def encode_pair(pair: cbnorm.MajorizingPair) -> dict:
    return {
        "phi1": encode_map(pair.phi1),
        "phi2": encode_map(pair.phi2),
        "target": encode_map(pair.target),
    }


def encode_cbnorm_result(res: cbnorm.CbNormResult) -> dict:
    return {
        "lower": float(res.lower),
        "upper": float(res.upper),
        "level": int(res.level),
        "loose": bool(res.loose),
        "witnessContraction": encode_matrix(res.witness),
        "pair": encode_pair(res.pair),
    }


def encode_pair_report(r: separability.PairReport) -> dict:
    return {
        "pair": list(r.pair),
        "dims": list(r.dims),
        "status": r.status,
        "witnessValue": float(r.witness_value),
        "pptMargin": float(r.ppt_margin),
        "message": r.message,
    }


def encode_witness_data(w: separability.WitnessData) -> dict:
    return {
        "pair": list(w.pair),
        "map": encode_map(w.map),
        "vector": encode_matrix(w.vector),
        "violation": float(w.violation),
        "witnessMatrix": encode_matrix(w.witness_matrix),
    }


def encode_verdict(v: separability.SepVerdict) -> dict:
    out = {
        "status": v.status,
        "margin": float(v.margin),
        "pairReports": [encode_pair_report(r) for r in v.pair_reports],
    }
    if v.witness is not None:
        out["witness"] = encode_witness_data(v.witness)
    if v.decomposition is not None:
        out["decomposition"] = [
            {"pair": list(pair),
             "factors": [{"p": encode_matrix(p), "q": encode_matrix(q)}
                         for (p, q) in factors]}
            for (pair, factors) in v.decomposition
        ]
    return out


def encode_scan_report(rep: separability.ScanReport) -> dict:
    return {
        "algA": encode_algebra(rep.alg_a),
        "algB": encode_algebra(rep.alg_b),
        "radii": [float(r) for r in rep.radii],
        "samples": int(rep.samples),
        "seed": int(rep.seed),
        "rows": [{
            "radius": float(row.radius),
            "separable": int(row.separable),
            "entangled": int(row.entangled),
            "undecided": int(row.undecided),
            "directedStatus": row.directed_status,
        } for row in rep.rows],
        "onset": None if rep.onset is None else float(rep.onset),
    }


def encode_check(c: theorems.NamedCheck) -> dict:
    return {"name": c.name, "passed": bool(c.passed),
            "margin": float(c.margin)}


def encode_kappa_report(rep: theorems.KappaReport) -> dict:
    return {
        "n": rep.n,
        "m": rep.m,
        "value": rep.value,
        "lower": float(rep.lower),
        "upper": float(rep.upper),
        "checks": [encode_check(c) for c in rep.checks],
        "passed": rep.passed,
    }


def _fraction(q: Fraction) -> dict:
    return {"num": q.numerator, "den": q.denominator,
            "value": float(q)}


def encode_rank_report(rep: theorems.RankFormulaReport) -> dict:
    out = {
        "etaValue": rep.eta_value,
        "gammaValue": _fraction(rep.gamma_value),
        "kappaValue": rep.kappa_value,
        "etaWitness": encode_map(rep.eta_witness),
        "etaSandwich": [float(rep.eta_sandwich.lower),
                        float(rep.eta_sandwich.upper)],
        "gammaEvidence": encode_scan_report(rep.gamma_evidence),
        "kappa": encode_kappa_report(rep.kappa_report),
        "checks": [encode_check(c) for c in rep.checks],
        "passed": rep.passed,
    }
    if rep.gamma_upper_witness is not None:
        out["gammaUpperWitness"] = encode_element(rep.gamma_upper_witness)
    return out


def encode_symbolic_values(v: theorems.SymbolicRankValues) -> dict:
    def show(x: float):
        return "inf" if x == float("inf") else x
    return {
        "rankA": show(v.rank_a),
        "rankB": show(v.rank_b),
        "eta": show(v.eta),
        "gamma": v.gamma,
        "deskVerifiable": v.desk_verifiable,
        "note": v.note,
    }


def encode_sdp_problem(p: sdp.SdpProblem) -> dict:
    return {
        "blocks": list(p.blocks),
        "objective": [encode_matrix(c) for c in p.objective],
        "constraints": [
            {"rhs": float(rhs), "mats": [encode_matrix(a) for a in mats]}
            for (rhs, mats) in p.constraints
        ],
    }


def decode_sdp_problem(obj, path: str = "problem") -> sdp.SdpProblem:
    raw_blocks = _get(obj, "blocks", path)
    if not isinstance(raw_blocks, list) or not raw_blocks:
        raise _fail(f"{path}.blocks", "a non-empty list of sizes", raw_blocks)
    blocks = tuple(_int(b, f"{path}.blocks[{i}]")
                   for i, b in enumerate(raw_blocks))
    raw_obj = _get(obj, "objective", path)
    if not isinstance(raw_obj, list) or len(raw_obj) != len(blocks):
        raise SchemaError(
            f"{path}.objective: need one matrix per block ({len(blocks)})"
        )
    objective = tuple(decode_matrix(c, f"{path}.objective[{j}]")
                      for j, c in enumerate(raw_obj))
    raw_cons = _get(obj, "constraints", path)
    if not isinstance(raw_cons, list):
        raise _fail(f"{path}.constraints", "a list", raw_cons)
    constraints = []
    for i, entry in enumerate(raw_cons):
        here = f"{path}.constraints[{i}]"
        rhs = _get(entry, "rhs", here)
        if not _is_number(rhs):
            raise _fail(f"{here}.rhs", "a real number", rhs)
        rhs = _finite(rhs, f"{here}.rhs")
        raw_mats = _get(entry, "mats", here)
        if not isinstance(raw_mats, list) or len(raw_mats) != len(blocks):
            raise SchemaError(
                f"{here}.mats: need one matrix per block ({len(blocks)})"
            )
        mats = tuple(decode_matrix(a, f"{here}.mats[{j}]")
                     for j, a in enumerate(raw_mats))
        constraints.append((rhs, mats))
    try:
        return sdp.SdpProblem(blocks=blocks, objective=objective,
                              constraints=tuple(constraints))
    except Exception as exc:
        raise SchemaError(f"{path}: {exc}") from exc


def _finite_or_none(v) -> float | None:
    v = float(v)
    return v if math.isfinite(v) else None


def encode_sdp_solution(sol: sdp.SdpSolution) -> dict:
    # objectives of infeasible/unbounded solves are NaN; emit null there
    out = {
        "status": sol.status,
        "primalObjective": _finite_or_none(sol.primal_obj),
        "dualObjective": _finite_or_none(sol.dual_obj),
        "dualityGap": _finite_or_none(sol.duality_gap),
        "relativeGap": _finite_or_none(sol.rel_gap),
        "primalResidual": _finite_or_none(sol.primal_residual),
        "dualResidual": _finite_or_none(sol.dual_residual),
        "iterations": int(sol.iterations),
        "message": sol.message,
        "primal": [encode_matrix(x) for x in sol.primal],
        "dualY": [] if sol.dual_y is None else [float(v) for v in sol.dual_y],
        "dualSlack": [encode_matrix(z) for z in sol.dual_slack],
    }
    return out


def load_document(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path}: invalid JSON at line {exc.lineno}, "
                          f"column {exc.colno}: {exc.msg}") from exc
