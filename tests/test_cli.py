import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import oracles
from sepball import (
    algebra, cbnorm, cli, jsonio, maps, sampling, sdp, separability, theorems,
    verify,
)

M2 = algebra.FdAlgebra((2,))


def _run(capsys, *argv):
    code = cli.dispatch(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_cbnorm_transpose(capsys):
    code, out, _ = _run(capsys, "cbnorm", "--map", "transpose:3")
    assert code == 0
    doc = json.loads(out)
    assert abs(doc["lower"] - 3.0) < 1e-3
    assert abs(doc["upper"] - 3.0) < 1e-3
    assert doc["loose"] is False


def test_cbnorm_verify_and_strict(capsys):
    code, out, _ = _run(capsys, "cbnorm", "--map", "identity:2", "--verify")
    assert code == 0
    code, out, _ = _run(capsys, "cbnorm", "--map", "transpose:2",
                        "--level", "1", "--strict")
    assert code == 2
    assert json.loads(out)["loose"] is True


def test_cbnorm_verify_cp_map_45(tmp_path, capsys):
    # the map whose raw SDP upper bound fell 2.8e-9 below the exact lower
    rng = sampling.rng_from(0xAC3, 45)
    f = maps.LinearMapRep(3, 2, oracles.random_kraus_choi(rng, 3, 2))
    path = tmp_path / "cp45.json"
    path.write_text(jsonio.dumps(jsonio.encode_map(f)))
    code, out, _ = _run(capsys, "cbnorm", "--map", f"file:{path}", "--verify")
    assert code == 0
    doc = json.loads(out)
    assert doc["verify"]["passed"] is True
    assert doc["lower"] <= doc["upper"]
    assert doc["level"] == 2 and doc["loose"] is False


def test_cbnorm_zero_map_is_not_loose(tmp_path, capsys):
    # solver round-off leaves an absolute width ~1e-10 on [0, upper]
    f = maps.LinearMapRep(2, 3, np.zeros((6, 6), dtype=np.complex128))
    path = tmp_path / "zero.json"
    path.write_text(jsonio.dumps(jsonio.encode_map(f)))
    code, out, _ = _run(capsys, "cbnorm", "--map", f"file:{path}",
                        "--strict", "--verify")
    assert code == 0
    doc = json.loads(out)
    assert doc["loose"] is False and doc["verify"]["passed"] is True
    assert doc["lower"] == 0.0 and doc["upper"] < 1e-6


def test_sep_check_boundary_swap(capsys):
    code, out, _ = _run(capsys, "sep-check", "--element", "id_minus:swap:0.5",
                        "--algA", "2", "--algB", "2")
    assert code == 0
    doc = json.loads(out)
    assert doc["status"] == "separable-certified"


def test_sep_check_extremal_entangled(capsys):
    code, out, _ = _run(capsys, "sep-check", "--element", "extremal:0.05",
                        "--algA", "2", "--algB", "2", "--verify")
    assert code == 0
    doc = json.loads(out)
    assert doc["status"] == "entangled-certified"
    assert doc["margin"] < 0
    assert doc["witness"]["violation"] < 0


def test_sep_check_refuses_negative_extremal_eps(capsys):
    code, out, err = _run(capsys, "sep-check", "--element", "extremal:-0.5",
                          "--algA", "2", "--algB", "2")
    assert (code, out) == (1, "")
    assert err == "sepball: error: eps must be nonnegative, got -0.5\n"


def _checks(out):
    return {c["name"]: c for c in json.loads(out)["verify"]["checks"]}


@pytest.mark.parametrize("radius", ["0.4", "0.5", "0.5000000006"])
def test_scan_and_sep_check_share_the_ppt_rule(capsys, radius):
    # Just past 1/2 the partial transpose has lambda_min = -1.2e-9, which
    # the slack 1e-9 * ||part|| = 1.5e-9 still passes; a scan re-check
    # that scaled the slack by 1 used to call that NPT and exit 1.
    code, out, _ = _run(capsys, "sep-check", "--element",
                        f"id_minus:swap:{radius}", "--algA", "2",
                        "--algB", "2", "--verify")
    assert code == 0
    assert json.loads(out)["status"] == "separable-certified"
    check = _checks(out)["ppt-margin-0-0"]
    code, out, _ = _run(capsys, "gamma-scan", "--algA", "2", "--algB", "2",
                        "--radii", radius, "--samples", "0", "--verify")
    assert code == 0
    assert json.loads(out)["rows"][0]["directedStatus"] == \
        "separable-certified"
    assert _checks(out)["row-0-directed-ppt"] == \
        dict(check, name="row-0-directed-ppt")
    assert check["passed"] and check["margin"] > 0


def test_sep_check_verifies_scalar_leg_product(tmp_path, capsys):
    # lambda_min = -5e-8 passes the verdict's slack 1e-9 * ||part|| = 1e-7;
    # the decomposition re-check used to apply the absolute 1e-9 and exit 1
    x = algebra.BipartiteElement(algebra.FdAlgebra((1,)), M2,
                                 (np.diag([100.0, -5e-8]),))
    path = tmp_path / "element.json"
    path.write_text(jsonio.dumps(jsonio.encode_element(x)))
    code, out, _ = _run(capsys, "sep-check", "--element", f"file:{path}",
                        "--verify")
    assert code == 0
    assert json.loads(out)["status"] == "separable-certified"
    for check in _checks(out).values():
        assert check["passed"] and check["margin"] >= 0


def test_sep_check_strict_undecided(capsys):
    code, out, _ = _run(capsys, "sep-check", "--element", "id_minus:swap:0.0",
                        "--algA", "3", "--algB", "3", "--strict")
    assert code == 2
    assert json.loads(out)["status"] == "undecided"


def test_gamma_scan_onset(capsys):
    code, out, _ = _run(capsys, "gamma-scan", "--algA", "2", "--algB", "2",
                        "--radii", "0.4,0.6", "--samples", "2")
    assert code == 0
    doc = json.loads(out)
    assert doc["onset"] == 0.6
    assert doc["rows"][0]["entangled"] == 0
    assert doc["rows"][1]["directedStatus"] == "entangled-certified"


def test_gamma_scan_csv(capsys):
    code, out, _ = _run(capsys, "gamma-scan", "--algA", "2", "--algB", "2",
                        "--radii", "0.4", "--samples", "1",
                        "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "radius,separable,entangled,undecided,directedStatus"
    assert lines[1].startswith("0.4,")


def test_eta_numeric(capsys):
    code, out, _ = _run(capsys, "eta", "--algA", "2,3", "--algB", "4",
                        "--samples", "2")
    assert code == 0
    doc = json.loads(out)
    assert doc["etaValue"] == 3
    assert doc["gammaValue"]["num"] == 1
    assert doc["gammaValue"]["den"] == 3
    assert doc["passed"] is True


def test_eta_symbolic_infinite(capsys):
    code, out, _ = _run(capsys, "eta", "--rankA", "inf", "--rankB", "5")
    assert code == 0
    doc = json.loads(out)
    assert doc["eta"] == 5.0
    assert doc["deskVerifiable"] is False


@pytest.mark.parametrize("rank", ["x", "2.5", "1e400", "-inf"])
def test_eta_symbolic_bad_rank_is_error(capsys, rank):
    code, out, err = _run(capsys, "eta", f"--rankA={rank}", "--rankB", "2")
    assert code == 1
    assert out == ""
    assert err.startswith("sepball: error: rank must be a positive integer")
    assert len(err.splitlines()) == 1


def test_kappa(capsys):
    code, out, _ = _run(capsys, "kappa", "--n", "2", "--m", "3", "--verify")
    assert code == 0
    doc = json.loads(out)
    assert abs(doc["value"] - 2.0) < 1e-6
    assert doc["passed"] is True


def test_kappa_refusal_names_its_inputs(capsys):
    # Id_n (x) phi's outputs have side n n, so --n 144 --m 1 is refused;
    # the message names --n and --m and that side, not a map of 144 * 144
    code, out, err = _run(capsys, "kappa", "--n", "144", "--m", "1")
    assert (code, out) == (1, "")
    assert err == ("sepball: error: --n 144 --m 1: a matrix of side "
                   "n * max(n, m) = 20736 exceeds the cap "
                   f"{maps.MAP_SIZE_CAP}\n")


def test_eta_refusal_names_its_ranks(capsys):
    code, out, err = _run(capsys, "eta", "--algA", "20", "--algB", "7")
    assert (code, out) == (1, "")
    assert err == ("sepball: error: ranks 20 and 7: a matrix of side "
                   "rank A * max(rank A, rank B) = 400 exceeds the cap "
                   f"{maps.MAP_SIZE_CAP}\n")


def test_sdp_solve_roundtrip(tmp_path, capsys):
    prob = sdp.SdpProblem(
        blocks=(2,),
        objective=(np.diag([2.0, 1.0]),),
        constraints=((1.0, (np.eye(2),)),),
    )
    path = tmp_path / "prob.json"
    path.write_text(jsonio.dumps(jsonio.encode_sdp_problem(prob)))
    code, out, _ = _run(capsys, "sdp-solve", "--problem", str(path), "--verify")
    assert code == 0
    doc = json.loads(out)
    assert doc["status"] == "optimal"
    assert abs(doc["primalObjective"] - 1.0) < 1e-7
    assert 1 <= doc["bestIteration"] <= doc["iterations"]


def test_sdp_solve_infeasible_is_success(tmp_path, capsys):
    prob = sdp.SdpProblem(
        blocks=(2,),
        objective=(np.eye(2),),
        constraints=((-1.0, (np.eye(2),)),),
    )
    path = tmp_path / "prob.json"
    path.write_text(jsonio.dumps(jsonio.encode_sdp_problem(prob)))
    code, out, _ = _run(capsys, "sdp-solve", "--problem", str(path))
    assert code == 0
    assert json.loads(out)["status"] == "infeasible"


def test_sdp_solve_reports_dropped_rows_in_the_message(tmp_path, capsys):
    # a dropped dependent row is part of the result, not a stray warning
    prob = sdp.SdpProblem(
        blocks=(2,),
        objective=(np.diag([2.0, 1.0]),),
        constraints=((1.0, (np.eye(2),)), (1.0, (np.eye(2),))),
    )
    path = tmp_path / "prob.json"
    path.write_text(jsonio.dumps(jsonio.encode_sdp_problem(prob)))
    code, out, err = _run(capsys, "sdp-solve", "--problem", str(path),
                          "--verify")
    assert (code, err) == (0, "")
    doc = json.loads(out)
    assert doc["status"] == "optimal" and doc["verify"]["passed"] is True
    assert doc["message"] == "dropped 1 linearly dependent constraint rows: [1]"


def _scaled_problem(case, v):
    """Tr X = 1 and X_00 = 0.5 on blocks (2,), with the off-diagonal pair
    v(1 +- i) in the objective ("ray", optimum 1.5 - sqrt(2) v) or in the
    Tr X row ("rank", optimum 1)."""
    pair = np.array([[0, v * (1 + 1j)], [v * (1 - 1j), 0]])
    diag = np.diag([2.0, 1.0])
    if case == "ray":
        objective, trace_row = diag + pair, np.eye(2)
        optimum = 1.5 - np.sqrt(2) * v
    else:
        objective, trace_row, optimum = diag, np.eye(2) + pair, 1.0
    prob = sdp.SdpProblem(
        blocks=(2,),
        objective=(objective,),
        constraints=((1.0, (trace_row,)), (0.5, (np.diag([1.0, 0.0]),))),
    )
    return prob, optimum


@pytest.mark.parametrize("v", [1e10, 1e20, 1e50])
@pytest.mark.parametrize("case", ["ray", "rank"])
def test_sdp_solve_large_entries_stay_feasible_bounded(tmp_path, capsys,
                                                     case, v):
    # a bounded, feasible problem is never reported unbounded or
    # infeasible, however large one pair of entries gets
    prob, optimum = _scaled_problem(case, v)
    path = tmp_path / "prob.json"
    path.write_text(jsonio.dumps(jsonio.encode_sdp_problem(prob)))
    code, out, _ = _run(capsys, "sdp-solve", "--problem", str(path),
                        "--verify")
    doc = json.loads(out)
    assert doc["status"] not in ("unbounded", "infeasible")
    assert code == (0 if doc["status"] == "optimal" else 1)
    if doc["status"] == "optimal":
        assert abs(doc["primalObjective"] - optimum) <= 1e-6 * abs(optimum)
        assert doc["verify"]["passed"] is True


def test_sdp_solve_without_constraints_is_error(tmp_path, capsys):
    doc = {"blocks": [2], "objective": [jsonio.encode_matrix(np.eye(2))],
           "constraints": []}
    path = tmp_path / "prob.json"
    path.write_text(jsonio.dumps(doc))
    code, out, err = _run(capsys, "sdp-solve", "--problem", str(path))
    assert code == 1
    assert out == ""
    assert err.startswith("sepball: error: ") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ("sep-check", "--element", "id_minus:swap:nan", "--algA", "2",
     "--algB", "2"),
    ("sep-check", "--element", "id_minus:swap:inf", "--algA", "2",
     "--algB", "2"),
    ("sep-check", "--element", "id_minus:gue:-inf", "--algA", "2",
     "--algB", "2"),
    ("sep-check", "--element", "extremal:nan", "--algA", "2", "--algB", "2"),
    ("gamma-scan", "--algA", "2", "--algB", "2", "--radii", "nan"),
    ("gamma-scan", "--algA", "2", "--algB", "2", "--radii", "0.3,inf"),
    ("gamma-scan", "--algA", "2", "--algB", "2", "--radii", ","),
    ("gamma-scan", "--algA", "2", "--algB", "2", "--radii", "0.3",
     "--samples", "-3"),
    ("eta", "--algA", "2", "--algB", "2", "--samples", "-1"),
])
def test_bad_numbers_are_one_line_errors(capsys, argv):
    code, out, err = _run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.startswith("sepball: error: ") and err.count("\n") == 1


def _bad_number_case(kind):
    """(argv with {} for the file, document, the list or object that gets
    the bad number, its key there, and the path the error must name)."""
    prob = jsonio.encode_sdp_problem(sdp.SdpProblem(
        blocks=(2,), objective=(np.diag([2.0, 1.0]),),
        constraints=((1.0, (np.eye(2),)),)))
    if kind == "map":
        doc = jsonio.encode_map(maps.transpose_map(2))
        return ("cbnorm", "--map", "file:{}"), doc, doc["choi"][1], 0, \
            "choi[1][0]"
    if kind == "element":
        doc = jsonio.encode_element(separability.extremal_direction(M2, M2))
        return ("sep-check", "--element", "file:{}"), doc, \
            doc["parts"][0]["m"][0][2], 1, "parts[0].m[0][2][1]"
    if kind == "problem":
        return ("sdp-solve", "--problem", "{}"), prob, \
            prob["objective"][0][1][1], 0, "objective[0][1][1][0]"
    return ("sdp-solve", "--problem", "{}"), prob, prob["constraints"][0], \
        "rhs", "constraints[0].rhs"


@pytest.mark.parametrize("value", [float("nan"), float("inf"), 10 ** 399],
                         ids=["NaN", "Infinity", "400-digit-int"])
@pytest.mark.parametrize("kind", ["map", "element", "problem", "problem-rhs"])
def test_non_finite_json_numbers_are_one_line_errors(tmp_path, capsys,
                                                     kind, value):
    argv, doc, holder, key, where = _bad_number_case(kind)
    holder[key] = value
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))  # writes NaN, Infinity and all digits
    code, out, err = _run(capsys, *(a.format(path) for a in argv))
    assert code == 1
    assert out == ""
    assert err.startswith("sepball: error: ") and err.count("\n") == 1
    assert where in err


_BASE_ARGV = {
    "cbnorm": ("cbnorm", "--map", "transpose:2"),
    "sep-check": ("sep-check", "--element", "extremal:0.05",
                  "--algA", "2", "--algB", "2"),
    "gamma-scan": ("gamma-scan", "--algA", "2", "--algB", "2",
                   "--radii", "0.4", "--samples", "1"),
    "eta": ("eta", "--rankA", "2", "--rankB", "3"),
    "kappa": ("kappa", "--n", "2", "--m", "2"),
    "sdp-solve": ("sdp-solve", "--problem", "unused.json"),
}


# The tolerances are constants: no command takes --tol-psd or --tol-gap.
@pytest.mark.parametrize("command,flag", [
    ("cbnorm", "--tol-psd"), ("cbnorm", "--tol-gap"), ("cbnorm", "--threads"),
    ("sep-check", "--tol-psd"), ("sep-check", "--tol-gap"),
    ("sep-check", "--threads"), ("sep-check", "--dims"),
    ("gamma-scan", "--tol-psd"), ("gamma-scan", "--tol-gap"),
    ("eta", "--tol-gap"), ("eta", "--threads"), ("eta", "--strict"),
    ("eta", "--tol-psd"),
    ("kappa", "--seed"), ("kappa", "--tol-psd"), ("kappa", "--threads"),
    ("kappa", "--strict"), ("kappa", "--tol-gap"),
    ("sdp-solve", "--seed"), ("sdp-solve", "--tol-psd"),
    ("sdp-solve", "--tol-gap"), ("sdp-solve", "--threads"),
    ("sdp-solve", "--strict"),
])
def test_flags_a_command_does_not_read_are_refused(capsys, command, flag):
    value = () if flag == "--strict" else ("1",)
    code, out, err = _run(capsys, *_BASE_ARGV[command], flag, *value)
    assert code == 1
    assert out == ""
    last = err.splitlines()[-1]
    assert last.startswith(f"sepball: error: unrecognized arguments: {flag}")
    assert err.count("error:") == 1


@pytest.mark.parametrize("value", ["-4", "two"])
def test_bad_thread_count_is_usage_error(capsys, value):
    code, out, err = _run(capsys, *_BASE_ARGV["gamma-scan"],
                          "--threads", value)
    assert code == 1
    assert out == ""
    last = err.splitlines()[-1]
    assert "argument --threads: expected a nonnegative integer" in last
    assert err.count("error:") == 1


def test_failed_verify_exits_one_before_strict(capsys, monkeypatch):
    failing = (theorems.NamedCheck("forced-failure", False, -1.0),)
    monkeypatch.setattr(verify, "cbnorm_result", lambda res: failing)
    code, out, _ = _run(capsys, "cbnorm", "--map", "transpose:2",
                        "--level", "1", "--strict", "--verify")
    assert code == 1
    assert json.loads(out)["verify"] == {
        "passed": False,
        "checks": [{"name": "forced-failure", "passed": False,
                    "margin": -1.0}],
    }


def test_missing_file_is_error(capsys):
    code, out, err = _run(capsys, "sdp-solve", "--problem", "/nonexistent.json")
    assert code == 1


@pytest.mark.parametrize("argv", [
    ("cbnorm", "--map", "bogus:3"),
    ("sep-check", "--element", "gue:0.3", "--algA", "2", "--algB", "2"),
], ids=["cbnorm-bogus", "sep-check-gue"])
def test_bad_constructor_is_error(capsys, argv):
    code, out, err = _run(capsys, *argv)
    assert (code, out) == (1, "")
    assert err.startswith("sepball: error: ") and err.count("\n") == 1


@pytest.mark.parametrize("spec", ["transpose:100000", "identity:13",
                                  "reduction:13", "file:{}"])
def test_maps_over_the_size_cap_are_one_line_errors(tmp_path, capsys, spec):
    # the file's Choi matrix is never read: the cap is checked first
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"dimIn": 13, "dimOut": 12, "choi": []}))
    code, out, err = _run(capsys, "cbnorm", "--map", spec.format(path))
    assert (code, out) == (1, "")
    assert err.startswith("sepball: error: map size ")
    assert err.endswith(f"exceeds the cap {maps.MAP_SIZE_CAP}\n")
    assert err.count("\n") == 1


@pytest.mark.parametrize("flags", [("--algA", "3", "--algB", "3"),
                                   ("--algA", "1")])
def test_algebras_beside_a_file_element_are_refused(tmp_path, capsys, flags):
    # the document names its own algebras, so the flags would be ignored
    path = tmp_path / "diag.json"
    path.write_text(jsonio.dumps(jsonio.encode_element(
        algebra.BipartiteElement(algebra.FdAlgebra((1,)),
                                 algebra.FdAlgebra((2,)),
                                 (np.diag([1.0, 2.0]),)))))
    code, out, err = _run(capsys, "sep-check", "--element", f"file:{path}",
                          *flags)
    assert (code, out) == (1, "")
    assert err == ("sepball: error: --algA/--algB: a file: element carries "
                   "its own algebras\n")
    code, _, _ = _run(capsys, "sep-check", "--element", f"file:{path}")
    assert code == 0


def test_usage_error_is_exit_one(capsys):
    code, out, err = _run(capsys, "cbnorm")
    assert code == 1
    code, out, err = _run(capsys, "no-such-command")
    assert code == 1


def test_map_from_file(tmp_path, capsys):
    path = tmp_path / "map.json"
    path.write_text(jsonio.dumps(jsonio.encode_map(maps.transpose_map(2))))
    code, out, _ = _run(capsys, "cbnorm", "--map", f"file:{path}")
    assert code == 0
    assert abs(json.loads(out)["upper"] - 2.0) < 1e-3


def test_output_file_and_byte_identical(tmp_path, capsys):
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    for out in (out1, out2):
        code = cli.dispatch(["sep-check", "--element", "id_minus:gue:0.3",
                             "--algA", "2", "--algB", "2", "--seed", "7",
                             "--out", str(out)])
        capsys.readouterr()
        assert code == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_threads_do_not_change_output(capsys):
    argv = ["gamma-scan", "--algA", "2", "--algB", "2",
            "--radii", "0.5", "--samples", "3"]
    code, a, _ = _run(capsys, *argv, "--threads", "1")
    assert code == 0
    code, b, _ = _run(capsys, *argv, "--threads", "3")
    assert code == 0
    assert a == b


def _overflow_case(kind, value, tmp_path):
    if kind == "sdp-solve-objective":
        doc = jsonio.encode_sdp_problem(sdp.SdpProblem(
            blocks=(2,), objective=(np.diag([2.0, 1.0]),),
            constraints=((1.0, (np.eye(2),)),)))
        doc["objective"][0][0][1] = [value, value]
        doc["objective"][0][1][0] = [value, -value]
        argv = ("sdp-solve", "--problem", "{}")
    else:
        doc = jsonio.encode_map(maps.transpose_map(2))
        doc["choi"][1][0] = [value, 0.0]
        argv = ("cbnorm", "--map", "file:{}")
    path = tmp_path / "doc.json"
    path.write_text(jsonio.dumps(doc))
    return [a.format(path) for a in argv]


@pytest.mark.filterwarnings("error")  # stderr must hold the one line only
@pytest.mark.parametrize("value", [1e160, 1e308])
@pytest.mark.parametrize("kind", ["sdp-solve-objective", "cbnorm-file-map"])
def test_overflowing_finite_data_are_one_line_errors(tmp_path, capsys,
                                                     kind, value):
    # finite inputs whose squares or Hermitian parts overflow used to end
    # in scipy's "array must not contain infs or NaNs" traceback; the huge
    # map's cb norm (= value up to O(1)) is answered in closed form where
    # its report and re-checks fit in double precision
    argv = _overflow_case(kind, value, tmp_path)
    for extra in ([], ["--verify"]) if kind == "cbnorm-file-map" else ([],):
        code, out, err = _run(capsys, *argv, *extra)
        if kind == "cbnorm-file-map" and (value == 1e160 or code == 0):
            assert code == 0 and err == ""
            doc = json.loads(out)
            assert abs(doc["lower"] / value - 1.0) <= 1e-12
            assert abs(doc["upper"] / value - 1.0) <= 1e-12
            assert not extra or doc["verify"]["passed"] is True
        else:
            assert code == 1
            assert out == ""
            assert err.startswith("sepball: error: ")
            assert err.count("\n") == 1


@pytest.mark.filterwarnings("error")  # stderr must hold the one line only
@pytest.mark.parametrize("extra", [[], ["--verify"]], ids=["plain", "verify"])
@pytest.mark.parametrize("cells", [[(1, 1)], [(0, 0), (3, 3)]],
                         ids=["one-diagonal", "two-diagonals"])
def test_overflowing_element_names_the_part(tmp_path, capsys, cells, extra):
    # a diagonal of 1.7e308 is finite, but its Hermitian part overflows;
    # that used to reach the eigensolver or the JSON encoder as inf
    doc = jsonio.encode_element(separability.extremal_direction(M2, M2))
    for a, b in cells:
        doc["parts"][0]["m"][a][b] = [1.7e308, 0.0]
    path = tmp_path / "element.json"
    path.write_text(jsonio.dumps(doc))
    code, out, err = _run(capsys, "sep-check", "--element", f"file:{path}",
                          *extra)
    assert (code, out) == (1, "")
    assert err == ("sepball: error: part (0,0): its Hermitian part "
                   "overflows the float range\n")


def _fresh_interpreter(*args):
    """(exit code, stdout, stderr) of a new Python process on this
    checkout's sepball."""
    src = Path(cli.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, *args],
                          capture_output=True, text=True, env=env,
                          timeout=300)
    return proc.returncode, proc.stdout, proc.stderr


def test_reused_parser_leaks_no_state(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")  # one usage layout in both processes
    scan = ["gamma-scan", "--algA", "2", "--algB", "1,2", "--radii",
            "0.3,0.45", "--samples", "2", "--threads", "1", "--seed", "7"]
    sequence = [scan + ["--verify"],
                ["sep-check", "--element", "extremal:0.05",
                 "--algA", "2", "--algB", "2"],
                scan + ["--bogus"],
                scan,
                scan + ["--verify"]]
    results = [_run(capsys, *argv) for argv in sequence]
    code, out, err = results[2]
    assert code == 1 and out == ""
    assert [line.split(" ", 1)[0] for line in err.splitlines()] == \
        ["usage:", "sepball:"]
    fresh = {}
    for argv, result in zip(sequence, results):
        key = tuple(argv)
        if key not in fresh:
            fresh[key] = _fresh_interpreter("-m", "sepball.cli", *argv)
        assert result == fresh[key], argv
    assert results[0][1] != results[3][1]  # --verify adds its checks


# Runs in a fresh interpreter, since this one has imported scipy already.
# argv[1] is a JSON list of argvs; prints, per argv, its exit code and
# whether scipy was loaded after it, once every submodule is imported.
_SCIPY_PROBE = """
import contextlib, importlib, io, json, pkgutil, sys
import sepball
from sepball import cli
loaded = {}
for info in pkgutil.iter_modules(sepball.__path__):
    importlib.import_module("sepball." + info.name)
    loaded[info.name] = "scipy" in sys.modules
runs = []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.dispatch(argv)
    runs.append((code, "scipy" in sys.modules))
print(json.dumps({"modules": loaded, "runs": runs}))
"""


def _scipy_probe(argvs):
    code, out, err = _fresh_interpreter("-c", _SCIPY_PROBE, json.dumps(argvs))
    assert code == 0, err
    return json.loads(out)


def test_commands_other_than_sdp_solve_never_load_scipy(tmp_path):
    # cbnorm solves its program on numpy alone: the closed form leaves
    # reduction:3 and a general 3 -> 4 map open, so the SDP answers them
    rng = sampling.rng_from(0x5C1, 3, 4)
    general = maps.LinearMapRep(3, 4, sampling.complex_gaussian(rng, (12, 12)))
    for f in (maps.reduction_map(3), general):
        closed = cbnorm.closed_form(f)
        assert closed.upper - closed.lower > 1e-3 * closed.upper
    path = tmp_path / "map34.json"
    path.write_text(jsonio.dumps(jsonio.encode_map(general)))
    argvs = [
        ["gamma-scan", "--algA", "2,3", "--algB", "3", "--radii",
         "0.3,0.34,0.4", "--samples", "4", "--verify"],
        ["sep-check", "--element", "id_minus:gue:0.45", "--algA", "2",
         "--algB", "2", "--seed", "3", "--verify"],
        ["eta", "--algA", "2,3", "--algB", "4", "--samples", "2",
         "--verify"],
        ["kappa", "--n", "3", "--m", "3", "--verify"],
        ["cbnorm", "--map", "transpose:3", "--verify"],
        ["cbnorm", "--map", "reduction:3", "--verify"],
        ["cbnorm", "--map", f"file:{path}", "--verify"],
    ]
    probe = _scipy_probe(argvs)
    assert len(probe["modules"]) == 12
    assert not any(probe["modules"].values()), probe["modules"]
    assert probe["runs"] == [[0, False]] * len(argvs)


def test_a_solve_imports_scipy_where_it_is_used(tmp_path):
    # one row, so no dependent-row check: the dense Cholesky loads scipy
    prob = sdp.SdpProblem(blocks=(2,), objective=(np.diag([2.0, 1.0]),),
                          constraints=((1.0, (np.eye(2),)),))
    path = tmp_path / "prob.json"
    path.write_text(jsonio.dumps(jsonio.encode_sdp_problem(prob)))
    probe = _scipy_probe([["sdp-solve", "--problem", str(path), "--verify"]])
    assert probe["runs"] == [[0, True]]


@pytest.mark.parametrize("exc", [MemoryError(),
                                 MemoryError("Unable to allocate 8.00 EiB")])
def test_memory_error_ends_in_one_error_line(capsys, monkeypatch, exc):
    def exhausted(args):
        raise exc

    monkeypatch.setitem(cli._HANDLERS, "kappa", exhausted)
    code, out, err = _run(capsys, "kappa", "--n", "2", "--m", "2")
    assert (code, out) == (1, "")
    detail = f": {exc}" if str(exc) else ""
    assert err == f"sepball: error: kappa ran out of memory{detail}\n"
