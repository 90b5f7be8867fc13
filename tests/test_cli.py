import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import oracles
from sepball import (
    cli, jsonio, maps, sampling, sdp, separability, theorems, verify,
)


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
                        "--dims", "2x2")
    assert code == 0
    doc = json.loads(out)
    assert doc["status"] == "separable-certified"


def test_sep_check_extremal_entangled(capsys):
    code, out, _ = _run(capsys, "sep-check", "--element", "extremal:0.05",
                        "--dims", "2x2", "--verify")
    assert code == 0
    doc = json.loads(out)
    assert doc["status"] == "entangled-certified"
    assert doc["margin"] < 0
    assert doc["witness"]["violation"] < 0


def test_sep_check_strict_undecided(capsys):
    code, out, _ = _run(capsys, "sep-check", "--element", "id_minus:swap:0.0",
                        "--dims", "3x3", "--strict")
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
    ("sep-check", "--element", "id_minus:swap:nan", "--dims", "2x2"),
    ("sep-check", "--element", "id_minus:swap:inf", "--dims", "2x2"),
    ("sep-check", "--element", "gue:-inf", "--dims", "2x2"),
    ("sep-check", "--element", "extremal:nan", "--dims", "2x2"),
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
        doc = jsonio.encode_element(separability.extremal_entangled(2))
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


_TOLERANCE_ARGV = {
    # a NaN slack used to certify this entangled element as separable
    "--tol-psd": ("sep-check", "--element", "extremal:0.05", "--dims", "2x2"),
    "--tol-gap": ("cbnorm", "--map", "transpose:2"),
}


@pytest.mark.parametrize("flag,value", [("--tol-psd", "nan"),
                                        ("--tol-psd", "-1"),
                                        ("--tol-gap", "inf")])
def test_bad_tolerance_is_usage_error(capsys, flag, value):
    code, out, err = _run(capsys, *_TOLERANCE_ARGV[flag], flag, value)
    assert code == 1
    assert out == ""
    assert f"argument {flag}" in err.splitlines()[-1]


_BASE_ARGV = {
    "cbnorm": ("cbnorm", "--map", "transpose:2"),
    "sep-check": ("sep-check", "--element", "extremal:0.05", "--dims", "2x2"),
    "gamma-scan": ("gamma-scan", "--algA", "2", "--algB", "2",
                   "--radii", "0.4", "--samples", "1"),
    "eta": ("eta", "--rankA", "2", "--rankB", "3"),
    "kappa": ("kappa", "--n", "2", "--m", "2"),
    "sdp-solve": ("sdp-solve", "--problem", "unused.json"),
}


@pytest.mark.parametrize("command,flag", [
    ("cbnorm", "--tol-psd"), ("cbnorm", "--threads"),
    ("sep-check", "--tol-gap"), ("sep-check", "--threads"),
    ("gamma-scan", "--tol-gap"),
    ("eta", "--tol-gap"), ("eta", "--threads"), ("eta", "--strict"),
    ("eta", "--tol-psd"),
    ("kappa", "--seed"), ("kappa", "--tol-psd"), ("kappa", "--threads"),
    ("kappa", "--strict"), ("kappa", "--tol-gap"),
    ("sdp-solve", "--seed"), ("sdp-solve", "--tol-psd"),
    ("sdp-solve", "--threads"), ("sdp-solve", "--strict"),
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


def test_bad_constructor_is_error(capsys):
    code, out, err = _run(capsys, "cbnorm", "--map", "bogus:3")
    assert code == 1


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
        code = cli.dispatch(["sep-check", "--element", "gue:0.3",
                             "--dims", "2x2", "--seed", "7",
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
    doc = jsonio.encode_element(separability.extremal_entangled(2))
    for a, b in cells:
        doc["parts"][0]["m"][a][b] = [1.7e308, 0.0]
    path = tmp_path / "element.json"
    path.write_text(jsonio.dumps(doc))
    code, out, err = _run(capsys, "sep-check", "--element", f"file:{path}",
                          *extra)
    assert (code, out) == (1, "")
    assert err == ("sepball: error: part (0,0): its Hermitian part "
                   "overflows the float range\n")


def _fresh_interpreter(argv):
    src = Path(cli.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, "-m", "sepball.cli", *argv],
                          capture_output=True, text=True, env=env,
                          timeout=300)
    return proc.returncode, proc.stdout, proc.stderr


def test_reused_parser_leaks_no_state(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")  # one usage layout in both processes
    scan = ["gamma-scan", "--algA", "2", "--algB", "1,2", "--radii",
            "0.3,0.45", "--samples", "2", "--threads", "1", "--seed", "7"]
    sequence = [scan + ["--verify"],
                ["sep-check", "--element", "extremal:0.05", "--dims", "2x2"],
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
            fresh[key] = _fresh_interpreter(argv)
        assert result == fresh[key], argv
    assert results[0][1] != results[3][1]  # --verify adds its checks
