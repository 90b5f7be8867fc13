#!/usr/bin/env python3
"""Run the CLI acceptance battery twice and compare the outputs byte for byte.

Exit status is 0 only if every command succeeds and both runs agree.
Pass --pytest to run the full test suite first.
"""

import argparse
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from sepball import cbnorm, cli, jsonio, maps, sdp

BATTERY = [
    ["cbnorm", "--map", "transpose:2"],
    ["cbnorm", "--map", "transpose:3"],
    ["cbnorm", "--map", "transpose:4"],
    ["cbnorm", "--map", "identity:3", "--verify"],
    ["cbnorm", "--map", "reduction:2"],
    ["cbnorm", "--map", "reduction:3", "--verify"],
    ["cbnorm", "--map", "reduction:4", "--verify"],
    ["cbnorm", "--map", "reduction:5", "--verify"],
    ["cbnorm", "--map", "transpose:3", "--verify"],
    ["cbnorm", "--map", "transpose:6", "--verify"],
    ["sep-check", "--element", "id_minus:swap:0.5", "--dims", "2x2", "--verify"],
    ["sep-check", "--element", "extremal:0.05", "--dims", "2x2", "--verify"],
    ["sep-check", "--element", "gue:0.3", "--dims", "2x3", "--seed", "7"],
    ["sep-check", "--element", "id_minus:gue:0.45", "--dims", "2x2",
     "--seed", "3", "--verify"],
    ["gamma-scan", "--algA", "2,3", "--algB", "3",
     "--radii", "0.3,0.34,0.4", "--samples", "4", "--verify"],
    ["gamma-scan", "--algA", "2", "--algB", "2",
     "--radii", "0.5,0.55", "--samples", "8", "--threads", "2"],
    ["gamma-scan", "--algA", "1,2", "--algB", "2,3",
     "--radii", "0.3,0.5,0.55", "--samples", "6", "--verify"],
    ["eta", "--algA", "2,3", "--algB", "4", "--samples", "2"],
    ["eta", "--algA", "1,1", "--algB", "3", "--samples", "2"],
    ["eta", "--rankA", "inf", "--rankB", "5"],
    ["eta", "--algA", "8", "--algB", "8", "--samples", "2", "--verify"],
    ["kappa", "--n", "2", "--m", "2", "--verify"],
    ["kappa", "--n", "2", "--m", "5", "--verify"],
    ["kappa", "--n", "3", "--m", "3", "--verify"],
    ["kappa", "--n", "12", "--m", "12", "--verify"],
]


def _write_problem(path: Path) -> None:
    prob = sdp.SdpProblem(
        blocks=(3,),
        objective=(np.diag([3.0, 1.0, 2.0]),),
        constraints=((1.0, (np.eye(3),)),),
    )
    path.write_text(jsonio.dumps(jsonio.encode_sdp_problem(prob)))


def _write_cb_problem(path: Path) -> None:
    """The majorizing-pair program of a fixed general map M_2 -> M_3
    (p = 89): 72 cell slots and 17 dense rows, and each row owns an
    entry."""
    rng = np.random.default_rng(0x23)
    choi = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    prob = cbnorm._upper_problem(maps.LinearMapRep(2, 3, choi))
    path.write_text(jsonio.dumps(jsonio.encode_sdp_problem(prob)))


def _write_mixed_problem(path: Path) -> None:
    """Entrywise rows (complex off-diagonal pairs, a diagonal unit) beside
    dense ones (E_00 + E_11 and a random Hermitian row across both
    blocks), so both ways of forming the Schur complement run."""
    rng = np.random.default_rng(0x5C4)
    blocks = (3, 2)

    def unit(d, a, b, v):
        m = np.zeros((d, d), dtype=np.complex128)
        m[a, b] = v
        m[b, a] = np.conj(v)
        return m

    def herm(d):
        g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        return g + g.conj().T

    def posdef(d):
        h = herm(d)
        return h @ h + np.eye(d)

    z3, z2 = np.zeros((3, 3)), np.zeros((2, 2))
    rows = [
        (unit(3, 0, 1, 0.3 + 0.7j), z2),
        (unit(3, 1, 2, -1j), z2),
        (unit(3, 2, 2, 1.0), z2),
        (np.diag([1.0, 1.0, 0.0]), z2),
        (z3, unit(2, 0, 1, 0.6 - 0.8j)),
        (z3, np.eye(2)),
        (herm(3), herm(2)),
    ]
    # right-hand sides from a strictly feasible point; C > 0 bounds it
    x0 = [posdef(d) for d in blocks]
    cons = tuple(
        (float(sum(np.real(np.trace(a @ x)) for a, x in zip(mats, x0))), mats)
        for mats in rows
    )
    prob = sdp.SdpProblem(blocks=blocks,
                          objective=tuple(posdef(d) for d in blocks),
                          constraints=cons)
    path.write_text(jsonio.dumps(jsonio.encode_sdp_problem(prob)))


def _write_map(path: Path) -> None:
    """A fixed general (not Hermitian-preserving) map M_3 -> M_4."""
    rng = np.random.default_rng(0x34)
    choi = rng.standard_normal((12, 12)) + 1j * rng.standard_normal((12, 12))
    f = maps.LinearMapRep(3, 4, choi)
    path.write_text(jsonio.dumps(jsonio.encode_map(f)))


def run_battery(outdir: Path, inputs: Path) -> list[bytes]:
    outputs = []
    file_argv = [
        ["sdp-solve", "--problem", str(inputs / "problem.json"), "--verify"],
        ["sdp-solve", "--problem", str(inputs / "mixed.json"), "--verify"],
        ["cbnorm", "--map", f"file:{inputs / 'map34.json'}", "--verify"],
        ["sdp-solve", "--problem", str(inputs / "cb23.json"), "--verify"],
    ]
    for i, argv in enumerate(BATTERY + file_argv):
        out = outdir / f"run{i:02d}.json"
        t0 = time.monotonic()
        code = cli.dispatch(argv + ["--out", str(out)])
        dt = time.monotonic() - t0
        label = " ".join(argv)
        if code != 0:
            print(f"FAIL ({code}) {label}")
            sys.exit(1)
        print(f"ok   [{dt:6.2f}s] {label}")
        outputs.append(out.read_bytes())
    return outputs


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--pytest", action="store_true",
                    help="run the full pytest suite before the battery")
    ap.add_argument("--keep", default=None,
                    help="directory to keep the first run's reports in")
    args = ap.parse_args()

    if args.pytest:
        rc = subprocess.call([sys.executable, "-m", "pytest", "-q"])
        if rc != 0:
            sys.exit(rc)

    t0 = time.monotonic()
    with tempfile.TemporaryDirectory() as tmp:
        base = Path(tmp)
        _write_problem(base / "problem.json")
        _write_cb_problem(base / "cb23.json")
        _write_mixed_problem(base / "mixed.json")
        _write_map(base / "map34.json")
        dir_a = base / "a"
        dir_b = base / "b"
        dir_a.mkdir()
        dir_b.mkdir()
        print("-- first run --")
        first = run_battery(dir_a, base)
        print("-- second run --")
        second = run_battery(dir_b, base)
        if args.keep:
            keep = Path(args.keep)
            keep.mkdir(parents=True, exist_ok=True)
            for f in sorted(dir_a.iterdir()):
                (keep / f.name).write_bytes(f.read_bytes())

    mismatches = [i for i, (a, b) in enumerate(zip(first, second)) if a != b]
    dt = time.monotonic() - t0
    if mismatches:
        print(f"NOT reproducible: outputs {mismatches} differ ({dt:.1f}s)")
        sys.exit(1)
    print(f"reproducible: {len(first)} commands byte-identical "
          f"across two runs in {dt:.1f}s")


if __name__ == "__main__":
    main()
