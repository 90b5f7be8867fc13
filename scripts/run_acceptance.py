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

from sepball import cli, jsonio, maps, sdp

BATTERY = [
    ["cbnorm", "--map", "transpose:2"],
    ["cbnorm", "--map", "transpose:3"],
    ["cbnorm", "--map", "transpose:4"],
    ["cbnorm", "--map", "identity:3", "--verify"],
    ["cbnorm", "--map", "reduction:2"],
    ["cbnorm", "--map", "reduction:3", "--verify"],
    ["cbnorm", "--map", "transpose:3", "--verify"],
    ["sep-check", "--element", "id_minus:swap:0.5", "--dims", "2x2", "--verify"],
    ["sep-check", "--element", "extremal:0.05", "--dims", "2x2", "--verify"],
    ["sep-check", "--element", "gue:0.3", "--dims", "2x3", "--seed", "7"],
    ["sep-check", "--element", "id_minus:gue:0.45", "--dims", "2x2",
     "--seed", "3", "--verify"],
    ["gamma-scan", "--algA", "2,3", "--algB", "3",
     "--radii", "0.3,0.34,0.4", "--samples", "4", "--verify"],
    ["gamma-scan", "--algA", "2", "--algB", "2",
     "--radii", "0.5,0.55", "--samples", "8", "--threads", "2"],
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
        ["cbnorm", "--map", f"file:{inputs / 'map34.json'}", "--verify"],
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
