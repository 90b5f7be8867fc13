#!/usr/bin/env python3
"""Time every command of the acceptance battery in a fresh interpreter.

Usage: PYTHONPATH=src python scripts/bench.py N

Each command of ``run_acceptance.battery`` runs three times, each time
as its own child process ``python -m sepball.cli ...`` that imports
sepball from this checkout's ``src``, so its wall time includes the
interpreter's start and sepball's imports.  The three rounds go through
the whole battery in turn, so that a slow spell of the host spreads over
all commands.  Per command the script records the exit code, the median
wall time and the median peak resident set size, which ``os.wait4``
reports for the child (in kilobytes on Linux).  With them it records
the machine: cores, RAM, Python, numpy and scipy versions, the BLAS
library and its thread count.  It writes ``BENCH_N.json`` at the
repository root and exits 1 if any command failed.  The whole run takes
under a minute on two cores.

A child's peak RSS counts its parent's RSS at the fork, so this process
imports neither numpy nor sepball: a setup child of its own writes the
battery's input files and reports the commands and the library versions.
"""

import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
ROUNDS = 3

# Runs in a child with src/ and scripts/ on the path; argv[1] is the
# directory for the input files.
_SETUP = """
import json, os, sys
from pathlib import Path
import numpy as np
import scipy
import run_acceptance
base = Path(sys.argv[1])
run_acceptance.write_inputs(base)
blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
threads = os.environ.get("OPENBLAS_NUM_THREADS")
print(json.dumps({"argvs": run_acceptance.battery(base), "machine": {
    "cores": os.cpu_count(),
    "ramGb": round(os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
                   / 2 ** 30, 1),
    "numpy": np.__version__,
    "scipy": scipy.__version__,
    "blas": f"{blas['name']} {blas.get('version', '')}".strip(),
    # OpenBLAS runs one thread per core unless this variable is set
    "blasThreads": int(threads) if threads else os.cpu_count(),
    "blasThreadsFrom": ("OPENBLAS_NUM_THREADS" if threads
                        else "default, one per core"),
}}))
"""


def _run_once(argv: list[str], out: Path,
              env: dict) -> tuple[int, float, float]:
    """(exit code, wall seconds, peak RSS in MB) of one child process."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-m", "sepball.cli", *argv,
                             "--out", str(out)],
                            stdout=subprocess.DEVNULL, env=env)
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - t0
    # reaped here, so Popen must not wait for it again
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


def main() -> None:
    if len(sys.argv) != 2 or not sys.argv[1].isdigit():
        sys.exit(f"usage: {sys.argv[0]} N  (writes BENCH_N.json)")
    number = int(sys.argv[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), str(ROOT / "scripts"),
                      os.environ.get("PYTHONPATH")])))
    t0 = time.monotonic()
    with tempfile.TemporaryDirectory() as tmp:
        base = Path(tmp)
        setup = json.loads(subprocess.run(
            [sys.executable, "-c", _SETUP, str(base)], env=env, check=True,
            capture_output=True, text=True).stdout)
        argvs = setup["argvs"]
        runs = [[] for _ in argvs]
        for _ in range(ROUNDS):
            for i, argv in enumerate(argvs):
                runs[i].append(_run_once(argv, base / f"run{i:02d}.json", env))
    commands = []
    for argv, results in zip(argvs, runs):
        codes, walls, rss = zip(*results)
        commands.append({
            "command": " ".join(argv).replace(str(base), "INPUTS"),
            "exit": next((c for c in codes if c != 0), 0),
            "wallS": round(statistics.median(walls), 4),
            "wallSRuns": [round(w, 4) for w in walls],
            "peakRssMb": round(statistics.median(rss), 1),
        })
        c = commands[-1]
        print(f"{c['exit']:2d} {c['wallS']:7.3f}s {c['peakRssMb']:6.1f} MB  "
              f"{c['command']}")
    doc = {
        "number": number,
        "machine": dict(setup["machine"], platform=platform.platform(),
                        python=platform.python_version()),
        "rounds": ROUNDS,
        "totalS": round(time.monotonic() - t0, 1),
        "commands": commands,
    }
    path = ROOT / f"BENCH_{number}.json"
    path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path.name} in {doc['totalS']} s")
    if any(c["exit"] != 0 for c in commands):
        sys.exit(1)


if __name__ == "__main__":
    main()
