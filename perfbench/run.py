#!/usr/bin/env python3
"""sepball benchmark: closed-loop CLI workloads, end to end or traced.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout; it imports sepball from the checkout's
`src/`. It prints one line per metric (name, value, unit) and, as the last
line, one JSON object with `correct`, `attempted`, `failed` and `metrics`.
With `--trace 0` the metrics are the end-to-end ones of BENCHMARK.json, with
`--trace 1` the per-layer ones. The exit code is 1 when an op fails its
check and 2 when the program cannot be run at all. A record of the run
(machine, host-speed probes, tail percentile, failures) is written under
`perfbench/out/`. See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_SAMPLES = 5  # fresh processes whose set-up time is sampled; median kept
CHILD_TIMEOUT = 150
TAIL_BEYOND = 10  # the tail is the highest percentile with 10 samples above


class BenchError(Exception):
    """The program could not be run; no result is printed."""


def spawn(args, workdir: Path, setup_only: bool) -> tuple[float, dict]:
    """Run one worker process; returns (set-up seconds, its result)."""
    result_path = workdir / ("setup.json" if setup_only else "result.json")
    result_path.unlink(missing_ok=True)
    cmd = [sys.executable, str(HERE / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", str(workdir), "--result", str(result_path)]
    if setup_only:
        cmd.append("--setup-only")
    t0 = time.monotonic()
    try:
        proc = subprocess.run(cmd, stdout=sys.stderr, timeout=CHILD_TIMEOUT)
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker exceeded {CHILD_TIMEOUT} s")
    if proc.returncode != 0 or not result_path.exists():
        raise BenchError(f"worker exited with code {proc.returncode}")
    result = json.loads(result_path.read_text())
    return result["ready_at"] - t0, result


def host_probe() -> dict:
    """Time a fixed pure-Python loop and a small eigh (median of 3)."""
    import numpy as np
    rng = np.random.default_rng(0)
    a = rng.standard_normal((64, 64)) + 1j * rng.standard_normal((64, 64))
    a = a + a.conj().T
    loop, eigh = [], []
    for _ in range(3):
        t0 = time.perf_counter()
        s = 0
        for i in range(200_000):
            s += i * i
        t1 = time.perf_counter()
        for _ in range(20):
            np.linalg.eigh(a)
        t2 = time.perf_counter()
        loop.append(t1 - t0)
        eigh.append(t2 - t1)
    return {"python_loop_ms": 1e3 * statistics.median(loop),
            "eigh_ms": 1e3 * statistics.median(eigh)}


def tail(latencies: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with TAIL_BEYOND
    samples above it; the median when that percentile would be below it."""
    lat = sorted(latencies)
    n = len(lat)
    p50 = statistics.median(lat)
    if 2 * (n - TAIL_BEYOND) <= n:
        return p50, 50.0
    return max(lat[n - 1 - TAIL_BEYOND], p50), 100.0 * (n - TAIL_BEYOND) / n


def end_to_end(res: dict, setups: list[float]) -> tuple[dict, dict]:
    lat = res["latencies"]
    t, pct = tail(lat)
    values = {
        "ops_per_s": len(lat) / res["wall"],
        "op_p50_s": statistics.median(lat),
        "op_tail_s": t,
        "peak_rss_mb": res["maxrss_kb"] / 1024.0,
        "success_rate": (res["attempted"] - res["failed"]) / res["attempted"],
        "result_error": res["result_error"],
        "setup_s": statistics.median(setups),
    }
    notes = {"op_tail_s": f"p{pct:.1f} of {len(lat)} samples",
             "setup_s": f"median of {len(setups)} processes"}
    return values, notes


def declared(trace: int) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def run(args) -> int:
    if not (ROOT / "src" / "sepball" / "cli.py").is_file():
        raise BenchError(f"no sepball sources under {ROOT / 'src'}")
    units = declared(args.trace)
    workdir = OUT / args.workload
    workdir.mkdir(parents=True, exist_ok=True)

    probe_before = host_probe()
    setups = [spawn(args, workdir, True)[0]
              for _ in range(0 if args.trace else SETUP_SAMPLES - 1)]
    setup, res = spawn(args, workdir, False)
    setups.append(setup)
    probe_after = host_probe()

    problems = list(res.get("problems", []))
    if res["result_error"] is None:
        problems.append("accuracy prefix incomplete: some of its ops failed")
        res["result_error"] = 1.0  # no certified answer: the worst error
    if args.trace:
        values, notes = res["per_layer"], {}
    else:
        values, notes = end_to_end(res, setups)
    if set(values) != set(units):
        raise BenchError(f"metrics {sorted(values)} do not match "
                         "BENCHMARK.json")
    correct = res["failed"] == 0 and not problems

    record = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "metrics": {k: {"value": v, "unit": units[k],
                        **({"note": notes[k]} if k in notes else {})}
                    for k, v in values.items()},
        "correct": correct, "attempted": res["attempted"],
        "failed": res["failed"], "failures": res["failures"],
        "problems": problems, "setup_samples_s": setups,
        "host_probe": {"before": probe_before, "after": probe_after},
        "machine": machine(res["machine"]),
    }
    path = workdir / f"seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}: "
          f"{res['attempted']} ops, {res['failed']} failed")
    for k in units:
        note = f"  ({notes[k]})" if k in notes else ""
        print(f"  {k:<48} {values[k]:.6g} {units[k]}{note}")
    for line in res["failures"] + problems:
        print(f"  FAILED {line}")
    print("  host probe before: {python_loop_ms:.2f} ms loop, {eigh_ms:.2f} ms"
          " eigh".format(**probe_before))
    print("  host probe after:  {python_loop_ms:.2f} ms loop, {eigh_ms:.2f} ms"
          " eigh".format(**probe_after))
    print(f"  machine: {json.dumps(record['machine'])}")
    print(f"  record: {path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": correct, "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {k: {"value": values[k], "unit": units[k]}
                    for k in units},
    }))
    return 0 if correct else 1


def machine(worker: dict) -> dict:
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            **worker,
            "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS")}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    try:
        return run(args)
    except BenchError as exc:
        print(f"perfbench: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
