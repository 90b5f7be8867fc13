"""The workload process: one thread issuing sepball CLI ops in a closed loop.

It imports sepball from the checkout's `src/`, builds the op stream from the
seed, and writes one JSON result file for `run.py`. With `--setup-only` it
stops once the first op is ready, which is how `run.py` samples set-up time.

Untraced: one warm-up op, then ops back to back until `--seconds` have
passed; each op is timed around `cli.dispatch`. Traced: the accuracy prefix
runs once untraced and once traced, and the two sets of reports must match
byte for byte.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import resource
import sys
import time
import traceback
from pathlib import Path

import tracer
import workloads
from workloads import WARMUP

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
MODULES = ("cli", "jsonio", "theorems", "cbnorm", "maps", "sdp",
           "separability", "matcore", "sampling", "algebra")


def _import_sepball() -> dict:
    sys.path.insert(0, str(SRC))
    mods = {m: importlib.import_module(f"sepball.{m}") for m in MODULES}
    origin = Path(mods["cli"].__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise ImportError(f"sepball imported from {origin}, not {SRC}")
    return mods


class Runner:
    def __init__(self, cli, workload, workdir: Path):
        self.cli = cli
        self.workload = workload
        self.out = workdir / "op.json"
        self.attempted = 0
        self.pending = []  # (stream index, exit code, report bytes)
        self.failures = []
        self.docs = {}     # stream index -> report, for the accuracy prefix
        self.digests = {}  # stream index -> sha256 of the report bytes

    def op(self, i: int) -> float:
        """Run op i and return its latency in s; its report is checked
        later, by check_pending."""
        argv = self.workload.argv(i) + ["--out", str(self.out)]
        self.out.unlink(missing_ok=True)
        t0 = time.perf_counter()
        try:
            code = self.cli.dispatch(argv)  # looked up here: traced if installed
        except Exception:  # a traceback is a failed op, not a failed run
            code = traceback.format_exc(limit=-1).strip().replace("\n", " | ")
        dt = time.perf_counter() - t0
        data = self.out.read_bytes() if self.out.exists() else b""
        self.pending.append((i, code, data))
        return dt

    def check_pending(self) -> None:
        for i, code, data in self.pending:
            self.attempted += 1
            problems = self._check(i, code, data)
            if problems:
                self.failures.append(f"op {i}: " + "; ".join(problems))
        self.pending = []

    def _check(self, i: int, code, data: bytes) -> list[str]:
        problems = [] if code == 0 else [f"exit code {code}"]
        digest = hashlib.sha256(data).hexdigest()
        if self.digests.setdefault(i, digest) != digest:
            problems.append("report differs from an earlier run of the "
                            "same input")
        try:
            doc = json.loads(data)
            if doc["verify"]["passed"] is not True:
                problems.append("verify.passed is not true")
            problems += self.workload.check(doc)
        except (ValueError, KeyError, TypeError) as exc:
            problems.append(f"report unreadable: {exc!r}")
        if 0 <= i < self.workload.accuracy_ops and not problems:
            self.docs[i] = doc
        return problems


def run_timed(runner: Runner, seconds: float) -> dict:
    runner.op(WARMUP)
    latencies = []
    start = time.perf_counter()
    deadline = start + seconds
    i = 0
    while time.perf_counter() < deadline:
        latencies.append(runner.op(i))
        i += 1
    wall = time.perf_counter() - start
    for j in range(i, runner.workload.accuracy_ops):
        runner.op(j)  # untimed: completes the accuracy prefix
    runner.check_pending()
    return {"latencies": latencies, "wall": wall}


def run_traced(runner: Runner, mods: dict, spans_path: Path) -> dict:
    """Reports of the traced pass must equal the untraced ones byte for
    byte; the per-input digest check in Runner enforces that."""
    k = runner.workload.accuracy_ops
    runner.op(WARMUP)
    t0 = time.perf_counter()
    for j in range(k):
        runner.op(j)
    untraced_wall = time.perf_counter() - t0

    rec = tracer.Tracer()
    rec.install(tracer.targets(mods))
    walls = []
    try:
        for j in range(k):
            rec.op = j
            walls.append(runner.op(j))
    finally:
        rec.uninstall()
    runner.check_pending()
    layers = rec.metrics(walls, untraced_wall)
    rec.write(spans_path)
    problems = []
    if layers["trace.self_sum_error"] > 0.02:
        problems.append("span self times do not sum to op wall time within "
                        f"2 %: {layers['trace.self_sum_error']:.4f}")
    return {"per_layer": layers, "problems": problems}


def _machine() -> dict:
    """numpy and scipy versions, and the loaded OpenBLAS libraries with
    their thread counts (read, not set)."""
    import ctypes

    import numpy
    import scipy
    libs = []
    with open("/proc/self/maps", encoding="utf-8") as fh:
        for line in fh:
            path = line.split()[-1]
            if "openblas" in path.lower() and path not in libs:
                libs.append(path)
    out = []
    for path in libs:
        lib = ctypes.CDLL(path)
        threads = None
        for sym in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads",
                    "scipy_openblas_get_num_threads64_"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = fn()
                break
        out.append({"library": Path(path).name, "threads": threads})
    return {"numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas": out}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--result", required=True)
    args = ap.parse_args()

    mods = _import_sepball()
    workload = workloads.WORKLOADS[args.workload]()
    workdir = Path(args.workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    workload.prepare(args.seed, workdir)
    result = {"ready_at": time.monotonic()}
    if not args.setup_only:
        runner = Runner(mods["cli"], workload, workdir)
        if args.trace:
            result.update(run_traced(runner, mods, workdir / "spans.jsonl"))
        else:
            result.update(run_timed(runner, args.seconds))
        prefix = [runner.docs[j] for j in range(workload.accuracy_ops)
                  if j in runner.docs]
        result.update({
            "attempted": runner.attempted,
            "failed": len(runner.failures),
            "failures": runner.failures[:20],
            "result_error": max(workload.error(prefix), workloads.ERROR_FLOOR)
            if len(prefix) == workload.accuracy_ops else None,
            "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            "machine": _machine(),
        })
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
