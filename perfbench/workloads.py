"""The benchmark's workloads: the op stream each builds from the seed, and
the checks and accuracy measure applied to each op's report.

Every op is one `sepball` CLI command with `--verify`; within a workload
all ops have the same shape and only the seed or the input file changes,
so the op mix does not depend on how many ops a run completes. Inputs are
drawn with numpy here, never with `sepball.sampling`, so a change to the
program cannot change its own inputs.

The first `accuracy_ops` ops of the stream form the accuracy prefix:
`result_error` is computed over exactly these ops (they are run after the
timed window if the window did not reach them), and the traced run replays
exactly these ops, so accuracy and per-layer counts are deterministic for a
fixed seed.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path

import numpy as np

# Accuracy below this relative level is inside the solver's own acceptance
# window (sepball.sdp.LOOSE_MERIT) and reads as this floor, so round-off in
# the last digits of an SDP optimum never registers as a regression, and the
# metric is never 0.
ERROR_FLOOR = 1e-7

# Seed streams are long enough for a 35 s window even at ~100 ops/s; the
# map stream repeats (byte-identical reports are then checked) only after
# 96 ops, i.e. beyond a 2.5x speed-up of today's cb-maps op.
SEED_STREAM = 4096
MAP_STREAM = 96
WARMUP = -1  # stream index of the untimed warm-up op


def _op_seeds(tag: int, seed: int, count: int) -> list[int]:
    rng = np.random.default_rng([tag, seed])
    return [int(s) for s in rng.integers(0, 2**31 - 1, size=count + 1)]


class WitnessScan:
    """Many tiny witness SDPs (p = 1); never enters cbnorm or theorems."""

    name = "witness-scan"
    accuracy_ops = 16
    radii = (0.3, 0.36)  # gamma = 1/3 here: one radius inside, one past it
    samples = 2

    def prepare(self, seed: int, workdir: Path) -> None:
        self.seeds = _op_seeds(0x5CA, seed, SEED_STREAM)

    def argv(self, i: int) -> list[str]:
        s = self.seeds[i % SEED_STREAM if i >= 0 else SEED_STREAM]
        return ["gamma-scan", "--algA", "2,3", "--algB", "3,4",
                "--radii", ",".join(str(r) for r in self.radii),
                "--samples", str(self.samples), "--threads", "1",
                "--verify", "--seed", str(s)]

    def check(self, doc: dict) -> list[str]:
        bad = []
        for row in doc["rows"]:
            total = row["separable"] + row["entangled"] + row["undecided"]
            if total != self.samples + 1:
                bad.append(f"row {row['radius']} counts sum to {total}")
        past = [r for r in doc["rows"] if r["radius"] == self.radii[1]]
        if not past or past[0]["directedStatus"] != "entangled-certified":
            bad.append(f"directed verdict at {self.radii[1]} not entangled")
        if doc["onset"] != self.radii[1]:
            bad.append(f"onset {doc['onset']} != {self.radii[1]}")
        return bad

    def error(self, docs: list[dict]) -> float:
        """Share of verdicts that are undecided."""
        undecided = sum(r["undecided"] for d in docs for r in d["rows"])
        total = sum(len(d["rows"]) * (self.samples + 1) for d in docs)
        return undecided / total


class CbMaps:
    """cbnorm of general 3 -> 4 maps: lower-bound search plus a p = 320 SDP.

    The stream cycles through `accuracy_ops` fixed complex-Gaussian Choi
    matrices, each conjugated per op by a seed-drawn local unitary U (x) V.
    That changes every byte of every input but not a map's cb norm or its
    sandwich width, so the difficulty mix and `result_error` are the same
    for every seed. With 12 independently drawn maps per seed, the median
    width had a quartile spread of about a third of its value across seeds.
    """

    name = "cb-maps"
    accuracy_ops = 12
    dim_in, dim_out = 3, 4

    def prepare(self, seed: int, workdir: Path) -> None:
        q = self.dim_in * self.dim_out
        base = []
        for j in range(self.accuracy_ops):
            rng = np.random.default_rng([0xCB, j])
            base.append(rng.standard_normal((q, q))
                        + 1j * rng.standard_normal((q, q)))
        self.dir = workdir / "maps"
        self.dir.mkdir(parents=True, exist_ok=True)
        for i in range(MAP_STREAM + 1):
            rng = np.random.default_rng([0xCB1, seed, i])
            w = np.kron(_haar(rng, self.dim_in), _haar(rng, self.dim_out))
            choi = w @ base[i % self.accuracy_ops] @ w.conj().T
            doc = {"dimIn": self.dim_in, "dimOut": self.dim_out,
                   "choi": [[[float(z.real), float(z.imag)] for z in row]
                            for row in choi]}
            (self.dir / f"map{i}.json").write_text(json.dumps(doc))

    def argv(self, i: int) -> list[str]:
        k = i % MAP_STREAM if i >= 0 else MAP_STREAM
        return ["cbnorm", "--map", f"file:{self.dir / f'map{k}.json'}",
                "--verify"]

    def check(self, doc: dict) -> list[str]:
        if doc["lower"] > doc["upper"] + 1e-9:
            return [f"lower {doc['lower']} exceeds upper {doc['upper']}"]
        return []

    def error(self, docs: list[dict]) -> float:
        """Median relative sandwich width (upper - lower) / upper."""
        return statistics.median(
            (d["upper"] - d["lower"]) / d["upper"] for d in docs)


class RankFormula:
    """A few large SDPs (p = 544); the only workload entering theorems."""

    name = "rank-formula"
    accuracy_ops = 8
    eta = 4

    def prepare(self, seed: int, workdir: Path) -> None:
        self.seeds = _op_seeds(0xE7A, seed, SEED_STREAM)

    def argv(self, i: int) -> list[str]:
        s = self.seeds[i % SEED_STREAM if i >= 0 else SEED_STREAM]
        return ["eta", "--algA", "4", "--algB", "1,4", "--samples", "2",
                "--verify", "--seed", str(s)]

    def check(self, doc: dict) -> list[str]:
        bad = []
        if not doc["passed"]:
            bad.append("report not passed")
        if doc["etaValue"] != self.eta or doc["kappaValue"] != self.eta:
            bad.append(f"eta {doc['etaValue']} / kappa {doc['kappaValue']} "
                       f"!= {self.eta}")
        if any(abs(b - self.eta) > 1e-3 for b in doc["etaSandwich"]):
            bad.append(f"sandwich {doc['etaSandwich']} not within 1e-3 "
                       f"of {self.eta}")
        return bad

    def error(self, docs: list[dict]) -> float:
        """Largest |sandwich bound - eta| / eta."""
        return max(abs(b - self.eta) / self.eta
                   for d in docs for b in d["etaSandwich"])


def _haar(rng: np.random.Generator, d: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((d, d))
                        + 1j * rng.standard_normal((d, d)))
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


WORKLOADS = {w.name: w for w in (WitnessScan, CbMaps, RankFormula)}
