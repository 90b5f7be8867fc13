"""Span recorder for the traced run.

`Tracer.install` replaces public sepball functions with timing wrappers by
setting the module attribute, so calls made inside the package go through
the wrappers too and no source file changes. Each span records its name,
start, end, parent span and op; spans stay in memory until the run ends.
A span's self time is its duration minus the durations of its children.
"""

from __future__ import annotations

import functools
import inspect
import json
import time
from collections import defaultdict

# The per-layer metrics, in order; `per_layer` in BENCHMARK.json lists the
# same names with their units.
PER_LAYER = [
    "op.traced_s_per_op",
    "cli.dispatch.self_s_per_op",
    "cli.dispatch.incl_s_per_op",
    "jsonio.encode.self_s_per_op",
    "jsonio.decode.self_s_per_op",
    "jsonio.dumps.self_s_per_op",
    "jsonio.dumps.bytes_per_op",
    "theorems.rank_formula_report.incl_s_per_op",
    "theorems.kappa_matrix_check.incl_s_per_op",
    "theorems.gamma_certificate.incl_s_per_op",
    "cbnorm.cb_norm.incl_s_per_op",
    "cbnorm.amplification_norm.self_s_per_op",
    "cbnorm.amplification_norm.incl_s_per_op",
    "cbnorm.cb_upper_sdp.self_s_per_op",
    "cbnorm.cb_upper_sdp.incl_s_per_op",
    "maps.apply_to_second_leg.calls_per_op",
    "maps.apply_to_second_leg.self_s_per_op",
    "maps.adjoint_apply_to_second_leg.calls_per_op",
    "maps.adjoint_apply_to_second_leg.self_s_per_op",
    "separability.entanglement_witness.calls_per_op",
    "separability.entanglement_witness.self_s_per_op",
    "separability.entanglement_witness.incl_s_per_op",
    "separability.ppt_check.calls_per_op",
    "separability.ppt_check.incl_s_per_op",
    "separability.sep_ball_scan.incl_s_per_op",
    "separability.undecided_ratio",
    "sdp.solve.calls_per_op",
    "sdp.solve.self_s_per_op",
    "sdp.iterations_per_op",
    "sdp.rows_max",
    "sdp.schur_bytes_computed_max",
    "sdp.stack_bytes_computed_max",
    "sdp.nonoptimal_per_op",
    "sdp.loose_accept_per_op",
    "matcore.eig_hermitian.calls_per_op",
    "matcore.eig_hermitian.self_s_per_op",
    "matcore.operator_norm.calls_per_op",
    "matcore.operator_norm.self_s_per_op",
    "matcore.partial_transpose.calls_per_op",
    "matcore.partial_transpose.self_s_per_op",
    "matcore.kron.calls_per_op",
    "sampling.calls_per_op",
    "sampling.self_s_per_op",
    "algebra.identity_minus.self_s_per_op",
    "share.sdp_solve",
    "share.cb_search",
    "share.theorems",
    "trace.overhead_ratio",
    "trace.self_sum_error",
]

# Time under any of these spans (outermost only), as a share of op time.
SHARES = {
    "share.sdp_solve": {"sdp.solve"},
    "share.cb_search": {"cbnorm.amplification_norm",
                        "maps.apply_to_second_leg",
                        "maps.adjoint_apply_to_second_leg"},
    "share.theorems": {"theorems.rank_formula_report",
                       "theorems.kappa_matrix_check",
                       "theorems.gamma_certificate"},
}


def _observe_solve(counters, args, kwargs, sol):
    problem = args[0] if args else kwargs["problem"]
    p = problem.num_constraints
    counters["sdp.iterations"] += sol.iterations
    counters["sdp.nonoptimal"] += sol.status != "optimal"
    counters["sdp.loose_accept"] += (sol.status == "optimal"
                                     and "accepted" in sol.message)
    counters["sdp.rows_max"] = max(counters["sdp.rows_max"], p)
    counters["sdp.schur_bytes_computed_max"] = max(
        counters["sdp.schur_bytes_computed_max"], 16 * p * p)
    counters["sdp.stack_bytes_computed_max"] = max(
        counters["sdp.stack_bytes_computed_max"],
        16 * p * sum(d * d for d in problem.blocks))


def _observe_witness(counters, args, kwargs, verdict):
    counters["separability.undecided"] += verdict.status == "undecided"


def _observe_dumps(counters, args, kwargs, text):
    counters["jsonio.dumps.bytes"] += len(text)


def targets(modules) -> list[tuple]:
    """(module, attribute, span name, observer) for every traced function."""
    m = modules
    out = [(m["cli"], "dispatch", "cli.dispatch", None)]
    for mod, names in (
        ("theorems", ("rank_formula_report", "kappa_matrix_check",
                      "gamma_certificate")),
        ("cbnorm", ("cb_norm", "amplification_norm", "cb_upper_sdp")),
        ("maps", ("apply_to_second_leg", "adjoint_apply_to_second_leg")),
        ("separability", ("ppt_check", "sep_ball_scan")),
        ("matcore", ("eig_hermitian", "operator_norm", "partial_transpose",
                     "kron")),
        ("algebra", ("identity_minus",)),
    ):
        out += [(m[mod], n, f"{mod}.{n}", None) for n in names]
    out.append((m["separability"], "entanglement_witness",
                "separability.entanglement_witness", _observe_witness))
    out.append((m["sdp"], "solve", "sdp.solve", _observe_solve))
    out.append((m["jsonio"], "dumps", "jsonio.dumps", _observe_dumps))
    for name in _public_functions(m["jsonio"]):
        if name.startswith("encode_"):
            out.append((m["jsonio"], name, "jsonio.encode", None))
        elif name.startswith("decode_") or name == "load_document":
            out.append((m["jsonio"], name, "jsonio.decode", None))
    out += [(m["sampling"], name, "sampling", None)
            for name in _public_functions(m["sampling"])]
    return out


def _public_functions(module) -> list[str]:
    return [name for name, fn in vars(module).items()
            if inspect.isfunction(fn) and not name.startswith("_")
            and fn.__module__ == module.__name__]


class Tracer:
    def __init__(self):
        self.spans = []  # (name, start, end, parent index, op)
        self.counters = defaultdict(float)
        self.op = -1
        self._stack = []
        self._saved = []

    def install(self, entries) -> None:
        for module, attr, name, observe in entries:
            fn = getattr(module, attr)
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(name, fn, observe))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()

    def _wrap(self, name, fn, observe):
        spans, stack, counters = self.spans, self._stack, self.counters
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.op)
            if observe is not None:
                observe(counters, args, kwargs, result)
            return result

        return traced

    def _outer_time(self, names) -> float:
        """Summed duration of spans in `names` with no ancestor in `names`."""
        spans, total = self.spans, 0.0
        for name, start, end, parent, _ in spans:
            if name not in names:
                continue
            while parent >= 0 and spans[parent][0] not in names:
                parent = spans[parent][3]
            if parent < 0:
                total += end - start
        return total

    def metrics(self, op_walls: list[float], untraced_wall: float) -> dict:
        """Per-op means over the traced ops, keyed like PER_LAYER."""
        n = len(op_walls)
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls = defaultdict(int)
        self_s = defaultdict(float)
        op_self = defaultdict(float)
        for i, (name, start, end, parent, op) in enumerate(self.spans):
            own = end - start - child[i]
            calls[name] += 1
            self_s[name] += own
            op_self[op] += own
        wall = sum(op_walls)
        c = self.counters
        out = {
            "op.traced_s_per_op": wall / n,
            "jsonio.dumps.bytes_per_op": c["jsonio.dumps.bytes"] / n,
            "separability.undecided_ratio": c["separability.undecided"]
            / max(1, calls["separability.entanglement_witness"]),
            "sdp.iterations_per_op": c["sdp.iterations"] / n,
            "sdp.rows_max": c["sdp.rows_max"],
            "sdp.schur_bytes_computed_max": c["sdp.schur_bytes_computed_max"],
            "sdp.stack_bytes_computed_max": c["sdp.stack_bytes_computed_max"],
            "sdp.nonoptimal_per_op": c["sdp.nonoptimal"] / n,
            "sdp.loose_accept_per_op": c["sdp.loose_accept"] / n,
            "trace.overhead_ratio": wall / untraced_wall,
            "trace.self_sum_error": max(
                abs(op_self[op] - w) / w for op, w in enumerate(op_walls)),
        }
        for key, names in SHARES.items():
            out[key] = self._outer_time(names) / wall
        for key in PER_LAYER:
            if key in out:
                continue
            layer, _, kind = key.rpartition(".")
            if kind == "calls_per_op":
                out[key] = calls[layer] / n
            elif kind == "self_s_per_op":
                out[key] = self_s[layer] / n
            elif kind == "incl_s_per_op":
                out[key] = self._outer_time({layer}) / n
            else:
                raise KeyError(key)
        return out

    def write(self, path) -> None:
        """One JSON line per span: op, name, start, end (s), parent index."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps([op, name, round(start - t0, 9),
                                     round(end - t0, 9), parent]) + "\n")
