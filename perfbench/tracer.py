"""Outside-in tracing: wrap the program's public functions where callers look them up.

A module that does ``from .pursuit import basis_pursuit`` calls the name
through its own globals, so wrapping ``incoproj.harness.basis_pursuit``
records every BP solve the harness makes, and wrapping
``incoproj.pursuit.solve_standard_lp`` records every LP that BP solves.
Each span holds its name (defining module and function), start, end, the
span that was open when it started, and counts read off the returned
object.  Spans stay in memory until the pass ends; nothing under ``src/``
changes.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import json
import os
import time
from pathlib import Path

MODULES = (
    "cli", "harness", "pursuit", "lp", "linalg", "coherence",
    "elad", "altproj", "sapiro", "dictlearn", "matrixio",
)


def _lp_counts(args, kwargs, r):
    return {"iterations": r.iterations, "converged": bool(r.converged),
            "cap": kwargs.get("max_iter", 100)}


def _file_bytes(args, kwargs, r):
    return {"bytes": os.path.getsize(args[0])}


# Counts read off each call's arguments and result, by span name.
COUNTS = {
    "lp.solve_standard_lp": _lp_counts,
    "pursuit.basis_pursuit": lambda a, kw, r: {"status": r.status.value},
    "pursuit.omp": lambda a, kw, r: {"atoms": r.iterations_or_pivots},
    "harness.arm_projection": lambda a, kw, r: {"arm": a[0].name},
    "elad.elad_optimize": lambda a, kw, r: {"iterations": len(r[1])},
    "altproj.altproj_optimize": lambda a, kw, r: {"iterations": len(r[1])},
    "dictlearn.sparse_code": lambda a, kw, r: {"signals": r.shape[1]},
    "matrixio.write_csv": _file_bytes,
    "matrixio.write_matrix": _file_bytes,
}


class Tracer:
    """Installs span-recording wrappers and removes them again."""

    def __init__(self):
        # Each span: [id, name, start, end, parent id or -1, counts or None].
        self.spans: list[list] = []
        self._stack: list[list] = []
        self._patched: list[tuple] = []

    def install(self) -> None:
        for short in MODULES:
            module = importlib.import_module(f"incoproj.{short}")
            for attr, fn in list(vars(module).items()):
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or not fn.__module__.startswith("incoproj.")):
                    continue
                name = f"{fn.__module__.rsplit('.', 1)[1]}.{fn.__name__}"
                setattr(module, attr, self._wrap(name, fn))
                self._patched.append((module, attr, fn))

    def uninstall(self) -> None:
        for module, attr, fn in self._patched:
            setattr(module, attr, fn)
        self._patched.clear()

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        counts = COUNTS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [len(spans), name, clock(), 0.0, stack[-1][0] if stack else -1, None]
            spans.append(span)
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
            if counts is not None:
                span[5] = counts(args, kwargs, result)
            return result

        return traced

    def write(self, path: Path, origin: float) -> None:
        """Write the spans as gzip'd CSV, times in seconds from ``origin``."""
        with gzip.open(path, "wt", newline="") as fh:
            fh.write("id,name,start_s,end_s,parent,counts\n")
            for sid, name, start, end, parent, counts in self.spans:
                c = json.dumps(counts, separators=(",", ":")).replace('"', '""') if counts else ""
                fh.write(f'{sid},{name},{start - origin:.9f},{end - origin:.9f},{parent},"{c}"\n')


class SpanIndex:
    """Durations, nesting and busy/self time over one pass's spans."""

    def __init__(self, spans: list[list]):
        self.spans = spans
        self.dur = [s[3] - s[2] for s in spans]
        child_time = [0.0] * len(spans)
        for s, d in zip(spans, self.dur):
            if s[4] >= 0:
                child_time[s[4]] += d
        self.self_time = [d - c for d, c in zip(self.dur, child_time)]
        self.by_name: dict[str, list[int]] = {}
        for s in spans:
            self.by_name.setdefault(s[1], []).append(s[0])

    def ids(self, name: str) -> list[int]:
        return self.by_name.get(name, [])

    def ancestors(self, sid: int):
        parent = self.spans[sid][4]
        while parent >= 0:
            yield parent
            parent = self.spans[parent][4]

    def busy(self, *names: str) -> float:
        """Time covered by spans of these names, counting nested ones once."""
        wanted = set(names)
        return sum(
            self.dur[i]
            for n in wanted for i in self.ids(n)
            if not any(self.spans[a][1] in wanted for a in self.ancestors(i))
        )

    def self_s(self, name: str) -> float:
        return sum(self.self_time[i] for i in self.ids(name))

    def under(self, name: str, ancestor: str) -> int:
        """Number of ``name`` spans with an ``ancestor`` span above them."""
        return sum(
            any(self.spans[a][1] == ancestor for a in self.ancestors(i)) for i in self.ids(name)
        )

    def counts(self, name: str) -> list[dict]:
        """Counts of the ``name`` spans that returned (a raising call has none)."""
        return [self.spans[i][5] for i in self.ids(name) if self.spans[i][5]]

    def count_sum(self, name: str, key: str) -> float:
        return sum(c[key] for c in self.counts(name))

    def ms_percentile(self, name: str, q: float) -> float:
        d = sorted(self.dur[i] for i in self.ids(name))
        if not d:
            return 0.0
        pos = (len(d) - 1) * q / 100.0
        lo = int(pos)
        hi = min(lo + 1, len(d) - 1)
        return 1000.0 * (d[lo] + (d[hi] - d[lo]) * (pos - lo))


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def _median(values: list[float]) -> float:
    v = sorted(values)
    if not v:
        return 0.0
    mid = len(v) // 2
    return v[mid] if len(v) % 2 else 0.5 * (v[mid - 1] + v[mid])


# The spans each workload's metrics are read from.  A run that records
# none of one of them fails its check: the function was renamed or is no
# longer called where it is wrapped, and this file must follow it, rather
# than report the layer as taking no time.
SWEEP_SPANS = (
    "harness.run_sweep", "harness.arm_projection", "harness.emit_reports",
    "pursuit.basis_pursuit", "pursuit.omp", "lp.solve_standard_lp",
    "elad.elad_optimize", "altproj.altproj_optimize", "altproj.project_rank",
    "sapiro.sapiro_optimize", "linalg.top_eigh", "linalg.lsq_projection",
    "coherence.relative_threshold", "coherence.offdiag_histogram",
    "matrixio.write_csv", "matrixio.write_histogram",
)
EXPECTED_SPANS = {
    "desk-sweep": SWEEP_SPANS,
    "paper-design": SWEEP_SPANS,
    "learn-ksvd": (
        "dictlearn.ksvd", "dictlearn.coupled_ksvd", "dictlearn.sparse_code",
        "dictlearn.atom_update_sweep", "pursuit.omp", "sapiro.sapiro_optimize",
        "matrixio.write_matrix",
    ),
}


def layer_metrics(ix: SpanIndex, wall: float, untraced_wall: float,
                  workload: str, trials: list[dict]) -> tuple[dict[str, float], list[str]]:
    """Every per-layer metric of one traced pass, by name, and what kept one from being measured."""
    problems = [
        f"traced pass recorded no {name} spans; update perfbench/tracer.py to the program"
        for name in EXPECTED_SPANS[workload] if not ix.ids(name)
    ]
    lp, bp, omp = "lp.solve_standard_lp", "pursuit.basis_pursuit", "pursuit.omp"
    lp_counts = ix.counts(lp)
    lp_iters = [c["iterations"] for c in lp_counts]
    cap_hits = sum(not c["converged"] and c["iterations"] >= c["cap"] for c in lp_counts)
    certified = sum(c["status"] == "converged" for c in ix.counts(bp))
    design = {"none": 0.0, "elad": 0.0, "sapiro": 0.0, "altproj": 0.0}
    for i in ix.ids("harness.arm_projection"):
        if ix.spans[i][5]:
            design[ix.spans[i][5]["arm"]] += ix.dur[i]
    elad_iters = ix.count_sum("elad.elad_optimize", "iterations")
    altproj_iters = ix.count_sum("altproj.altproj_optimize", "iterations")
    sapiro_calls = len(ix.ids("sapiro.sapiro_optimize"))
    writers = ("matrixio.write_csv", "matrixio.write_matrix", "matrixio.write_histogram")
    sc_busy = ix.busy("dictlearn.sparse_code")

    m = {
        "lp.calls": len(lp_iters),
        "lp.busy_s": ix.busy(lp),
        "lp.iterations": sum(lp_iters),
        "lp.iters_p50": _median(lp_iters),
        "lp.iter_cap_hits": cap_hits,
        "lp.ms_per_iter": 1000.0 * _ratio(ix.busy(lp), sum(lp_iters)),
        "pursuit.bp.calls": len(ix.ids(bp)),
        "pursuit.bp.busy_s": ix.busy(bp),
        "pursuit.bp.self_s": ix.self_s(bp),
        "pursuit.bp.ms_p50": ix.ms_percentile(bp, 50),
        "pursuit.bp.ms_p99": ix.ms_percentile(bp, 99),
        "pursuit.bp.certified_ratio": _ratio(certified, len(ix.ids(bp))),
        "pursuit.omp.calls": len(ix.ids(omp)),
        "pursuit.omp.busy_s": ix.busy(omp),
        "pursuit.omp.ms_p50": ix.ms_percentile(omp, 50),
        "pursuit.omp.ms_p99": ix.ms_percentile(omp, 99),
        "pursuit.omp.atoms_selected": ix.count_sum(omp, "atoms"),
        **{f"harness.design_s.{arm}": t for arm, t in design.items()},
        "harness.sweep_self_s": ix.self_s("harness.run_sweep"),
        "harness.emit_s": ix.busy("harness.emit_reports"),
        "elad.ms_per_iter": 1000.0 * _ratio(ix.busy("elad.elad_optimize"), elad_iters),
        "elad.gram_calls": _ratio(ix.under("linalg.gram", "elad.elad_optimize"), elad_iters),
        "elad.eigh_calls": _ratio(ix.under("linalg.top_eigh", "elad.elad_optimize"), elad_iters),
        "elad.pinv_calls": _ratio(ix.under("linalg.lsq_projection", "elad.elad_optimize"), elad_iters),
        "altproj.ms_per_iter": 1000.0 * _ratio(ix.busy("altproj.altproj_optimize"), altproj_iters),
        "altproj.project_rank_s": ix.busy("altproj.project_rank"),
        "sapiro.top_eigh_calls": _ratio(ix.under("linalg.top_eigh", "sapiro.sapiro_optimize"), sapiro_calls),
        "linalg.top_eigh.calls": len(ix.ids("linalg.top_eigh")),
        "linalg.top_eigh.busy_s": ix.busy("linalg.top_eigh"),
        "linalg.lsq_projection.busy_s": ix.busy("linalg.lsq_projection"),
        "coherence.relative_threshold.busy_s": ix.busy("coherence.relative_threshold"),
        "coherence.offdiag_histogram.busy_s": ix.busy("coherence.offdiag_histogram"),
        "dictlearn.sparse_code.busy_s": sc_busy,
        "dictlearn.sparse_code.signals_per_s": _ratio(ix.count_sum("dictlearn.sparse_code", "signals"), sc_busy),
        "dictlearn.atom_update_sweep.busy_s": ix.busy("dictlearn.atom_update_sweep"),
        "dictlearn.coupled_self_s": ix.self_s("dictlearn.coupled_ksvd"),
        "dictlearn.ksvd.busy_s": ix.busy("dictlearn.ksvd"),
        "dictlearn.coupled_ksvd.busy_s": ix.busy("dictlearn.coupled_ksvd"),
        "matrixio.bytes_written": ix.count_sum("matrixio.write_csv", "bytes")
        + ix.count_sum("matrixio.write_matrix", "bytes"),
        "matrixio.write_s": ix.busy(*writers),
        "share.lp": _ratio(ix.busy(lp), wall),
        "share.bp": _ratio(ix.busy(bp), wall),
        "share.omp": _ratio(ix.busy(omp), wall),
        "share.design": _ratio(sum(design.values()), wall),
        "share.sparse_code": _ratio(sc_busy, wall),
        "share.matrixio": _ratio(ix.busy(*writers), wall),
        "trace.spans": len(ix.spans),
        "trace.overhead_share": _ratio(wall - untraced_wall, untraced_wall),
        "paper_scale.extrapolated_s": 0.0,
    }
    if workload == "paper-design":
        extrapolated = paper_scale_extrapolation(ix, sum(design.values()), trials)
        if extrapolated is None:
            problems.append("solve spans of run_sweep do not pair with the rows of trials.csv")
        else:
            m["paper_scale.extrapolated_s"] = extrapolated
    for short in MODULES:
        prefix = short + "."
        m[f"self_s.{short}"] = sum(
            ix.self_time[i] for n, ids in ix.by_name.items() if n.startswith(prefix) for i in ids
        )
    return m, problems


PAPER_TRIALS = 10_000


def paper_scale_extrapolation(ix: SpanIndex, design_s: float, trials: list[dict]) -> float | None:
    """Design time plus, per (arm, solver, S) cell, the median solve time x 10,000 trials.

    The harness solves trials in the order trials.csv lists them, one
    solver call per row, so the sweep's solve spans pair with its rows.
    None when they do not.
    """
    solves = [
        i for i in sorted(ix.ids("pursuit.omp") + ix.ids("pursuit.basis_pursuit"))
        if ix.spans[i][4] >= 0 and ix.spans[ix.spans[i][4]][1] == "harness.run_sweep"
    ]
    if len(solves) != len(trials):
        return None
    cells: dict[tuple, list[float]] = {}
    for i, row in zip(solves, trials):
        cells.setdefault((row["optimizer_name"], row["solver_name"], row["S"]), []).append(ix.dur[i])
    return design_s + PAPER_TRIALS * sum(_median(d) for d in cells.values())


# Which layer each workload was chosen to stress, and the share it must exceed.
MIX = {
    "desk-sweep": ("share.bp", 0.5),
    "paper-design": ("share.design", 0.5),
    "learn-ksvd": ("share.sparse_code", 0.5),
}
