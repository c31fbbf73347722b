"""Benchmark entry point: run one workload for one seed and print its metrics.

    python3 perfbench/run.py --workload desk-sweep --seed 1 --seconds 35 --trace 0

Run it from the root of a checkout.  Workloads: desk-sweep, paper-design,
learn-ksvd (see workloads.py for why each was chosen).

``--trace 0`` measures the end-to-end metrics with tracing off: one fresh
worker process runs timed passes that fit in ``--seconds`` seconds, with
set-up probes in fresh processes spread between them.  ``--trace 1`` is the
separate traced run: it reports the per-layer metrics, writes the spans,
checks that the workload stresses the layer it was chosen for, runs one
pass at the default BLAS thread count, and on desk-sweep also writes the
cProfile top-10 from another, profiled process.

Every pass's outputs are checked (invariants, byte-identical reruns, and
the reference in ``perfbench/ref`` when one exists for the seed).  The
last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the exit code is 0 only when the outputs are
correct.  Metric names and units come from ``BENCHMARK.json``.  A full
record of the run, with the environment, goes to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
sys.path.insert(0, str(HERE))

from metrics import NOTES  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = tuple(w["name"] for w in SPEC["workloads"])
# One BLAS thread for every measured and checked pass.  The program's
# outputs depend on the thread count (at two threads some paper-design BP
# statuses differ from one thread), so the reference check needs a fixed
# count, and the measured work is many small dense problems.  The traced
# run measures what the default thread count costs.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
# A run whose passes got less CPU than this share of their wall time is
# flagged as noisy in its output and record (the host took the CPU).
NOISY_CPU_SHARE = 0.9
# Every process this run starts must have ended by then.
DEADLINE_S = 170.0


def revision() -> dict:
    """Git revision when the checkout is a git work tree, and a digest of src/ always."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    rev = "unknown (not a git checkout)"
    try:
        top = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        lines = top.stdout.split()
        if top.returncode == 0 and len(lines) == 2 and Path(lines[0]).resolve() == ROOT:
            rev = lines[1]
    except (OSError, subprocess.TimeoutExpired):
        pass
    return {"git_revision": rev, "src_sha256": h.hexdigest()}


def run_worker(args, deadline: float, *extra: str, pinned: bool = True) -> dict:
    env = dict(os.environ, **BLAS_ENV) if pinned else os.environ
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), *extra]
    # subprocess.run kills and reaps the worker if it overruns the deadline.
    proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
                          timeout=max(deadline - time.monotonic(), 1.0))
    if proc.returncode != 0:
        raise RuntimeError(f"worker {' '.join(extra) or 'run'} exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def fmt(value: float) -> str:
    return f"{value:.6g}"


def main() -> int:
    ap = argparse.ArgumentParser(description="Run one benchmark workload.")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=35.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    deadline = time.monotonic() + DEADLINE_S
    if not (ROOT / "src" / "incoproj" / "__init__.py").is_file():
        print(f"error: no program to benchmark: {ROOT / 'src' / 'incoproj'} is missing", file=sys.stderr)
        return 2
    with open("/proc/loadavg") as fh:
        loadavg = fh.read().split()[:3]
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}; loadavg at start {' '.join(loadavg)}")

    default_threads = None
    try:
        res = run_worker(args, deadline)
        if args.trace:
            default_threads = run_worker(args, deadline, "--one-pass", pinned=False)
        if args.trace and args.workload == "desk-sweep":
            res.update(run_worker(args, deadline, "--profile"))
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    env = res["env"]
    problems = list(res["problems"])
    if len(res["digests"]) != 1:
        problems.append(f"passes of one seed gave different outputs: {res['digests']}")
    if not 1 <= env["blas_threads"] <= env["nproc"]:
        problems.append(f"BLAS threads {env['blas_threads']} not in 1..nproc={env['nproc']}")

    if args.trace:
        kind = "per_layer"
        values = res["layers"]
        problems += [f"at the default BLAS thread count: {msg}" for msg in default_threads["problems"]]
        # Mean of the traced run's two untraced passes.
        pinned_wall = statistics.mean([res["wall_s"][0], res["wall_s"][2]])
        values["blas.default_threads_slowdown"] = default_threads["wall_s"][0] / pinned_wall
    else:
        kind = "end_to_end"
        values = dict(res["metrics"], setup_s=statistics.median(res["setup_probes_s"] + [res["setup_s"]]),
                      peak_rss_mb=res["peak_rss_mb"])
    spec = {m["name"]: m for m in SPEC[kind]}
    problems += [f"the benchmark measured no {name}" for name in spec if name not in values]
    correct = not problems
    metrics = {name: {"value": values.get(name, 0.0), "unit": m["unit"]} for name, m in spec.items()}

    print("environment: " + ", ".join(f"{k}={v}" for k, v in env.items()))
    cpu_share = [c / w for c, w in zip(res["cpu_s"], res["wall_s"])]
    print(f"passes {res['passes']}, pass walls {[fmt(w) for w in res['wall_s']]} s, "
          f"CPU/wall {[fmt(c) for c in cpu_share]} (below 1: CPU stolen)")
    noisy = statistics.median(cpu_share) < NOISY_CPU_SHARE
    if noisy:
        print(f"warning: the passes got less than {NOISY_CPU_SHARE:.0%} of a CPU; this run's times are noisy")
    for job, secs in res["jobs_s"].items():
        print(f"job {job}: median {fmt(secs)} s")
    print(f"output digest (summary.csv+trials.csv or learning traces): {' '.join(res['digests'])}")
    for name, m in spec.items():
        print(f"  {name:40s} {fmt(metrics[name]['value']):>14s} {m['unit']:7s} "
              f"({m['better']} is better; {NOTES.get(name, '')})")
    if args.trace:
        mix = res["mix"]
        print(f"workload mix: {mix['metric']} = {fmt(mix['value'])} must exceed {mix['floor']}: "
              f"{'PASS' if mix['ok'] else 'FAIL'}")
        print(f"spans written to {res['spans_file']}")
        print(f"one pass at the default BLAS thread count ({default_threads['env']['blas_threads']}): "
              f"{fmt(default_threads['wall_s'][0])} s")
        if "profile_file" in res:
            print(f"cProfile top-10 cumulative written to {res['profile_file']}")
    for msg in problems:
        print(f"CHECK FAILED: {msg}")
    print(f"output check: {'PASS' if correct else 'FAIL'}")

    record = dict(res, workload=args.workload, seed=args.seed, trace=args.trace,
                  loadavg_at_start=loadavg, noisy=noisy, default_threads_pass=default_threads, correct=correct,
                  problems=problems, metrics=metrics, **revision())
    OUT.mkdir(exist_ok=True)
    (OUT / f"{args.workload}.seed{args.seed}.trace{args.trace}.json").write_text(json.dumps(record, indent=1))

    print(json.dumps({"correct": correct, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
