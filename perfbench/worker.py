"""Run one workload in a fresh process and print one JSON object as the last stdout line.

``run.py`` starts this script with the BLAS thread count pinned (except
for ``--one-pass``) and ``src/`` on the import path.  Modes:

* ``--setup-only``: import the program, generate the inputs, report set-up time.
* ``--trace 0``: timed passes that fit in ``--seconds``, tracing off, with
  set-up probes (``--setup-only`` processes) spread between them.
* ``--trace 1``: an untraced, a traced and an untraced pass; per-layer
  metrics from the traced one, tracing overhead from the difference.
* ``--profile``: one pass under cProfile, writing its top-10 cumulative entries.
* ``--one-pass``: one untraced pass checked against the invariants but not
  the reference, for a run at the default BLAS thread count, whose
  results may differ in the last bits.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"
# Fresh processes that time the set-up, besides the worker itself.
SETUP_PROBES = 6


def blas_threads() -> int:
    """Threads of every OpenBLAS loaded into this process (the largest)."""
    counts = []
    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower() and "/" in line})
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                counts.append(fn())
                break
    return max(counts) if counts else 0


def environment() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = next(
        (line.split(":", 1)[1].strip() for line in open("/proc/cpuinfo") if line.startswith("model name")),
        platform.machine(),
    )
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
    }


def setup_probe(wl) -> float:
    """Set-up time of a fresh ``--setup-only`` process for the same workload and seed."""
    cmd = [sys.executable, __file__, "--workload", wl.name, "--seed", str(wl.seed), "--setup-only"]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True, timeout=60)
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def timed(wl, seconds: float) -> dict:
    """Run passes while the next one, at the median pass time so far, ends within ``seconds``.

    The set-up probes run between the passes, in step with the pass time
    used so far, so that both metrics sample the same stretch of the run.
    """
    passes, probes = [], []
    busy = 0.0
    while not passes or busy + statistics.median(p.wall_s for p in passes) <= seconds:
        p = wl.run_pass(len(passes))
        # Only a traced pass needs its rows; keeping them would make peak
        # RSS grow with the number of passes.
        p.trials = []
        passes.append(p)
        busy += p.wall_s
        while len(probes) < math.ceil(SETUP_PROBES * min(1.0, busy / seconds)):
            probes.append(setup_probe(wl))
    while len(probes) < SETUP_PROBES:
        probes.append(setup_probe(wl))
    return dict(summarize(passes), setup_probes_s=probes)


def summarize(passes) -> dict:
    jobs = {job: statistics.median(p.jobs_s[job] for p in passes) for job in passes[0].jobs_s}
    return {
        "passes": len(passes),
        "wall_s": [p.wall_s for p in passes],
        "cpu_s": [p.cpu_s for p in passes],
        "metrics": {
            "solves_per_s": statistics.median(p.solves / p.wall_s for p in passes),
            "wall_s": statistics.median(p.wall_s for p in passes),
            "op_ok_share": 1.0 - sum(p.failed + p.uncertified for p in passes) / sum(p.attempted for p in passes),
        },
        "jobs_s": jobs,
        "attempted": sum(p.attempted for p in passes),
        "failed": sum(p.failed for p in passes),
        "digests": sorted({p.digest for p in passes}),
        "problems": [msg for p in passes for msg in p.problems][:20],
    }


def traced(wl, seed: int) -> dict:
    import tracer

    before = wl.run_pass(0)
    tr = tracer.Tracer()
    tr.install()
    origin = time.perf_counter()
    try:
        during = wl.run_pass(1)
    finally:
        tr.uninstall()
    after = wl.run_pass(2)
    untraced = statistics.mean([before.wall_s, after.wall_s])
    ix = tracer.SpanIndex(tr.spans)
    layers, problems = tracer.layer_metrics(ix, during.wall_s, untraced, wl.name, during.trials)
    spans_path = OUT / f"{wl.name}.seed{seed}.spans.csv.gz"
    tr.write(spans_path, origin)
    key, floor = tracer.MIX[wl.name]
    result = summarize([before, during, after])
    result["problems"] += problems
    result.update(
        layers=layers,
        spans_file=str(spans_path.relative_to(ROOT)),
        mix={"metric": key, "value": layers[key], "floor": floor, "ok": layers[key] > floor},
    )
    return result


def profiled(wl, seed: int) -> dict:
    import cProfile
    import io
    import pstats

    import workloads

    prof = cProfile.Profile()
    out = wl.work_dir / "profile"
    for argv in wl.jobs(out).values():
        prof.runcall(workloads._run_cli, argv)
    text = io.StringIO()
    pstats.Stats(prof, stream=text).sort_stats("cumulative").print_stats(10)
    path = OUT / f"{wl.name}.seed{seed}.cprofile.txt"
    path.write_text(text.getvalue())
    return {"profile_file": str(path.relative_to(ROOT))}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    mode = ap.add_mutually_exclusive_group()
    mode.add_argument("--setup-only", action="store_true")
    mode.add_argument("--profile", action="store_true")
    mode.add_argument("--one-pass", action="store_true")
    args = ap.parse_args()

    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        wl = workloads.Workload(args.workload, args.seed, work)
        wl.setup()
        setup_s = time.perf_counter() - T0
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        if args.one_pass:
            wl.ref_dir = work / "no-reference"
            result = summarize([wl.run_pass(0)])
        elif args.profile:
            result = profiled(wl, args.seed)
        elif args.trace:
            result = traced(wl, args.seed)
        else:
            result = timed(wl, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    result.update(
        setup_s=setup_s,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        env=environment(),
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
