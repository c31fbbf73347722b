"""What each metric means, and which end-to-end metric a change to its layer should move.

``BENCHMARK.json`` gives every metric's unit and better direction.  This
file only adds the notes that ``run.py`` prints next to each value:
for an end-to-end metric what it measures, for a per-layer metric the
end-to-end metric and workload a change to that layer should move.
"""

from __future__ import annotations

DESK = "solves_per_s on desk-sweep"
PAPER = "wall_s on paper-design"
LEARN = "solves_per_s and wall_s on learn-ksvd"
NOT_LEARN = "; no movement on learn-ksvd"

NOTES = {
    # End to end, measured with tracing off.
    "solves_per_s": "sparse-recovery solves (trial solves, or OMP codes in learning) per second of pass wall time",
    "wall_s": "wall time of one pass (the CLI jobs of the workload)",
    "setup_s": "import of the program plus generation of the inputs, median of the fresh processes of a run",
    "peak_rss_mb": "ru_maxrss of the fresh process that ran the passes",
    "op_ok_share": (
        "1 - (failed + uncertified BP solves)/attempted operations "
        "(a solve on the sweeps, a learning job on learn-ksvd)"
    ),
    # Per layer, from the traced run.
    "lp.calls": f"{DESK}, {PAPER}{NOT_LEARN}",
    "lp.busy_s": f"{DESK}, {PAPER}{NOT_LEARN}",
    "lp.iterations": f"{DESK}, {PAPER}{NOT_LEARN}",
    "lp.iters_p50": f"{DESK}, {PAPER}{NOT_LEARN}",
    "lp.iter_cap_hits": f"op_ok_share on desk-sweep and paper-design{NOT_LEARN}",
    "lp.ms_per_iter": f"{DESK}, {PAPER}{NOT_LEARN}",
    "pursuit.bp.calls": f"{DESK}{NOT_LEARN}; also the sample count of the bp percentiles",
    "pursuit.bp.busy_s": f"{DESK}{NOT_LEARN}",
    "pursuit.bp.self_s": f"{DESK}{NOT_LEARN}",
    "pursuit.bp.ms_p50": f"{DESK}{NOT_LEARN}; over pursuit.bp.calls samples",
    "pursuit.bp.ms_p99": f"{DESK}{NOT_LEARN}; over pursuit.bp.calls samples",
    "pursuit.bp.certified_ratio": "op_ok_share on desk-sweep and paper-design",
    "pursuit.omp.calls": f"{LEARN}; also the sample count of the omp percentiles",
    "pursuit.omp.busy_s": f"{LEARN}, {DESK}",
    "pursuit.omp.ms_p50": f"{LEARN}; over pursuit.omp.calls samples",
    "pursuit.omp.ms_p99": f"{LEARN}; over pursuit.omp.calls samples",
    "pursuit.omp.atoms_selected": LEARN,
    "harness.design_s.none": f"{PAPER}; barely {DESK}",
    "harness.design_s.elad": f"{PAPER}; barely {DESK}",
    "harness.design_s.sapiro": f"{PAPER}; barely {DESK}",
    "harness.design_s.altproj": f"{PAPER}; barely {DESK}",
    "harness.sweep_self_s": f"{DESK}, {PAPER}",
    "harness.emit_s": DESK,
    "elad.ms_per_iter": PAPER,
    "elad.gram_calls": PAPER,
    "elad.eigh_calls": PAPER,
    "elad.pinv_calls": PAPER,
    "altproj.ms_per_iter": PAPER,
    "altproj.project_rank_s": PAPER,
    "sapiro.top_eigh_calls": PAPER,
    "linalg.top_eigh.calls": PAPER,
    "linalg.top_eigh.busy_s": PAPER,
    "linalg.lsq_projection.busy_s": PAPER,
    "coherence.relative_threshold.busy_s": PAPER,
    "coherence.offdiag_histogram.busy_s": PAPER,
    "dictlearn.sparse_code.busy_s": LEARN,
    "dictlearn.sparse_code.signals_per_s": LEARN,
    "dictlearn.atom_update_sweep.busy_s": LEARN,
    "dictlearn.coupled_self_s": LEARN,
    "dictlearn.ksvd.busy_s": LEARN,
    "dictlearn.coupled_ksvd.busy_s": LEARN,
    "matrixio.bytes_written": DESK,
    "matrixio.write_s": DESK,
    "share.lp": "caps the gain an LP change can claim on this workload",
    "share.bp": "caps the gain a BP change can claim on this workload",
    "share.omp": "caps the gain an OMP change can claim on this workload",
    "share.design": "caps the gain an optimizer change can claim on this workload",
    "share.sparse_code": "caps the gain a sparse-coding change can claim on this workload",
    "share.matrixio": "caps the gain a CSV-writing change can claim on this workload",
    "trace.spans": "none: spans recorded in the traced pass",
    "trace.overhead_share": "none: traced pass wall over untraced pass wall, minus 1",
    "paper_scale.extrapolated_s": "the full --paper-scale run (design + median solve per cell x 10,000 trials); 0 off paper-design",
    "blas.default_threads_slowdown": (
        "every workload: a pass at the default BLAS thread count over a pass at one thread "
        "(the end-to-end metrics pin one thread)"
    ),
    **{
        f"self_s.{module}": moves
        for module, moves in (
            ("cli", "none: argument parsing"),
            ("harness", f"{DESK}, {PAPER}"),
            ("pursuit", f"{DESK}, {LEARN}"),
            ("lp", f"{DESK}, {PAPER}{NOT_LEARN}"),
            ("linalg", f"{PAPER}, {LEARN}"),
            ("coherence", PAPER),
            ("elad", PAPER),
            ("altproj", PAPER),
            ("sapiro", f"{PAPER}, {LEARN}"),
            ("dictlearn", LEARN),
            ("matrixio", DESK),
        )
    },
}
