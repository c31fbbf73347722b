"""The package root exports entry points only; step functions live in their modules."""

import importlib

import incoproj

ENTRY_POINTS = {
    "Arm",
    "Cell",
    "ConfigError",
    "DegenerateDiagonal",
    "DegenerateSpectrum",
    "EmptyAverage",
    "ExperimentConfig",
    "IncoprojError",
    "RecoveryResult",
    "RecoveryStatus",
    "SingularSystem",
    "Sweep",
    "Trace",
    "ZeroColumn",
    "as_dictionary",
    "basis_pursuit",
    "coupled_ksvd",
    "derive_seed",
    "design",
    "emit_reports",
    "gram",
    "ksvd",
    "mutual_coherence",
    "normalize_columns",
    "offdiag_histogram",
    "omp",
    "run_sweep",
    "sparse_code",
    "synthesize_signals",
    "t_average_coherence",
}

# Names the root no longer exports, by the module that defines them.
MODULE_ONLY = {
    "elad": ("elad_optimize", "shrink_elad"),
    "altproj": ("altproj_optimize", "project_convex", "project_rank", "normalize_gram",
                "recover_projection"),
    "sapiro": ("sapiro_optimize", "sapiro_objective"),
    "linalg": ("symmetric_rank_truncate", "sqrt_factor", "lsq_projection"),
    "lp": ("solve_standard_lp", "LPResult"),
    "dictlearn": ("atom_update_sweep", "purge_duplicate_atoms"),
    "coherence": ("offdiag_magnitudes", "relative_threshold"),
}


def test_root_exports_exactly_the_entry_points():
    assert len(incoproj.__all__) == len(ENTRY_POINTS) == 30
    assert set(incoproj.__all__) == ENTRY_POINTS


def test_every_exported_name_resolves():
    for name in incoproj.__all__:
        assert getattr(incoproj, name) is not None, name


def test_step_functions_import_from_their_module():
    for module, names in MODULE_ONLY.items():
        for name in names:
            assert name not in incoproj.__all__
            assert callable(getattr(importlib.import_module(f"incoproj.{module}"), name))
    assert sum(map(len, MODULE_ONLY.values())) == 18
