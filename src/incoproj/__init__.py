"""Incoherent projection design for compressed sensing.

Three projection optimizers (Gram shrinkage, spectral rank-one updates,
alternating projections), coherence diagnostics, sparse-recovery solvers
(OMP, Basis Pursuit on a built-in LP), K-SVD / coupled dictionary
learning, and a reproducible benchmark harness.
"""

from .altproj import (
    altproj_optimize,
    normalize_gram,
    project_convex,
    project_rank,
    recover_projection,
)
from .coherence import (
    mutual_coherence,
    offdiag_histogram,
    offdiag_magnitudes,
    relative_threshold,
    t_average_coherence,
)
from .dictlearn import (
    atom_update_sweep,
    purge_duplicate_atoms,
    coupled_ksvd,
    ksvd,
    sparse_code,
)
from .elad import elad_optimize, shrink_elad
from .errors import (
    ConfigError,
    DegenerateDiagonal,
    DegenerateSpectrum,
    EmptyAverage,
    IncoprojError,
    InvalidRank,
    NotFound,
    NotPSD,
    RankExceeded,
    SingularSystem,
    TooFewColumns,
    TooLarge,
    ZeroColumn,
)
from .harness import (
    Cell,
    ExperimentConfig,
    Sweep,
    derive_seed,
    emit_reports,
    run_sweep,
    synthesize_signals,
)
from .linalg import (
    as_dictionary,
    gram,
    lsq_projection,
    normalize_columns,
    sqrt_factor,
    symmetric_rank_truncate,
)
from .lp import LPResult, solve_standard_lp
from .matrixio import Trace
from .optimizers import Arm
from .pursuit import (
    RecoveryResult,
    RecoveryStatus,
    basis_pursuit,
    exhaustive_sparsest,
    omp,
)
from .sapiro import sapiro_objective, sapiro_optimize

__version__ = "0.1.0"

__all__ = [
    "Arm",
    "Cell",
    "ConfigError",
    "DegenerateDiagonal",
    "DegenerateSpectrum",
    "EmptyAverage",
    "ExperimentConfig",
    "IncoprojError",
    "InvalidRank",
    "LPResult",
    "NotFound",
    "NotPSD",
    "RankExceeded",
    "RecoveryResult",
    "RecoveryStatus",
    "SingularSystem",
    "Sweep",
    "TooFewColumns",
    "TooLarge",
    "Trace",
    "ZeroColumn",
    "altproj_optimize",
    "as_dictionary",
    "atom_update_sweep",
    "purge_duplicate_atoms",
    "basis_pursuit",
    "coupled_ksvd",
    "derive_seed",
    "elad_optimize",
    "emit_reports",
    "exhaustive_sparsest",
    "gram",
    "ksvd",
    "lsq_projection",
    "mutual_coherence",
    "normalize_columns",
    "normalize_gram",
    "offdiag_histogram",
    "offdiag_magnitudes",
    "omp",
    "project_convex",
    "project_rank",
    "recover_projection",
    "relative_threshold",
    "run_sweep",
    "sapiro_objective",
    "sapiro_optimize",
    "shrink_elad",
    "solve_standard_lp",
    "sparse_code",
    "sqrt_factor",
    "symmetric_rank_truncate",
    "synthesize_signals",
    "t_average_coherence",
]
