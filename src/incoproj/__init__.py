"""Incoherent projection design for compressed sensing.

Three projection optimizers (Gram shrinkage, spectral rank-one updates,
alternating projections), coherence diagnostics, sparse-recovery solvers
(OMP, Basis Pursuit on a built-in LP), K-SVD / coupled dictionary
learning, and a reproducible benchmark harness.

The package root exports entry points only; an optimizer runs through
``design(Arm(name, params), D, m)``, and its steps stay importable from
their modules.
"""

from .coherence import mutual_coherence, offdiag_histogram, t_average_coherence
from .dictlearn import coupled_ksvd, ksvd, sparse_code
from .errors import (
    ConfigError,
    DegenerateDiagonal,
    DegenerateSpectrum,
    EmptyAverage,
    IncoprojError,
    SingularSystem,
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
from .linalg import as_dictionary, gram, normalize_columns
from .matrixio import Trace
from .optimizers import Arm, design
from .pursuit import (
    RecoveryResult,
    RecoveryStatus,
    basis_pursuit,
    omp,
)

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
]
