"""Projection design by alternating projections on the Gram matrix.

Alternates between two sets of k x k symmetric matrices: the convex set
where off-diagonals are capped at t in magnitude and the diagonal is at
least 1, and the non-convex set of PSD matrices with rank at most m.
After the loop the working Gram, PSD with rank at most m by construction,
is normalized to unit diagonal and a projection matrix realizing it (in
the least-squares sense) is recovered from it without a further check.
"""

from __future__ import annotations

import numpy as np

from .errors import DegenerateDiagonal
from .coherence import offdiag_magnitudes, trace_coherence
from .linalg import lsq_projection, sqrt_factor, symmetric_rank_truncate
from .matrixio import Trace


def project_convex(G, t: float) -> np.ndarray:
    """Cap off-diagonal magnitudes at t; raise sub-unit diagonal entries to 1.

    Idempotent, and entrywise non-expansive on the off-diagonals.
    """
    out = np.clip(G, -t, t)
    np.fill_diagonal(out, np.maximum(np.diag(G), 1.0))
    return out


def project_rank(G, m: int) -> np.ndarray:
    """Nearest PSD matrix of rank <= m (delegates to symmetric_rank_truncate)."""
    return symmetric_rank_truncate(G, m)


def normalize_gram(G) -> np.ndarray:
    """Rescale to unit diagonal: diag(1/sqrt(g_ii)) @ G @ diag(1/sqrt(g_jj)).

    Raises
    ------
    DegenerateDiagonal
        If any diagonal entry is <= 1e-12.
    """
    d = np.diag(G).copy()
    bad = np.flatnonzero(d <= 1e-12)
    if bad.size:
        raise DegenerateDiagonal(int(bad[0]))
    s = 1.0 / np.sqrt(d)
    out = G * s[:, None] * s[None, :]
    out = 0.5 * (out + out.T)
    np.fill_diagonal(out, 1.0)
    return out


def recover_projection(G, D, m: int) -> np.ndarray:
    """Recover P whose effective Gram best matches G (least squares).

    Factors G = SᵀS with S of m rows and fits P to minimize ‖S − P D‖_F.
    Exact equality DᵀPᵀPD = G is not guaranteed; residual minimality is.
    Trusts its caller, as :func:`~incoproj.linalg.sqrt_factor` does, for a PSD G of rank <= m.
    """
    return lsq_projection(sqrt_factor(G, m), D)


def altproj_optimize(
    D, m: int, *, t: float, iterations: int, seed: int
) -> tuple[np.ndarray, Trace]:
    """Alternate convex / rank-m projections from a seeded random symmetric start.

    Returns the recovered m-row projection matrix and a per-iteration
    trace of the normalized working Gram's max off-diagonal magnitude and
    its mu_t at t (NaN when nothing exceeds t).  The registry's
    ``altproj`` entry holds the keys' allowed ranges and
    :func:`~incoproj.optimizers.design` checks D and m; the steps check nothing.
    """
    k = D.shape[1]
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((k, k))
    G = 0.5 * (A + A.T)
    np.fill_diagonal(G, 1.0)
    G_unit = G  # unit diagonal already: the start is its own normalized Gram

    max_off = np.empty(iterations)
    mu_t = np.empty(iterations)
    for q in range(iterations):
        G = project_convex(G, t)
        G = project_rank(G, m)
        G_unit = normalize_gram(G)
        max_off[q], mu_t[q] = trace_coherence(offdiag_magnitudes(G_unit), t)

    P = recover_projection(G_unit, D, m)
    return P, Trace({"max_offdiag": max_off, "mu_t": mu_t})
