"""Iterative projection design via Gram shrinkage (Elad's algorithm).

Minimizes the t-averaged coherence of the effective dictionary P @ D by
repeatedly shrinking the off-diagonal Gram entries, forcing the Gram back
to rank m, and re-fitting P by least squares.
"""

from __future__ import annotations

import numpy as np

from .errors import ZeroColumn
from .linalg import gram, sqrt_factor, symmetric_rank_truncate
from .coherence import offdiag_magnitudes, relative_threshold, trace_coherence
from .matrixio import Trace


def shrink_elad(g, t: float, gamma: float):
    """Entrywise shrinkage: |g| >= t -> gamma*g; t > |g| >= gamma*t -> gamma*t*sign(g); else g.

    Odd, monotone non-decreasing, and never amplifies an entry.  ``g`` is
    taken as a float array and shrunk elementwise; a scalar comes back as a
    0-d array.  The registry bounds t and gamma.
    """
    arr = np.asarray(g, dtype=float)
    mag = np.abs(arr)
    return np.where(mag >= t, gamma * arr, np.where(mag >= gamma * t, gamma * t * np.sign(arr), arr))


def _effective_gram(P: np.ndarray, D: np.ndarray, q: int) -> np.ndarray:
    """Gram of the normalized columns of P @ D; ZeroColumn names iteration q."""
    try:
        return gram(P @ D)
    except ZeroColumn as exc:
        raise ZeroColumn(exc.index, f"effective dictionary at iteration {q}") from exc


def elad_optimize(
    D, m: int, *, mode: str, gamma: float, iterations: int, seed: int, t=None, percent=None
) -> tuple[np.ndarray, Trace]:
    """Run the shrinkage loop for ``iterations`` and return the m-row P and its trace.

    Each iteration: normalize the columns of P @ D, build the Gram, pick
    the threshold (mode ``"fixed"``: the same ``t`` every time; mode
    ``"relative"``: re-picked from the current Gram's order statistics so
    that about ``percent``% of its magnitudes lie above it), shrink the
    off-diagonals by ``gamma``, truncate to rank m, take the m-row square
    root, and solve the least-squares problem for the next P.  The
    registry's ``elad`` entry holds the keys' allowed ranges and
    :func:`~incoproj.optimizers.design` checks D and m.

    The trace records, for every iteration, the threshold used and the
    mu_t / mu of the updated effective dictionary at that threshold;
    ``mu_t`` is NaN where no off-diagonal magnitude exceeded it.

    Raises
    ------
    ZeroColumn
        If P @ D develops a numerically zero column (degenerate P); the
        error message carries the iteration index.
    """
    rng = np.random.default_rng(seed)
    P = rng.standard_normal((m, D.shape[0]))
    # D never changes, so every least-squares refit shares its pseudo-inverse.
    Dpinv = np.linalg.pinv(D)

    G = _effective_gram(P, D, 0)
    mags = offdiag_magnitudes(G)
    mu_t_hist: list[float] = []
    mu_hist: list[float] = []
    thr_hist: list[float] = []
    for q in range(iterations):
        if mode == "relative":
            t = relative_threshold(mags, percent)
        # Shrink the off-diagonals only; the diagonal stays 1, as gram set it.
        shrunk = shrink_elad(G, t, gamma)
        np.fill_diagonal(shrunk, 1.0)
        reduced = symmetric_rank_truncate(shrunk, m)
        S = sqrt_factor(reduced, m)
        P = S @ Dpinv

        # The updated Gram, and its magnitudes, start the next iteration.
        G = _effective_gram(P, D, q)
        mags = offdiag_magnitudes(G)
        mu, mu_t = trace_coherence(mags, t)
        mu_t_hist.append(mu_t)
        mu_hist.append(min(mu, 1.0))
        thr_hist.append(float(t))

    return P, Trace({"mu_t": mu_t_hist, "mu": mu_hist, "threshold": thr_hist})
