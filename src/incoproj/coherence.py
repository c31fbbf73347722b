"""Coherence metrics: mutual coherence, thresholded averages, histograms.

These are the objectives and diagnostics the projection optimizers drive
down.  All statistics are computed over the strict upper triangle of the
Gram matrix of the column-normalized input; the symmetric lower half is
redundant.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EmptyAverage, TooFewColumns
from .linalg import as_matrix, gram


def offdiag_magnitudes(G: np.ndarray) -> np.ndarray:
    """Absolute values of the strict upper triangle, row-major order."""
    k = G.shape[0]
    iu = np.triu_indices(k, 1)
    return np.abs(G[iu])


def _dictionary_gram(D, what: str) -> np.ndarray:
    M = as_matrix(D, "dictionary")
    if M.shape[1] < 2:
        raise TooFewColumns(f"{what} needs at least two columns")
    return gram(M)


def _max_offdiag(G: np.ndarray) -> tuple[float, tuple[int, int]]:
    iu = np.triu_indices(G.shape[0], 1)
    mags = np.abs(G[iu])
    pos = int(np.argmax(mags))  # argmax returns the first max: lexicographic winner
    return min(float(mags[pos]), 1.0), (int(iu[0][pos]), int(iu[1][pos]))


def mutual_coherence(D) -> tuple[float, tuple[int, int]]:
    """Largest absolute normalized inner product between distinct columns.

    Returns ``(mu, (i, j))`` with ``i < j``; ties broken by the
    lexicographically smallest index pair.

    Raises
    ------
    TooFewColumns
        If the input has fewer than two columns.
    ZeroColumn
        Propagated from normalization.
    """
    return _max_offdiag(_dictionary_gram(D, "mutual coherence"))


def t_average_coherence(D, t: float) -> float:
    """Mean of off-diagonal Gram magnitudes strictly above ``t``.

    Raises
    ------
    EmptyAverage
        If no off-diagonal magnitude exceeds ``t``; callers decide what a
        sensible fallback is (returning 0 here would corrupt optimizer
        progress tracking).
    """
    if t < 0:
        raise ValueError("threshold must be nonnegative")
    return gram_t_average(_dictionary_gram(D, "t-average coherence"), t)


def gram_t_average(G: np.ndarray, t: float) -> float:
    """Like :func:`t_average_coherence` but on an already-built Gram matrix."""
    mags = offdiag_magnitudes(G)
    above = mags[mags > t]
    if above.size == 0:
        raise EmptyAverage(f"no off-diagonal magnitude exceeds t={t}")
    return float(above.mean())


def relative_threshold(G, percent: float) -> float:
    """Threshold ``t`` such that ~``percent``% of off-diagonal magnitudes lie strictly above it.

    With the magnitudes sorted in decreasing order, the target count is
    ``c = ceil(percent/100 * count)`` and ``t`` is the ``(c+1)``-th largest
    magnitude (0 if that runs off the end).  Ties at ``t`` leave fewer
    than ``c`` magnitudes strictly above it.
    """
    if not 0.0 < percent < 100.0:
        raise ValueError("percent must be in (0, 100)")
    G = as_matrix(G, "gram")
    if G.shape[1] < 2:
        raise TooFewColumns("relative threshold needs at least two columns")
    mags = np.sort(offdiag_magnitudes(G))[::-1]
    c = int(np.ceil(percent / 100.0 * mags.size))
    return float(mags[c]) if c < mags.size else 0.0


def offdiag_histogram(G, bins: int) -> list[tuple[float, int]]:
    """Histogram of off-diagonal magnitudes over uniform bins on [0, 1].

    Returns ``(bin_lower_edge, count)`` pairs.  The last bin is closed on
    the right, so a magnitude of exactly 1.0 lands in it.  Counts sum to
    k(k-1)/2.
    """
    if bins < 1:
        raise ValueError("bins must be >= 1")
    G = as_matrix(G, "gram")
    mags = np.clip(offdiag_magnitudes(G), 0.0, 1.0)
    edges = np.linspace(0.0, 1.0, bins + 1)
    counts, _ = np.histogram(mags, bins=edges)
    return [(float(lo), int(c)) for lo, c in zip(edges[:-1], counts)]


@dataclass(frozen=True)
class CoherenceReport:
    """Bundled coherence diagnostics for one dictionary."""

    mu: float
    argmax_pair: tuple[int, int]
    t: float
    mu_t: float | None
    histogram: list[tuple[float, int]]


def coherence_report(D, t: float, bins: int = 50) -> CoherenceReport:
    """Mutual coherence, t-average (None when empty), and magnitude histogram."""
    G = _dictionary_gram(D, "mutual coherence")
    mu, pair = _max_offdiag(G)
    if t < 0:
        raise ValueError("threshold must be nonnegative")
    try:
        mu_t = gram_t_average(G, t)
    except EmptyAverage:
        mu_t = None
    hist = offdiag_histogram(G, bins)
    return CoherenceReport(mu=mu, argmax_pair=pair, t=t, mu_t=mu_t, histogram=hist)
