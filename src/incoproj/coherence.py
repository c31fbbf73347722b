"""Coherence metrics: mutual coherence, thresholded averages, histograms.

These are the objectives and diagnostics the projection optimizers drive
down.  Every statistic takes a Gram matrix, the output of
:func:`~incoproj.linalg.gram` (so ``mutual_coherence(gram(P @ D))`` is the
coherence of the effective dictionary), and is computed over its strict
upper triangle; the symmetric lower half is redundant.  The optimizers'
helpers :func:`trace_coherence` and :func:`relative_threshold` take that
triangle's :func:`offdiag_magnitudes` instead, so one extraction per Gram
serves both.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .errors import EmptyAverage
from .linalg import as_matrix


@functools.lru_cache(maxsize=8)
def _upper_flat(k: int) -> np.ndarray:
    """Read-only flat indices of a k x k matrix's strict upper triangle, row-major order."""
    i, j = np.triu_indices(k, 1)
    flat = i * k + j
    flat.flags.writeable = False
    return flat


def offdiag_magnitudes(G: np.ndarray) -> np.ndarray:
    """Absolute values of the strict upper triangle, row-major order."""
    return np.abs(G.ravel().take(_upper_flat(G.shape[0])))


def _square(G: np.ndarray) -> np.ndarray:
    """``G`` itself; a Gram is square, and the triangle indices assume it."""
    if G.shape[0] != G.shape[1]:
        raise ValueError(f"gram must be square, got shape {G.shape}")
    return G


def _checked_gram(G, what: str) -> np.ndarray:
    G = _square(as_matrix(G, "gram"))
    if G.shape[1] < 2:
        raise ValueError(f"{what} needs at least two columns")
    return G


def _mean_above(mags: np.ndarray, t: float) -> float:
    """Mean of the magnitudes strictly above ``t``; NaN when there are none."""
    above = mags[mags > t]
    return float(above.mean()) if above.size else math.nan


def mutual_coherence(G) -> tuple[float, tuple[int, int]]:
    """Largest off-diagonal magnitude of the Gram ``G`` (clipped to 1) and where it lies.

    Returns ``(mu, (i, j))`` with ``i < j``; ties broken by the
    lexicographically smallest index pair.

    Raises
    ------
    ValueError
        If ``G`` is not square or is smaller than 2 x 2.
    """
    G = _checked_gram(G, "mutual coherence")
    mags = offdiag_magnitudes(G)
    pos = int(np.argmax(mags))  # argmax returns the first max: lexicographic winner
    i, j = divmod(int(_upper_flat(G.shape[0])[pos]), G.shape[0])
    return min(float(mags[pos]), 1.0), (i, j)


def t_average_coherence(G, t: float) -> float:
    """Mean of the off-diagonal magnitudes of the Gram ``G`` strictly above ``t``.

    Raises
    ------
    EmptyAverage
        If no off-diagonal magnitude exceeds ``t``; callers decide what a
        sensible fallback is (returning 0 here would corrupt optimizer
        progress tracking).
    ValueError
        If ``t`` is negative, or ``G`` is not square or is smaller than 2 x 2.
    """
    if t < 0:
        raise ValueError("threshold must be nonnegative")
    mu_t = _mean_above(offdiag_magnitudes(_checked_gram(G, "t-average coherence")), t)
    if math.isnan(mu_t):
        raise EmptyAverage(f"no off-diagonal magnitude exceeds t={t}")
    return mu_t


def trace_coherence(mags: np.ndarray, t: float) -> tuple[float, float]:
    """One optimizer trace row from a Gram's :func:`offdiag_magnitudes`.

    Returns the largest off-diagonal magnitude, unclipped, and the
    :func:`t_average_coherence` at ``t``, NaN where no magnitude exceeds it.
    """
    return float(mags.max()), _mean_above(mags, t)


def relative_threshold(mags: np.ndarray, percent: float) -> float:
    """Positive threshold ``t`` such that ~``percent``% of the magnitudes ``mags`` lie strictly above it.

    ``mags`` is a Gram's :func:`offdiag_magnitudes`, which elad's relative
    mode also feeds to :func:`trace_coherence`.  The target count is
    ``c = ceil(percent/100 * count)`` and ``t`` is the ``(c+1)``-th largest
    magnitude; where that runs off the end or is zero, ``t`` is the
    smallest magnitude, at least 1e-12, so elad's shrink still has a
    positive threshold.  Ties at ``t`` leave fewer than ``c`` magnitudes
    strictly above it.  The registry bounds ``percent``.
    """
    rank = mags.size - 1 - int(np.ceil(percent / 100.0 * mags.size))  # ascending position
    t = float(np.partition(mags, rank)[rank]) if rank >= 0 else 0.0
    return t if t > 0.0 else max(float(mags.min()), 1e-12)


def offdiag_histogram(G, bins: int) -> list[tuple[float, int]]:
    """Histogram of off-diagonal magnitudes over uniform bins on [0, 1].

    Returns ``(bin_lower_edge, count)`` pairs.  The last bin is closed on
    the right, so a magnitude of exactly 1.0 lands in it.  Counts sum to
    k(k-1)/2.
    """
    if bins < 1:
        raise ValueError("bins must be >= 1")
    G = _square(as_matrix(G, "gram"))
    mags = np.clip(offdiag_magnitudes(G), 0.0, 1.0)
    edges = np.linspace(0.0, 1.0, bins + 1)
    counts, _ = np.histogram(mags, bins=edges)
    return [(float(lo), int(c)) for lo, c in zip(edges[:-1], counts)]
