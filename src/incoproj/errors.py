"""Exception types shared across the package.

``IncoprojError`` is the base of the six classes that callers branch on,
each marking one degenerate input: ``ZeroColumn`` (an atom or effective
column of zero norm), ``EmptyAverage`` (no off-diagonal Gram magnitude
above the threshold), ``DegenerateDiagonal`` (a Gram diagonal entry too
small to normalize), ``DegenerateSpectrum`` (a frame operator with only
zero eigenvalues), ``SingularSystem`` (a singular ``lam^2 I + P.T P``) and
``ConfigError`` (a bad config, flag or key value; also a ``ValueError``).
Misuse, a wrong shape or size (``m`` outside ``[1, n]``, ``m > k``, a Gram
of one column), raises plain ``ValueError``.
"""

from __future__ import annotations


class IncoprojError(Exception):
    """Base class for all package-specific errors."""


class ZeroColumn(IncoprojError):
    """A matrix column has (numerically) zero norm where a nonzero one is required."""

    def __init__(self, index: int, context: str = ""):
        self.index = int(index)
        msg = f"column {self.index} has zero norm"
        if context:
            msg = f"{msg} ({context})"
        super().__init__(msg)


class EmptyAverage(IncoprojError):
    """No off-diagonal Gram entry exceeds the threshold, so the average is undefined."""


class DegenerateDiagonal(IncoprojError):
    """A Gram diagonal entry is too close to zero to normalize."""

    def __init__(self, index: int):
        self.index = int(index)
        super().__init__(f"diagonal entry {self.index} is numerically zero")


class DegenerateSpectrum(IncoprojError):
    """All eigenvalues of the frame operator are numerically zero."""


class SingularSystem(IncoprojError):
    """A linear system that must be solved exactly is numerically singular."""


class ConfigError(IncoprojError, ValueError):
    """Experiment configuration is malformed (unknown key, bad value, missing entry).

    Every bad key value raises it, whether of the wrong type, outside its
    choices or out of range; it is a ``ValueError`` too.
    """
