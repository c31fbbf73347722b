"""Plain-text serialization: matrices, CSV tables, histograms, iteration traces.

Matrix files are header-less CSV, one matrix row per line, 17 significant
digits (round-trips float64 exactly).  Tabular CSVs carry a header line,
use ``.`` as the decimal separator and LF line endings; floats are written
with ``repr`` (shortest exact representation) so identical runs produce
byte-identical files.
"""

from __future__ import annotations

import csv
import os
import warnings
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .linalg import as_matrix


# A matrix cell's text: +0.0 as one preformatted token (most coefficient
# entries are +0.0), and every other value, -0.0 included, as "%.16e".
_CELLS = np.array(["%.16e" % 0.0, "%.16e"], dtype=object)


def write_matrix(path: str | os.PathLike, M) -> None:
    M = as_matrix(M)
    formatted = (M != 0.0) | np.signbit(M)
    template = "".join(",".join(row) + "\n" for row in _CELLS[formatted.astype(np.intp)].tolist())
    with open(path, "w", newline="\n") as fh:
        fh.write(template % tuple(M[formatted].tolist()))


def read_matrix(path: str | os.PathLike) -> np.ndarray:
    try:
        with warnings.catch_warnings():
            # A file without rows is reported below, not as loadtxt's warning.
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            M = np.loadtxt(path, delimiter=",", ndmin=2, dtype=float)
    except ValueError as exc:
        raise ValueError(f"{path}: malformed matrix file ({exc})") from exc
    if M.size == 0:
        raise ValueError(f"{path}: no matrix rows")
    return M


def format_cell(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def write_csv(path: str | os.PathLike, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([format_cell(v) for v in row])


def write_histogram(path: str | os.PathLike, hist: Sequence[tuple[float, int]]) -> None:
    write_csv(path, ["bin_lower", "count"], hist)


@dataclass(frozen=True, eq=False)
class Trace:
    """Per-iteration record of an optimizer or a dictionary learner.

    ``columns`` maps each recorded quantity to one value per iteration, in
    the order ``trace.csv`` lists them; ``trace.<name>`` reads a column and
    ``len(trace)`` counts the iterations.  ``index`` names the row-number
    column written first.  ``replacements`` holds the (iteration, atom)
    pair of every atom a dictionary learner re-seeded.
    """

    columns: dict[str, np.ndarray]
    index: str = "iter"
    replacements: tuple[tuple[int, int], ...] = ()

    def __post_init__(self):
        columns = {name: np.asarray(col, dtype=float) for name, col in self.columns.items()}
        if len({col.shape for col in columns.values()}) != 1:
            raise ValueError("trace columns must be non-empty and of equal length")
        object.__setattr__(self, "columns", columns)

    def __getattr__(self, name: str) -> np.ndarray:
        try:
            return self.__dict__["columns"][name]
        except KeyError:
            raise AttributeError(name) from None

    def __len__(self) -> int:
        return len(next(iter(self.columns.values())))

    def to_csv(self, path: str | os.PathLike) -> None:
        rows = zip(range(len(self)), *self.columns.values())
        write_csv(path, [self.index, *self.columns], rows)
