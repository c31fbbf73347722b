import csv
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from incoproj.matrixio import (
    Trace,
    format_cell,
    read_matrix,
    write_csv,
    write_histogram,
    write_matrix,
)


def sparse_coefficients():
    """3-sparse 40 x 50 coefficients: row 39 is all +0.0, row 38 a -0.0 among +0.0s."""
    rng = np.random.default_rng(9)
    M = np.zeros((40, 50))
    for col in range(50):
        M[rng.choice(38, 3, replace=False), col] = rng.standard_normal(3)
    M[38, 20] = -0.0
    assert not np.signbit(M[39]).any() and np.flatnonzero(np.signbit(M[38])).tolist() == [20]
    return M


def read_csv(path):
    with open(path, newline="") as fh:
        header, *rows = csv.reader(fh)
    return header, rows


class TestMatrixRoundTrip:
    def test_values_survive(self, tmp_path):
        rng = np.random.default_rng(0)
        M = rng.standard_normal((7, 4)) * np.exp(rng.uniform(-8, 8, (7, 4)))
        p = tmp_path / "m.csv"
        write_matrix(p, M)
        back = read_matrix(p)
        assert back.shape == (7, 4)
        assert_allclose(back, M, rtol=1e-12, atol=0)

    def test_row_vector_reads_as_matrix(self, tmp_path):
        p = tmp_path / "r.csv"
        write_matrix(p, np.array([[1.0, 2.0, 3.0]]))
        back = read_matrix(p)
        assert back.shape == (1, 3)

    def test_no_header_and_lf_endings(self, tmp_path):
        p = tmp_path / "m.csv"
        write_matrix(p, np.eye(2))
        raw = p.read_bytes()
        assert b"\r" not in raw
        first = raw.split(b"\n")[0]
        assert b"0" in first and not first.lower().startswith(b"col")

    def test_read_error_names_file(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("1.0,2.0\nnot,numbers\n")
        with pytest.raises(ValueError) as exc:
            read_matrix(p)
        assert "bad.csv" in str(exc.value)

    @pytest.mark.parametrize("text", ["", "\n", "\n\n"])
    def test_file_without_rows_rejected(self, tmp_path, text):
        p = tmp_path / "empty.csv"
        p.write_text(text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # numpy's no-data warning would fail here
            with pytest.raises(ValueError, match="empty.csv: no matrix rows"):
                read_matrix(p)

    @pytest.mark.parametrize("M", [
        [[-0.0, 5e-324, 1e308], [3, -7, 0], [0.1, -2.5e-300, 1 / 3]],
        np.arange(-4, 8).reshape(3, 4),
        sparse_coefficients(),
        np.zeros((3, 0)),
    ])
    def test_bytes_match_per_value_format(self, tmp_path, M):
        p = tmp_path / "m.csv"
        write_matrix(p, M)
        rows = np.asarray(M, dtype=float)
        expected = "".join(",".join(f"{v:.16e}" for v in row) + "\n" for row in rows)
        assert p.read_bytes() == expected.encode()

    def test_deterministic_bytes(self, tmp_path):
        M = np.random.default_rng(5).standard_normal((5, 5))
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_matrix(a, M)
        write_matrix(b, M.copy())
        assert a.read_bytes() == b.read_bytes()


class TestCsv:
    def test_round_trip_and_formatting(self, tmp_path):
        p = tmp_path / "t.csv"
        rows = [[1, "omp", 0.125, True], [2, "bp", float("inf"), False]]
        write_csv(p, ["idx", "name", "err", "ok"], rows)
        header, data = read_csv(p)
        assert header == ["idx", "name", "err", "ok"]
        assert data[0] == ["1", "omp", "0.125", "true"]
        assert data[1][3] == "false"

    def test_format_cell_floats_round_trip(self):
        for v in (0.1, 1e-17, 123456.789, -3.5e300):
            assert float(format_cell(v)) == v

    def test_histogram_file(self, tmp_path):
        p = tmp_path / "h.csv"
        write_histogram(p, [(0.0, 3), (0.5, 1)])
        header, rows = read_csv(p)
        assert header == ["bin_lower", "count"]
        assert rows == [["0.0", "3"], ["0.5", "1"]]


class TestTrace:
    def test_columns_and_csv_layout(self, tmp_path):
        trace = Trace({"objective": [3.0, float("nan")], "mu": [0.5, 0.25]}, index="step")
        assert len(trace) == 2
        assert trace.mu.tolist() == [0.5, 0.25]
        assert trace.replacements == ()
        p = tmp_path / "trace.csv"
        trace.to_csv(p)
        header, rows = read_csv(p)
        assert header == ["step", "objective", "mu"]
        assert rows == [["0", "3.0", "0.5"], ["1", "nan", "0.25"]]

    def test_unknown_column_and_ragged_columns(self):
        trace = Trace({"objective": [1.0]})
        with pytest.raises(AttributeError):
            trace.term1
        with pytest.raises(ValueError):
            Trace({"term1": [1.0, 2.0], "term2": [1.0]})
