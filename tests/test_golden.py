"""The CLI still writes the recorded golden corpus, byte for byte.

``tests/golden/cases.txt`` lists small CLI invocations, and
``tests/golden/digests.txt`` holds the SHA-256 of each one's stdout, stderr
and written files, and its exit code, as ``tests/golden/record_golden.py``
recorded them.  A change that alters any of these fails here; one that
means to re-records the digests and names each changed case.
"""

import sys
from pathlib import Path

import pytest

sys.path.append(str(Path(__file__).resolve().parent / "golden"))
import record_golden  # noqa: E402

CASES = record_golden.load_cases()
RECORDED = record_golden.read_digests()


def test_every_case_is_recorded():
    assert list(RECORDED) == list(CASES)


@pytest.mark.parametrize("name", list(CASES))
def test_case_matches_its_recorded_digests(tmp_path, name):
    assert record_golden.run_case(CASES[name], tmp_path / name) == RECORDED[name]


def test_a_rerecording_names_each_changed_case():
    before = {"kept": {"exit": "0"}, "moved": {"exit": "0", "stdout": "a", "old.csv": "b"}, "gone": {"exit": "1"}}
    after = {"kept": {"exit": "0"}, "moved": {"exit": "0", "stdout": "c", "new.csv": "d"}, "new": {"exit": "0"}}
    assert record_golden.changed_cases(before, after) == [
        "changed moved: stdout old.csv new.csv",
        "dropped gone",
        "added new",
    ]


def test_a_changed_csv_reports_its_largest_numeric_difference(tmp_path):
    old, new = tmp_path / "old.csv", tmp_path / "new.csv"
    old.write_text("S,status,error\n1,converged,0.5\n2,max_iter,inf\n")
    new.write_text("S,status,error\n1,converged,0.5000000000000003\n2,max_iter,inf\n")
    assert record_golden.csv_difference(old, new) == (abs(0.5 - 0.5000000000000003), True)
    new.write_text("S,status,error\n1,max_iter,0.25\n2,max_iter,nan\n")
    assert record_golden.csv_difference(old, new) == (0.25, False)
    new.write_text("S,status,error\n1,converged,0.5\n")
    assert record_golden.csv_difference(old, new) == (0.0, False)
