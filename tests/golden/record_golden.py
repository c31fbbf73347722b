"""Record the golden CLI corpus: for every case in cases.txt, the SHA-256 of
its stdout, its stderr and each file it writes, and its exit code.

    PYTHONPATH=src python tests/golden/record_golden.py [--keep DIR] [--against DIR]

Each case runs through ``incoproj.cli.main`` in a fresh temporary directory
that holds copies of ``inputs/``, at one BLAS thread as the CLI sets it.
Record at the commit whose outputs are the reference.  A change that means to
alter an output re-records, and names each changed case in CHANGES.md: after
writing, the script prints each case whose lines were added, changed or
dropped against the file it replaced.

``--keep DIR`` copies each case's directory to ``DIR/<case>``.  Run so at the
parent commit, ``--against DIR`` at the change then also prints, for each
changed CSV file, the largest absolute difference between its numeric cells
and the kept file's, and whether every other cell is equal.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import io
import math
import os
import shlex
import shutil
import sys
import tempfile
from pathlib import Path

from incoproj import cli

HERE = Path(__file__).resolve().parent
CASES = HERE / "cases.txt"
DIGESTS = HERE / "digests.txt"
INPUTS = HERE / "inputs"


def load_cases() -> dict[str, list[str]]:
    """Case name -> CLI arguments, in file order."""
    cases = {}
    for line in CASES.read_text().splitlines():
        if line.strip() and not line.startswith("#"):
            name, *argv = shlex.split(line)
            cases[name] = argv
    return cases


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_case(argv: list[str], workdir: Path) -> dict[str, str]:
    """Run one case in ``workdir``: its exit code, then the digests of stdout, stderr and every file it wrote."""
    shutil.copytree(INPUTS, workdir, dirs_exist_ok=True)
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:  # argparse's usage errors
                code = exc.code
    finally:
        os.chdir(cwd)
    items = {"exit": str(code), "stdout": _sha256(out.getvalue().encode()), "stderr": _sha256(err.getvalue().encode())}
    for path in sorted(workdir.rglob("*")):
        rel = path.relative_to(workdir).as_posix()
        if path.is_file() and not (INPUTS / rel).is_file():
            items[rel] = _sha256(path.read_bytes())
    return items


def read_digests() -> dict[str, dict[str, str]]:
    """Case name -> {item: digest or exit code}, as recorded."""
    recorded: dict[str, dict[str, str]] = {}
    for line in DIGESTS.read_text().splitlines():
        name, item, value = line.split()
        recorded.setdefault(name, {})[item] = value
    return recorded


def changed_cases(before: dict[str, dict[str, str]], after: dict[str, dict[str, str]]) -> list[str]:
    """One line per case whose recorded lines differ: ``added <case>``, ``dropped <case>``,
    or ``changed <case>: <item> ...`` naming each item added, changed or dropped."""
    report = []
    for name in {**before, **after}:
        old, new = before.get(name), after.get(name)
        if new is None:
            report.append(f"dropped {name}")
        elif old is None:
            report.append(f"added {name}")
        elif old != new:
            items = [item for item in {**old, **new} if old.get(item) != new.get(item)]
            report.append(f"changed {name}: {' '.join(items)}")
    return report


def csv_difference(old: Path, new: Path) -> tuple[float, bool]:
    """The largest absolute difference between cells of two CSV files that both read
    as numbers, and whether every other cell, and the files' shapes, are equal."""
    with old.open(newline="") as a, new.open(newline="") as b:
        old_rows, new_rows = list(csv.reader(a)), list(csv.reader(b))
    largest, equal = 0.0, len(old_rows) == len(new_rows)
    for old_row, new_row in zip(old_rows, new_rows):
        equal &= len(old_row) == len(new_row)
        for x, y in zip(old_row, new_row):
            if x == y:
                continue
            try:
                delta = abs(float(x) - float(y))
            except ValueError:
                delta = math.nan
            if math.isnan(delta):
                equal = False
            else:
                largest = max(largest, delta)
    return largest, equal


def main(args: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Record the golden CLI corpus to digests.txt.")
    parser.add_argument("--keep", type=Path, help="copy each case's directory to KEEP/<case>")
    parser.add_argument("--against", type=Path, help="compare each changed CSV file with AGAINST/<case>/<file>")
    opts = parser.parse_args(args)
    before = read_digests() if DIGESTS.exists() else {}
    with tempfile.TemporaryDirectory() as tmp:
        after = {name: run_case(argv, Path(tmp) / name) for name, argv in load_cases().items()}
        lines = [f"{name} {item} {value}" for name, items in after.items() for item, value in items.items()]
        DIGESTS.write_text("\n".join(lines) + "\n")
        print(f"recorded {len(lines)} digests of {len(after)} cases to {DIGESTS}")
        print("\n".join(changed_cases(before, after)) or "no case changed")
        if opts.against:
            for name, items in after.items():
                for item, digest in items.items():
                    if item.endswith(".csv") and before.get(name, {}).get(item, digest) != digest:
                        largest, equal = csv_difference(opts.against / name / item, Path(tmp) / name / item)
                        other = "equal" if equal else "DIFFER"
                        print(f"  {name} {item}: largest |delta| {largest:.2e}, other cells {other}")
        if opts.keep:
            shutil.copytree(tmp, opts.keep, dirs_exist_ok=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
