"""The package starts without the ``scipy.linalg`` package, and calls the same LAPACK.

``incoproj.linalg`` binds scipy's f2py LAPACK wrappers from the compiled
``scipy.linalg._flapack`` module, so no job imports ``scipy.linalg``,
whose ``__init__`` costs most of a cold start.  Each check runs in a fresh
interpreter, since this suite's own imports (the oracles, numpy.testing)
load those modules.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from incoproj.linalg import _load_flapack

ROOT = Path(__file__).resolve().parents[1]
INPUTS = ROOT / "tests" / "golden" / "inputs"
WRAPPERS = ("dsyevr", "dsyevr_lwork", "dpotrf", "dpotrs", "dpocon")
# scipy's package, and what scipy.linalg's __init__ pulls in.
HEAVY = ("scipy", "scipy.linalg", "scipy._lib._array_api", "numpy.f2py", "numpy.testing")

JOBS = """
import contextlib, io, os, shutil, sys
from incoproj import cli

shutil.copytree(sys.argv[1], sys.argv[2])
os.chdir(sys.argv[2])
jobs = [
    "bench --config tiny-both.cfg --out-dir bench",
    "design --method elad --n 10 --k 20 --dict-seed 3 --m 6 --iterations 5 --out-dir elad",
    "design --method sapiro --n 10 --k 20 --dict-seed 3 --m 6 --out-dir sapiro",
    "design --method altproj --n 10 --k 20 --dict-seed 3 --m 6 --iterations 10 --out-dir altproj",
    "ksvd --signals signals.csv --atoms 12 --sparsity 2 --iterations 3 --out-dir ksvd",
    "coupled --signals signals.csv --measurements measurements.csv --atoms 12 --sparsity 2"
    " --outer 2 --inner sapiro --out-dir coupled",
]
for job in jobs:
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(job.split())
    assert code == 0, job
print(" ".join(name for name in sys.argv[3:] if name in sys.modules))
"""

SAME_OBJECTS = """
import sys
first, second = sys.argv[1:3]
__import__(first)
__import__(second)
import incoproj.linalg, scipy.linalg.lapack
print(" ".join(name for name in sys.argv[3:]
               if getattr(incoproj.linalg, name) is not getattr(scipy.linalg.lapack, name)))
"""

THREADS = """
import ctypes, glob, os
from incoproj import linalg

linalg.set_blas_threads(1)
for root in (os.path.dirname(linalg.np.__file__), linalg._SCIPY_DIR):
    for path in glob.glob(root + ".libs/*openblas*"):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                print(os.path.basename(root), getter())
"""


def _fresh(code: str, *args: str) -> str:
    """Stdout of ``code`` run in a fresh interpreter with ``src`` on its path, at OpenBLAS's own thread count."""
    env = {name: value for name, value in os.environ.items() if name != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", code, *args], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    return done.stdout.strip()


def test_cli_jobs_never_import_scipy_linalg(tmp_path):
    assert _fresh(JOBS, str(INPUTS), str(tmp_path / "work"), *HEAVY) == ""


@pytest.mark.parametrize("first, second", [("incoproj.linalg", "scipy.linalg.lapack"),
                                           ("scipy.linalg.lapack", "incoproj.linalg")])
def test_wrappers_are_scipys_own_objects(first, second):
    assert _fresh(SAME_OBJECTS, first, second, *WRAPPERS) == ""


def test_blas_threads_are_set_in_numpys_and_scipys_openblas():
    assert sorted(_fresh(THREADS).splitlines()) == ["numpy 1", "scipy 1"]


def test_missing_compiled_module_names_the_folder(tmp_path):
    with pytest.raises(ImportError, match=re.escape(f"no compiled _flapack module in {tmp_path / 'linalg'}")):
        _load_flapack(str(tmp_path))
