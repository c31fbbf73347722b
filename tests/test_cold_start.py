"""The package starts without the ``scipy.linalg`` package, and calls the same LAPACK.

``incoproj.linalg`` binds scipy's f2py LAPACK wrappers from the compiled
``scipy.linalg._flapack`` module, so no job imports ``scipy.linalg``,
whose ``__init__`` costs most of a cold start.  Each check runs in a fresh
interpreter, since this suite's own imports (the oracles, numpy.testing)
load those modules.  A job's process state is checked the same way: its
BLAS thread count, and its heap, which keeps freed temporaries mapped.
"""

import ctypes
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from incoproj import linalg
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


# Two ksvd jobs in one process on a planted 20x1000 set; prints the second job's minor faults.
SECOND_JOB_FAULTS = """
import contextlib, io, os, resource, sys
import numpy as np
from incoproj import cli

os.chdir(sys.argv[1])
rng = np.random.default_rng(7)
D = rng.standard_normal((20, 40))
Theta = np.zeros((40, 1000))
for i in range(1000):
    Theta[rng.choice(40, 3, replace=False), i] = rng.standard_normal(3)
np.savetxt("X.csv", D @ Theta, delimiter=",")
faults = []
for out in ("first", "second"):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(f"ksvd --signals X.csv --atoms 40 --sparsity 3 --iterations 10 --out-dir {out}".split())
    assert code == 0, out
    faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
print(faults[-1])
"""


def _fresh(code: str, *args: str, blas_threads: str | None = None) -> str:
    """Stdout of ``code`` run in a fresh interpreter with ``src`` on its path.

    ``OPENBLAS_NUM_THREADS`` is ``blas_threads`` if given, else unset: OpenBLAS's own thread count.
    """
    env = {name: value for name, value in os.environ.items() if name != "OPENBLAS_NUM_THREADS"}
    if blas_threads is not None:
        env["OPENBLAS_NUM_THREADS"] = blas_threads
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


@pytest.mark.skipif(getattr(ctypes.CDLL(None), "mallopt", None) is None, reason="libc has no mallopt")
def test_a_second_learning_job_reuses_the_heap(tmp_path):
    # With OPENBLAS_NUM_THREADS set, main skips set_blas_threads but still
    # keeps freed temporaries in the heap: without it the second job takes
    # about 5,000 minor faults, as the first job's freed blocks are unmapped.
    assert int(_fresh(SECOND_JOB_FAULTS, str(tmp_path), blas_threads="1")) < 500


def test_the_allocator_helper_does_nothing_without_mallopt(monkeypatch):
    # The helper sets mallopt once per process; its body is what a first call runs.
    monkeypatch.setattr(linalg.ctypes, "CDLL", lambda name: object())
    assert linalg.retain_freed_memory.__wrapped__() is None


def test_the_allocator_helper_sets_both_thresholds(monkeypatch):
    calls = []

    class Libc:
        @staticmethod
        def mallopt(param, value):
            calls.append((param, value))
            return 1

    monkeypatch.setattr(linalg.ctypes, "CDLL", lambda name: Libc)
    linalg.retain_freed_memory.__wrapped__()
    assert calls == [(linalg.M_MMAP_THRESHOLD, linalg.MMAP_THRESHOLD),
                     (linalg.M_TRIM_THRESHOLD, linalg.TRIM_THRESHOLD)]
