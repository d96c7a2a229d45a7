"""Paths, child-process helpers and the quantile shared by the benchmark."""

import os
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def pin_blas_threads():
    """Run every BLAS pool on one thread; children inherit the setting.

    Must run before numpy is imported.  On a shared 2-CPU machine two
    OpenBLAS threads made an N=16 solve 1.7x slower and tripled its
    p10-p90 spread, so the benchmark measures the single-threaded program.
    """
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"


def use_source_tree():
    """Import dualcurl from this checkout's src/, never from an install."""
    if not (SRC / "dualcurl" / "__init__.py").is_file():
        raise SystemExit(f"error: no dualcurl package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


def scratch_dir():
    """A fresh directory under the checkout for one child's files."""
    (OUT / "tmp").mkdir(parents=True, exist_ok=True)
    return Path(tempfile.mkdtemp(dir=OUT / "tmp"))


def run_child(argv, timeout, stdout, stderr):
    """Run a child to completion; return (exit code, wall s, peak RSS MB).

    The peak RSS is the child's own, read from wait4, so earlier children
    of this process do not leak into it.
    """
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=stdout, stderr=stderr, cwd=ROOT, env=child_env())
    killer = threading.Timer(timeout, proc.kill)
    killer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        killer.cancel()
        killer.join()
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


def quantile(values, q):
    """Linear-interpolation quantile of a non-empty sample, q in [0, 1]."""
    xs = sorted(values)
    if len(xs) == 1:
        return xs[0]
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)
