"""The environment record printed and stored with every result."""

import ctypes
import hashlib
import importlib.metadata
import os
import platform
import subprocess

import common

_THREAD_QUERIES = (
    "scipy_openblas_get_num_threads64_",
    "scipy_openblas_get_num_threads",
    "openblas_get_num_threads64_",
    "openblas_get_num_threads",
    "MKL_Get_Max_Threads",
)


def blas_pools():
    """Thread count of every BLAS library mapped into this process."""
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({ln.split()[-1] for ln in fh
                            if "blas" in ln.lower() and ".so" in ln})
    except OSError:
        return []
    pools = []
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in _THREAD_QUERIES:
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                pools.append({"library": path.rsplit("/", 1)[-1], "threads": fn()})
                break
    return pools


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _git_commit():
    try:
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=common.ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return res.stdout.strip() if res.returncode == 0 else None


def _source_digest():
    h = hashlib.sha256()
    for path in sorted((common.SRC / "dualcurl").rglob("*.py")):
        h.update(path.relative_to(common.SRC).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def environment(seed):
    """Call after numpy and dualcurl are imported, so their BLAS is mapped."""
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    pools = blas_pools()
    n = len(os.sched_getaffinity(0))
    too_many = [p for p in pools if p["threads"] > n]
    if too_many:
        raise SystemExit(f"error: BLAS thread pools {too_many} exceed nproc={n}")
    return {
        "nproc": n,
        "cpu": _cpu_model(),
        "blas_vendor": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": pools,
        "numpy": np.__version__,
        "scipy": importlib.metadata.version("scipy"),
        "python": platform.python_version(),
        "commit": _git_commit(),
        "source_sha256": _source_digest(),
        "seed": seed,
    }
