"""Machine facts recorded with every benchmark result.

Run as a script, this module measures the numpy copy rate on arrays at least
four times the last-level cache and prints it as one JSON object.  The
benchmark runs it in a child process, so its arrays never count toward the
peak memory of the workload process.
"""

from __future__ import annotations

import ctypes
import json
import os
import platform
import statistics
import sys
import time
from pathlib import Path

MIB = 1 << 20
COPY_REPEATS = 5


def nproc() -> int:
    """CPUs this process may run on."""
    return len(os.sched_getaffinity(0))


def llc_bytes() -> int | None:
    """Size of the highest-level CPU cache as sysfs reports it, or None."""
    best = None
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = int((index / "level").read_text())
            size = (index / "size").read_text().strip()
        except (OSError, ValueError):
            continue
        scale = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}.get(size[-1:], 1)
        value = int(size.rstrip("KMG")) * scale
        if best is None or level > best[0]:
            best = (level, value)
    return best[1] if best else None


def copy_array_bytes() -> int:
    """Copy-probe array size: four times the last-level cache, at least 64 MiB."""
    return max(4 * (llc_bytes() or 0), 64 * MIB)


def measure_copy() -> dict:
    """Median rate of ``np.copyto`` between two float64 arrays, in GB/s.

    The rate counts the bytes of the source array once (the copy writes as
    many again); the first copy only faults in the destination pages.
    """
    import numpy as np

    nbytes = copy_array_bytes()
    src = np.ones(nbytes // 8)
    dst = np.empty_like(src)
    np.copyto(dst, src)
    times = []
    for _ in range(COPY_REPEATS):
        t0 = time.perf_counter()
        np.copyto(dst, src)
        times.append(time.perf_counter() - t0)
    return {"copy_gbs": nbytes / statistics.median(times) / 1e9,
            "copy_array_mib": nbytes / MIB}


def blas_info() -> dict:
    """BLAS name and version from numpy's build record, plus the live thread count."""
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {"blas_name": blas.get("name"), "blas_version": blas.get("version"),
            "blas_threads": _openblas_threads()}


def _openblas_threads() -> int | None:
    """Ask the loaded OpenBLAS for its thread count; None if it is not OpenBLAS."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line and ".so" in line}
    except OSError:
        return None
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for symbol in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads64_"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def python_info() -> dict:
    import numpy as np

    return {"python": platform.python_version(), "numpy": np.__version__,
            "platform": platform.platform()}


if __name__ == "__main__":
    json.dump(measure_copy(), sys.stdout)
    sys.stdout.write("\n")
