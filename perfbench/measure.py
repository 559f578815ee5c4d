"""Sample statistics, memory readings, host fields and calibration."""

from __future__ import annotations

import os
import platform
import statistics
import sys
import time
from typing import Dict, List, Sequence

#: Environment variables pinned to one BLAS/OpenMP thread per executor
#: slot; ``run.py`` sets them before numpy is imported.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
#: Calibration-loop time of the reference host speed that rates and
#: set-up times are scaled to (a quiet 2-vCPU x86-64 VM running CPython
#: 3.11 times :func:`calibrate_ms` at ~15 ms).
CALIB_REF_MS = 15.0


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values)) if values else 0.0


def tail(values: Sequence[float]) -> Dict[str, object]:
    """Median plus the highest percentile with >= 10 samples beyond it.

    Of ``n`` sorted samples, the ``(n - 10)``-th is the highest that still
    has ten above it: percentile ``100 * (n - 10) / n``.  With fewer than
    20 samples that would fall below the median, so no tail is given.
    """
    vals = sorted(values)
    n = len(vals)
    out: Dict[str, object] = {"median": median(vals), "n": n,
                              "tail_pct": None, "tail": None}
    if n >= 20:
        out["tail_pct"] = 100.0 * (n - 10) / n
        out["tail"] = vals[n - 11]
    return out


def _proc_status(field: str) -> float:
    """A ``/proc/self/status`` memory field in MiB (0.0 off Linux)."""
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith(field + ":"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def rss_mb() -> float:
    return _proc_status("VmRSS")


def rss_peak_mb() -> float:
    return _proc_status("VmHWM")


def reset_rss_peak() -> bool:
    """Restart the kernel's peak-RSS mark; False where unsupported."""
    try:
        with open("/proc/self/clear_refs", "w", encoding="ascii") as fh:
            fh.write("5")
        return True
    except OSError:
        return False


def calibrate_ms(loops: int = 200_000) -> float:
    """Time a fixed pure-Python loop: the host-speed reference."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(loops):
        acc += i * i % 7
    elapsed = time.perf_counter() - t0
    if acc < 0:  # consumes the result
        raise AssertionError(acc)
    return elapsed * 1e3


def host_fields() -> Dict[str, object]:
    import numpy as np

    blas = "unknown"
    try:
        config = np.show_config(mode="dicts")
        info = config.get("Build Dependencies", {}).get("blas", {})
        blas = f"{info.get('name', '?')} {info.get('version', '?')}"
    except (TypeError, AttributeError):
        pass
    return {
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "implementation": platform.python_implementation(),
        "numpy": np.__version__,
        "blas": blas,
        "machine": platform.machine(),
        "thread_pinning": {var: os.environ.get(var) for var in THREAD_VARS},
    }


class Samples:
    """Named sample lists for one workload run."""

    def __init__(self) -> None:
        self.values: Dict[str, List[float]] = {}

    def add(self, name: str, value: float) -> None:
        self.values.setdefault(name, []).append(float(value))

    def extend(self, name: str, values: Sequence[float]) -> None:
        self.values.setdefault(name, []).extend(float(v) for v in values)

    def median(self, name: str) -> float:
        return median(self.values.get(name, ()))
