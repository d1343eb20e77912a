"""Host fingerprint, thread pinning and process bookkeeping."""

from __future__ import annotations

import os
import platform
import resource
from importlib import metadata
from typing import Dict, List

#: BLAS/OpenMP thread knobs, pinned to one thread per process so pooled
#: workers never oversubscribe the cores.
THREAD_ENV = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def pin_threads() -> None:
    for var in THREAD_ENV:
        os.environ[var] = "1"


def _version(package: str) -> str:
    try:
        return metadata.version(package)
    except metadata.PackageNotFoundError:
        return "missing"


def fingerprint() -> Dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "thread_env": {var: os.environ.get(var) for var in THREAD_ENV},
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "machine": platform.machine(),
        "loadavg": [round(x, 2) for x in os.getloadavg()],
    }


def children(pid: int) -> List[int]:
    """Live direct children of ``pid`` (from ``/proc``)."""
    out = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii") as fh:
                fields = fh.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[1]) == pid:
            out.append(int(entry))
    return out


def _hwm_kib(pid) -> int:
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def peak_rss_mb() -> float:
    """Peak RSS of this process plus its largest child, live or reaped."""
    largest = max(
        [_hwm_kib(pid) for pid in children(os.getpid())]
        + [resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss],
        default=0,
    )
    return (_hwm_kib("self") + largest) / 1024.0
