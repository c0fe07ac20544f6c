"""Process set-up shared by the benchmark's entry points.

``configure()`` must run before numpy is imported: it pins the BLAS
thread count and puts the checkout's ``src/`` first on ``sys.path`` so
the benchmark always measures the library source next to it, never an
installed copy.  ``environment()`` describes the machine a result was
measured on.
"""

from __future__ import annotations

import importlib.util
import os
import platform
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CONFIGS = ROOT / "configs"
OUT = ROOT / ".perfbench_out"

# One client, one process, one BLAS thread.  On a 2-core machine a second
# OpenBLAS thread saved under 5% on trap-ground and slowed quench-dynamics
# by 8%, while it doubled CPU time and the runs' sensitivity to load on
# the other core.
BLAS_THREADS = "1"
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class MissingSourceError(RuntimeError):
    """The checkout lacks the library source or the sample configs."""


def configure() -> None:
    for name in BLAS_ENV:
        os.environ[name] = BLAS_THREADS
    if not (SRC / "bogolib" / "__init__.py").is_file() or not CONFIGS.is_dir():
        raise MissingSourceError(f"no bogolib source or configs under {ROOT}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def _l3_size() -> str | None:
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            if (index / "level").read_text().strip() == "3":
                return (index / "size").read_text().strip()
        except OSError:
            continue
    return None


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    done = subprocess.run(
        ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
        capture_output=True,
        text=True,
        timeout=10,
        check=False,
    )
    return done.stdout.strip() or None


def environment(seed: int) -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "blas_threads": {name: os.environ.get(name) for name in BLAS_ENV},
        "l3_cache": _l3_size(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numba": importlib.util.find_spec("numba") is not None,
        "git_commit": _git_commit(),
        "seed": seed,
    }
