"""Helpers shared by the orchestrator (``run.py``) and the workload processes.

A workload process is started by ``run.py`` in a fresh interpreter with
:func:`production_env`. It takes ``--seed``, ``--seconds``, optionally
``--trace-out PATH`` (traced run) or ``--setup-only`` (set up, report
``setup_s``, exit), and prints one JSON object as its last stdout line
(see :func:`emit`).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import sys
from typing import Dict, List, Optional, Sequence

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
#: Scratch space (fresh cache directories) and trace output, in the checkout.
WORK = os.path.join(ROOT, ".perfbench")

#: Debug machinery that tests switch on and production leaves off.
DEBUG_ENV = ("REPRO_VERIFY_GRAPHS", "REPRO_SANITIZE",
             "REPRO_SANITIZE_ARTIFACT", "REPRO_FAULT_PLAN",
             "REPRO_KERNEL_THREADS")
#: One BLAS thread (at most nproc): no BLAS pool competes with the server
#: or the load generator for cores, and step times do not depend on how
#: many cores happen to be idle.
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

if SRC not in sys.path:
    sys.path.insert(0, SRC)


def production_env() -> Dict[str, str]:
    """The environment every workload (and the server) runs under."""
    env = {k: v for k, v in os.environ.items() if k not in DEBUG_ENV}
    for name in BLAS_ENV:
        env[name] = str(BLAS_THREADS)
    env["PYTHONPATH"] = SRC
    return env


def settings() -> Dict[str, object]:
    """The production settings the report prints beside the metrics."""
    env = production_env()
    shown = {name: env.get(name, "<unset>") for name in DEBUG_ENV + BLAS_ENV}
    shown["nproc"] = os.cpu_count()
    shown["python"] = sys.version.split()[0]
    return shown


def child_args() -> argparse.Namespace:
    p = argparse.ArgumentParser()
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace-out", default=None)
    p.add_argument("--setup-only", action="store_true")
    return p.parse_args()


def emit(result: dict) -> None:
    """Print the process's result as its last stdout line."""
    sys.stdout.flush()
    print(json.dumps(result), flush=True)


def peak_rss_mb(pid: Optional[int] = None) -> float:
    """Peak resident set size (VmHWM) of *pid*, default this process."""
    if pid is None:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(f"/proc/{pid}/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def percentile(values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return float(ordered[rank - 1])


def timing(samples_s: Sequence[float], unit: str = "ms") -> dict:
    """A median timing record with its sample count (seconds in)."""
    scale = 1000.0 if unit == "ms" else 1.0
    return {"value": statistics.median(samples_s) * scale, "unit": unit,
            "n": len(samples_s)}


class Checks:
    """Correctness checks; each failure is one failed operation."""

    def __init__(self) -> None:
        self.results: List[list] = []

    def check(self, name: str, ok: bool, detail: str = "") -> bool:
        self.results.append([name, bool(ok), detail])
        return bool(ok)

    @property
    def failed(self) -> int:
        return sum(1 for _, ok, _ in self.results if not ok)
