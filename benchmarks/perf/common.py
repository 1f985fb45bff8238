"""Shared plumbing of the perf benchmark: paths, statistics, provenance.

Importing this module puts the repo's ``src/`` on ``sys.path`` so that
``run.py`` and ``server.py`` work from a bare checkout without
``PYTHONPATH``.  A checkout without ``src/repro`` (the benchmark files
alone) is refused with exit code 2.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"

if not (SRC / "repro" / "__init__.py").is_file():
    sys.stderr.write(
        f"perf benchmark: {SRC}/repro not found — run from a full checkout\n"
    )
    raise SystemExit(2)
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402 — after the checkout check above

BENCHMARK_JSON = ROOT / "BENCHMARK.json"


def load_contract() -> dict:
    """``BENCHMARK.json``: metric names, units, directions and bounds."""
    return json.loads(BENCHMARK_JSON.read_text())


# -- statistics --------------------------------------------------------------


def median(values) -> float:
    return percentile(values, 50)


def percentile(values, q: float) -> float:
    """Linear-interpolated percentile, ``q`` in [0, 100]; 0.0 when every
    operation failed and nothing was timed (the run is incorrect then)."""
    if len(values) == 0:
        return 0.0
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def ms(seconds: float) -> float:
    return seconds * 1e3


# -- resource use ------------------------------------------------------------


def cpu_seconds() -> float:
    """User + system CPU of this process (all threads) so far."""
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def peak_rss_mb() -> float:
    """Peak resident set of this process, from ``VmHWM``.

    Not ``ru_maxrss``: Linux carries that high-water mark across
    ``exec``, so a subprocess would start at its parent's peak.
    """
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- provenance --------------------------------------------------------------


def git_sha() -> str:
    """HEAD of the checkout, or ``unknown`` outside a git repository."""
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10, check=False,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else "unknown"


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.lower().startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def fingerprint() -> dict:
    """What a later reader needs to decide whether two records compare."""
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
    }
