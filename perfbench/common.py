"""Shared plumbing: locating the program, timing, memory and the result line."""

from __future__ import annotations

import json
import os
import statistics
import sys
import time
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence

#: Root of the checkout the benchmark runs in (the parent of ``perfbench/``).
ROOT = Path(__file__).resolve().parent.parent
#: The program's sources; the benchmark runs them straight from the tree.
SRC = ROOT / "src"
#: Scratch space for stores and span dumps (ignored by git).
OUT = Path(__file__).resolve().parent / "out"


def import_program() -> None:
    """Put ``src/`` on the path and import the package, or exit non-zero."""
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no program sources under {SRC}\n")
        raise SystemExit(2)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import repro  # noqa: F401  (fails loudly when a dependency is missing)


def program_env() -> Dict[str, str]:
    """Environment for child processes that import the program."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"]
                                    if env.get("PYTHONPATH") else "")
    return env


def vm_hwm_mb(pid: Optional[int] = None) -> float:
    """Peak resident set (``VmHWM``) of *pid* (default: this process), MiB."""
    path = f"/proc/{pid if pid is not None else 'self'}/status"
    try:
        with open(path) as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def quantile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated quantile (``q`` in [0, 1]) of *values*."""
    data = sorted(values)
    if not data:
        return 0.0
    pos = q * (len(data) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


def windowed_quantile(values: Sequence[float], q: float, window: int) -> float:
    """Median over consecutive full windows of *window* samples of each
    window's *q* quantile; a burst of interference moves one window, not
    the figure."""
    windows = [values[i:i + window] for i in range(0, len(values) - window + 1, window)]
    return median(quantile(w, q) for w in windows) if windows else quantile(values, q)


def median(values: Iterable[float]) -> float:
    data = list(values)
    return statistics.median(data) if data else 0.0


def now() -> float:
    return time.perf_counter()


class Result:
    """Operation counts, correctness and metrics of one run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.problems: List[str] = []
        self.metrics: Dict[str, Dict[str, float]] = {}

    def fail(self, message: str, *, wrong_answer: bool = True) -> None:
        """Record a failed operation; a wrong answer also clears ``correct``."""
        self.failed += 1
        if wrong_answer:
            self.correct = False
        if len(self.problems) < 20:
            self.problems.append(message)

    def broken(self, message: str) -> None:
        """Record a failed whole-run check (no single operation to blame)."""
        self.correct = False
        if len(self.problems) < 20:
            self.problems.append(message)

    def metric(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = {"value": float(value), "unit": unit}

    def emit(self) -> None:
        for problem in self.problems:
            sys.stderr.write(f"perfbench: {problem}\n")
        print(json.dumps({"correct": self.correct, "attempted": self.attempted,
                          "failed": self.failed, "metrics": self.metrics}))
