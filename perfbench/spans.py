"""In-memory span recorder used by traced runs.

Spans are recorded from the benchmark's own files, around calls into the
program's public functions: :meth:`Tracer.patch` swaps an attribute for a
wrapper and :meth:`Tracer.restore` puts every original back.  Each span is
``(name, start, end, parent)`` with ``parent`` the index of the enclosing
span (``-1`` for a root); self time is a span's duration minus the time its
direct children cover.  Spans stay in memory and are written out once, at
the end of the run.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

OnResult = Optional[Callable[[Any, tuple, dict], None]]


class Tracer:
    def __init__(self) -> None:
        self.spans: List[List[Any]] = []   # [name, start, end, parent]
        self._stack: List[int] = []
        self._patched: List[Tuple[Any, str, Any]] = []

    def begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent])
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn: Callable[..., Any],
             on_result: OnResult = None) -> Callable[..., Any]:
        """*fn* recording one span per call; *on_result* sees
        ``(result, args, kwargs)`` after each call, for counts."""
        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            index = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(index)
            if on_result is not None:
                on_result(result, args, kwargs)
            return result
        return traced

    def patch(self, owner: Any, attr: str, name: str,
              on_result: OnResult = None) -> None:
        """Replace ``owner.attr`` by a traced wrapper until :meth:`restore`.

        *owner* is a module, a class (plain methods and classmethods) or an
        instance (the wrapper shadows the bound method on that object only).
        """
        original = vars(owner).get(attr)
        self._patched.append((owner, attr, original))
        if isinstance(original, classmethod):
            setattr(owner, attr, classmethod(
                self.wrap(name, original.__func__, on_result)))
        else:
            setattr(owner, attr, self.wrap(name, getattr(owner, attr), on_result))

    def replace(self, owner: Any, attr: str, value: Any) -> None:
        """Set ``owner.attr`` to *value* until :meth:`restore`."""
        self._patched.append((owner, attr, vars(owner).get(attr)))
        setattr(owner, attr, value)

    def restore(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            if original is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    def self_times(self) -> Dict[str, float]:
        """Total self time (seconds) per span name."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        totals: Dict[str, float] = defaultdict(float)
        for i, (name, start, end, _) in enumerate(self.spans):
            totals[name] += (end - start) - child_time[i]
        return totals

    def total_times(self) -> Dict[str, float]:
        """Total inclusive time (seconds) per span name."""
        totals: Dict[str, float] = defaultdict(float)
        for name, start, end, _ in self.spans:
            totals[name] += end - start
        return totals

    def calls(self) -> Dict[str, int]:
        out: Dict[str, int] = defaultdict(int)
        for span in self.spans:
            out[span[0]] += 1
        return out

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as handle:
            json.dump({"fields": ["name", "start_s", "end_s", "parent"],
                       "spans": self.spans}, handle)


SCHEMES = ("vw-sdk", "im2col", "smd", "sdk")


def traced_registry(tracer: Tracer) -> Any:
    """A solver registry whose solvers record ``search.solver.<scheme>`` spans.

    Every scheme keeps its capabilities, so engines built on it take the
    same paths (batched sweeps included) as engines on the default registry.
    """
    from repro.api.registry import DEFAULT_REGISTRY, SolverRegistry
    registry = SolverRegistry()
    for scheme in DEFAULT_REGISTRY.names():
        info = DEFAULT_REGISTRY.get(scheme)
        registry.register(scheme, tracer.wrap(f"search.solver.{scheme}", info.solver),
                          capabilities=tuple(info.capabilities), summary=info.summary)
    return registry


def patch_solve_path(tracer: Tracer) -> None:
    """Trace the lattice build, the eq. 4-8 finish and Algorithm 1's argmin."""
    import repro.core.lattice as lattice
    from repro.search.space import CandidateSpace
    tracer.patch(lattice, "layer_lattice", "core.lattice.layer_lattice")
    tracer.patch(lattice.LayerLattice, "with_array", "core.lattice.with_array")
    tracer.patch(CandidateSpace, "argmin", "search.space.argmin")


def solve_path_metrics(tracer: Tracer, ops: int) -> Dict[str, float]:
    """Per-operation self time (ms) of the solve-path spans, plus solver calls."""
    self_ms = {k: v * 1e3 / ops for k, v in tracer.self_times().items()}
    calls = tracer.calls()
    out = {
        "core.lattice.layer_lattice_ms": self_ms.get("core.lattice.layer_lattice", 0.0),
        "core.lattice.with_array_ms": self_ms.get("core.lattice.with_array", 0.0),
        "search.space.argmin_ms": self_ms.get("search.space.argmin", 0.0),
        "api.engine.map_self_ms": self_ms.get("api.engine.map", 0.0),
        "api.engine.solver_calls": float(sum(
            n for k, n in calls.items() if k.startswith("search.solver."))),
    }
    for scheme in SCHEMES:
        out[f"search.solver_ms.{scheme}"] = self_ms.get(f"search.solver.{scheme}", 0.0)
    return out
