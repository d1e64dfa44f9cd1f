"""The repository benchmark: one command, three workloads.

    python3 perfbench/run.py --workload map_cold --seed 1 --seconds 20 --trace 0

prints, as its last line, one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics of a separate traced run with ``--trace 1``.

    python3 perfbench/run.py --repeat 10 [--workload NAME] [--seed FIRST]

runs each workload N times in fresh processes (seeds FIRST, FIRST+1, ...)
and prints each end-to-end metric's median and quartiles beside its bound
in ``BENCHMARK.json``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import time

T0 = time.perf_counter()  # set-up is timed from here

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from typing import Dict, List  # noqa: E402

from common import OUT, ROOT, Result, import_program, median, now  # noqa: E402

WORKLOADS = ("map_cold", "serve_mix", "dse_zoo")
#: Set-ups per run; ``setup_s`` is their median.
SETUP_SAMPLES = 3
DEFAULT_SEED = 1

#: Every per-layer metric, with its unit; a workload that does not cross a
#: layer reports 0 for it.
PER_LAYER: Dict[str, str] = {
    "core.lattice.layer_lattice_ms": "ms",
    "core.lattice.with_array_ms": "ms",
    "search.space.argmin_ms": "ms",
    "search.solver_ms.vw-sdk": "ms",
    "search.solver_ms.im2col": "ms",
    "search.solver_ms.smd": "ms",
    "search.solver_ms.sdk": "ms",
    "api.engine.map_self_ms": "ms",
    "map_cold.unattributed_ms": "ms",
    "server.rtt_memo_us": "us",
    "server.rtt_l1_us": "us",
    "server.rtt_l2_us": "us",
    "server.rtt_cold_us": "us",
    "server.worker.run_map_l1_us": "us",
    "server.worker.run_map_cold_us": "us",
    "server.transport_us": "us",
    "runtime.store.get_us": "us",
    "runtime.store.put_us": "us",
    "server.memo_hit_ratio": "ratio",
    "api.engine.l1_hit_ratio": "ratio",
    "runtime.store.hit_ratio": "ratio",
    "core.sweep.for_network_ms": "ms",
    "core.sweep.cycles_for_ms": "ms",
    "chip.pools.pool_plans_ms": "ms",
    "api.engine.chip_lattice_ms": "ms",
    "chip.sweep.frontier_counts_ms": "ms",
    "chip.sweep.sweep_ms": "ms",
    "dse.pareto.chip_pareto_self_ms": "ms",
    "dse.pareto.kept_ratio": "ratio",
    "dse_zoo.unattributed_ms": "ms",
    "trace.overhead_ratio": "ratio",
    "api.engine.solver_calls": "count",
    "core.sweep.cells": "count",
}


def workload_for(name: str):
    if name == "map_cold":
        import map_cold
        return map_cold.Workload()
    if name == "dse_zoo":
        import dse_zoo
        return dse_zoo.Workload()
    import serve_mix
    return serve_mix.Workload()


def setup_sample(args: argparse.Namespace) -> float:
    """One more complete set-up, in a fresh process; its ``setup_s``."""
    out = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-only"],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    return float(json.loads(out.stdout.strip().splitlines()[-1])["setup_s"])


def run_once(args: argparse.Namespace) -> int:
    import_program()
    workload = workload_for(args.workload)
    result = Result()
    try:
        workload.setup(args.seed)
        setup_s = now() - T0
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        if args.trace:
            from spans import Tracer
            tracer = Tracer()
            layers = workload.run_traced(args.seconds, result, tracer)
            tracer.dump(OUT / f"spans-{args.workload}-{args.seed}.json")
        else:
            workload.run(args.seconds, result)
        if hasattr(workload, "finish"):
            workload.finish(result)
    finally:
        if hasattr(workload, "close"):
            workload.close()
    workload.check(result)
    if args.trace:
        for name, unit in PER_LAYER.items():
            result.metric(name, layers.get(name, 0.0), unit)
    else:
        samples = [setup_s] + [setup_sample(args) for _ in range(SETUP_SAMPLES - 1)]
        result.metric("setup_s", median(samples), "s")
    result.emit()
    return 0


def repeat(args: argparse.Namespace) -> int:
    """Run each workload N times in fresh processes; print median/quartiles."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    names = [args.workload] if args.workload else [w["name"] for w in spec["workloads"]]
    for name in names:
        runs: List[dict] = []
        for i in range(args.repeat):
            seed = args.seed + i
            out = subprocess.run(
                [sys.executable, os.path.abspath(__file__), "--workload", name,
                 "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, timeout=900)
            if out.returncode != 0:
                sys.stderr.write(out.stderr)
                raise SystemExit(f"{name} seed {seed} exited {out.returncode}")
            runs.append(json.loads(out.stdout.strip().splitlines()[-1]))
        shares = sorted({(r["failed"], r["attempted"]) for r in runs})
        print(f"{name}: {len(runs)} runs, correct={all(r['correct'] for r in runs)}, "
              f"failed/attempted={[f'{f}/{a}' for f, a in shares]}")
        for metric, bound in bounds.items():
            values = [r["metrics"][metric]["value"] for r in runs]
            q1, q2, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / q2
            print(f"  {metric:18s} median {q2:12.4f}  q1 {q1:12.4f}  q3 {q3:12.4f}  "
                  f"spread {spread:6.3f}  bound {bound:.2f}  spread/bound {spread / bound:5.2f}")
            print(f"  {'':18s} runs {' '.join(f'{v:.4g}' for v in values)}")
        sys.stdout.flush()
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=0, metavar="N")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.repeat:
        return repeat(args)
    if args.workload is None:
        parser.error("--workload is required")
    return run_once(args)


if __name__ == "__main__":
    sys.exit(main())
