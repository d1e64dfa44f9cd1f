"""``dse_zoo``: array sweeps and chip frontiers over every zoo network.

One operation is one network: a fresh ``MappingEngine`` runs
``sweep_cycles`` over ``array_candidates(512*512)`` and then
``chip_pareto(pools=True)`` over 128/256/512 squares.  A round is one pass
over all networks.  ``chip`` and ``dse.pareto`` do nearly all of this work;
the other workloads do none of it.
"""

from __future__ import annotations

import random
from typing import Any, Dict, List, Optional, Tuple

import oracle
from common import Result, median, now, quantile, vm_hwm_mb
from spans import Tracer, patch_solve_path, solve_path_metrics, traced_registry

#: Passes in each half of a traced run.
TRACED_PASSES = 2
#: Seeded ``(network, array)`` sweep cells re-derived by the oracle per network.
SWEEP_SAMPLE = 4
SIDES = (128, 256, 512)


def oracle_layer(layer: Any) -> oracle.Layer:
    return oracle.Layer(ifm_h=layer.ifm_h, ifm_w=layer.ifm_w, k_h=layer.kernel_h,
                        k_w=layer.kernel_w, ic=layer.in_channels, oc=layer.out_channels,
                        stride=layer.stride, padding=layer.padding,
                        repeats=layer.repeats)


class Workload:
    name = "dse_zoo"

    def setup(self, seed: int) -> None:
        from repro import MappingEngine
        from repro.core import PIMArray
        from repro.dse.pareto import array_candidates
        from repro.networks.zoo import NETWORKS
        self.MappingEngine = MappingEngine
        self.seed = seed
        # The seed orders the networks within every pass.
        names = sorted(NETWORKS)
        random.Random(seed).shuffle(names)
        self.networks = [(name, NETWORKS[name]()) for name in names]
        self.arrays = array_candidates(512 * 512)
        self.pool = [PIMArray.square(s) for s in SIDES]
        self.latencies: List[float] = []
        self.first: Dict[str, Tuple[Any, Any]] = {}
        self.answered: List[Tuple[str, bool]] = []
        self._pass(self.MappingEngine, [], record=False)  # fills the geometry memos

    def _op(self, engine_factory: Any, name: str, network: Any) -> Tuple[Any, Any]:
        engine = engine_factory()
        cycles = engine.sweep_cycles(network, self.arrays)
        return cycles, engine.chip_pareto(network, self.pool, pools=True)

    def _record(self, name: str, answer: Tuple[Any, Any]) -> None:
        """Keep each network's first answer; later ones only as "the same?"."""
        first = self.first.setdefault(name, answer)
        self.answered.append((name, first is answer or signature(*first) == signature(*answer)))

    def _pass(self, engine_factory: Any, latencies: List[float],
              record: bool = True) -> float:
        busy = 0.0
        for name, network in self.networks:
            t0 = now()
            answer = self._op(engine_factory, name, network)
            elapsed = now() - t0
            latencies.append(elapsed)
            busy += elapsed
            if record:
                self._record(name, answer)
        return busy

    def run(self, seconds: float, result: Result) -> None:
        busy = 0.0
        while busy < seconds:
            busy += self._pass(self.MappingEngine, self.latencies)
        result.attempted += len(self.latencies)
        # A run holds only a few passes, too few for a raw tail: each
        # network's latency is its median over the passes, and the
        # percentiles run over those medians, one per operation.
        k = len(self.networks)
        per_network = [median(self.latencies[i::k]) for i in range(k)]
        typical = [per_network[i % k] for i in range(len(self.latencies))]
        result.metric("throughput_per_s", k / sum(per_network), "1/s")
        result.metric("latency_p50_ms", median(typical) * 1e3, "ms")
        result.metric("latency_p99_ms", quantile(typical, 0.99) * 1e3, "ms")
        result.metric("peak_rss_mb", vm_hwm_mb(), "MiB")

    def run_traced(self, seconds: float, result: Result,
                   tracer: Tracer) -> Dict[str, float]:
        import repro.dse.pareto as pareto
        from repro.chip.sweep import ChipLattice
        from repro.core.sweep import NetworkLattice

        plain: List[float] = []
        plain_busy = sum(self._pass(self.MappingEngine, plain)
                         for _ in range(TRACED_PASSES))

        tally = {"cells": 0, "candidates": 0, "frontier": 0}

        def count_cells(_: Any, args: tuple, kwargs: dict) -> None:
            arrays = args[1] if len(args) > 1 else kwargs["arrays"]
            tally["cells"] += args[0].num_cells * len(arrays)

        def count_candidates(sweep: Any, args: tuple, kwargs: dict) -> None:
            tally["candidates"] += len(sweep)

        def count_frontier(front: Any, args: tuple, kwargs: dict) -> None:
            tally["frontier"] += len(front)

        registry = traced_registry(tracer)

        def engine_factory() -> Any:
            engine = self.MappingEngine(registry=registry)
            tracer.patch(engine, "map", "api.engine.map")
            tracer.patch(engine, "chip_lattice", "api.engine.chip_lattice")
            return engine

        patch_solve_path(tracer)
        tracer.patch(NetworkLattice, "for_network", "core.sweep.for_network")
        tracer.patch(NetworkLattice, "cycles_for", "core.sweep.cycles_for", count_cells)
        tracer.patch(pareto, "pool_plans", "chip.pools.pool_plans")
        tracer.patch(pareto, "chip_pareto", "dse.pareto.chip_pareto", count_frontier)
        tracer.patch(ChipLattice, "frontier_counts", "chip.sweep.frontier_counts")
        tracer.patch(ChipLattice, "sweep", "chip.sweep.sweep", count_candidates)
        traced: List[float] = []
        try:
            for _ in range(TRACED_PASSES):
                for name, network in self.networks:
                    span = tracer.begin("dse_zoo.op")
                    t0 = now()
                    answer = self._op(engine_factory, name, network)
                    traced.append(now() - t0)
                    tracer.end(span)
                    self._record(name, answer)
        finally:
            tracer.restore()
        result.attempted += len(plain) + len(traced)
        ops = len(traced)
        layers = solve_path_metrics(tracer, ops)
        self_ms = {k: v * 1e3 / ops for k, v in tracer.self_times().items()}
        named = {
            "core.sweep.for_network_ms": "core.sweep.for_network",
            "core.sweep.cycles_for_ms": "core.sweep.cycles_for",
            "chip.pools.pool_plans_ms": "chip.pools.pool_plans",
            "api.engine.chip_lattice_ms": "api.engine.chip_lattice",
            "chip.sweep.frontier_counts_ms": "chip.sweep.frontier_counts",
            "chip.sweep.sweep_ms": "chip.sweep.sweep",
            "dse.pareto.chip_pareto_self_ms": "dse.pareto.chip_pareto",
        }
        for metric, span in named.items():
            layers[metric] = self_ms.get(span, 0.0)
        attributed = set(named.values()) | {
            "core.lattice.layer_lattice", "core.lattice.with_array",
            "search.space.argmin", "api.engine.map"} | {
            k for k in self_ms if k.startswith("search.solver.")}
        layers["dse_zoo.unattributed_ms"] = sum(
            v for k, v in self_ms.items() if k not in attributed)
        layers["dse.pareto.kept_ratio"] = tally["frontier"] / tally["candidates"]
        layers["core.sweep.cells"] = float(tally["cells"])
        layers["trace.overhead_ratio"] = plain_busy / sum(traced)
        return layers

    def check(self, result: Result) -> None:
        """Oracle-check each network's first answer; every answer must repeat it."""
        rng = random.Random(self.seed)
        errors = {name: check_network(name, network, self.arrays, *self.first[name], rng)
                  for name, network in self.networks}
        for name, same in self.answered:
            if errors[name] is not None:
                result.fail(errors[name])
            elif not same:
                result.fail(f"dse_zoo {name}: a later pass answered differently")


def signature(cycles: Any, front: Any) -> Tuple:
    return (tuple(int(c) for c in cycles),
            tuple((p.pool, p.num_arrays, p.cells, p.energy_nj, p.bottleneck_cycles)
                  for p in front))


def check_network(name: str, network: Any, arrays: List[Any], cycles: Any,
                  front: Any, rng: random.Random) -> Optional[str]:
    """Check one network's sweep and frontier: the first error, or ``None``."""
    layers = [oracle_layer(layer) for layer in network]
    table = {"resnet18": "resnet18", "vgg13": "vgg13"}.get(name)
    at_512 = next(i for i, a in enumerate(arrays) if (a.rows, a.cols) == (512, 512))
    if table is not None and int(cycles[at_512]) != oracle.TABLE_I[table]["vw-sdk"]:
        return (f"dse_zoo {name}: 512x512 total {int(cycles[at_512])} != "
                f"Table I {oracle.TABLE_I[table]['vw-sdk']}")
    for index in [at_512] + rng.sample(range(len(arrays)), SWEEP_SAMPLE):
        array = arrays[index]
        expected = sum(oracle.brute_force_min(layer, array.rows, array.cols)
                       for layer in layers)
        if int(cycles[index]) != expected:
            return (f"dse_zoo {name}: sweep at {array} {int(cycles[index])} "
                    f"!= oracle {expected}")
    objectives = [(p.cells, p.energy_nj, p.bottleneck_cycles) for p in front]
    if not front or not oracle.non_dominated(objectives):
        return f"dse_zoo {name}: frontier has a dominated or repeated point"
    stage_cache: Dict[Tuple, Tuple[int, int, int]] = {}
    for point in front:
        stages = []
        for solution in point.solutions:
            layer, array, window = solution.layer, solution.array, solution.window
            key = (layer.ifm_h, layer.ifm_w, layer.kernel_h, layer.kernel_w,
                   layer.in_channels, layer.out_channels, layer.stride,
                   layer.padding, layer.repeats, array.rows, array.cols,
                   window.h, window.w, solution.breakdown)
            if key not in stage_cache:
                bd = oracle.breakdown_for_window(oracle_layer(layer), array.rows,
                                                 array.cols, window.h, window.w)
                got = solution.breakdown
                if bd is None or (bd.n_pw, bd.ar, bd.ac) != (got.n_pw, got.ar, got.ac):
                    return (f"dse_zoo {name}: stage breakdown {got} for window "
                            f"{window}, oracle {bd}")
                stage_cache[key] = (bd.n_pw, bd.ar * bd.ac, layer.repeats)
            stages.append(stage_cache[key])
        best = oracle.minmax_bottleneck(stages, point.num_arrays)
        if best != point.bottleneck_cycles:
            return (f"dse_zoo {name}: {point.pool} x{point.num_arrays} bottleneck "
                    f"{point.bottleneck_cycles} != min-max optimum {best}")
    return None
