"""``map_cold``: a closed-loop stream of distinct problems through ``MappingEngine.map``.

Every problem is new, so neither the engine's 4096-entry memo nor the
64-entry geometry memo in ``core.lattice`` can answer it: this is the solve
path (lattice build, eq. 4-8 finish, Algorithm 1 argmin) with no cache help.
"""

from __future__ import annotations

import math
import random
from array import array
from collections import OrderedDict
from typing import Any, Dict, List, Sequence, Tuple

import oracle
from common import Result, median, now, vm_hwm_mb, windowed_quantile
from spans import Tracer, patch_solve_path, solve_path_metrics, traced_registry

#: Problems per round; a run attempts whole rounds.
ROUND = 256
#: Rounds in each half of a traced run (6144 problems: the memo evicts).
TRACED_ROUNDS = 24
#: Scheme counts per round; ``vw-sdk`` is the scheme users run most.
SCHEME_DECK = ("vw-sdk",) * 11 + ("im2col",) * 3 + ("smd",) * 3 + ("sdk",) * 3
CHANNELS = (3, 16, 24, 32, 48, 64, 96, 128, 192, 256, 384, 512)
SIDES = (128, 256, 512, 1024)
#: Samples per window of the p99 estimate (10 beyond each window's p99).
P99_WINDOW = 1024
#: Problems within which none repeats (twice the engine memo's 4096).
DISTINCT_SPAN = 8192
#: Seeded share of stride-1 ``vw-sdk`` answers re-derived by brute force.
BRUTE_FORCE_SAMPLE = 300

Problem = Tuple[int, int, int, int, int, int, int, int, int, int, str]


def deck(values: Sequence[Any], n: int, rng: random.Random) -> List[Any]:
    """*n* draws covering *values* as evenly as possible, in seeded order.

    Every round then has the same make-up whatever the seed, so rounds,
    runs and seeds differ only in which problems they hold.
    """
    out = list(values) * (n // len(values)) + rng.sample(list(values), n % len(values))
    rng.shuffle(out)
    return out


def log_sides(n: int, rng: random.Random) -> List[int]:
    """*n* IFM sides, log-uniform in 7..224 and stratified over that range."""
    lo, hi = math.log(7), math.log(224)
    out = [int(round(math.exp(lo + (i + rng.random()) / n * (hi - lo)))) for i in range(n)]
    rng.shuffle(out)
    return out


def problem_rounds(seed: object):
    """Endless rounds of ``ROUND`` distinct problems for *seed*.

    ``(ifm_h, ifm_w, k_h, k_w, ic, oc, stride, padding, rows, cols, scheme)``.
    IFM sides are log-uniform in 7..224 (40% rectangular), kernels 1..7
    (30% rectangular), stride 1 (70%) or 2, padding 0..3, arrays 128..1024
    per side (half rectangular).  SDK answers only stride-1 layers: on
    strided layers it fails (see CHANGES.md), so SDK draws get stride 1.
    No problem repeats within ``DISTINCT_SPAN`` problems, more than the
    engine memo holds, so no cache can answer one.
    """
    rng = random.Random(seed)
    recent: "OrderedDict[Problem, None]" = OrderedDict()
    n = ROUND
    while True:
        rows = deck(SIDES, n, rng)
        cols = [r if square else c for r, c, square in
                zip(rows, deck(SIDES, n, rng), deck((True, False), n, rng))]
        kernels = deck(range(1, 8), n, rng)
        problems = []
        for ifm_h, ifm_w, rect_ifm, k_h, k_w, rect_k, scheme, strided, padding, r, c in zip(
                log_sides(n, rng), log_sides(n, rng), deck((0, 0, 0, 1, 1), n, rng),
                kernels, deck(range(1, 8), n, rng), deck((0, 0, 0, 0, 0, 0, 0, 1, 1, 1), n, rng),
                deck(SCHEME_DECK, n, rng), deck((0,) * 7 + (1,) * 3, n, rng),
                deck(range(4), n, rng), rows, cols):
            ifm_w = ifm_w if rect_ifm else ifm_h
            k_w = k_w if rect_k else k_h
            stride = 2 if strided and scheme != "sdk" else 1
            k_h, k_w = min(k_h, ifm_h + 2 * padding), min(k_w, ifm_w + 2 * padding)
            while True:
                problem = (ifm_h, ifm_w, k_h, k_w, rng.choice(CHANNELS),
                           rng.choice(CHANNELS), stride, padding, r, c, scheme)
                if problem not in recent:
                    break
            recent[problem] = None
            if len(recent) > DISTINCT_SPAN:
                recent.popitem(last=False)
            problems.append(problem)
        yield problems


class Workload:
    name = "map_cold"

    def setup(self, seed: int) -> None:
        from repro import MappingEngine
        from repro.api.request import MappingRequest
        from repro.core import ConvLayer, PIMArray
        self.MappingRequest, self.ConvLayer, self.PIMArray = MappingRequest, ConvLayer, PIMArray
        self.seed = seed
        self.rounds = problem_rounds(seed)
        self.engine = MappingEngine()
        # Answers are kept as packed integers and the problems are drawn
        # again from the seed for the checks, so the benchmark's own
        # bookkeeping adds little to the peak RSS it reports.
        self.answers = array("q")
        self.latencies = array("d")
        # Warm-up: import-time lazies and first-call paths, on problems
        # from a stream of its own, so the measured problems stay unseen.
        for problem in next(problem_rounds(f"warm-up {seed}"))[:64]:
            self.engine.map(self._request(problem))
        self.engine.cache_clear()

    def _request(self, p: Problem):
        layer = self.ConvLayer(ifm_h=p[0], ifm_w=p[1], kernel_h=p[2], kernel_w=p[3],
                               in_channels=p[4], out_channels=p[5], stride=p[6],
                               padding=p[7])
        return self.MappingRequest(layer=layer, array=self.PIMArray(p[8], p[9]),
                                   scheme=p[10])

    def _round(self, engine: Any, latencies: Any) -> float:
        requests = [self._request(p) for p in next(self.rounds)]
        solutions = []
        start = now()
        for request in requests:
            t0 = now()
            solutions.append(engine.map(request).solution)
            latencies.append(now() - t0)
        elapsed = now() - start
        for solution in solutions:
            self.answers.extend(packed(solution))
        return elapsed

    def run(self, seconds: float, result: Result) -> None:
        busy, rates = 0.0, []
        while busy < seconds:
            elapsed = self._round(self.engine, self.latencies)
            busy += elapsed
            rates.append(ROUND / elapsed)
        result.attempted += len(self.latencies)
        result.metric("throughput_per_s", median(rates), "1/s")
        result.metric("latency_p50_ms", median(self.latencies) * 1e3, "ms")
        result.metric("latency_p99_ms",
                      windowed_quantile(self.latencies, 0.99, P99_WINDOW) * 1e3, "ms")
        result.metric("peak_rss_mb", vm_hwm_mb(), "MiB")

    def run_traced(self, seconds: float, result: Result,
                   tracer: Tracer) -> Dict[str, float]:
        from repro import MappingEngine
        plain = array("d")
        plain_busy = sum(self._round(self.engine, plain) for _ in range(TRACED_ROUNDS))

        engine = MappingEngine(registry=traced_registry(tracer))
        tracer.patch(engine, "map", "api.engine.map")
        patch_solve_path(tracer)
        traced: List[float] = []
        traced_busy = 0.0
        try:
            for _ in range(TRACED_ROUNDS):
                requests = [self._request(p) for p in next(self.rounds)]
                solutions = []
                start = now()
                for request in requests:
                    span = tracer.begin("map_cold.op")
                    t0 = now()
                    solutions.append(engine.map(request).solution)
                    traced.append(now() - t0)
                    tracer.end(span)
                traced_busy += now() - start
                for solution in solutions:
                    self.answers.extend(packed(solution))
        finally:
            tracer.restore()
        result.attempted += len(plain) + len(traced)
        ops = len(traced)
        layers = solve_path_metrics(tracer, ops)
        layers["map_cold.unattributed_ms"] = tracer.self_times()["map_cold.op"] * 1e3 / ops
        layers["trace.overhead_ratio"] = (ops / traced_busy) / (len(plain) / plain_busy)
        return layers

    def check(self, result: Result) -> None:
        """Check every answer against the oracle (after the timed region)."""
        count = len(self.answers) // PACKED
        rounds = problem_rounds(self.seed)
        problems = [p for _ in range(count // ROUND) for p in next(rounds)]
        stride1_vw = [i for i, p in enumerate(problems) if p[10] == "vw-sdk" and p[6] == 1]
        sample = set(random.Random(self.seed).sample(
            stride1_vw, min(BRUTE_FORCE_SAMPLE, len(stride1_vw))))
        for index, p in enumerate(problems):
            a = self.answers[index * PACKED:(index + 1) * PACKED]
            answer = {"scheme": SCHEMES[a[0]], "cycles": a[1], "window": (a[2], a[3]),
                      "breakdown": tuple(a[4:9])}
            check_answer(result, f"{p}", p, answer, brute_force=index in sample)


#: Integers per packed answer: scheme, cycles, window h/w, n_pw, AR, AC, IC_t, OC_t.
PACKED = 9
#: Scheme codes of packed answers; the last one stands for any other name.
SCHEMES = ("vw-sdk", "im2col", "smd", "sdk", "unknown")


def packed(solution: Any) -> Tuple[int, ...]:
    bd = solution.breakdown
    code = SCHEMES.index(solution.scheme) if solution.scheme in SCHEMES else len(SCHEMES) - 1
    return (code, solution.cycles, solution.window.h, solution.window.w,
            bd.n_pw, bd.ar, bd.ac, bd.ic_t, bd.oc_t)


def oracle_layer(p: Problem) -> oracle.Layer:
    return oracle.Layer(ifm_h=p[0], ifm_w=p[1], k_h=p[2], k_w=p[3], ic=p[4],
                        oc=p[5], stride=p[6], padding=p[7])


def check_answer(result: Result, label: str, p: Problem, answer: Dict[str, Any],
                 brute_force: bool = False) -> bool:
    """Check one answer; a wrong one counts as a failed operation."""
    rows, cols, scheme = p[8], p[9], p[10]
    layer = oracle_layer(p)
    n_pw, ar, ac = answer["breakdown"][:3]
    if answer["scheme"] != scheme:
        result.fail(f"{label}: answered scheme {answer['scheme']}")
        return False
    if answer["cycles"] != n_pw * ar * ac:
        result.fail(f"{label}: cycles {answer['cycles']} != n_pw*AR*AC {n_pw * ar * ac}")
        return False
    if scheme in ("vw-sdk", "im2col"):
        expected = oracle.breakdown_for_window(layer, rows, cols, *answer["window"])
        if expected is None or tuple(answer["breakdown"]) != (
                expected.n_pw, expected.ar, expected.ac, expected.ic_t, expected.oc_t):
            result.fail(f"{label}: breakdown {answer['breakdown']} for window "
                        f"{answer['window']}, oracle {expected}")
            return False
    if scheme == "vw-sdk":
        if answer["cycles"] > oracle.im2col(layer, rows, cols).cycles:
            result.fail(f"{label}: vw-sdk {answer['cycles']} worse than im2col")
            return False
        if brute_force and layer.stride == 1:
            best = oracle.brute_force_min(layer, rows, cols)
            if answer["cycles"] != best:
                result.fail(f"{label}: vw-sdk {answer['cycles']} != brute force {best}")
                return False
    return True
