"""``serve_mix``: mixed-tier ``/v1/map`` traffic against ``vwsdk serve``.

The server runs as its own process (``--workers 1``) over a store the
set-up pre-fills; this process is the one keep-alive client and drives it
in a closed loop over one connection, since the callers are toolflows that
each wait for their answer.  Each request is built to be answered by a
known cache tier, tracked by simulating the server's two LRUs:

* ``memo``: an exact repeat of a body still in the 1024-entry response memo;
* ``l1``: a problem in the worker engine's 4096-entry memo under a new
  layer name and tag (the response memo keys on the wire body, the engine
  drops names);
* ``l2``: a problem in the store but not in the engine memo;
* ``cold``: a fresh geometry, solved and appended to the store.

A run sends a fixed number of whole rounds of requests and then stops the
server with SIGTERM, which is one more operation: it fails if a child of
the server is still alive after a grace period.
"""

from __future__ import annotations

import bisect
import json
import os
import random
import shutil
import signal
import socket
import subprocess
import sys
import time
from collections import OrderedDict
from typing import Any, Dict, List, Optional, Sequence, Tuple

from common import (OUT, ROOT, Result, median, now, program_env, vm_hwm_mb,
                    windowed_quantile)
from map_cold import check_answer
from spans import Tracer, patch_solve_path, solve_path_metrics, traced_registry

#: Requests per round and their tier quota; a run sends whole rounds.
ROUND = {"memo": 30, "l1": 40, "l2": 12, "cold": 18}
#: Rounds per second of ``--seconds``: the request budget is fixed per run
#: so that the one failing stop is always the same share of the operations.
ROUNDS_PER_SECOND = 12
#: Warm-up requests sent in set-up, before the stats baseline.
WARMUP = 400
#: Synthetic problems pre-filled into the store beside the zoo problems.
ARCHIVE = 1600
#: The server's default cache sizes, which the simulation mirrors.
MEMO_SIZE = 1024
ENGINE_CACHE_SIZE = 4096
ARRAYS = ((128, 128), (256, 256), (512, 512), (256, 512), (512, 256))
#: Scheme slots per fresh geometry.
FRESH_SCHEMES = ("vw-sdk", "vw-sdk", "im2col", "smd", "sdk")
#: Extra ``vw-sdk`` slots for stride-1 geometries at least this wide.  Their
#: cold solves are the slowest requests; the extra slots make them about
#: 2.5% of the traffic, so p99 falls inside that group instead of on its
#: edge, where it would jump with every scheduling hiccup.
WIDE_IFM = 200
WIDE_EXTRA = 6
CHANNELS = (3, 16, 32, 48, 64, 96, 128, 192, 256, 320, 384, 448, 512)
ZIPF_S = 1.1
#: Requests per window of the p99 estimate (10 beyond each window's p99).
P99_WINDOW = 1000
#: Seconds a SIGTERM'd server's children get to exit before the stop fails.
GRACE_S = 2.0
BRUTE_FORCE_SAMPLE = 200

Problem = Tuple  # (ifm_h, ifm_w, k_h, k_w, ic, oc, stride, padding, rows, cols, scheme)


class IndexedSet:
    """A set with O(1) add, discard and uniform random choice."""

    def __init__(self) -> None:
        self.items: List[Any] = []
        self.pos: Dict[Any, int] = {}

    def add(self, item: Any) -> None:
        if item not in self.pos:
            self.pos[item] = len(self.items)
            self.items.append(item)

    def discard(self, item: Any) -> None:
        index = self.pos.pop(item, None)
        if index is None:
            return
        last = self.items.pop()
        if index < len(self.items):
            self.items[index] = last
            self.pos[last] = index

    def choice(self, rng: random.Random) -> Any:
        return self.items[int(rng.random() * len(self.items))]

    def __contains__(self, item: Any) -> bool:
        return item in self.pos

    def __len__(self) -> int:
        return len(self.items)


def body_for(problem: Problem, name: str, tag: str) -> str:
    """The canonical JSON body of one ``/v1/map`` request."""
    ih, iw, kh, kw, ic, oc, stride, padding, rows, cols, scheme = problem
    return json.dumps({"layer": {"ifm": [ih, iw], "kernel": [kh, kw], "ic": ic, "oc": oc,
                                 "stride": stride, "padding": padding, "name": name},
                       "array": {"rows": rows, "cols": cols},
                       "scheme": scheme, "tag": tag},
                      sort_keys=True, separators=(",", ":"))


class Traffic:
    """Seeded request stream plus a model of the server's cache tiers."""

    def __init__(self, seed: int, zoo: List[Tuple[Tuple, str]]) -> None:
        self.rng = random.Random(seed)
        self.seed = seed
        # The popular problems: zoo layers x arrays x schemes, Zipf-ranked.
        universe = []
        for geometry, name in zoo:
            for rows, cols in ARRAYS:
                for scheme in ("vw-sdk", "im2col", "smd", "sdk"):
                    if scheme == "sdk" and geometry[6] != 1:
                        continue  # SDK fails on strided layers (see CHANGES.md)
                    universe.append((geometry + (rows, cols, scheme), name))
        self.rng.shuffle(universe)
        self.ranked = [p for p, _ in universe]
        self.names = dict(universe)
        weights = [1.0 / (rank + 1) ** ZIPF_S for rank in range(len(self.ranked))]
        total = sum(weights)
        acc, self.cumulative = 0.0, []
        for w in weights:
            acc += w / total
            self.cumulative.append(acc)
        self.seen = set(self.ranked)
        # SDK fails on strided layers (see CHANGES.md): those draw vw-sdk.
        self.fresh_kinds = [(g, "vw-sdk" if s == "sdk" and g[6] != 1 else s)
                            for g, _ in zoo for s in FRESH_SCHEMES]
        self.fresh_kinds += [(g, "vw-sdk") for g, _ in zoo
                             if g[6] == 1 and g[0] + 2 * g[7] >= WIDE_IFM
                             for _ in range(WIDE_EXTRA)]
        self.decks: Dict[str, List[Any]] = {}
        self.archive = [self._fresh() for _ in range(ARCHIVE)]
        # Cache model: memo body -> problem, engine memo, store.
        self.memo: "OrderedDict[str, Problem]" = OrderedDict()
        self.memo_bodies = IndexedSet()
        self.memo_by_problem: Dict[Problem, IndexedSet] = {}
        self.l1: "OrderedDict[Problem, None]" = OrderedDict()
        self.l1_set = IndexedSet()
        self.store = set(self.ranked) | set(self.archive)
        self.l2_eligible = IndexedSet()
        for p in self.ranked + self.archive:
            self.l2_eligible.add(p)
        self.count = 0

    def prefill(self) -> List[Problem]:
        return self.ranked + self.archive

    def _fresh(self) -> Problem:
        """A problem no earlier request or pre-fill has seen.

        A zoo geometry with its IFM side moved by up to 3 and new channel
        counts.  ``(geometry, scheme)`` pairs and arrays come from decks
        that are dealt out in full before reshuffling, so every stretch of
        fresh problems has the same make-up whatever the seed; in
        particular the share of slow ``vw-sdk`` solves on wide IFMs, which
        set the p99 of the traffic, does not drift.
        """
        rng = self.rng
        geometry, scheme = self._deal("problem", self.fresh_kinds)
        ih, iw, kh, kw, _, _, stride, padding = geometry
        rows, cols = self._deal("array", ARRAYS)
        ih = iw = max(ih + rng.randint(-3, 3), kh)
        while True:
            p = (ih, iw, kh, kw, rng.choice(CHANNELS), rng.choice(CHANNELS), stride,
                 padding, rows, cols, scheme)
            if p not in self.seen:
                self.seen.add(p)
                return p

    def _deal(self, name: str, values: Sequence[Any]) -> Any:
        cards = self.decks.setdefault(name, [])
        if not cards:
            cards.extend(values)
            self.rng.shuffle(cards)
        return cards.pop()

    def _zipf(self, accept) -> Optional[Problem]:
        for _ in range(64):
            p = self.ranked[bisect.bisect_left(self.cumulative, self.rng.random())]
            if accept(p):
                return p
        return None

    def _l1_put(self, p: Problem) -> None:
        self.l1[p] = None
        self.l1_set.add(p)
        self.l2_eligible.discard(p)
        if len(self.l1) > ENGINE_CACHE_SIZE:
            old, _ = self.l1.popitem(last=False)
            self.l1_set.discard(old)
            if old in self.store:
                self.l2_eligible.add(old)

    def _memo_put(self, body: str, p: Problem) -> None:
        self.memo[body] = p
        self.memo_bodies.add(body)
        self.memo_by_problem.setdefault(p, IndexedSet()).add(body)
        if len(self.memo) > MEMO_SIZE:
            old, q = self.memo.popitem(last=False)
            self.memo_bodies.discard(old)
            self.memo_by_problem[q].discard(old)

    def request(self, want: str) -> Tuple[str, Problem, str]:
        """``(body, problem, tier)`` of the next request, aiming at tier *want*.

        A tier the model cannot serve yet (early in the warm-up) falls back
        to a cold request.
        """
        self.count += 1
        tag = f"{self.seed}-{self.count}"
        if want == "memo" and len(self.memo):
            p = self._zipf(lambda q: len(self.memo_by_problem.get(q, ())) > 0)
            body = (self.memo_by_problem[p].choice(self.rng) if p is not None
                    else self.memo_bodies.choice(self.rng))
            self.memo.move_to_end(body)
            return body, self.memo[body], "memo"
        if want == "l1" and len(self.l1):
            p = self._zipf(lambda q: q in self.l1_set) or self.l1_set.choice(self.rng)
            self.l1.move_to_end(p)
            tier = "l1"
        elif want == "l2" and len(self.l2_eligible):
            p = self._zipf(lambda q: q in self.l2_eligible) or self.l2_eligible.choice(self.rng)
            self._l1_put(p)
            tier = "l2"
        else:
            p = self._fresh()
            self.store.add(p)
            self._l1_put(p)
            tier = "cold"
        name = f"{self.names.get(p, 'layer')}~{self.count}"
        body = body_for(p, name, tag)
        self._memo_put(body, p)
        return body, p, tier

    def stream(self, rounds: int) -> List[Tuple[str, Problem, str]]:
        out = []
        for _ in range(rounds):
            plan = [t for t, n in ROUND.items() for _ in range(n)]
            self.rng.shuffle(plan)
            out.extend(self.request(t) for t in plan)
        return out


class Client:
    """One keep-alive HTTP/1.1 connection (closed loop)."""

    def __init__(self, port: int) -> None:
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=60)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.buf = b""

    def call(self, method: str, path: str, body: bytes = b"") -> Tuple[int, bytes]:
        head = (f"{method} {path} HTTP/1.1\r\nHost: 127.0.0.1\r\n"
                f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n\r\n")
        self.sock.sendall(head.encode("latin-1") + body)
        while b"\r\n\r\n" not in self.buf:
            self._fill()
        head_end = self.buf.index(b"\r\n\r\n") + 4
        lines = self.buf[:head_end].decode("latin-1").split("\r\n")
        status = int(lines[0].split(" ")[1])
        length = 0
        for line in lines[1:]:
            if line.lower().startswith("content-length:"):
                length = int(line.split(":", 1)[1])
        while len(self.buf) < head_end + length:
            self._fill()
        payload = self.buf[head_end:head_end + length]
        self.buf = self.buf[head_end + length:]
        return status, payload

    def _fill(self) -> None:
        chunk = self.sock.recv(1 << 16)
        if not chunk:
            raise ConnectionError("server closed the connection")
        self.buf += chunk

    def close(self) -> None:
        self.sock.close()


def alive(pid: int) -> bool:
    """Whether *pid* exists and is not a zombie."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            return handle.read().rsplit(")", 1)[1].split()[0] != "Z"
    except (OSError, IndexError):
        return False


def is_resource_tracker(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/cmdline", "rb") as handle:
            return b"resource_tracker" in handle.read()
    except OSError:
        return False


def wait_gone(pids: List[int], seconds: float) -> None:
    deadline = time.monotonic() + seconds
    while time.monotonic() < deadline and any(alive(pid) for pid in pids):
        time.sleep(0.02)


def kill(pid: int) -> None:
    try:
        os.kill(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def descendants(pid: int) -> List[int]:
    out: List[int] = []
    todo = [pid]
    while todo:
        parent = todo.pop()
        try:
            tasks = os.listdir(f"/proc/{parent}/task")
        except OSError:
            continue
        for task in tasks:
            try:
                with open(f"/proc/{parent}/task/{task}/children") as handle:
                    kids = [int(k) for k in handle.read().split()]
            except OSError:
                continue
            out.extend(kids)
            todo.extend(kids)
    return out


class Workload:
    name = "serve_mix"

    def setup(self, seed: int) -> None:
        from repro import MappingEngine
        from repro.api.request import MappingRequest
        from repro.networks.zoo import NETWORKS
        from repro.runtime.store import SolutionStore
        self.seed = seed
        # The client, the server and its worker share one CPU (children
        # inherit the affinity).  One closed-loop connection is a serial
        # chain, so nothing runs in parallel anyway; on a virtual machine a
        # hop to an idle CPU waits for the host to wake it, a delay that
        # swings with the host's load.
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
        self.proc: Optional[subprocess.Popen] = None
        self.client: Optional[Client] = None
        self.dir = OUT / f"serve_mix-{os.getpid()}"
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        zoo: Dict[Tuple, str] = {}
        for net_name in sorted(NETWORKS):
            for layer in NETWORKS[net_name]():
                geometry = (layer.ifm_h, layer.ifm_w, layer.kernel_h, layer.kernel_w,
                            layer.in_channels, layer.out_channels, layer.stride,
                            layer.padding)
                zoo.setdefault(geometry, layer.name)
        self.traffic = Traffic(seed, sorted(zoo.items()))

        store_path = self.dir / "store.jsonl"
        store = SolutionStore(store_path)
        engine = MappingEngine(store=store)
        for p in self.traffic.prefill():
            engine.map(MappingRequest.from_dict(json.loads(body_for(p, "", ""))))
        store.close()
        shutil.copy(store_path, self.dir / "prefilled.jsonl")

        env = program_env()
        env["PYTHONUNBUFFERED"] = "1"
        self.log = open(self.dir / "server.log", "wb")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--host", "127.0.0.1", "--port", "0",
             "--workers", "1", "--store", str(store_path)],
            cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=self.log,
            start_new_session=True)
        line = self.proc.stdout.readline().decode()
        if "serving on http://" not in line:
            raise RuntimeError(f"server did not start: {line!r}")
        self.port = int(line.split("http://", 1)[1].split()[0].rsplit(":", 1)[1])
        self.client = Client(self.port)
        self._stats()  # starts the worker, which loads the store
        self.warmup = self.traffic.stream(WARMUP // sum(ROUND.values()))
        for body, _, _ in self.warmup:
            status, _ = self.client.call("POST", "/v1/map", body.encode())
            if status != 200:
                raise RuntimeError(f"warm-up request answered {status}")
        self.before = self._stats()

    def _stats(self) -> Dict[str, Any]:
        status, payload = self.client.call("GET", "/v1/stats")
        if status != 200:
            raise RuntimeError(f"/v1/stats answered {status}")
        return json.loads(payload)

    def _drive(self, seconds: int) -> None:
        self.requests = self.traffic.stream(seconds * ROUNDS_PER_SECOND)
        encoded = [body.encode() for body, _, _ in self.requests]
        self.replies: List[Tuple[int, bytes]] = []
        self.latencies: List[float] = []
        self.rates: List[float] = []
        call = self.client.call
        size = sum(ROUND.values())
        for first in range(0, len(encoded), size):
            start = now()
            for body in encoded[first:first + size]:
                t0 = now()
                self.replies.append(call("POST", "/v1/map", body))
                self.latencies.append(now() - t0)
            self.rates.append(size / (now() - start))
        self.after = self._stats()
        self.rss_mb = sum(vm_hwm_mb(pid) for pid in [self.proc.pid] + descendants(self.proc.pid))

    def run(self, seconds: float, result: Result) -> None:
        self._drive(int(seconds))
        ops = len(self.latencies)
        result.attempted += ops
        result.metric("throughput_per_s", median(self.rates), "1/s")
        result.metric("latency_p50_ms", median(self.latencies) * 1e3, "ms")
        result.metric("latency_p99_ms",
                      windowed_quantile(self.latencies, 0.99, P99_WINDOW) * 1e3, "ms")
        result.metric("peak_rss_mb", self.rss_mb, "MiB")

    def run_traced(self, seconds: float, result: Result,
                   tracer: Tracer) -> Dict[str, float]:
        self._drive(int(seconds))
        result.attempted += len(self.latencies)
        layers: Dict[str, float] = {}
        tiers = [tier for _, _, tier in self.requests]
        for tier in ROUND:
            rtts = [t for t, x in zip(self.latencies, tiers) if x == tier]
            layers[f"server.rtt_{tier}_us"] = sum(rtts) / len(rtts) * 1e6
        plain, plain_busy = self._replay(None)
        traced, traced_busy = self._replay(tracer)
        for tier in ("l1", "cold"):
            times = [t for t, x in zip(plain, self._replayed_tiers) if x == tier]
            layers[f"server.worker.run_map_{tier}_us"] = sum(times) / len(times) * 1e6
        rtt = [t for t, x in zip(self.latencies, tiers) if x != "memo"]
        layers["server.transport_us"] = (sum(rtt) - sum(plain)) / len(rtt) * 1e6
        totals, calls = tracer.total_times(), tracer.calls()
        for span, metric in (("runtime.store.get", "runtime.store.get_us"),
                             ("runtime.store.put", "runtime.store.put_us")):
            layers[metric] = totals.get(span, 0.0) / max(calls.get(span, 0), 1) * 1e6
        d = delta(self.before, self.after)
        layers["server.memo_hit_ratio"] = d["memo_hits"] / (d["memo_hits"] + d["memo_misses"])
        layers["api.engine.l1_hit_ratio"] = d["hits"] / (d["hits"] + d["misses"])
        layers["runtime.store.hit_ratio"] = d["store_hits"] / (d["store_hits"] + d["store_misses"])
        layers.update(solve_path_metrics(tracer, len(traced)))
        layers["trace.overhead_ratio"] = plain_busy / traced_busy
        return layers

    def _replay(self, tracer: Optional[Tracer]) -> Tuple[List[float], float]:
        """Replay the bodies the worker saw through ``run_map`` in this process.

        The replay starts from a copy of the pre-filled store and repeats the
        warm-up first, so every timed body meets the same cache tier as it
        did in the server.  Returns per-body times and the busy time.
        """
        from repro import MappingEngine
        from repro.runtime.store import SolutionStore
        from repro.server import worker
        path = self.dir / f"replay-{'traced' if tracer else 'plain'}.jsonl"
        shutil.copy(self.dir / "prefilled.jsonl", path)
        if tracer is not None:
            registry = traced_registry(tracer)
            tracer.replace(worker, "MappingEngine",
                           lambda **kw: MappingEngine(registry=registry, **kw))
        worker.init_worker(str(path), "auto", ENGINE_CACHE_SIZE)
        for body, _, tier in self.warmup:
            if tier != "memo":
                worker.run_map(json.loads(body))
        if tracer is not None:
            tracer.spans.clear()  # the warm-up is not measured
        timed = [(json.loads(body), tier) for body, _, tier in self.requests if tier != "memo"]
        self._replayed_tiers = [tier for _, tier in timed]
        times: List[float] = []
        if tracer is not None:
            tracer.patch(MappingEngine, "map", "api.engine.map")
            tracer.patch(SolutionStore, "get", "runtime.store.get")
            tracer.patch(SolutionStore, "put", "runtime.store.put")
            patch_solve_path(tracer)
        try:
            start = now()
            for body, _ in timed:
                t0 = now()
                span = tracer.begin("serve_mix.run_map") if tracer else None
                reply = worker.run_map(body)
                if span is not None:
                    tracer.end(span)
                times.append(now() - t0)
                if not reply.get("ok"):
                    raise RuntimeError(f"in-process run_map failed: {reply}")
            busy = now() - start
        finally:
            if tracer is not None:
                tracer.restore()
        return times, busy

    def finish(self, result: Result) -> None:
        """Stop the server with SIGTERM: one operation, failed if a child outlives it."""
        self.client.close()
        self.client = None
        self.children = descendants(self.proc.pid)
        result.attempted += 1
        self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            result.fail("server ignored SIGTERM for 30 s", wrong_answer=False)
            return
        wait_gone(self.children, GRACE_S)
        survivors = [pid for pid in self.children if alive(pid)]
        if survivors:
            result.fail(f"SIGTERM left {len(survivors)} server children running "
                        f"after {GRACE_S} s", wrong_answer=False)

    def close(self) -> None:
        """Stop the server and everything it left behind; wait until all are gone.

        A server still running gets SIGINT, its clean stop.  Survivors are
        killed, the multiprocessing resource tracker last: it unlinks the
        pool's semaphores from ``/dev/shm`` once every other holder of its
        pipe is gone, and would leak them if it were killed first.
        """
        if self.client is not None:
            self.client.close()
        if self.proc is None:
            shutil.rmtree(self.dir, ignore_errors=True)
            return
        if self.proc.poll() is None:
            self.children = descendants(self.proc.pid)
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=30)
        survivors = [pid for pid in getattr(self, "children", []) if alive(pid)]
        for pid in survivors:
            if not is_resource_tracker(pid):
                kill(pid)
        wait_gone(survivors, 10.0)
        for pid in survivors:
            if alive(pid):
                kill(pid)
        wait_gone(survivors, 10.0)
        self.proc.stdout.close()
        self.log.close()
        shutil.rmtree(self.dir, ignore_errors=True)

    def check(self, result: Result) -> None:
        counts = {tier: 0 for tier in ROUND}
        stride1_vw = []
        for index, (_, p, tier) in enumerate(self.requests):
            counts[tier] += 1
            if p[10] == "vw-sdk" and p[6] == 1:
                stride1_vw.append(index)
        sample = set(random.Random(self.seed).sample(
            stride1_vw, min(BRUTE_FORCE_SAMPLE, len(stride1_vw))))
        for index, ((body, p, tier), (status, payload)) in enumerate(
                zip(self.requests, self.replies)):
            if status != 200:
                result.fail(f"/v1/map answered {status}: {payload[:200]!r}",
                            wrong_answer=False)
                continue
            reply = json.loads(payload)
            hit = reply["cache"]["hit"]
            if hit != (tier != "cold") or (tier == "memo" and reply["solve_ms"] != 0.0):
                result.broken(f"request {index} ({tier}) reported cache {reply['cache']}")
            s = reply["solution"]
            answer = {"scheme": s["scheme"], "cycles": s["cycles"],
                      "window": (s["window"]["h"], s["window"]["w"]),
                      "breakdown": tuple(s["breakdown"][k]
                                         for k in ("n_pw", "ar", "ac", "ic_t", "oc_t"))}
            check_answer(result, f"request {index} {p}", p, answer,
                         brute_force=index in sample)
        d = delta(self.before, self.after)
        expected = {"memo_hits": counts["memo"],
                    "memo_misses": len(self.requests) - counts["memo"],
                    "hits": counts["l1"], "misses": counts["l2"] + counts["cold"],
                    "store_hits": counts["l2"], "store_misses": counts["cold"]}
        for key, value in expected.items():
            if d[key] != value:
                result.broken(f"/v1/stats {key} moved by {d[key]}, traffic implies {value}")


def delta(before: Dict[str, Any], after: Dict[str, Any]) -> Dict[str, int]:
    """Counter movement between two ``/v1/stats`` payloads."""
    def flat(stats: Dict[str, Any]) -> Dict[str, int]:
        engine = stats["worker_engine"]
        return {"memo_hits": stats["server"]["memo"]["hits"],
                "memo_misses": stats["server"]["memo"]["misses"],
                "hits": engine["hits"], "misses": engine["misses"],
                "store_hits": engine["store"]["hits"],
                "store_misses": engine["store"]["misses"]}
    b, a = flat(before), flat(after)
    return {k: a[k] - b[k] for k in a}
