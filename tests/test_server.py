"""The asyncio HTTP front door (`repro.server`).

Boots one real server (spawned workers + shared L2 store) per module
over an ephemeral loopback port and drives it with the stdlib
``http.client`` — no test doubles anywhere in the request path.  The
overarching acceptance property: answers over the wire are
*bit-identical* to the in-process engine, and every failure mode maps
onto the documented status table (including a hard worker crash, which
must yield a clean 503 and a transparently respawned worker).
"""

from __future__ import annotations

import http.client
import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.api import MappingEngine, MappingRequest
from repro.core import ConvLayer, PIMArray
from repro.networks import resnet18
from repro.runtime import SolutionStore
from repro.server import ServerThread
from repro.server.worker import (error_payload, run_map, run_network_sweep,
                                 status_for)

REQ = {"layer": {"ifm": 14, "kernel": 3, "ic": 256, "oc": 256},
       "array": {"rows": 512, "cols": 512}, "scheme": "vw-sdk"}


@pytest.fixture(scope="module")
def server(tmp_path_factory):
    """One live server for the whole module (2 spawn workers)."""
    store = tmp_path_factory.mktemp("serve") / "l2.jsonl"
    with ServerThread(workers=2, store_path=str(store), backend="numpy",
                      fault_injection=True) as handle:
        yield handle


def call(server, method, path, body=None, raw=None):
    """One request over a fresh connection; returns (status, json)."""
    conn = http.client.HTTPConnection(*server.address, timeout=120)
    try:
        payload = raw if raw is not None else (
            json.dumps(body) if body is not None else None)
        conn.request(method, path, payload,
                     {"Content-Type": "application/json"})
        response = conn.getresponse()
        return response.status, json.loads(response.read())
    finally:
        conn.close()


class TestEndpoints:
    def test_healthz(self, server):
        status, body = call(server, "GET", "/v1/healthz")
        assert status == 200
        assert body["ok"] is True
        assert body["workers"] == 2

    def test_map_bit_identical_to_in_process_engine(self, server):
        status, body = call(server, "POST", "/v1/map", {"request": REQ})
        assert status == 200
        oracle = MappingEngine(cache_size=0).map(
            MappingRequest.from_dict(REQ)).to_dict()
        # solve_ms is wall-clock; everything else must match bit-for-bit.
        assert body["solution"] == oracle["solution"]
        assert body["request"] == oracle["request"]
        assert body["cache"]["key"] == oracle["cache"]["key"]

    def test_map_batch_matches_engine(self, server):
        requests = [REQ, dict(REQ, scheme="im2col"), dict(REQ, scheme="sdk")]
        status, body = call(server, "POST", "/v1/map_batch",
                            {"requests": requests})
        assert status == 200
        engine = MappingEngine(cache_size=0)
        for wire, envelope in zip(body["responses"], requests):
            oracle = engine.map(MappingRequest.from_dict(envelope)).to_dict()
            assert wire["solution"] == oracle["solution"]

    def test_network_sweep_matches_engine(self, server):
        status, body = call(server, "POST", "/v1/network_sweep",
                            {"network": "resnet18", "arrays": [256, 512]})
        assert status == 200
        oracle = MappingEngine().sweep_cycles(
            resnet18(), [PIMArray.square(256), PIMArray.square(512)],
            "vw-sdk")
        assert body["cycles"] == [int(c) for c in oracle]
        assert body["arrays"] == [[256, 256], [512, 512]]

    def test_network_sweep_inline_layers(self, server):
        layer = {"ifm": 14, "kernel": 3, "ic": 64, "oc": 64}
        status, body = call(server, "POST", "/v1/network_sweep",
                            {"layers": [layer], "arrays": [[256, 512]]})
        assert status == 200
        oracle = MappingEngine().sweep_cycles(
            [ConvLayer.square(14, 3, 64, 64)],
            [PIMArray(rows=256, cols=512)], "vw-sdk")
        assert body["cycles"] == [int(c) for c in oracle]

    def test_chip_pareto_matches_engine(self, server):
        status, body = call(server, "POST", "/v1/chip_pareto",
                            {"network": "resnet18", "sides": [256, 512]})
        assert status == 200
        oracle = MappingEngine().chip_pareto(resnet18(), scheme="vw-sdk",
                                             sides=[256, 512])
        assert len(body["points"]) == len(oracle)
        for wire, point in zip(body["points"], oracle):
            assert wire["num_arrays"] == point.num_arrays
            assert wire["cells"] == point.cells
            assert wire["bottleneck_cycles"] == point.bottleneck_cycles

    def test_stats_counts_requests(self, server):
        status, body = call(server, "GET", "/v1/stats")
        assert status == 200
        assert body["server"]["requests"] >= 1
        assert body["worker_engine"]["pid"] > 0


class TestResponseMemo:
    def test_memo_hit_marks_cache_and_zeroes_solve_ms(self, server):
        envelope = {"request": dict(REQ, tag="memo-probe")}
        first_status, first = call(server, "POST", "/v1/map", envelope)
        status, body = call(server, "POST", "/v1/map", envelope)
        assert first_status == status == 200
        assert body["cache"]["hit"] is True
        assert body["solve_ms"] == 0.0
        assert body["solution"] == first["solution"]

    def test_deadline_requests_never_memoized(self, server):
        envelope = {"network": "resnet18", "arrays": [384],
                    "deadline_ms": 60000}
        for _ in range(2):
            status, body = call(server, "POST", "/v1/network_sweep",
                                envelope)
            assert status == 200
        stats = call(server, "GET", "/v1/stats")[1]
        # memo stats exist, but deadline-carrying bodies bypass them —
        # re-sending the envelope above must not have produced a hit
        # keyed on it (hits may exist from the memo-probe test).
        assert "memo" in stats["server"]


class TestErrorStatuses:
    def test_unknown_scheme_400_with_did_you_mean(self, server):
        status, body = call(server, "POST", "/v1/map",
                            {"request": dict(REQ, scheme="vw-sdkk")})
        assert status == 400
        assert body["error"]["type"] == "UnknownSchemeError"
        assert "did you mean" in body["error"]["message"]
        assert "vw-sdk" in body["error"]["message"]

    def test_malformed_json_400(self, server):
        status, body = call(server, "POST", "/v1/map", raw="{nope")
        assert status == 400
        assert body["error"]["type"] == "ProtocolError"

    def test_missing_fields_400(self, server):
        status, body = call(server, "POST", "/v1/map", {"request": {}})
        assert status == 400
        assert body["error"]["type"] == "ConfigurationError"

    def test_unknown_route_404_lists_known_routes(self, server):
        status, body = call(server, "POST", "/v1/nope", {})
        assert status == 404
        assert "/v1/map" in body["error"]["message"]

    def test_wrong_method_405(self, server):
        status, body = call(server, "GET", "/v1/map")
        assert status == 405

    def test_infeasible_target_422(self, server):
        status, body = call(server, "POST", "/v1/chip_pareto",
                            {"network": "resnet18", "sides": [256],
                             "max_arrays": 1})
        assert status == 422
        assert body["error"]["type"] == "InfeasibleTargetError"

    def test_deadline_expiry_504_with_partials(self, server):
        status, body = call(server, "POST", "/v1/network_sweep",
                            {"network": "resnet18",
                             "arrays": list(range(64, 1025, 8)),
                             "deadline_ms": 0.001})
        assert status == 504
        error = body["error"]
        assert error["type"] == "DeadlineExceededError"
        assert error["budget_s"] == pytest.approx(1e-6)
        assert "partial" in error  # best-so-far rode along as JSON


class TestConcurrency:
    def test_parallel_clients_get_identical_answers(self, server):
        """16 concurrent clients, 4 distinct layers: every response
        must be bit-identical to the in-process engine's."""
        layers = [dict(REQ, layer=dict(REQ["layer"], ifm=ifm))
                  for ifm in (7, 14, 28, 56)]
        engine = MappingEngine(cache_size=0)
        oracles = [engine.map(MappingRequest.from_dict(env)).to_dict()
                   for env in layers]
        results = [None] * 16
        def worker(slot):
            envelope = layers[slot % len(layers)]
            results[slot] = (slot % len(layers),
                             call(server, "POST", "/v1/map",
                                  {"request": envelope}))
        threads = [threading.Thread(target=worker, args=(i,))
                   for i in range(16)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        for which, (status, body) in results:
            assert status == 200
            assert body["solution"] == oracles[which]["solution"]

    def test_keep_alive_pipelining(self, server):
        conn = http.client.HTTPConnection(*server.address, timeout=120)
        try:
            for _ in range(5):
                conn.request("POST", "/v1/map", json.dumps({"request": REQ}),
                             {"Content-Type": "application/json"})
                response = conn.getresponse()
                assert response.status == 200
                assert json.loads(
                    response.read())["solution"]["cycles"] == 504
        finally:
            conn.close()


class TestStridedSdk:
    def test_stride2_sdk_map_answers_200(self, server):
        envelope = {"layer": {"ifm": 56, "kernel": 3, "ic": 64, "oc": 128,
                              "stride": 2, "padding": 1},
                    "array": {"rows": 512, "cols": 512}, "scheme": "sdk"}
        status, body = call(server, "POST", "/v1/map",
                            {"request": envelope})
        assert status == 200
        oracle = MappingEngine(cache_size=0).map(
            MappingRequest.from_dict(envelope)).to_dict()
        assert body["solution"] == oracle["solution"]
        im2col = MappingEngine(cache_size=0).map(MappingRequest.from_dict(
            dict(envelope, scheme="im2col"))).to_dict()
        assert body["solution"]["cycles"] == im2col["solution"]["cycles"]


def worker_pids(server, calls=4):
    """Engine pids seen over *calls* sequential ``/v1/stats`` requests
    (idle workers are taken in FIFO order, so two calls visit two)."""
    return {call(server, "GET", "/v1/stats")[1]["worker_engine"]["pid"]
            for _ in range(calls)}


#: A slow worker call: the VGG-16 pooled chip frontier (about 1 s cold).
SLOW = ("/v1/chip_pareto", {"network": "vgg16", "pools": True})


def send_raw(server, path, body):
    """Send one POST on a raw socket and return the socket unread."""
    payload = json.dumps(body).encode()
    sock = socket.create_connection(server.address, timeout=120)
    sock.sendall(b"POST %s HTTP/1.1\r\nHost: x\r\nContent-Length: %d"
                 b"\r\n\r\n%s" % (path.encode(), len(payload), payload))
    return sock


def slow_call_in_flight(handle):
    """Start :data:`SLOW` on a warm worker; return its unread socket."""
    call(handle, "GET", "/v1/stats")  # the worker is up and idle
    sock = send_raw(handle, *SLOW)
    deadline = time.monotonic() + 30.0
    while handle.server.requests < 2:
        assert time.monotonic() < deadline, "request never arrived"
        time.sleep(0.01)
    time.sleep(0.2)  # the slow call is now in the worker
    return sock


class TestWorkerChannel:
    """The per-worker pipe channel: FIFO admission, crash isolation,
    no reply ever delivered to the wrong request, and a quiet drain."""

    def test_two_workers_under_16_threads(self, server):
        layers = [dict(REQ, layer=dict(REQ["layer"], ifm=ifm),
                       tag=f"channel-{ifm}") for ifm in range(20, 36)]
        engine = MappingEngine(cache_size=0)
        oracles = [engine.map(MappingRequest.from_dict(env)).to_dict()
                   for env in layers]
        results = [None] * 16
        pids = set()

        def client(slot):
            results[slot] = call(server, "POST", "/v1/map",
                                 {"request": layers[slot]})
            pids.add(call(server, "GET", "/v1/stats")[1]
                     ["worker_engine"]["pid"])

        threads = [threading.Thread(target=client, args=(i,))
                   for i in range(16)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
            assert not t.is_alive()
        for (status, body), oracle in zip(results, oracles):
            assert status == 200
            assert body["solution"] == oracle["solution"]
        assert len(pids | worker_pids(server)) == 2

    def test_crash_restarts_only_the_dead_worker(self):
        with ServerThread(workers=2, backend="numpy",
                          fault_injection=True) as handle:
            before = worker_pids(handle)
            assert len(before) == 2
            assert call(handle, "POST", "/v1/_crash_worker", {})[0] == 503
            after = worker_pids(handle)
            assert len(after) == 2
            assert len(before & after) == 1  # the survivor kept its pid
            health = call(handle, "GET", "/v1/healthz")[1]
            assert health["worker_restarts"] == 1

    def test_dropped_connection_never_desyncs_the_next_answer(self):
        with ServerThread(workers=1, backend="numpy") as handle:
            sock = slow_call_in_flight(handle)
            sock.close()
            envelope = dict(REQ, tag="after-drop")
            status, body = call(handle, "POST", "/v1/map",
                                {"request": envelope})
            assert status == 200
            oracle = MappingEngine(cache_size=0).map(
                MappingRequest.from_dict(envelope)).to_dict()
            assert body["solution"] == oracle["solution"]
            assert body["request"] == oracle["request"]

    def test_cancelled_dispatch_never_desyncs_the_next_answer(self):
        with ServerThread(workers=1, backend="numpy") as handle:
            sock = slow_call_in_flight(handle)
            loop, server = handle._loop, handle.server
            loop.call_soon_threadsafe(
                lambda: [task.cancel() for task in server._connections])
            envelope = dict(REQ, tag="after-cancel")
            status, body = call(handle, "POST", "/v1/map",
                                {"request": envelope})
            sock.close()
            assert status == 200
            oracle = MappingEngine(cache_size=0).map(
                MappingRequest.from_dict(envelope)).to_dict()
            assert body["solution"] == oracle["solution"]
            assert body["request"] == oracle["request"]

    def test_out_of_sequence_reply_is_a_crash(self):
        import asyncio
        import multiprocessing

        from repro.server.app import _Channel
        channel = _Channel.__new__(_Channel)  # a pipe, no worker
        channel.replies, sender = multiprocessing.Pipe(duplex=False)
        channel.seq = 2
        sender.send((1, {"ok": True, "result": "a stale answer"}))
        try:
            with pytest.raises(OSError, match="frame 1, not 2"):
                asyncio.run(channel._reply())
        finally:
            sender.close()
            channel.replies.close()

    def test_stop_with_in_flight_request_drains_quietly(self, capfd,
                                                        caplog):
        handle = ServerThread(workers=1, backend="numpy").start()
        sock = slow_call_in_flight(handle)
        handle.stop()
        assert not handle._thread.is_alive()
        # Drain: the in-flight call finished and was answered.
        reply = b""
        while True:
            chunk = sock.recv(1 << 16)
            if not chunk:
                break
            reply += chunk
        sock.close()
        assert reply.startswith(b"HTTP/1.1 200 ")
        assert "Traceback" not in capfd.readouterr().err
        assert not [r for r in caplog.records if r.name == "asyncio"]


    def test_stop_as_clients_hang_up_is_quiet(self, capfd, caplog):
        """Handlers still closing their connections when stop() cancels
        them must finish quietly too."""
        handle = ServerThread(workers=1, backend="numpy").start()
        conns = []
        for _ in range(8):
            conn = http.client.HTTPConnection(*handle.address, timeout=120)
            conn.request("GET", "/v1/healthz")
            conn.getresponse().read()
            conns.append(conn)
        for conn in conns:
            conn.close()
        handle.stop()
        assert not handle._thread.is_alive()
        assert "Traceback" not in capfd.readouterr().err
        assert not [r for r in caplog.records if r.name == "asyncio"]


@pytest.mark.skipif(not Path("/proc/self/task").is_dir(),
                    reason="lists child processes through /proc")
def test_sigterm_stops_cleanly_with_no_children_left():
    def children(pid):
        kids = []
        for task in os.listdir(f"/proc/{pid}/task"):
            with open(f"/proc/{pid}/task/{task}/children") as handle:
                kids += [int(k) for k in handle.read().split()]
        return kids

    def alive(pid):  # a zombie nobody reaped yet counts as gone
        try:
            with open(f"/proc/{pid}/stat") as handle:
                return handle.read().rsplit(")", 1)[1].split()[0] != "Z"
        except (OSError, IndexError):
            return False

    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONUNBUFFERED="1",
               PYTHONPATH=os.pathsep.join(
                   [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0",
         "--workers", "2"], env=env, stdout=subprocess.PIPE,
        stderr=subprocess.PIPE)
    try:
        assert b"serving on http://" in proc.stdout.readline()
        kids = children(proc.pid)
        assert len(kids) >= 2  # the workers (+ the resource tracker)
        proc.send_signal(signal.SIGTERM)
        assert proc.wait(timeout=60) == 0
        time.sleep(2.0)
        assert [k for k in kids if alive(k)] == []
        assert b"Traceback" not in proc.stderr.read()
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
        proc.stderr.close()


class TestWorkerCrash:
    """A crashed worker yields a clean 5xx + a respawned worker.

    Runs last in the module — the crash bumps ``worker_restarts`` and
    briefly costs a worker respawn.
    """

    def test_crash_yields_503_then_recovers(self, server):
        status, body = call(server, "POST", "/v1/_crash_worker", {})
        assert status == 503
        assert body["error"]["type"] == "WorkerCrashed"
        # The very next request must ride a live (or respawned) worker.
        status, body = call(server, "POST", "/v1/map",
                            {"request": dict(REQ, tag="post-crash")})
        assert status == 200
        assert body["solution"]["cycles"] == 504
        stats = call(server, "GET", "/v1/stats")[1]
        assert stats["server"]["worker_restarts"] >= 1

    def test_crash_hook_gated_on_fault_injection(self):
        with ServerThread(workers=1, backend="numpy",
                          fault_injection=False) as handle:
            status, body = call(handle, "POST", "/v1/_crash_worker", {})
            assert status == 404


class TestSharedStore:
    def test_workers_share_the_l2_store(self, server, tmp_path_factory):
        """A solve answered by one worker warms the store all workers
        (and later fleets) mount."""
        envelope = {"request": dict(REQ, tag="l2-probe")}
        assert call(server, "POST", "/v1/map", envelope)[0] == 200
        with SolutionStore(server.server.store_path) as l2:
            assert len(l2) >= 1


class TestWorkerUnit:
    """The worker tier is plain functions — exercise the error mapping
    contract without a server in the way."""

    def test_status_table(self):
        from repro.api.registry import UnknownSchemeError
        from repro.core.types import ConfigurationError, MappingError
        from repro.dse.requirements import InfeasibleTargetError
        from repro.runtime import DeadlineExceededError, TransientError
        assert status_for(UnknownSchemeError("x")) == 400
        assert status_for(ConfigurationError("x")) == 400
        assert status_for(MappingError("x")) == 422
        assert status_for(InfeasibleTargetError("x")) == 422
        assert status_for(TransientError("x")) == 503
        assert status_for(DeadlineExceededError("x", where="w",
                                                budget_s=1.0)) == 504
        assert status_for(ValueError("x")) == 500

    def test_error_payload_jsonifies_partials(self):
        import numpy as np

        from repro.runtime import DeadlineExceededError
        exc = DeadlineExceededError(
            "over budget", where="engine.sweep", budget_s=0.5,
            partial={"cycles": np.array([1, 2, 3]), "count": np.int64(3)})
        payload = error_payload(exc)
        json.dumps(payload)  # wire-serializable end to end
        assert payload["status"] == 504
        assert payload["partial"]["cycles"] == [1, 2, 3]
        assert payload["partial"]["count"] == 3

    def test_run_map_in_process(self):
        result = run_map({"request": REQ})
        assert result["ok"] is True
        assert result["result"]["solution"]["cycles"] == 504

    def test_run_map_rejects_non_object(self):
        result = run_map([1, 2, 3])
        assert result["ok"] is False
        assert result["error"]["status"] == 400

    def test_run_network_sweep_rejects_bad_arrays(self):
        result = run_network_sweep({"network": "resnet18", "arrays": []})
        assert result["ok"] is False
        assert result["error"]["status"] == 400
