"""End-to-end resilience contract of the provisioning service.

The acceptance bar from docs/robustness.md, exercised over real HTTP
against a :class:`~repro.service.ServiceThread` with chaos injected
into the shard pool:

* every accepted request returns a correct answer or one explicitly
  flagged ``degraded: true`` — and none hangs past its deadline;
* shed requests get a fast 503 with a ``Retry-After`` header;
* repeated identical queries are served from the content-addressed
  cache (hit rate > 0), even while the pool is broken;
* a crashed or hung shard worker is killed, restarted, and the
  service reports ready again.
"""

from __future__ import annotations

import http.client
import json
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.core.bounds import odd_even_upper_bound
from repro.runner import chaos
from repro.service import ServiceConfig, ServiceThread

DEADLINE_S = 6.0
SLACK_S = 4.0


def post(port: int, body: dict) -> tuple[int, dict, dict, float]:
    t0 = time.monotonic()
    conn = http.client.HTTPConnection(
        "127.0.0.1", port, timeout=DEADLINE_S + SLACK_S + 5
    )
    try:
        conn.request("POST", "/provision", body=json.dumps(body))
        resp = conn.getresponse()
        return (
            resp.status,
            dict(resp.getheaders()),
            json.loads(resp.read() or b"{}"),
            time.monotonic() - t0,
        )
    finally:
        conn.close()


def get(port: int, path: str) -> tuple[int, dict]:
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=10)
    try:
        conn.request("GET", path)
        resp = conn.getresponse()
        return resp.status, json.loads(resp.read() or b"{}")
    finally:
        conn.close()


@pytest.fixture
def chaos_dir(tmp_path):
    chaos.install(tmp_path / "chaos")
    yield tmp_path / "chaos"
    chaos.uninstall()


def make_service(tmp_path, **over) -> ServiceThread:
    cfg = ServiceConfig(
        port=0,
        shards=2,
        queue_limit=16,
        deadline_s=DEADLINE_S,
        retries=1,
        backoff_s=0.05,
        breaker_reset_s=1.0,
        cache_dir=str(tmp_path / "cache"),
    )
    for key, value in over.items():
        setattr(cfg, key, value)
    return ServiceThread(cfg)


class TestChaosSoak:
    def test_soak_with_crash_and_hang(self, tmp_path, chaos_dir):
        svc = make_service(tmp_path)
        try:
            port = svc.port
            provision = {"topology": "path:24", "policy": "odd-even",
                         "adversary": "far-end", "steps": 300,
                         "deadline_s": DEADLINE_S}
            bodies = [dict(provision) for _ in range(8)]
            # X1 kills its worker once; X2 hangs once (the per-attempt
            # deadline split must leave room for its retry to answer)
            bodies.insert(2, {"kind": "experiment", "experiment": "X1",
                              "deadline_s": DEADLINE_S})
            bodies.insert(5, {"kind": "experiment", "experiment": "X2",
                              "deadline_s": DEADLINE_S})
            with ThreadPoolExecutor(max_workers=6) as pool:
                results = list(pool.map(lambda b: post(port, b), bodies))

            # every accepted request: 200, on time, real-or-degraded
            for status, _, body, wall in results:
                assert status == 200, body
                assert wall <= DEADLINE_S + SLACK_S
                assert (
                    body.get("degraded") is True
                    or body.get("max_height") is not None
                    or body.get("passed") is True
                ), body

            # the repeated provision query was answered from cache
            _, stats = get(port, "/stats")
            assert stats["cache"]["hits"] > 0
            # the X1 crash forced a shard restart and the pool healed
            assert stats["pool"]["restarts_total"] >= 1
            status, _ = get(port, "/readyz")
            assert status == 200
        finally:
            svc.stop()

    def test_repeat_query_is_a_cache_hit(self, tmp_path):
        svc = make_service(tmp_path)
        try:
            body = {"topology": "path:16", "steps": 100}
            first = post(svc.port, body)
            second = post(svc.port, body)
            assert first[0] == second[0] == 200
            assert first[2]["cached"] is False
            assert second[2]["cached"] is True
            assert second[2]["max_height"] == first[2]["max_height"]
        finally:
            svc.stop()


class TestLoadShedding:
    def test_overload_sheds_with_retry_after(self, tmp_path, chaos_dir):
        # one shard, one admission slot: a hung request saturates the
        # service, and the next request must be shed fast and honestly
        svc = make_service(tmp_path, shards=1, queue_limit=1, retries=0)
        try:
            port = svc.port
            slow: dict = {}

            def run_slow():
                slow["result"] = post(
                    port, {"kind": "experiment", "experiment": "X3",
                           "deadline_s": 3.0},
                )

            t = threading.Thread(target=run_slow)
            t.start()
            time.sleep(0.5)  # let X3 occupy the only slot
            status, headers, body, wall = post(
                port, {"topology": "path:16", "steps": 50}
            )
            assert status == 503
            assert body["shed"] is True
            assert "Retry-After" in headers
            assert float(headers["Retry-After"]) >= 1.0
            assert wall < 1.0  # shedding is fast, not queued
            t.join(timeout=15)
            assert slow["result"][0] == 200
            assert slow["result"][2]["degraded"] is True
        finally:
            svc.stop()


class TestGracefulDegradation:
    def test_breaker_open_degrades_fast_and_serves_cache(
        self, tmp_path, chaos_dir
    ):
        svc = make_service(
            tmp_path, shards=1, retries=0,
            failure_threshold=1, breaker_reset_s=60.0,
        )
        try:
            port = svc.port
            # 1) a real answer lands in the cache while the pool works
            warm = {"topology": "path:32", "steps": 100}
            status, _, real, _ = post(port, warm)
            assert status == 200 and real["degraded"] is False

            # 2) X3 hangs forever: deadline kills the worker, breaker
            # opens (threshold 1, 60s window) — the pool is now down
            status, _, body, _ = post(
                port, {"kind": "experiment", "experiment": "X3",
                       "deadline_s": 1.5},
            )
            assert status == 200 and body["degraded"] is True
            status, body_r = get(port, "/readyz")
            assert status == 503
            assert "breaker" in body_r["reason"]

            # 3) the exact cached query still answers, from the cache
            status, _, body, wall = post(port, warm)
            assert status == 200 and body["cached"] is True
            assert body["max_height"] == real["max_height"]

            # 4) a same-shape query degrades to the nearest cached
            # measurement, flagged honestly, without waiting anything
            # like a full deadline
            status, _, body, wall = post(
                port, {"topology": "path:32", "steps": 200,
                       "deadline_s": DEADLINE_S},
            )
            assert status == 200
            assert body["degraded"] is True
            assert "nearest cached" in body["degraded_reason"]
            assert body["max_height"] == real["max_height"]
            assert wall < 2.0

            # 5) a shape nothing was measured for falls back to the
            # paper's analytic bound — never a fabricated measurement
            status, _, body, wall = post(
                port, {"topology": "path:64", "adversary": "pre-sink",
                       "steps": 100, "deadline_s": DEADLINE_S},
            )
            assert status == 200
            assert body["degraded"] is True
            assert body["max_height"] is None
            assert body["bound"] == pytest.approx(
                odd_even_upper_bound(64)
            )
            assert wall < 2.0
        finally:
            svc.stop()

    def test_degradation_disabled_fails_loudly(self, tmp_path, chaos_dir):
        svc = make_service(
            tmp_path, shards=1, retries=0, failure_threshold=1,
            breaker_reset_s=60.0, degrade=False,
        )
        try:
            port = svc.port
            status, _, body, _ = post(
                port, {"kind": "experiment", "experiment": "X3",
                       "deadline_s": 1.5},
            )
            assert status == 504
            assert "error" in body
        finally:
            svc.stop()


class TestBadRequests:
    def test_validation_is_a_400_not_a_shard_trip(self, tmp_path):
        svc = make_service(tmp_path, shards=1)
        try:
            port = svc.port
            for raw in (
                {"topology": "moebius:9"},
                {"policy": "no-such"},
                {"steps": -4},
                {"bogus_field": 1},
                {"topology": "binary:3", "adversary": "pressure"},
                # fault plans naming the sink or a node off the topology
                {"topology": "binary:3", "faults": {"events": [
                    {"kind": "crash", "start": 1, "node": 0}]}},
                {"topology": "binary:3", "faults": {"events": [
                    {"kind": "link_down", "start": 1, "node": 99}]}},
                {"topology": "path:8", "faults": {"events": [
                    {"kind": "crash", "start": 1, "node": 7}]}},
                # JSON booleans are not numbers
                {"steps": True},
                {"seed": True},
                {"buffer_capacity": True},
                {"deadline_s": True},
                # topology specs the builders refuse, or of one node
                {"topology": "spider:0x3"},
                {"topology": "binary:0"},
                # a topology past the size cap, refused before it is built
                {"topology": "binary:60"},
                {"topology": "spider:1x16383"},
                # a DAG (CLI-only), and a policy that cannot run at c = 1
                {"topology": "layered:3x4"},
                {"topology": "path:24", "policy": "scaled-odd-even-2"},
            ):
                status, _, body, _ = post(port, raw)
                assert status == 400, body
                assert "error" in body
            status, _, body, _ = post(port, {"kind": "experiment",
                                             "experiment": "NOPE"})
            assert status == 422  # ran, failed deterministically
            _, stats = get(port, "/stats")
            assert stats["pool"]["shards"][0]["state"] == "closed"
        finally:
            svc.stop()
