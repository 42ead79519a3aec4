"""End-to-end contract of the batched provisioning path over HTTP.

The tentpole's acceptance bar, exercised against a real
:class:`~repro.service.ServiceThread`:

* a concurrent cache-missing burst sharing a batch key is actually
  coalesced (batcher counters prove it) and every answer matches an
  in-process solo recomputation bit for bit;
* a poisoned query (a fault plan of 19 halts, more than a lane's
  recovery budget: it passes validation and fails in the engine)
  422s alone while its concurrent neighbours get real answers;
* a mid-burst chaos shard kill still yields every response
  correct-or-degraded, with the shard pool healing afterwards;
* ``--no-batching`` (config ``batch_max_lanes=1``) serves every
  query as a one-lane batch with identical answers.
"""

from __future__ import annotations

import http.client
import json
import time
from concurrent.futures import ThreadPoolExecutor

from repro.runner import chaos
from repro.service import (
    ProvisionQuery,
    ServiceConfig,
    ServiceThread,
    execute_query,
)

DEADLINE_S = 6.0
SLACK_S = 4.0


def post(port: int, body: dict) -> tuple[int, dict, float]:
    t0 = time.monotonic()
    conn = http.client.HTTPConnection(
        "127.0.0.1", port, timeout=DEADLINE_S + SLACK_S + 5
    )
    try:
        conn.request("POST", "/provision", body=json.dumps(body))
        resp = conn.getresponse()
        return (
            resp.status,
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


def make_service(tmp_path, **over) -> ServiceThread:
    cfg = ServiceConfig(
        port=0,
        shards=2,
        queue_limit=32,
        deadline_s=DEADLINE_S,
        retries=1,
        backoff_s=0.05,
        breaker_reset_s=1.0,
        cache_dir=str(tmp_path / "cache"),
    )
    for key, value in over.items():
        setattr(cfg, key, value)
    return ServiceThread(cfg)


def _burst_bodies(count: int, *, base_steps: int = 120) -> list[dict]:
    """Cache-missing queries sharing one batch key (steps vary)."""
    return [
        {"topology": "path:24", "policy": "odd-even",
         "adversary": "far-end", "steps": base_steps + i,
         "deadline_s": DEADLINE_S}
        for i in range(count)
    ]


def _solo_answer(body: dict) -> dict:
    q = ProvisionQuery.from_dict(
        {k: v for k, v in body.items() if k != "deadline_s"}
    )
    return execute_query(q.to_worker_dict())


class TestBatchedBurst:
    def test_burst_coalesces_and_matches_solo(self, tmp_path):
        svc = make_service(tmp_path)
        try:
            port = svc.port
            bodies = _burst_bodies(10)
            with ThreadPoolExecutor(max_workers=10) as pool:
                results = list(pool.map(lambda b: post(port, b), bodies))
            for body, (status, doc, wall) in zip(bodies, results):
                assert status == 200, doc
                assert doc["degraded"] is False
                assert wall <= DEADLINE_S + SLACK_S
                want = _solo_answer(body)
                for key in ("max_height", "argmax_node", "injected",
                            "delivered", "in_flight", "dropped",
                            "drops_by_cause", "cache_key"):
                    assert doc[key] == want[key], (key, body)
            _, stats = get(port, "/stats")
            batcher = stats["batcher"]
            assert batcher["batches_flushed"] >= 1
            assert batcher["requests_batched"] == len(bodies)
            assert batcher["requests_solo"] == 0
            assert stats["pool"]["warmed"] is True
        finally:
            svc.stop()

    def test_poisoned_query_422s_alone(self, tmp_path):
        svc = make_service(tmp_path)
        try:
            port = svc.port
            bodies = _burst_bodies(6)
            poisoned = {"topology": "path:24", "policy": "odd-even",
                        "adversary": "far-end", "steps": 200,
                        "faults": {"events": [
                            {"kind": "halt", "start": 10 * (i + 1)}
                            for i in range(19)
                        ]},
                        "deadline_s": DEADLINE_S}
            bodies.insert(3, poisoned)
            with ThreadPoolExecutor(max_workers=7) as pool:
                results = list(pool.map(lambda b: post(port, b), bodies))
            statuses = [s for s, _, _ in results]
            assert statuses.count(422) == 1
            assert statuses.count(200) == len(bodies) - 1
            bad = next(d for s, d, _ in results if s == 422)
            assert "FaultError" in bad["error"]
            for s, doc, _ in results:
                if s == 200:
                    assert doc["degraded"] is False
        finally:
            svc.stop()

    def test_mid_burst_chaos_kill_stays_correct_or_degraded(
        self, tmp_path
    ):
        chaos.install(tmp_path / "chaos")
        svc = make_service(tmp_path)
        try:
            port = svc.port
            bodies = _burst_bodies(9)
            bodies.insert(3, {"kind": "experiment", "experiment": "X1",
                              "deadline_s": DEADLINE_S})
            with ThreadPoolExecutor(max_workers=8) as pool:
                results = list(pool.map(lambda b: post(port, b), bodies))
            for status, doc, wall in results:
                assert status == 200, doc
                assert wall <= DEADLINE_S + SLACK_S
                if not doc.get("degraded"):
                    assert (doc.get("max_height") is not None
                            or doc.get("passed") is True)
            # every non-degraded provision answer is still exact
            for body, (_, doc, _) in zip(
                [b for b in bodies if "experiment" not in b], results
            ):
                if doc.get("degraded") or doc.get("kind") != "provision":
                    continue
                assert doc["max_height"] == (
                    _solo_answer(body)["max_height"]
                )
            status, _ = get(port, "/readyz")
            assert status == 200
        finally:
            svc.stop()
            chaos.uninstall()

    def test_no_batching_flag_serves_one_lane_batches_identically(
        self, tmp_path
    ):
        svc = make_service(tmp_path, batch_max_lanes=1)
        try:
            port = svc.port
            bodies = _burst_bodies(4)
            with ThreadPoolExecutor(max_workers=4) as pool:
                results = list(pool.map(lambda b: post(port, b), bodies))
            for body, (status, doc, _) in zip(bodies, results):
                assert status == 200
                assert doc["max_height"] == (
                    _solo_answer(body)["max_height"]
                )
            _, stats = get(port, "/stats")
            batcher = stats["batcher"]
            assert batcher["max_lanes"] == 1
            assert batcher["batches_flushed"] == len(bodies)
            assert batcher["flushes"]["size"] == len(bodies)
            assert batcher["mean_occupancy"] == 1.0
            assert batcher["requests_solo"] == 0
        finally:
            svc.stop()
