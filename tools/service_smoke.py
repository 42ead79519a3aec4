#!/usr/bin/env python3
"""End-to-end soak of the provisioning service under chaos.

Boots a real :class:`~repro.service.ServiceThread` on an ephemeral
port, fires ~50 concurrent HTTP requests at it (a small set of
distinct queries, repeated, so the content-addressed cache must get
hits), and kills one shard's worker mid-soak via the
:mod:`repro.runner.chaos` crash stub.  Asserts the service-level
contract from docs/robustness.md:

* every accepted request answers 200 with either a real result or an
  explicit ``degraded: true`` — never a silent wrong answer, never a
  hang past the deadline;
* every shed request answers 503 with a ``Retry-After`` header;
* the cache hit rate ends above zero and a sampled response matches an
  in-process recomputation;
* the shard pool reports a warm start (every worker pre-imported numpy
  and built a throwaway 1-lane fleet before the first request);
* the coalescing batcher flushed at least one batch during the soak
  (batch hit rate > 0 — concurrent cache-missing queries really were
  served through the FleetEngine path);
* the crashed shard is restarted and ``/readyz`` reports ready again;
* ``/stats`` carries the connection governor's counters (``open``,
  ``rejects_by_cause``, ``reaped``, ``draining``) and the soak leaks
  no connections;
* a SIGTERM to a real ``repro serve`` subprocess triggers the
  graceful drain and the process exits 0 inside
  ``--drain-deadline-s`` plus slack;
* the server runs in a session of its own, and none of that session's
  processes (its shard workers included) is still alive a few seconds
  after the server exits: a closed pool leaves no orphaned worker.

Exits non-zero (with a diagnostic) on any violation — this is the CI
``service-smoke`` job and also runs via ``make service-smoke``.
"""

from __future__ import annotations

import argparse
import http.client
import json
import os
import signal
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.runner import chaos  # noqa: E402  (path bootstrap above)
from repro.service import (  # noqa: E402
    ServiceConfig,
    ServiceThread,
    execute_query,
)
from repro.service.protocol import ProvisionQuery  # noqa: E402

DEADLINE_S = 10.0
SLACK_S = 5.0  # request wall time may exceed the deadline by at most this

#: distinct queries, repeated across the soak so the cache must hit.
QUERIES = [
    {"topology": "path:32", "policy": "odd-even",
     "adversary": "far-end", "steps": 400},
    {"topology": "path:64", "policy": "downhill",
     "adversary": "pre-sink", "steps": 400},
    {"topology": "binary:3", "policy": "tree-odd-even",
     "adversary": "uniform", "steps": 300, "seed": 7},
    {"topology": "path:32", "policy": "odd-even",
     "adversary": "far-end", "steps": 400, "buffer_capacity": 4},
]

CHAOS_KILL = {"kind": "experiment", "experiment": "X1",
              "deadline_s": DEADLINE_S}


def post(port: int, body: dict) -> tuple[int, dict, dict, float]:
    """``(status, headers, json_body, wall_s)`` for one POST /provision."""
    t0 = time.monotonic()
    conn = http.client.HTTPConnection("127.0.0.1", port,
                                      timeout=DEADLINE_S + SLACK_S)
    try:
        conn.request("POST", "/provision", body=json.dumps(body),
                     headers={"Content-Type": "application/json"})
        resp = conn.getresponse()
        payload = json.loads(resp.read() or b"{}")
        return (resp.status, dict(resp.getheaders()), payload,
                time.monotonic() - t0)
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


def check(ok: bool, what: str, failures: list[str]) -> None:
    print(("PASS " if ok else "FAIL ") + what)
    if not ok:
        failures.append(what)


DRAIN_DEADLINE_S = 5.0
DRAIN_SLACK_S = 10.0  # SIGTERM → exit may also pay pool teardown
ORPHAN_GRACE_S = 3.0  # how long the session may outlive its leader


def session_pids(sid: int) -> list[int]:
    """Processes of session ``sid`` that are still alive (zombies are
    dead: only their exit status is left to collect)."""
    pids = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            stat = (entry / "stat").read_text()
        except OSError:  # exited while we looked
            continue
        state, _ppid, _pgrp, session = stat[stat.rindex(")") + 2:].split()[:4]
        if int(session) == sid and state != "Z":
            pids.append(int(entry.name))
    return sorted(pids)


def sigterm_drain_check(failures: list[str], cache_dir: str) -> None:
    """Boot a real ``repro serve`` subprocess in a session of its own,
    SIGTERM it, and assert the graceful drain finishes (exit 0) inside
    the drain deadline and leaves no process of the session alive."""
    repo = Path(__file__).resolve().parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = (
        str(repo / "src")
        + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    )
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0",
         "--shards", "1", "--cache-dir", cache_dir,
         "--drain-deadline-s", str(DRAIN_DEADLINE_S)],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        text=True, cwd=repo, env=env, start_new_session=True,
    )
    try:
        assert proc.stdout is not None
        line = proc.stdout.readline()
        check("listening on" in line,
              f"serve subprocess reports listening ({line.strip()!r})",
              failures)
        port = int(line.rsplit(":", 1)[-1])
        status, _ = get(port, "/healthz")
        check(status == 200, "serve subprocess answers healthz",
              failures)
        t0 = time.monotonic()
        proc.send_signal(signal.SIGTERM)
        try:
            proc.wait(timeout=DRAIN_DEADLINE_S + DRAIN_SLACK_S)
        except subprocess.TimeoutExpired:
            proc.kill()
        wall = time.monotonic() - t0
        check(proc.returncode == 0,
              f"SIGTERM drain exits 0 (rc={proc.returncode})", failures)
        check(wall <= DRAIN_DEADLINE_S + DRAIN_SLACK_S,
              f"SIGTERM drain finishes inside the deadline "
              f"({wall:.2f}s <= {DRAIN_DEADLINE_S + DRAIN_SLACK_S:g}s)",
              failures)
        tail = proc.stdout.read() or ""
        check("drain complete" in tail,
              "serve subprocess logged the drain accounting", failures)
        deadline = time.monotonic() + ORPHAN_GRACE_S
        while (left := session_pids(proc.pid)) and time.monotonic() < deadline:
            time.sleep(0.05)
        check(not left,
              f"no process of the server's session outlives it by "
              f"{ORPHAN_GRACE_S:g}s (alive: {left})", failures)
    finally:
        if proc.poll() is None:  # pragma: no cover - hung subprocess
            proc.kill()
        for pid in session_pids(proc.pid):  # pragma: no cover - orphans
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--requests", type=int, default=50,
                    help="total provisioning requests (default 50)")
    ap.add_argument("--concurrency", type=int, default=16)
    args = ap.parse_args(argv)

    failures: list[str] = []
    with tempfile.TemporaryDirectory() as tmp:
        chaos.install(Path(tmp) / "chaos")
        svc = ServiceThread(ServiceConfig(
            port=0,
            shards=2,
            queue_limit=max(8, args.requests),
            deadline_s=DEADLINE_S,
            retries=1,
            backoff_s=0.05,
            breaker_reset_s=1.0,
            cache_dir=str(Path(tmp) / "cache"),
        ))
        try:
            port = svc.port
            print(f"service on {svc.address}")
            status, _ = get(port, "/healthz")
            check(status == 200, "healthz answers 200", failures)
            _, boot_stats = get(port, "/stats")
            check(boot_stats["pool"]["warmed"] is True,
                  "shard pool reports a warm start before any request",
                  failures)
            conn = boot_stats.get("connections", {})
            check(all(k in conn for k in
                      ("open", "peak", "rejects_by_cause", "reaped",
                       "draining", "drain_cancelled")),
                  "/stats exposes the connection governor counters",
                  failures)

            # the soak: N requests drawn round-robin from QUERIES, with
            # one chaos crash-kill injected a third of the way through
            bodies = [dict(QUERIES[i % len(QUERIES)], deadline_s=DEADLINE_S)
                      for i in range(args.requests)]
            bodies.insert(args.requests // 3, CHAOS_KILL)
            with ThreadPoolExecutor(max_workers=args.concurrency) as pool:
                results = list(pool.map(lambda b: post(port, b), bodies))

            statuses = [s for s, _, _, _ in results]
            print(f"soak: {len(results)} requests -> statuses "
                  f"{sorted(set(statuses))}")
            check(all(s in (200, 503) for s in statuses),
                  "every request answers 200 or an explicit 503 shed",
                  failures)
            for s, headers, body, wall in results:
                if s == 503:
                    if "Retry-After" not in headers or not body.get("shed"):
                        check(False, "503 carries Retry-After + shed flag",
                              failures)
                        break
            check(all(wall <= DEADLINE_S + SLACK_S
                      for _, _, _, wall in results),
                  f"no request hangs past deadline+{SLACK_S:g}s", failures)
            ok200 = [body for s, _, body, _ in results if s == 200]
            check(all(body.get("degraded") is True
                      or body.get("max_height") is not None
                      or body.get("passed") is not None
                      for body in ok200),
                  "every 200 is a real answer or flagged degraded: true",
                  failures)

            # spot-verify one non-degraded provision answer against an
            # in-process recomputation (determinism is the contract)
            sample = next((b for b in ok200
                           if not b.get("degraded")
                           and b.get("kind") == "provision"), None)
            check(sample is not None,
                  "at least one real provision answer came back", failures)
            if sample is not None:
                q = ProvisionQuery.from_dict(
                    {k: v for k, v in dict(
                        QUERIES[0], deadline_s=DEADLINE_S).items()})
                want = execute_query(q.to_worker_dict())
                got = next(b for b in ok200
                           if b.get("cache_key") == q.cache_key())
                check(got["max_height"] == want["max_height"],
                      "sampled response matches in-process recomputation",
                      failures)

            _, stats = get(port, "/stats")
            print("stats:", json.dumps(stats, indent=2, sort_keys=True))
            hits = stats["cache"]["hits"]
            check(hits > 0, f"cache hit rate > 0 (hits={hits})", failures)
            batches = stats["batcher"]["batches_flushed"]
            coalesced = stats["batcher"]["requests_batched"]
            check(batches > 0 and coalesced > 0,
                  f"batch hit rate > 0 (batches={batches}, "
                  f"requests_batched={coalesced})", failures)
            restarts = stats["pool"]["restarts_total"]
            check(restarts >= 1,
                  f"chaos-killed shard was restarted (restarts={restarts})",
                  failures)
            status, _ = get(port, "/readyz")
            check(status == 200, "readyz answers 200 after the chaos kill",
                  failures)
            conn = stats["connections"]
            check(conn["open"] <= 1,  # the /stats request itself
                  f"soak leaks no connections (open={conn['open']})",
                  failures)
        finally:
            svc.stop()
            chaos.uninstall()

        sigterm_drain_check(failures, str(Path(tmp) / "serve-cache"))

    if failures:
        print(f"\nservice smoke FAILED: {len(failures)} check(s)",
              file=sys.stderr)
        return 1
    print("\nservice smoke OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
