"""The two service workloads: boot ``repro serve``, drive it, check it.

Load shape: one server process (``python -m repro serve --port 0``, or
``launcher.py`` for a traced run) with its default configuration, and
two closed-loop clients in this process.  Each client sends its next
``POST /provision`` only when the last answer has arrived, on a fresh
``Connection: close`` connection, and times it from send to full body.
"""

from __future__ import annotations

import http.client
import json
import math
import os
import random
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import gen
import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CLIENTS = 2
SETUPS = 3
SAMPLE_CHECKS = 8
SAMPLE_FROM = 32  # the sample is drawn from requests every run sends
PARSED_AHEAD = 1500  # more than a miss phase sends at its --seconds
BOOT_TIMEOUT_S = 90.0
STOP_TIMEOUT_S = 30.0


class WrongAnswer(Exception):
    """The service returned an answer that fails an output check."""


# -- processes ----------------------------------------------------------
def _group_pids(pgid: int) -> list[int]:
    pids = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            stat = Path(f"/proc/{entry}/stat").read_text()
        except OSError:
            continue
        # the command name may hold spaces: fields follow the last ')'
        fields = stat.rsplit(")", 1)[1].split()
        if int(fields[2]) == pgid and fields[0] != "Z":
            pids.append(int(entry))
    return pids


def _vm_hwm_kb(pid: int) -> int:
    try:
        for line in Path(f"/proc/{pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    except OSError:
        pass
    return 0


def self_peak_rss_mb() -> float:
    return _vm_hwm_kb(os.getpid()) / 1024.0


class Server:
    """One ``repro serve`` process group on a fresh cache directory."""

    def __init__(self, work: Path, cache_dir: Path, *, traced: bool) -> None:
        self.log_path = work / f"{cache_dir.name}.log"
        env = dict(os.environ)
        env["PYTHONPATH"] = str(ROOT / "src")
        if traced:
            self.trace_dir = work / f"{cache_dir.name}-trace"
            self.trace_dir.mkdir()
            env[spans.TRACE_ENV] = str(self.trace_dir)
            argv = [sys.executable, str(HERE / "launcher.py")]
        else:
            argv = [sys.executable, "-m", "repro", "serve"]
        argv += ["--port", "0", "--cache-dir", str(cache_dir)]
        with open(self.log_path, "wb") as log:
            self.proc = subprocess.Popen(
                argv, cwd=ROOT, env=env, stdout=log,
                stderr=subprocess.STDOUT, stdin=subprocess.DEVNULL,
                start_new_session=True,
            )
        self.port = 0

    def wait_ready(self) -> None:
        """Block until ``/readyz`` answers 200."""
        deadline = time.monotonic() + BOOT_TIMEOUT_S
        marker = "listening on http://"
        while not self.port:
            if self.proc.poll() is not None or time.monotonic() > deadline:
                raise RuntimeError(
                    f"server failed to boot:\n{self.log_path.read_text()}"
                )
            for line in self.log_path.read_text().splitlines():
                if marker in line:
                    self.port = int(line.rsplit(":", 1)[1])
            time.sleep(0.005)
        while True:
            try:
                status, _ = self.get("/readyz")
            except OSError:
                status = 0
            if status == 200:
                return
            if time.monotonic() > deadline:
                raise RuntimeError("server never became ready")
            time.sleep(0.005)

    def get(self, path: str) -> tuple[int, Any]:
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=30)
        try:
            conn.request("GET", path, headers={"Connection": "close"})
            resp = conn.getresponse()
            return resp.status, json.loads(resp.read())
        finally:
            conn.close()

    def peak_rss_mb(self) -> float:
        """Peak resident memory summed over the server and its workers."""
        pids = _group_pids(self.proc.pid)
        return sum(_vm_hwm_kb(pid) for pid in pids) / 1024.0

    def stop(self) -> None:
        """SIGTERM (graceful drain), then make sure the group is gone."""
        pgid = self.proc.pid
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                os.killpg(pgid, signal.SIGKILL)
                self.proc.wait()
        # shard workers exit once the pool shuts down; give them a
        # moment to write their traces, then kill any straggler
        deadline = time.monotonic() + STOP_TIMEOUT_S
        while (left := _group_pids(pgid)) and time.monotonic() < deadline:
            time.sleep(0.02)
        if left:
            try:
                os.killpg(pgid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            while _group_pids(pgid):
                time.sleep(0.02)

    def traces(self) -> dict[str, Any]:
        docs = [json.loads(p.read_text())
                for p in sorted(self.trace_dir.glob("*.json"))]
        names = [p.name for p in self.trace_dir.glob("*.json")]
        if "server.json" not in names:
            raise RuntimeError("the traced server wrote no spans")
        merged = spans.merge(docs)
        merged["workers"] = len(names) - 1
        return merged


# -- the closed loop ----------------------------------------------------
@dataclass
class Phase:
    """What the clients saw during one timed phase."""

    latencies_s: list[float] = field(default_factory=list)
    ok: int = 0
    failed: int = 0
    wrong: list[str] = field(default_factory=list)
    failures: dict[str, int] = field(default_factory=dict)
    kept: dict[int, tuple[int, dict]] = field(default_factory=dict)
    wall_s: float = 0.0

    @property
    def attempted(self) -> int:
        return len(self.latencies_s)

    def percentile_ms(self, q: int) -> float:
        cuts = statistics.quantiles(self.latencies_s, n=100,
                                    method="inclusive")
        return cuts[q - 1] * 1e3

    @property
    def mean_ms(self) -> float:
        return statistics.fmean(self.latencies_s) * 1e3


def _post(port: int, body: bytes) -> tuple[int, bytes]:
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
    try:
        conn.request("POST", "/provision", body=body, headers={
            "Content-Type": "application/json", "Connection": "close",
        })
        resp = conn.getresponse()
        return resp.status, resp.read()
    finally:
        conn.close()


Check = Callable[[int, int, dict], str | None]


def drive(
    port: int, bodies: list[bytes], seconds: float | None, check: Check,
    keep: set[int] = frozenset(),
) -> Phase:
    """Run the closed loop for ``seconds``; requests go out in list order.

    ``check(i, status, body)`` returns ``None`` for a correct answer or
    a failure label for a refused or failed one, and raises
    :class:`WrongAnswer` for a wrong one.  Requests in flight when the
    time is up still complete and count.  A service fast enough to use
    up the list ends the phase early; rates stay correct.  With
    ``seconds=None`` the whole list is sent.
    """
    phase = Phase()
    lock = threading.Lock()
    cursor = iter(range(len(bodies)))
    t_end = time.perf_counter() + (math.inf if seconds is None else seconds)

    def client() -> None:
        while time.perf_counter() < t_end:
            with lock:
                i = next(cursor, None)
            if i is None:
                return
            t0 = time.perf_counter()
            try:
                status, data = _post(port, bodies[i])
                body = json.loads(data)
            except (OSError, http.client.HTTPException, ValueError) as err:
                status, body = 0, {"error": f"{type(err).__name__}: {err}"}
            lat = time.perf_counter() - t0
            try:
                label = check(i, status, body)
            except WrongAnswer as err:
                label = "wrong answer"
                with lock:
                    phase.wrong.append(f"request {i}: {err}")
            with lock:
                phase.latencies_s.append(lat)
                if label is None:
                    phase.ok += 1
                else:
                    phase.failed += 1
                    phase.failures[label] = phase.failures.get(label, 0) + 1
                if i in keep:
                    phase.kept[i] = (status, body)

    errors: list[BaseException] = []

    def guarded() -> None:
        try:
            client()
        except BaseException as err:  # re-raised on the main thread
            errors.append(err)

    t0 = time.perf_counter()
    threads = [threading.Thread(target=guarded, daemon=True)
               for _ in range(CLIENTS)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    phase.wall_s = time.perf_counter() - t0
    if errors:
        raise errors[0]
    return phase


def _failure_label(status: int, body: dict) -> str:
    error = str(body.get("error", ""))
    return f"{status} {error.split(':')[0]}".strip()


# -- workloads ----------------------------------------------------------
def _strip(doc: dict, *keys: str) -> dict:
    return {k: v for k, v in doc.items() if k not in keys}


class HitWorkload:
    """512 prefilled answers, then a seeded replay of their keys."""

    name = "provision-hit"

    def __init__(self, seed: int) -> None:
        from repro.service import ProvisionQuery, execute_batch

        self.raw = gen.hit_keys(seed)
        self.queries = [ProvisionQuery.from_dict(r) for r in self.raw]
        self.order = gen.hit_sequence(seed)
        self.bodies = [json.dumps(self.raw[k]).encode() for k in self.order]
        self.warm_order = gen.hit_warmup(seed)
        self.warm_bodies = [json.dumps(self.raw[k]).encode()
                            for k in self.warm_order]
        self.probe_bodies: list[bytes] = []
        self.warm_queries: list = []  # the warm-up repeats self.queries
        self.sample: set[int] = set()
        # computed once, before any timed set-up: the answers are this
        # workload's input, and engine speed should not move the hit path
        self.expected = execute_batch([q.to_worker_dict()
                                       for q in self.queries])
        for answer in self.expected:
            if "error" in answer:
                raise WrongAnswer(f"prefill failed: {answer['error']}")

    def prefill(self, cache_dir: Path) -> None:
        """Store every precomputed answer in a fresh cache."""
        from repro.service import ResultCache

        cache = ResultCache(cache_dir)
        for q, answer in zip(self.queries, self.expected):
            cache.put(q.cache_key(), answer, query=q)

    def _check_key(self, key: int, status: int, body: dict) -> str | None:
        if status != 200:
            return _failure_label(status, body)
        if body.get("degraded"):
            return "degraded"
        want = _strip(self.expected[key], "compute_s")
        if _strip(body, "cached", "compute_s") != want:
            raise WrongAnswer("body differs from the prefilled answer")
        return None

    def check(self, i: int, status: int, body: dict) -> str | None:
        return self._check_key(self.order[i], status, body)

    def warm_check(self, i: int, status: int, body: dict) -> str | None:
        return self._check_key(self.warm_order[i], status, body)

    def sample_check(self, phase: Phase) -> list[str]:
        return []


def _check_answer(q, status: int, body: dict) -> str | None:
    """The output checks every provisioning answer must pass."""
    if status != 200:
        return _failure_label(status, body)
    if body.get("degraded"):
        return "degraded"
    if body.get("cache_key") != q.cache_key():
        raise WrongAnswer("cache_key is not the key of the query sent")
    try:
        conserved = body["injected"] == (
            body["delivered"] + body["in_flight"] + body["dropped"]
        )
        within = body["max_height"] <= body["bound"]
    except (KeyError, TypeError) as err:
        raise WrongAnswer(f"malformed answer: {err!r}") from err
    if not conserved:
        raise WrongAnswer("injected != delivered + in_flight + dropped")
    if q.faults is None and q.buffer_capacity is None and not within:
        raise WrongAnswer(
            f"max_height {body['max_height']} exceeds the paper's "
            f"bound {body['bound']}"
        )
    return None


class MissWorkload:
    """Distinct queries over the surface the service answers; cold cache."""

    name = "provision-miss"

    def __init__(self, seed: int) -> None:
        from repro.service import ProvisionQuery

        self.raw = gen.miss_requests(seed)
        self.bodies = [json.dumps(r).encode() for r in self.raw]
        warm = gen.miss_warmup(seed)
        self.warm_queries = [ProvisionQuery.from_dict(r) for r in warm]
        self.warm_bodies = [json.dumps(r).encode() for r in warm]
        probe = gen.known_failure_requests(seed)
        self.probe_queries = [ProvisionQuery.from_dict(r) for r in probe]
        self.probe_bodies = [json.dumps(r).encode() for r in probe]
        # parsed up front: parsing during the phase would hold the GIL
        # while the other client's answer arrives, inflating its time
        self.queries = [ProvisionQuery.from_dict(r)
                        for r in self.raw[:PARSED_AHEAD]]
        self.sample = set(random.Random(f"sample:{seed}").sample(
            range(SAMPLE_FROM), SAMPLE_CHECKS
        ))

    def prefill(self, cache_dir: Path) -> None:
        return None

    def query(self, i: int):
        from repro.service import ProvisionQuery

        if i < len(self.queries):
            return self.queries[i]
        return ProvisionQuery.from_dict(self.raw[i])

    def check(self, i: int, status: int, body: dict) -> str | None:
        return _check_answer(self.query(i), status, body)

    def warm_check(self, i: int, status: int, body: dict) -> str | None:
        return _check_answer(self.warm_queries[i], status, body)

    def probe_check(self, i: int, status: int, body: dict) -> str | None:
        return _check_answer(self.probe_queries[i], status, body)

    def sample_check(self, phase: Phase) -> list[str]:
        """Recompute the sample in-process; compare field by field."""
        from repro.service import execute_query

        wrong = []
        for i in sorted(self.sample):
            if i not in phase.kept:
                wrong.append(f"request {i} of the fixed sample was not sent")
                continue
            status, body = phase.kept[i]
            mine = execute_query(self.query(i).to_worker_dict())
            if status == 200:
                same = _strip(body, "cached", "compute_s") == _strip(
                    mine, "compute_s"
                )
            else:
                same = body == mine
            if not same:
                wrong.append(f"request {i}: served answer differs from "
                             "an in-process recomputation")
        return wrong


WORKLOADS = {w.name: w for w in (HitWorkload, MissWorkload)}


@dataclass
class Run:
    """One booted server and the phase driven against it."""

    setup_s: float
    warmup: Phase
    phase: Phase
    probe: Phase
    stats: dict[str, Any]
    peak_rss_mb: float
    trace: dict[str, Any] | None
    put_tracer: spans.Tracer | None


def _setup(workload, work: Path, label: str, traced: bool) -> tuple[
    Server, float
]:
    cache_dir = work / label
    t0 = time.perf_counter()
    workload.prefill(cache_dir)
    server = Server(work, cache_dir, traced=traced)
    try:
        server.wait_ready()
    except BaseException:
        server.stop()
        raise
    return server, time.perf_counter() - t0


def run_phase(
    workload, work: Path, seconds: float, *, traced: bool, setups: int,
) -> Run:
    """Set up ``setups`` times (the last server is kept), then drive it.

    An untimed warm-up list goes first, so that the timed phase starts
    on a server whose lazy imports and first allocations are done.
    """
    put_tracer = None
    if traced and isinstance(workload, HitWorkload):
        # the hit workload writes its cache during set-up, in-process
        put_tracer = spans.Tracer()
        spans.install_cache(put_tracer)
    times = []
    for k in range(setups):
        tag = f"{'traced' if traced else 'plain'}-{k}"
        server, took = _setup(workload, work, tag, traced)
        times.append(took)
        if k < setups - 1:
            server.stop()
    try:
        warmup = drive(server.port, workload.warm_bodies, None,
                       workload.warm_check)
        phase = drive(server.port, workload.bodies, seconds,
                      workload.check, workload.sample)
        _, stats = server.get("/stats")
        rss = server.peak_rss_mb()
        # after /stats, so the probe stays out of every phase figure,
        # and never to a traced server, whose spans cover its whole life
        probe = Phase()
        if workload.probe_bodies and not traced:
            probe = drive(server.port, workload.probe_bodies, None,
                          workload.probe_check)
    finally:
        server.stop()
    return Run(
        setup_s=statistics.median(times),
        warmup=warmup,
        phase=phase,
        probe=probe,
        stats=stats,
        peak_rss_mb=rss,
        trace=server.traces() if traced else None,
        put_tracer=put_tracer,
    )


def _mean_ms(tr: dict[str, Any], category: str) -> float:
    calls = tr["calls"].get(category, 0)
    return tr["total_ns"].get(category, 0) / calls / 1e6 if calls else 0.0


def layer_metrics(plain: Run, traced: Run) -> dict[str, tuple[float, str]]:
    """Per-layer figures of the traced run, plus its accounting lines.

    Span figures are means per call unless named ``_per_req``; engine
    figures are totals over the traced server's life (warm-up and
    timed phase), summed over workers.
    """
    tr = traced.trace
    assert tr is not None
    stats = traced.stats
    # the traced server also served the warm-up: count it everywhere
    served = traced.warmup.latencies_s + traced.phase.latencies_s
    requests = len(served)
    by_key: dict[str, int] = {}
    pool_calls = {"shards.solo": [], "shards.batch": []}
    waits = []
    for category, keys, ns, compute_s in tr["async_spans"]:
        if category in pool_calls:
            pool_calls[category].append((ns, compute_s))
            for key in keys:
                by_key[key] = ns
    submit_ns = 0
    for category, keys, ns, _ in tr["async_spans"]:
        if category == "batcher.submit":
            submit_ns += ns
            waits.append(ns - by_key.get(keys[0], 0))
    calls = pool_calls["shards.solo"] + pool_calls["shards.batch"]

    def mean(xs) -> float:
        xs = list(xs)
        return statistics.fmean(xs) if xs else 0.0

    span_ms = (
        tr["total_ns"].get("protocol.parse", 0)
        + tr["total_ns"].get("cache.get", 0)
        + submit_ns
        + tr["total_ns"].get("cache.put", 0)
    ) / requests / 1e6
    client_ms = statistics.fmean(served) * 1e3
    plain_ms = statistics.fmean(
        plain.warmup.latencies_s + plain.phase.latencies_s) * 1e3
    if traced.put_tracer is not None:  # hit: the cache is written in set-up
        put_ms = _mean_ms(traced.put_tracer.to_dict(), "cache.put")
    else:
        put_ms = _mean_ms(tr, "cache.put")
    cache = stats["cache"]
    lookups = cache["hits"] + cache["misses"]
    batcher = stats["batcher"]
    submitted = batcher["requests_solo"] + batcher["requests_batched"]
    own = tr["self_ns"]
    lanes = tr["counts"].get("fleet.lanes", 0)

    return {
        "protocol.parse_ms": (_mean_ms(tr, "protocol.parse"), "ms"),
        "cache.get_ms": (_mean_ms(tr, "cache.get"), "ms"),
        "cache.put_ms": (put_ms, "ms"),
        "cache.hit_ratio": (
            cache["hits"] / lookups if lookups else 0.0, "fraction"),
        "store.touch_ms": (_mean_ms(tr, "store.touch"), "ms"),
        "store.evict_ms": (_mean_ms(tr, "store.evict"), "ms"),
        "store.index_loads_per_req": (
            tr["calls"].get("store.load_index", 0) / requests, "count"),
        "store.index_bytes_per_req": (
            tr["counts"].get("store.index_bytes", 0) / requests, "B"),
        "admission.shed": (stats["admission"]["shed_total"], "count"),
        "batcher.wait_ms": (mean(waits) / 1e6, "ms"),
        "batcher.occupancy": (batcher["mean_occupancy"], "lanes"),
        "batcher.solo_share": (
            batcher["requests_solo"] / submitted if submitted else 0.0,
            "fraction"),
        "batcher.flushes.window": (batcher["flushes"]["window"], "count"),
        "batcher.flushes.size": (batcher["flushes"]["size"], "count"),
        "batcher.flushes.deadline": (
            batcher["flushes"]["deadline"], "count"),
        "shards.call_ms": (mean(ns for ns, _ in calls) / 1e6, "ms"),
        "shards.ipc_ms": (mean(
            ns / 1e6 - c * 1e3 for ns, c in calls if c is not None
        ), "ms"),
        "shards.restarts": (stats["pool"]["restarts_total"], "count"),
        "worker.batch_compute_ms": (mean(
            c for _, c in pool_calls["shards.batch"] if c is not None
        ) * 1e3, "ms"),
        "worker.solo_compute_ms": (mean(
            c for _, c in pool_calls["shards.solo"] if c is not None
        ) * 1e3, "ms"),
        "app.span_total_ms": (span_ms, "ms"),
        "app.client_mean_ms": (client_ms, "ms"),
        "app.residual_ms": (client_ms - span_ms, "ms"),
        "app.client_p99_ms": (plain.phase.percentile_ms(99), "ms"),
        "trace.overhead_ms": (client_ms - plain_ms, "ms"),
        "error_ratio": (
            (traced.warmup.failed + traced.phase.failed) / requests,
            "fraction"),
        "known_failure.error_ratio": (
            plain.probe.failed / plain.probe.attempted
            if plain.probe.attempted else 0.0, "fraction"),
        "engine.path_self_s": (spans.layer_s(own, "engine.path"), "s"),
        "engine.tree_self_s": (spans.layer_s(own, "engine.tree"), "s"),
        "engine.fleet_self_s": (spans.layer_s(own, "engine.fleet"), "s"),
        "engine.path_steps": (tr["steps"].get("engine.path", 0), "count"),
        "engine.tree_steps": (tr["steps"].get("engine.tree", 0), "count"),
        "engine.fleet_lane_steps": (
            tr["steps"].get("engine.fleet", 0), "count"),
        "policy.decide_s": (spans.layer_s(own, "policy.decide"), "s"),
        "adversary.inject_s": (spans.layer_s(own, "adversary.inject"), "s"),
        "metrics.observe_s": (spans.layer_s(own, "metrics.observe"), "s"),
        "fleet.fallback_s": (spans.fallback_s(own), "s"),
        "fleet.vectorized_share": (
            tr["counts"].get("fleet.vectorized", 0) / lanes if lanes
            else 0.0, "fraction"),
    }


def compute_breakdown(traced: Run, queries) -> list[str]:
    """Worker compute and shard call time per path and topology."""
    assert traced.trace is not None
    topology = {q.cache_key(): q.topology for q in queries}
    groups: dict[tuple[str, str], list[tuple[float, float]]] = {}
    for category, keys, ns, compute_s in traced.trace["async_spans"]:
        if category.startswith("shards.") and compute_s is not None:
            topos = ",".join(sorted({topology.get(k, "?") for k in keys}))
            groups.setdefault((category, topos), []).append(
                (ns / 1e6, compute_s * 1e3)
            )
    return [
        f"{category} {topos}: {len(v)} calls, compute "
        f"{statistics.fmean(c for _, c in v):.1f} ms, call "
        f"{statistics.fmean(n for n, _ in v):.1f} ms"
        for (category, topos), v in sorted(groups.items())
    ]
