"""The asyncio front end: a minimal HTTP/1.1 provisioning service.

Stdlib-only (``asyncio.start_server`` + a hand-rolled HTTP/1.1
request/response cycle — the dependency set stays numpy/scipy/networkx,
and the handler is ~an RFC paragraph of parsing, not a framework).

Request flow for ``POST /provision``::

    parse+validate ── 400 on bad input
      └─ cache lookup ───────────────── hit → 200 {cached: true}
           └─ admission control ─────── full → 503 + Retry-After
                └─ query batcher (every provision query is a lane of
                   the batch its key selects; experiments go alone)
                     └─ shard pool (deadline, retries, breakers;
                        one FleetEngine call per flushed batch)
                          ├─ ok ──────────── answer check
                          │    ├─ pass ───── 200, response cached
                          │    └─ fail ───── 500 {error}, not cached
                          ├─ query error ─── 422 {error}  (a poisoned
                          │  lane 422s alone — batchmates unaffected)
                          └─ pool/deadline ─ 200 {degraded: true}
                             (nearest cached result, else the analytic
                             bound) — or 504 when degradation is
                             disabled

The connection layer itself is hardened against hostile clients
(docs/robustness.md, "Hostile clients & graceful drain"):

* a :class:`~repro.service.resilience.ConnectionGovernor` bounds
  concurrent connections (total and per peer) with fast
  ``503 + Retry-After`` accept shedding;
* every I/O phase — header read, body read, response write — runs
  under its own ``asyncio.timeout`` (``--io-timeout-s``), so a
  slowloris drip or stalled body is a clean ``408`` and a reader that
  never drains its response is aborted, never a parked coroutine;
* oversized headers are ``431``, oversized or lying ``Content-Length``
  declarations are ``413``/``400`` — hostile input never surfaces as
  a ``500``;
* a background reaper cancels any connection whose handler stops
  making I/O progress past its phase deadline (belt and braces under
  the phase timeouts);
* ``stop()`` / SIGTERM is a **graceful drain**: ``/readyz`` flips to
  503 immediately, new provisioning work is refused with
  ``503 + Retry-After``, in-flight requests get ``--drain-deadline-s``
  to finish, stragglers are force-cancelled with accounting, and the
  listener closes last so orchestrator probes can watch the drain.

``GET /healthz`` answers while the loop is alive; ``GET /readyz``
additionally requires a non-open shard and no drain in progress;
``GET /stats`` exposes queue depth, breaker states, cache hit rate,
shard restart counts, the batcher's coalescing counters, and the
connection governor's ``open``/``rejects_by_cause``/``reaped``/
``draining`` counters.
"""

from __future__ import annotations

import asyncio
import json
import signal
import threading
import time
from dataclasses import dataclass
from typing import Any

from .batcher import QueryBatcher
from .cache import ResultCache
from .protocol import (
    BadRequest,
    ProvisionQuery,
    ServiceError,
    analytic_answer,
    check_answer,
)
from .resilience import (
    AdmissionController,
    ConnectionGovernor,
    ConnectionRefused,
    ConnectionSlot,
    Deadline,
    DeadlineExceeded,
    Shedding,
)
from .shards import NoHealthyShard, QueryFailed, ShardPool

__all__ = ["ServiceConfig", "ProvisioningService", "ServiceThread"]

_MAX_HEADER_BYTES = 16 * 1024
_MAX_BODY_BYTES = 1 * 1024 * 1024

_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    408: "Request Timeout",
    413: "Content Too Large",
    422: "Unprocessable Entity",
    429: "Too Many Requests",
    431: "Request Header Fields Too Large",
    500: "Internal Server Error",
    503: "Service Unavailable",
    504: "Gateway Timeout",
}


@dataclass
class ServiceConfig:
    """Everything the service needs; defaults favour a small host."""

    host: str = "127.0.0.1"
    port: int = 8642  # 0 = ephemeral (tests)
    shards: int = 2
    queue_limit: int = 32
    deadline_s: float = 30.0
    retries: int = 1
    backoff_s: float = 0.2
    failure_threshold: int = 3
    breaker_reset_s: float = 5.0
    cache_dir: str = "results/service-cache"
    cache_max_bytes: int | None = 64 * 1024 * 1024
    cache_max_entries: int | None = 4096
    degrade: bool = True  # False: fail loudly instead of degrading
    est_service_s: float = 0.5  # Retry-After scale per queued request
    batch_max_lanes: int = 64  # flush early once a batch is this wide
    max_connections: int = 256  # concurrent connections before shedding
    max_connections_per_peer: int = 64  # per-peer slice of the above
    io_timeout_s: float = 10.0  # per-phase read/write deadline
    drain_deadline_s: float = 5.0  # in-flight budget on stop/SIGTERM


@dataclass
class _Counters:
    served_ok: int = 0
    served_cached: int = 0
    served_degraded: int = 0
    errors: int = 0


class ProvisioningService:
    """One service instance: front door, shard pool, and result cache."""

    def __init__(self, config: ServiceConfig | None = None) -> None:
        self.config = config or ServiceConfig()
        self.cache = ResultCache(
            self.config.cache_dir,
            max_bytes=self.config.cache_max_bytes,
            max_entries=self.config.cache_max_entries,
        )
        self.pool = ShardPool(
            self.config.shards,
            retries=self.config.retries,
            backoff_s=self.config.backoff_s,
            failure_threshold=self.config.failure_threshold,
            breaker_reset_s=self.config.breaker_reset_s,
        )
        self.batcher = QueryBatcher(
            self.pool, max_lanes=self.config.batch_max_lanes
        )
        self.admission = AdmissionController(
            self.config.queue_limit,
            est_service_s=self.config.est_service_s,
        )
        self.governor = ConnectionGovernor(
            self.config.max_connections,
            max_per_peer=self.config.max_connections_per_peer,
            io_timeout_s=self.config.io_timeout_s,
        )
        self.counters = _Counters()
        self._server: asyncio.Server | None = None
        self._reaper: asyncio.Task[None] | None = None
        self._draining = False
        self._stopped = False
        self._drain_report: dict[str, Any] = {}

    # -- lifecycle -----------------------------------------------------
    async def start(self) -> None:
        self.pool.warm_up()
        self._server = await asyncio.start_server(
            self._handle_connection, self.config.host, self.config.port
        )
        sock = self._server.sockets[0]
        self.config.port = sock.getsockname()[1]
        self._reaper = asyncio.create_task(self._reap_loop())

    async def _reap_loop(self) -> None:
        """Cancel connections whose handlers stop making I/O progress.

        The per-phase ``asyncio.timeout`` blocks answer first (a clean
        408 inside the budget); the reaper is the backstop that
        guarantees no handler task can outlive its phase deadline by
        more than the grace window, whatever state it wedged in.
        """
        interval = max(0.05, min(0.5, self.config.io_timeout_s / 4))
        while True:
            await asyncio.sleep(interval)
            for slot in self.governor.overdue():
                task = slot.handle
                if task is not None and not task.done():
                    task.cancel()
                self.governor.reaped(slot)

    async def stop(
        self, *, drain_deadline_s: float | None = None
    ) -> dict[str, Any]:
        """Graceful drain; idempotent; returns the drain accounting.

        ``/readyz`` flips to 503 and new provisioning work is refused
        immediately; requests already in flight get ``drain_deadline_s``
        (default ``config.drain_deadline_s``) of wall clock to finish,
        then are force-cancelled.  The listener stays open through the
        drain window — orchestrator probes observe the 503 — and closes
        before the shard pool is torn down.
        """
        if self._stopped:
            return dict(self._drain_report)
        self._stopped = True
        budget = (
            self.config.drain_deadline_s
            if drain_deadline_s is None
            else drain_deadline_s
        )
        t0 = time.monotonic()
        self._draining = True
        self.governor.draining = True
        current = asyncio.current_task()
        in_flight = [
            task
            for task in self.governor.handles()
            if task is not None and task is not current and not task.done()
        ]
        completed = cancelled = 0
        if in_flight:
            done, pending = await asyncio.wait(
                in_flight, timeout=max(0.0, budget)
            )
            completed = len(done)
            cancelled = len(pending)
            for task in pending:
                task.cancel()
            if pending:
                await asyncio.wait(pending, timeout=1.0)
            self.governor.drain_cancelled += cancelled
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        if self._reaper is not None:
            self._reaper.cancel()
            try:
                await self._reaper
            except asyncio.CancelledError:
                pass
            self._reaper = None
        # probe/late connections that arrived during the drain window
        stragglers = [
            task
            for task in self.governor.handles()
            if task is not None and task is not current and not task.done()
        ]
        for task in stragglers:
            task.cancel()
        if stragglers:
            await asyncio.wait(stragglers, timeout=1.0)
        self.governor.drain_cancelled += len(stragglers)
        self.pool.close()
        self._drain_report = {
            "in_flight_at_drain": len(in_flight),
            "completed": completed,
            "cancelled": cancelled + len(stragglers),
            "drain_s": round(time.monotonic() - t0, 3),
        }
        return dict(self._drain_report)

    @property
    def address(self) -> str:
        return f"http://{self.config.host}:{self.config.port}"

    # -- HTTP plumbing -------------------------------------------------
    async def _handle_connection(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        peername = writer.get_extra_info("peername")
        peer = (
            peername[0]
            if isinstance(peername, (tuple, list)) and peername
            else str(peername or "?")
        )
        try:
            slot = self.governor.register(
                peer, handle=asyncio.current_task()
            )
        except ConnectionRefused as err:
            # accept shed: one fast 503 and the connection is gone
            await self._write_response(
                writer,
                503,
                {"Retry-After": f"{err.retry_after_s:g}"},
                {
                    "error": str(err),
                    "shed": True,
                    "retry_after_s": err.retry_after_s,
                },
                slot=None,
            )
            return
        try:
            status, headers, body = await self._handle_request(
                reader, slot
            )
        except asyncio.CancelledError:
            # reaper kill or drain force-cancel: free the slot, abort
            # the transport, and re-raise so shutdown can actually
            # cancel this handler (a swallowed cancel would park the
            # drain on a task that never ends)
            self.governor.release(slot)
            writer.transport.abort()
            raise
        except Exception as err:  # never let a handler kill the loop
            status, headers, body = 500, {}, {
                "error": f"internal error: {type(err).__name__}: {err}"
            }
            self.counters.errors += 1
        await self._write_response(writer, status, headers, body, slot=slot)

    async def _write_response(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        headers: dict[str, str],
        body: dict[str, Any],
        *,
        slot: ConnectionSlot | None,
    ) -> None:
        """Serialize + send under the write-phase deadline.

        A client that stops reading its response is aborted when the
        deadline lapses (and counted as reaped) — the kernel's send
        buffer is not an unbounded parking lot.
        """
        payload = json.dumps(body, sort_keys=True).encode("utf-8")
        lines = [
            f"HTTP/1.1 {status} {_REASONS.get(status, 'OK')}",
            "Content-Type: application/json",
            f"Content-Length: {len(payload)}",
            "Connection: close",
        ]
        lines += [f"{k}: {v}" for k, v in headers.items()]
        if slot is not None:
            self.governor.touch(slot)  # response-write phase budget
        try:
            async with asyncio.timeout(self.config.io_timeout_s):
                writer.write(
                    ("\r\n".join(lines) + "\r\n\r\n").encode("ascii")
                )
                writer.write(payload)
                await writer.drain()
                writer.close()
                await writer.wait_closed()
        except TimeoutError:
            writer.transport.abort()
            if slot is not None:
                self.governor.reaped(slot)
        except (ConnectionError, OSError):
            pass
        except asyncio.CancelledError:
            writer.transport.abort()
            raise
        finally:
            if slot is not None:
                self.governor.release(slot)
            writer.close()

    async def _handle_request(
        self, reader: asyncio.StreamReader, slot: ConnectionSlot
    ) -> tuple[int, dict[str, str], dict[str, Any]]:
        io_s = self.config.io_timeout_s
        self.governor.touch(slot)  # header-read phase budget
        try:
            async with asyncio.timeout(io_s):
                head = await reader.readuntil(b"\r\n\r\n")
        except TimeoutError:
            self.governor.note_reaped()
            return 408, {}, {
                "error": "timed out reading request headers "
                f"(io_timeout_s={io_s:g})"
            }
        except asyncio.LimitOverrunError:
            return 431, {}, {
                "error": "request headers exceed "
                f"{_MAX_HEADER_BYTES} bytes"
            }
        except asyncio.IncompleteReadError:
            return 400, {}, {"error": "malformed HTTP request"}
        if len(head) > _MAX_HEADER_BYTES:
            return 431, {}, {
                "error": "request headers exceed "
                f"{_MAX_HEADER_BYTES} bytes"
            }
        request_line, *header_lines = head.decode(
            "latin-1"
        ).split("\r\n")
        parts = request_line.split(" ")
        if len(parts) != 3:
            return 400, {}, {"error": "malformed request line"}
        method, path, _version = parts
        headers = {}
        for line in header_lines:
            if ":" in line:
                k, _, v = line.partition(":")
                headers[k.strip().lower()] = v.strip()
        raw_length = headers.get("content-length", "").strip()
        if raw_length and not raw_length.isdigit():
            # catches negatives and junk: int("-5") would otherwise
            # reach readexactly(-5) and surface as a 500
            return 400, {}, {
                "error": f"invalid Content-Length: {raw_length!r} "
                "(must be a non-negative integer)"
            }
        length = int(raw_length) if raw_length else 0
        if length > _MAX_BODY_BYTES:
            return 413, {}, {
                "error": f"declared body of {length} bytes exceeds "
                f"{_MAX_BODY_BYTES}"
            }
        raw = b""
        if length:
            self.governor.touch(slot)  # body-read phase budget
            try:
                async with asyncio.timeout(io_s):
                    raw = await reader.readexactly(length)
            except TimeoutError:
                self.governor.note_reaped()
                return 408, {}, {
                    "error": "timed out reading request body "
                    f"({length} bytes declared, io_timeout_s={io_s:g})"
                }
            except asyncio.IncompleteReadError as err:
                return 400, {}, {
                    "error": "request body ended after "
                    f"{len(err.partial)} of {length} declared bytes"
                }

        if method == "GET":
            return self._get(path)
        if method == "POST" and path == "/provision":
            if self._draining:
                self.governor.count_reject("draining")
                retry = max(1.0, round(self.config.drain_deadline_s, 1))
                return 503, {"Retry-After": f"{retry:g}"}, {
                    "error": "service is draining",
                    "draining": True,
                    "shed": True,
                    "retry_after_s": retry,
                }
            return await self._provision(raw, slot)
        if path == "/provision":
            return 405, {}, {"error": "use POST /provision"}
        return 404, {}, {"error": f"no route for {method} {path}"}

    # -- GET endpoints -------------------------------------------------
    def _get(
        self, path: str
    ) -> tuple[int, dict[str, str], dict[str, Any]]:
        if path == "/healthz":
            return 200, {}, {"ok": True}
        if path == "/readyz":
            if self._draining:
                return 503, {}, {
                    "ok": False,
                    "reason": "service is draining",
                }
            if self.pool.all_open:
                return 503, {}, {
                    "ok": False,
                    "reason": "all shard circuit breakers open",
                }
            return 200, {}, {"ok": True}
        if path == "/stats":
            return 200, {}, self.stats()
        return 404, {}, {"error": f"no route for GET {path}"}

    def stats(self) -> dict[str, Any]:
        return {
            "admission": self.admission.stats(),
            "batcher": self.batcher.stats_dict(),
            "connections": self.governor.stats(),
            "pool": self.pool.stats(),
            "cache": self.cache.stats(),
            "served": {
                "ok": self.counters.served_ok,
                "cached": self.counters.served_cached,
                "degraded": self.counters.served_degraded,
                "errors": self.counters.errors,
            },
        }

    # -- the product endpoint ------------------------------------------
    async def _provision(
        self, raw: bytes, slot: ConnectionSlot
    ) -> tuple[int, dict[str, str], dict[str, Any]]:
        try:
            query = ProvisionQuery.from_dict(json.loads(raw or b"{}"))
            query.check_runnable()
        except json.JSONDecodeError as err:
            return 400, {}, {"error": f"body is not JSON: {err}"}
        except BadRequest as err:
            return 400, {}, {"error": str(err)}

        key = query.cache_key()
        cached = self.cache.get(key)
        if cached is not None:
            self.counters.served_cached += 1
            return 200, {}, {**cached, "cached": True}

        try:
            self.admission.admit()
        except Shedding as err:
            return (
                503,
                {"Retry-After": f"{err.retry_after_s:g}"},
                {
                    "error": str(err),
                    "shed": True,
                    "retry_after_s": err.retry_after_s,
                },
            )
        try:
            budget = query.deadline_s or self.config.deadline_s
            # processing is bounded by the shard-pool deadline, not the
            # per-phase I/O timeout: re-arm the reap deadline to match
            self.governor.touch(
                slot, budget_s=budget + self.config.io_timeout_s
            )
            deadline = Deadline.after(budget)
            response = await self.batcher.submit(query, deadline)
        except QueryFailed as err:
            self.counters.errors += 1
            return 422, {}, {"error": str(err)}
        except (NoHealthyShard, DeadlineExceeded) as err:
            return self._degraded(query, str(err))
        finally:
            self.admission.release()
        try:
            check_answer(query, response)
        except ServiceError as err:
            self.counters.errors += 1
            return 500, {}, {"error": f"internal error: {err}"}
        self.cache.put(key, response, query=query)
        self.counters.served_ok += 1
        return 200, {}, {**response, "cached": False}

    def _degraded(
        self, query: ProvisionQuery, reason: str
    ) -> tuple[int, dict[str, str], dict[str, Any]]:
        """Answer *something honest* rather than timing out: the nearest
        cached measurement if one shares the query's shape, else the
        paper's analytic bound — always flagged ``degraded: true``."""
        if not self.config.degrade:
            self.counters.errors += 1
            return 504, {}, {"error": reason}
        near = self.cache.nearest(query)
        if near is not None:
            body = {
                **near,
                "degraded": True,
                "degraded_reason": f"{reason}; serving nearest cached "
                f"result for this (topology, policy, adversary)",
            }
        else:
            body = analytic_answer(query, reason)
        self.counters.served_degraded += 1
        return 200, {}, {**body, "cached": False}


async def _serve_forever(service: ProvisioningService) -> None:
    await service.start()
    assert service._server is not None
    loop = asyncio.get_running_loop()
    stop_requested = asyncio.Event()
    installed: list[signal.Signals] = []
    for sig in (signal.SIGTERM, signal.SIGINT):
        try:
            loop.add_signal_handler(sig, stop_requested.set)
            installed.append(sig)
        except (NotImplementedError, RuntimeError):  # pragma: no cover
            pass  # non-unix / nested loop: KeyboardInterrupt fallback
    print(f"repro service listening on {service.address}", flush=True)
    try:
        await stop_requested.wait()
        print(
            "drain: refusing new work, waiting up to "
            f"{service.config.drain_deadline_s:g}s for in-flight "
            "requests",
            flush=True,
        )
    finally:
        report = await service.stop()
        print(
            f"drain complete: {json.dumps(report, sort_keys=True)}",
            flush=True,
        )
        for sig in installed:
            loop.remove_signal_handler(sig)


def run_service(config: ServiceConfig | None = None) -> int:
    """Blocking entry point for ``repro serve``.

    SIGTERM and SIGINT both trigger the graceful drain; the process
    exits 0 once in-flight work is done (or force-cancelled at the
    drain deadline) and the shard pool is closed.
    """
    service = ProvisioningService(config)
    try:
        asyncio.run(_serve_forever(service))
    except KeyboardInterrupt:  # pragma: no cover - non-unix fallback
        print("shutting down")
    finally:
        service.pool.close()
    return 0


class ServiceThread:
    """Run a service on a background thread (tests, smoke tooling).

    The event loop lives on the thread; ``stop()`` is thread-safe,
    idempotent, and performs the same graceful drain as SIGTERM —
    in-flight requests keep making progress on the loop while the
    drain waits, and the drain accounting is returned.  The bound
    port is available as ``.port`` after construction returns (the
    constructor blocks until the server is listening).
    """

    def __init__(self, config: ServiceConfig) -> None:
        self.service = ProvisioningService(config)
        self._loop = asyncio.new_event_loop()
        self._started = threading.Event()
        self._stop_lock = threading.Lock()
        self._stopped = False
        self._drain_report: dict[str, Any] = {}
        self._thread = threading.Thread(
            target=self._run, name="repro-service", daemon=True
        )
        self._thread.start()
        if not self._started.wait(timeout=30):  # pragma: no cover
            raise RuntimeError("service failed to start within 30s")

    def _run(self) -> None:
        asyncio.set_event_loop(self._loop)

        async def boot() -> None:
            await self.service.start()
            self._started.set()

        self._loop.run_until_complete(boot())
        self._loop.run_forever()
        # stop() drained the service on the live loop; just close it
        self._loop.close()

    @property
    def port(self) -> int:
        return self.service.config.port

    @property
    def address(self) -> str:
        return self.service.address

    def stop(
        self, *, drain_deadline_s: float | None = None
    ) -> dict[str, Any]:
        """Drain gracefully and join the thread; safe to call twice."""
        with self._stop_lock:
            if self._stopped:
                return dict(self._drain_report)
            self._stopped = True
            budget = (
                self.service.config.drain_deadline_s
                if drain_deadline_s is None
                else drain_deadline_s
            )
            if self._thread.is_alive() and self._loop.is_running():
                future = asyncio.run_coroutine_threadsafe(
                    self.service.stop(drain_deadline_s=drain_deadline_s),
                    self._loop,
                )
                try:
                    self._drain_report = future.result(
                        timeout=budget + 30
                    )
                except Exception:  # pragma: no cover - loop wedged
                    future.cancel()
                self._loop.call_soon_threadsafe(self._loop.stop)
            self._thread.join(timeout=30)
            return dict(self._drain_report)
