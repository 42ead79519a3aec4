"""Micro-batched query coalescing: group cache-missing queries into
one FleetEngine call per batch.

Every ``POST /provision`` that misses the cache used to cost one full
engine spin-up in a shard worker, even when N concurrent queries
shared a topology shape and policy — exactly the co-schedulable work
the cross-run :class:`~repro.network.fleet_engine.FleetEngine` was
built to vectorise.  The :class:`QueryBatcher` sits between admission
control and the shard pool and closes that gap:

* provision queries are grouped by their **batch key**
  (:meth:`~repro.service.protocol.ProvisionQuery.batch_key` — resolved
  topology sha, policy, decision timing, overflow discipline, buffer
  capacity: everything a FleetEngine fixes fleet-wide), with per-lane
  adversaries, fault plans, seeds and step budgets heterogeneous;
* a forming batch is held for a bounded window (``window_s``, a few
  ms) and flushed early when it fills (``max_lanes``) or when a
  member's deadline can no longer afford the wait — so batching never
  *costs* a request its deadline, it only amortises compute; with
  ``max_lanes=1`` every query flushes at once as a one-lane batch;
* concurrent waiters for the *same* cache key share one lane (the
  thundering-herd dedup the cache itself can't provide mid-flight);
* each flush becomes **one** :meth:`ShardPool.submit_batch` call, and
  per-lane results are demultiplexed back to their waiting futures —
  a poisoned lane resolves to :class:`QueryFailed` for its own waiters
  only, while infrastructure failures propagate to every member as a
  *fresh* exception instance per request (the app layer degrades each
  independently).

Every provision query rides a batch: adaptive adversaries and fault
plans are per-lane facts of the fleet, not reasons to leave it.  Only
experiment queries (``batch_key()`` is ``None``) go to
:meth:`ShardPool.submit` on their own.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field
from typing import Any

from .protocol import ProvisionQuery
from .resilience import Deadline
from .shards import QueryFailed, ShardPool

__all__ = ["BatcherStats", "QueryBatcher"]

# a batch whose tightest member has less than this many windows of
# budget left flushes immediately rather than waiting out the window
_DEADLINE_SLACK_WINDOWS = 2.0


@dataclass
class _Lane:
    """One distinct cache key in a batch, plus everyone awaiting it."""

    query: ProvisionQuery
    deadline: Deadline
    futures: list[asyncio.Future[dict[str, Any]]] = field(
        default_factory=list
    )


@dataclass
class _Batch:
    """A forming batch: lanes keyed by cache key, one timer."""

    batch_key: str
    lanes: dict[str, _Lane] = field(default_factory=dict)
    timer: asyncio.TimerHandle | None = None


@dataclass
class BatcherStats:
    """Counters for ``GET /stats`` — proof the coalescing is working."""

    batches_flushed: int = 0
    lanes_flushed: int = 0
    requests_batched: int = 0  # includes same-key waiters sharing a lane
    requests_solo: int = 0  # experiment queries, which run no fleet
    flush_window: int = 0
    flush_size: int = 0
    flush_deadline: int = 0

    def as_dict(self) -> dict[str, Any]:
        batches = self.batches_flushed
        return {
            "batches_flushed": batches,
            "lanes_flushed": self.lanes_flushed,
            "requests_batched": self.requests_batched,
            "requests_solo": self.requests_solo,
            "mean_occupancy": (
                round(self.lanes_flushed / batches, 3) if batches else 0.0
            ),
            "flushes": {
                "window": self.flush_window,
                "size": self.flush_size,
                "deadline": self.flush_deadline,
            },
        }


class QueryBatcher:
    """Deadline-aware coalescing scheduler in front of a shard pool.

    Single-event-loop discipline: every method runs on the service's
    loop, so the pending-batch dict needs no locking.  ``submit`` is
    the only entry point; it resolves to exactly the document (or
    exception) a one-lane batch of the same query would produce.
    """

    def __init__(
        self,
        pool: ShardPool,
        *,
        window_s: float = 0.004,
        max_lanes: int = 64,
    ) -> None:
        if window_s <= 0:
            raise ValueError(f"window_s must be positive, got {window_s}")
        if max_lanes < 1:
            raise ValueError(f"max_lanes must be >= 1, got {max_lanes}")
        self.pool = pool
        self.window_s = float(window_s)
        self.max_lanes = int(max_lanes)
        self.stats = BatcherStats()
        self._pending: dict[str, _Batch] = {}

    # -- the one entry point -------------------------------------------
    async def submit(
        self, query: ProvisionQuery, deadline: Deadline
    ) -> dict[str, Any]:
        """Answer ``query`` as a lane of the batch its key selects.

        Raises what a one-lane batch of this query would raise:
        :class:`QueryFailed` for a deterministic per-lane error,
        :class:`NoHealthyShard` / :class:`DeadlineExceeded` when the
        pool or budget is exhausted.
        """
        batch_key = query.batch_key()
        if batch_key is None:
            self.stats.requests_solo += 1
            return await self.pool.submit(query, deadline)
        self.stats.requests_batched += 1
        loop = asyncio.get_running_loop()
        future: asyncio.Future[dict[str, Any]] = loop.create_future()

        batch = self._pending.get(batch_key)
        if batch is None:
            batch = _Batch(batch_key)
            self._pending[batch_key] = batch
            batch.timer = loop.call_later(
                self.window_s, self._flush, batch_key, "window"
            )
        cache_key = query.cache_key()
        lane = batch.lanes.get(cache_key)
        if lane is None:
            lane = _Lane(query=query, deadline=deadline)
            batch.lanes[cache_key] = lane
        elif deadline.remaining() < lane.deadline.remaining():
            lane.deadline = deadline  # tightest waiter wins
        lane.futures.append(future)

        if len(batch.lanes) >= self.max_lanes:
            self._flush(batch_key, "size")
        elif (
            deadline.remaining()
            <= self.window_s * _DEADLINE_SLACK_WINDOWS
        ):
            self._flush(batch_key, "deadline")
        return await future

    # -- flush machinery -----------------------------------------------
    def _flush(self, batch_key: str, cause: str) -> None:
        """Detach the forming batch and hand it to a runner task.

        Idempotent per batch: the window timer and an early size /
        deadline trigger may both fire; only the first finds the batch
        still pending.
        """
        batch = self._pending.pop(batch_key, None)
        if batch is None:
            return
        if batch.timer is not None:
            batch.timer.cancel()
        self.stats.batches_flushed += 1
        self.stats.lanes_flushed += len(batch.lanes)
        setattr(
            self.stats,
            f"flush_{cause}",
            getattr(self.stats, f"flush_{cause}") + 1,
        )
        asyncio.get_running_loop().create_task(self._run_batch(batch))

    async def _run_batch(self, batch: _Batch) -> None:
        lanes = list(batch.lanes.values())
        # the tightest member bounds the whole fleet call: batching
        # must never push a request past the deadline it arrived with
        tightest = min(lane.deadline.remaining() for lane in lanes)
        try:
            batch_deadline = Deadline.after(max(tightest, 1e-3))
            responses = await self.pool.submit_batch(
                [lane.query for lane in lanes], batch_deadline
            )
        except BaseException as err:
            if isinstance(err, (KeyboardInterrupt, SystemExit)):
                raise
            for lane in lanes:
                # fresh instance per waiter: each request handles (and
                # degrades) its own copy without sharing tracebacks
                self._settle(lane, exception_type=type(err), message=str(err))
            return
        for lane, response in zip(lanes, responses):
            if "error" in response:
                self._settle(
                    lane,
                    exception_type=QueryFailed,
                    message=str(response["error"]),
                )
            else:
                self._settle(lane, result=response)

    @staticmethod
    def _settle(
        lane: _Lane,
        *,
        result: dict[str, Any] | None = None,
        exception_type: type[BaseException] | None = None,
        message: str = "",
    ) -> None:
        for future in lane.futures:
            if future.done():  # waiter gone (cancelled connection)
                continue
            if result is not None:
                future.set_result(result)
            else:
                assert exception_type is not None
                future.set_exception(exception_type(message))

    # -- introspection -------------------------------------------------
    @property
    def pending_lanes(self) -> int:
        return sum(len(b.lanes) for b in self._pending.values())

    def stats_dict(self) -> dict[str, Any]:
        return {
            **self.stats.as_dict(),
            "window_ms": round(self.window_s * 1e3, 3),
            "max_lanes": self.max_lanes,
            "pending_lanes": self.pending_lanes,
        }
