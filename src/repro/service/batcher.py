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
* batching is **slot-driven**: a query that finds fewer batches in
  flight than the pool has shards leaves at once, as a one-lane batch,
  because holding it past a free shard gains nothing.  A batch forms
  only while every shard is busy; when a batch finishes, the oldest
  forming batch is flushed at once.  A forming batch also flushes when
  it fills (``max_lanes``), and when its tightest member's budget falls
  to a fixed slack, so a saturated pool degrades a request at its
  deadline, not after it; with ``max_lanes=1`` every query flushes at
  once as a one-lane batch;
* concurrent waiters for the *same* cache key share one lane, whether
  it is still forming or already in flight (the thundering-herd dedup
  the cache itself can't provide mid-flight); a waiter that joins an
  in-flight lane waits no longer than its own deadline;
* each flush becomes **one** :meth:`ShardPool.submit_batch` call, and
  per-lane results are demultiplexed back to their waiting futures —
  a poisoned lane resolves to :class:`QueryFailed` for its own waiters
  only, while infrastructure failures propagate to every member as a
  *fresh* exception instance per request (the app layer degrades each
  independently).

Every provision query rides a batch: adaptive adversaries and fault
plans are per-lane facts of the fleet, not reasons to leave it.  Only
experiment queries (``batch_key()`` is ``None``) go to
:meth:`ShardPool.submit` on their own; they hold a shard too, so they
count as in flight.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field
from typing import Any

from .protocol import ProvisionQuery
from .resilience import Deadline, DeadlineExceeded
from .shards import QueryFailed, ShardPool

__all__ = ["BatcherStats", "QueryBatcher"]

# a forming batch whose tightest member has this little budget left
# flushes even while every shard is busy: one shard-pool poll
# (``ShardPool._acquire``) is what it has left to find a free shard
_DEADLINE_SLACK_S = 0.02


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
    """A forming batch: lanes keyed by cache key, one deadline timer."""

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
    flush_slot: int = 0
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
                # no batch waits out a fixed window any more; the key
                # stays for readers of the old layout
                "window": 0,
                "slot": self.flush_slot,
                "size": self.flush_size,
                "deadline": self.flush_deadline,
            },
        }


class QueryBatcher:
    """Slot-driven coalescing scheduler in front of a shard pool.

    Single-event-loop discipline: every method runs on the service's
    loop, so the batch dicts need no locking.  ``submit`` is the only
    entry point; it resolves to exactly the document (or exception) a
    one-lane batch of the same query would produce.  The pool's shard
    count is the number of slots (a duck-typed pool without ``shards``
    has one).
    """

    def __init__(self, pool: ShardPool, *, max_lanes: int = 64) -> None:
        if max_lanes < 1:
            raise ValueError(f"max_lanes must be >= 1, got {max_lanes}")
        self.pool = pool
        self.max_lanes = int(max_lanes)
        self.slots = len(getattr(pool, "shards", ())) or 1
        self.stats = BatcherStats()
        self._forming: dict[str, _Batch] = {}  # oldest first
        self._flying: dict[str, _Lane] = {}  # cache key -> lane in flight
        self._running = 0  # batches and solo queries in flight

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
            self._running += 1
            try:
                return await self.pool.submit(query, deadline)
            finally:
                self._done()
        self.stats.requests_batched += 1
        future: asyncio.Future[dict[str, Any]] = (
            asyncio.get_running_loop().create_future()
        )
        cache_key = query.cache_key()
        flying = self._flying.get(cache_key)
        if flying is not None:
            left = deadline.check("waiting for an in-flight lane")
            flying.futures.append(future)
            try:
                return await asyncio.wait_for(future, left)
            except asyncio.TimeoutError:
                raise DeadlineExceeded(
                    "deadline exceeded while waiting for an in-flight lane"
                ) from None

        batch = self._forming.get(batch_key)
        if batch is None:
            batch = self._forming[batch_key] = _Batch(batch_key)
        lane = batch.lanes.get(cache_key)
        if lane is None:
            lane = batch.lanes[cache_key] = _Lane(query, deadline)
        elif deadline.remaining() < lane.deadline.remaining():
            lane.deadline = deadline  # tightest waiter wins
        lane.futures.append(future)

        if len(batch.lanes) >= self.max_lanes:
            self._flush(batch_key, "size")
        elif self._running < self.slots:
            self._flush(batch_key, "slot")
        else:
            self._arm(batch, deadline)
        return await future

    # -- flush machinery -----------------------------------------------
    def _arm(self, batch: _Batch, deadline: Deadline) -> None:
        """Flush ``batch`` when ``deadline`` is down to the slack, unless
        a tighter member already set an earlier time."""
        left = deadline.remaining() - _DEADLINE_SLACK_S
        if left <= 0:
            self._flush(batch.batch_key, "deadline")
            return
        loop = asyncio.get_running_loop()
        if batch.timer is not None:
            if batch.timer.when() <= loop.time() + left:
                return
            batch.timer.cancel()
        batch.timer = loop.call_later(
            left, self._flush, batch.batch_key, "deadline"
        )

    def _flush(self, batch_key: str, cause: str) -> None:
        """Detach the forming batch and hand it to a runner task.

        Idempotent per batch: its deadline timer is cancelled here, so
        only the first trigger finds the batch still forming.
        """
        batch = self._forming.pop(batch_key, None)
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
        self._running += 1
        self._flying.update(batch.lanes)
        asyncio.get_running_loop().create_task(self._run_batch(batch))

    def _done(self) -> None:
        """A batch or solo query left its shard: hand the free slots to
        the oldest forming batches."""
        self._running -= 1
        while self._forming and self._running < self.slots:
            self._flush(next(iter(self._forming)), "slot")

    async def _run_batch(self, batch: _Batch) -> None:
        try:
            await self._answer(batch)
        finally:
            for key, lane in batch.lanes.items():
                if self._flying.get(key) is lane:
                    del self._flying[key]
            self._done()

    async def _answer(self, batch: _Batch) -> None:
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
        return sum(len(b.lanes) for b in self._forming.values())

    def stats_dict(self) -> dict[str, Any]:
        return {
            **self.stats.as_dict(),
            "max_lanes": self.max_lanes,
            "pending_lanes": self.pending_lanes,
        }
