"""The shard pool: worker processes behind per-shard circuit breakers.

Each shard is one spawned worker process on a duplex
:func:`multiprocessing.Pipe`.  The event loop writes a pickled
``(fn, args)`` call to the pipe and reads the reply once the pipe's
file descriptor is readable (``loop.add_reader``), a frame at a time
and without ever blocking on a partial read: no thread sits between a
query and its worker.  A hung or crashed query takes down exactly one
shard, which the pool then kills and rebuilds, exactly as the
experiment runner heals its pool (:mod:`repro.runner.runner`), while
the shard's circuit breaker remembers the misbehaviour.  End of file on
the pipe is the worker's death, seen the moment it happens.  Deadlines
are enforced here: a query's remaining budget bounds both the wait for
a free healthy shard and the execution itself, and an expired
execution kills the shard's worker process, so a dead deadline never
leaves a zombie computation burning a slot.  Closing the pool closes
the pipes: each worker reads end of file and exits 0 on its own,
running its exit hooks.
"""

from __future__ import annotations

import asyncio
import multiprocessing
import multiprocessing.util
import os
import pickle
import struct
from typing import Any, Callable, Sequence

from .protocol import ProvisionQuery, ServiceError
from .resilience import CircuitBreaker, Deadline, backoff_delay
from .worker import execute_batch, execute_query, warm_worker

__all__ = ["NoHealthyShard", "QueryFailed", "Shard", "ShardPool"]

#: the frame header of :class:`multiprocessing.connection.Connection`
#: for frames under 2 GiB (the only ones a shard sends): a signed
#: 32-bit payload length
_HEADER = struct.Struct("!i")
#: how long a closed pool waits for its workers to exit by themselves
_EXIT_GRACE_S = 5.0


class NoHealthyShard(ServiceError):
    """Every shard is saturated or circuit-open for this request."""


class QueryFailed(ServiceError):
    """The query ran and failed deterministically (no retry)."""


class WorkerDied(ServiceError):
    """A shard's worker closed its pipe before it answered."""


def _serve(conn: Any) -> None:
    """A shard worker's body: answer ``(fn, args)`` calls until the pipe
    closes, then return, so the process exits 0 and runs its exit
    hooks.  A call that raises answers with the exception."""
    while True:
        try:
            fn, args = conn.recv()
        except (EOFError, OSError):
            return
        try:
            reply = (True, fn(*args))
        except Exception as err:
            reply = (False, err)
        try:
            conn.send(reply)
        except (EOFError, OSError):
            return
        except Exception as err:  # an unpicklable reply
            conn.send((False, ServiceError(f"unpicklable reply: {err!r}")))


def _frame(obj: Any) -> bytes:
    """``obj`` pickled in a :class:`~multiprocessing.connection.Connection`
    frame, as the worker's ``recv`` reads it."""
    data = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
    return _HEADER.pack(len(data)) + data


class _Worker:
    """One spawned worker process and the event loop's end of its pipe.

    Calls alternate strictly with replies; the reader keeps what a
    readable pipe holds until a whole frame is in.
    """

    def __init__(self, name: str) -> None:
        # spawn, not fork: a worker (re)built mid-request must not
        # inherit duplicates of the front end's live client sockets —
        # a forked worker holding a connection FD keeps that connection
        # established after the handler closes it, so clients never
        # see the close and FDs leak into every rebuilt worker (pinned
        # by tools/hostile_client.py)
        ctx = multiprocessing.get_context("spawn")
        conn, child = ctx.Pipe(duplex=True)
        self.process = ctx.Process(target=_serve, args=(child,), name=name)
        try:
            self.process.start()
        finally:
            child.close()
        self.conn = conn
        self.fd = conn.fileno()
        os.set_blocking(self.fd, False)
        self._buf = bytearray()
        # (unregister, waiter) while a call waits on the event loop
        self._watch: tuple[Callable, asyncio.Future[Any]] | None = None
        # a pool that is never closed still ends its workers at exit,
        # before multiprocessing joins the children it knows of
        self._reap = multiprocessing.util.Finalize(
            self, _end, args=(self.process, conn), exitpriority=10
        )

    # -- the event loop's side ------------------------------------------
    async def call(self, fn: Callable[..., Any], args: tuple) -> Any:
        """``fn(*args)`` in the worker; raises what it raised, or
        :class:`WorkerDied` when the pipe reaches end of file first."""
        loop = asyncio.get_running_loop()
        data = memoryview(_frame((fn, args)))
        while data:
            try:
                data = data[os.write(self.fd, data):]
            except BlockingIOError:
                await self._wait(loop.add_writer, loop.remove_writer, None)
        reply = self._take()
        if reply is None:
            reply = await self._wait(
                loop.add_reader, loop.remove_reader, self._take
            )
        ok, value = reply
        if not ok:
            raise value
        return value

    async def _wait(
        self, add: Callable, remove: Callable, take: Callable | None
    ) -> Any:
        """Wait until the pipe takes more bytes (``take`` is ``None``) or
        ``take()`` finds a whole reply there, which is returned."""
        waiter = asyncio.get_running_loop().create_future()

        def ready() -> None:
            if waiter.done():
                return
            try:
                got = True if take is None else take()
            except Exception as err:
                waiter.set_exception(err)
            else:
                if got is not None:
                    waiter.set_result(got)

        add(self.fd, ready)
        self._watch = remove, waiter
        try:
            return await waiter
        finally:
            self._unwatch()

    def _unwatch(self) -> None:
        watch, self._watch = self._watch, None
        if watch is not None:
            watch[0](self.fd)

    def _take(self) -> Any:
        """Read what the pipe holds, up to the end of the reply's frame;
        the reply once the frame is whole, else ``None``.  Raises
        :class:`WorkerDied` at end of file before a whole frame."""
        buf = self._buf
        while (end := _frame_end(buf)) is None or len(buf) < end:
            left = 1 << 16 if end is None else end - len(buf)
            try:
                chunk = os.read(self.fd, min(left, 1 << 20))
            except BlockingIOError:
                return None
            except OSError as err:
                raise WorkerDied(f"worker pipe failed: {err}") from err
            if not chunk:
                raise WorkerDied("worker exited before it answered")
            buf += chunk
        reply = pickle.loads(memoryview(buf)[_HEADER.size:end])
        del buf[:end]
        return reply

    # ------------------------------------------------------------------
    def hang_up(self) -> None:
        """Close the pipe, so the worker reads end of file and exits; a
        call still waiting fails with :class:`WorkerDied`."""
        watch = self._watch
        self._unwatch()
        if watch is not None and not watch[1].done():
            watch[1].set_exception(WorkerDied("the shard was stopped"))
        self.conn.close()

    def end(self, *, kill: bool) -> None:
        """Stop the worker and reap it: killed at once, or (``kill``
        false) left to exit after :meth:`hang_up`, and killed only if it
        has not exited within the grace period."""
        self.hang_up()
        if kill:
            self.process.kill()
        self._reap()


def _frame_end(buf: bytearray) -> int | None:
    """Where the frame at the head of ``buf`` ends, once its header is
    in; else ``None``."""
    if len(buf) < _HEADER.size:
        return None
    (size,) = _HEADER.unpack_from(buf)
    if size < 0:
        raise WorkerDied(f"worker sent a frame of {size} bytes")
    return _HEADER.size + size


def _end(process: Any, conn: Any) -> None:
    """Close the pipe (the worker reads end of file and exits), reap the
    process, killing it past the grace period, and free its
    descriptors."""
    conn.close()
    process.join(_EXIT_GRACE_S)
    if process.exitcode is None:
        process.kill()
        process.join()
    process.close()


class Shard:
    """One worker process plus its health bookkeeping."""

    def __init__(
        self,
        shard_id: int,
        *,
        failure_threshold: int = 3,
        breaker_reset_s: float = 5.0,
    ) -> None:
        self.shard_id = shard_id
        self.breaker = CircuitBreaker(
            failure_threshold=failure_threshold,
            reset_after_s=breaker_reset_s,
        )
        self.busy = False
        self.restarts = 0
        self.served = 0
        self.warmed_pid: int | None = None
        self._worker: _Worker | None = None

    def worker(self) -> _Worker:
        """This shard's worker, spawned on first use."""
        if self._worker is None:
            self._worker = _Worker(f"repro-shard-{self.shard_id}")
        return self._worker

    async def call(self, fn: Callable[..., Any], *args: Any) -> Any:
        """``fn(*args)`` in this shard's worker.

        A call that does not end with a reply (the worker died, ``fn``
        raised, or the call was cancelled, as a deadline cancels it)
        restarts the shard: a reply still owed would otherwise answer
        the next call.
        """
        try:
            return await self.worker().call(fn, args)
        except BaseException:
            self.restart()
            raise

    def hang_up(self) -> None:
        """Ask the worker to exit (see :meth:`close`) without waiting."""
        if self._worker is not None:
            self._worker.hang_up()

    def _stop(self, *, kill: bool) -> None:
        worker, self._worker = self._worker, None
        self.warmed_pid = None
        if worker is not None:
            worker.end(kill=kill)

    def restart(self) -> None:
        """Kill the worker process (it may be hung) and reap it; the
        next call spawns a fresh one."""
        self._stop(kill=True)
        self.restarts += 1

    def close(self) -> None:
        """Let the worker exit by itself (see :meth:`_Worker.end`)."""
        self._stop(kill=False)

    def stats(self) -> dict[str, Any]:
        return {
            "shard": self.shard_id,
            "busy": self.busy,
            "restarts": self.restarts,
            "served": self.served,
            "warmed": self.warmed_pid is not None,
            **self.breaker.stats(),
        }


class ShardPool:
    """Multiplex queries onto shards; retry, heal, and degrade honestly."""

    def __init__(
        self,
        shards: int = 2,
        *,
        retries: int = 1,
        backoff_s: float = 0.2,
        failure_threshold: int = 3,
        breaker_reset_s: float = 5.0,
    ) -> None:
        if shards < 1:
            raise ServiceError(f"need at least 1 shard, got {shards}")
        if retries < 0:
            raise ServiceError(f"retries must be >= 0, got {retries}")
        self.shards = [
            Shard(
                i,
                failure_threshold=failure_threshold,
                breaker_reset_s=breaker_reset_s,
            )
            for i in range(shards)
        ]
        self.retries = retries
        self.backoff_s = backoff_s

    # -- shard checkout ------------------------------------------------
    def _pick(self) -> Shard | None:
        for shard in self.shards:
            if not shard.busy and shard.breaker.allow():
                return shard
        return None

    @property
    def all_open(self) -> bool:
        """Every breaker open: the pool is known-unhealthy right now."""
        return all(
            s.breaker.state == CircuitBreaker.OPEN for s in self.shards
        )

    async def _acquire(self, deadline: Deadline) -> Shard:
        # plain polling: the event loop is single-threaded, breakers
        # re-close on a timer (not an event), and slots turn over in
        # tens of milliseconds — a 20ms poll is simpler and avoids the
        # Condition-under-wait_for cancellation pitfalls entirely
        while True:
            shard = self._pick()
            if shard is not None:
                shard.busy = True
                return shard
            if self.all_open:
                raise NoHealthyShard("all shard circuit breakers are open")
            if deadline.remaining() <= 0:
                raise NoHealthyShard("no shard freed up within the deadline")
            await asyncio.sleep(0.02)

    def _release(self, shard: Shard) -> None:
        shard.busy = False

    # -- execution -----------------------------------------------------
    async def _execute(
        self,
        fn: Callable[..., Any],
        payload: Any,
        deadline: Deadline,
        key: str,
        served_of: Callable[[Any], int],
    ) -> Any:
        """The shared retry loop behind :meth:`submit` and
        :meth:`submit_batch`.

        Bounded retries with exponential backoff + deterministic jitter
        on *infrastructure* failures (worker death, hang, an exception
        raised in the worker); any returned
        payload — including in-query ``{"error": ...}`` documents — is
        a healthy shard, so the breaker records success and the caller
        decides what the payload means.  The remaining deadline is
        split across the remaining attempts, so a hang on the first
        attempt leaves budget for a retry to return a *real* answer
        inside the original deadline instead of forcing degradation.
        Raises :class:`NoHealthyShard` /
        :class:`~repro.service.resilience.DeadlineExceeded` when the
        pool or the budget is exhausted — the app layer turns those
        into degraded answers.
        """
        last_reason = "unknown"
        for attempt in range(1, self.retries + 2):
            deadline.check("waiting for a shard")
            shard = await self._acquire(deadline)
            left = deadline.remaining()
            if left <= 0:
                self._release(shard)
                deadline.check("executing")  # raises DeadlineExceeded
            attempts_left = self.retries + 2 - attempt
            # a failed call has already restarted its shard: a worker
            # past its deadline is still chewing (or hung), and one
            # that died answers nothing more
            try:
                response = await asyncio.wait_for(
                    shard.call(fn, payload), timeout=left / attempts_left
                )
            except asyncio.TimeoutError:
                shard.breaker.record_failure()
                last_reason = (
                    f"shard {shard.shard_id} hit the deadline "
                    f"(attempt {attempt})"
                )
            except Exception as err:
                shard.breaker.record_failure()
                last_reason = (
                    f"shard {shard.shard_id} worker died: "
                    f"{type(err).__name__} (attempt {attempt})"
                )
            else:
                shard.served += served_of(response)
                shard.breaker.record_success()
                return response
            finally:
                self._release(shard)
            if attempt <= self.retries:
                delay = backoff_delay(key, attempt, self.backoff_s)
                left = deadline.remaining()
                if left <= delay:
                    break
                await asyncio.sleep(delay)
        raise NoHealthyShard(f"retries exhausted: {last_reason}")

    async def submit(
        self, query: ProvisionQuery, deadline: Deadline
    ) -> dict[str, Any]:
        """Run one ``query`` on some healthy shard within ``deadline``.

        A deterministic in-query error raises :class:`QueryFailed`
        immediately (no retry — the shard is healthy, the query is
        not); infrastructure failures retry per :meth:`_execute`.
        """
        response = await self._execute(
            execute_query,
            query.to_worker_dict(),
            deadline,
            query.cache_key(),
            lambda r: 0 if "error" in r else 1,
        )
        if "error" in response:
            raise QueryFailed(response["error"])
        return response

    async def submit_batch(
        self, queries: Sequence[ProvisionQuery], deadline: Deadline
    ) -> list[dict[str, Any]]:
        """Run a coalesced batch as **one** worker call on one shard.

        Returns one response document per query, in order.  Per-lane
        failures come back as ``{"error": ...}`` entries in the list —
        a poisoned lane is the *caller's* (the batcher's) problem to
        demultiplex into a per-request :class:`QueryFailed`, never a
        reason to fail its batchmates or charge the shard's breaker.
        Infrastructure failures (worker death, hang, pool exhaustion)
        raise exactly as :meth:`submit` does, for the whole batch.
        """
        if not queries:
            return []
        payload = [q.to_worker_dict() for q in queries]
        responses = await self._execute(
            execute_batch,
            payload,
            deadline,
            queries[0].cache_key(),
            lambda rs: sum(1 for r in rs if "error" not in r),
        )
        if not isinstance(responses, list) or len(responses) != len(queries):
            raise ServiceError(
                f"batch protocol violation: sent {len(queries)} lanes, "
                f"got {type(responses).__name__} back"
            )
        return responses

    # ------------------------------------------------------------------
    async def warm_up(self, *, timeout_s: float = 60.0) -> None:
        """Pre-spawn every shard's worker and run the warm-up body in
        it (numpy import + a throwaway 2-run fleet), so the first real
        request doesn't pay the spawn/import latency spike inside its
        deadline.  Warm-ups run concurrently across shards; a shard
        whose warm-up fails or outlasts ``timeout_s`` stays usable —
        its worker is stopped (not counted as a restart) and the next
        call spawns it cold."""

        async def warm(shard: Shard) -> None:
            try:
                shard.warmed_pid = await shard.worker().call(warm_worker, ())
            except BaseException:  # pragma: no cover - cold start is legal
                shard._stop(kill=True)

        tasks = [asyncio.create_task(warm(shard)) for shard in self.shards]
        _, late = await asyncio.wait(tasks, timeout=timeout_s)
        for task in late:  # pragma: no cover - a warm-up past its budget
            task.cancel()
        await asyncio.gather(*tasks)

    def close(self) -> None:
        """Close every shard's pipe at once, then reap the workers as
        they exit (each within the grace period, else killed)."""
        for shard in self.shards:
            shard.hang_up()
        for shard in self.shards:
            shard.close()

    @property
    def restarts_total(self) -> int:
        return sum(s.restarts for s in self.shards)

    def stats(self) -> dict[str, Any]:
        return {
            "shards": [s.stats() for s in self.shards],
            "restarts_total": self.restarts_total,
            "all_open": self.all_open,
            "warmed": all(s.warmed_pid is not None for s in self.shards),
        }
