"""The shard transport: one spawned worker per shard on a duplex pipe
that the event loop reads.

Real worker processes, no mocks of the transport: a worker that dies
mid-call is seen at once through end of file, a hung one is killed at
its per-attempt deadline and the retry answers, restarts leave no file
descriptor or child process behind, a closed pool's workers exit 0 by
themselves, and a reply larger than the pipe's buffer arrives whole
while the event loop keeps running between its pieces.
"""

from __future__ import annotations

import asyncio
import os
import pickle
import socket
import time
from multiprocessing.process import BaseProcess

import pytest

from repro.runner import chaos
from repro.service import Deadline, ProvisionQuery, execute_batch
from repro.service.shards import NoHealthyShard, ShardPool, _frame, _Worker


@pytest.fixture
def chaos_dir(tmp_path):
    chaos.install(tmp_path / "chaos")
    yield tmp_path / "chaos"
    chaos.uninstall()


def _experiment(exp_id: str) -> ProvisionQuery:
    return ProvisionQuery.from_dict(
        {"kind": "experiment", "experiment": exp_id}
    )


def _children() -> list[tuple[int, str]]:
    """``(pid, state)`` of every process whose parent is this one,
    zombies included."""
    me = os.getpid()
    out = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                stat = fh.read()
        except OSError:
            continue
        fields = stat[stat.rindex(")") + 2:].split()
        if int(fields[1]) == me:
            out.append((int(entry), fields[0]))
    return sorted(out)


def _fds() -> int:
    return len(os.listdir("/proc/self/fd"))


def test_a_worker_that_exits_mid_call_is_dead_at_once(chaos_dir):
    """X1 kills its worker: end of file on the pipe fails the attempt
    at once, long before the attempt's deadline."""
    pool = ShardPool(1, retries=0)
    try:
        asyncio.run(pool.warm_up())
        t0 = time.monotonic()
        with pytest.raises(NoHealthyShard, match="worker died: WorkerDied"):
            asyncio.run(pool.submit(_experiment("X1"), Deadline.after(60.0)))
        assert time.monotonic() - t0 < 20.0
        assert pool.restarts_total == 1
        assert pool.shards[0].breaker.stats()["consecutive_failures"] == 1
    finally:
        pool.close()


def test_a_hung_worker_is_killed_at_its_attempt_deadline(chaos_dir):
    """X2 hangs once: its attempt ends at half the budget, the worker
    is killed and reaped, and the retry on a fresh worker answers."""
    pool = ShardPool(1, retries=1, backoff_s=0.01)
    try:
        asyncio.run(pool.warm_up())
        hung = pool.shards[0].warmed_pid
        t0 = time.monotonic()
        doc = asyncio.run(
            pool.submit(_experiment("X2"), Deadline.after(16.0))
        )
        took = time.monotonic() - t0
        assert doc["passed"] is True
        assert 8.0 <= took < 16.0  # the first attempt had 16 / 2 s
        assert pool.restarts_total == 1
        assert hung not in [pid for pid, _ in _children()]
    finally:
        pool.close()


def test_restarts_leave_no_descriptor_or_child_behind():
    pool = ShardPool(1)
    shard = pool.shards[0]
    try:
        first = asyncio.run(shard.call(os.getpid))
        fds, children = _fds(), len(_children())
        pids = {first}
        for _ in range(20):
            shard.restart()
            pids.add(asyncio.run(shard.call(os.getpid)))
        assert len(pids) == 21  # every restart spawned a fresh worker
        assert shard.restarts == 20
        assert _fds() == fds
        assert len(_children()) == children
        assert all(state != "Z" for _, state in _children())
    finally:
        pool.close()


def test_closing_the_pool_lets_every_worker_exit_0(monkeypatch):
    codes: dict[int, int | None] = {}
    close = BaseProcess.close

    def record(self):
        codes[self.pid] = self.exitcode
        close(self)

    monkeypatch.setattr(BaseProcess, "close", record)
    pool = ShardPool(2)
    asyncio.run(pool.warm_up())
    pids = [s.warmed_pid for s in pool.shards]
    assert None not in pids
    pool.close()
    assert {pid: codes.get(pid) for pid in pids} == {pid: 0 for pid in pids}
    assert not set(pids) & {pid for pid, _ in _children()}


def _fat_lanes(lanes: int = 64) -> list[ProvisionQuery]:
    """Distinct one-key lanes whose answers echo a long fault plan of
    their own (pickle shares no event between two lanes)."""
    return [
        ProvisionQuery.from_dict({
            "topology": "path:16", "policy": "odd-even",
            "adversary": "uniform", "steps": 80, "seed": lane,
            "faults": {"seed": lane, "events": [
                {"kind": "link_down", "start": i % 80, "node": 1 + i % 14,
                 "duration": 1 + (i + lane) % 5}
                for i in range(600)
            ]},
        })
        for lane in range(lanes)
    ]


def test_a_reply_larger_than_the_pipe_buffer_arrives_whole():
    """A 64-lane reply larger than the socket's buffers in both
    directions comes back from a real worker intact."""
    queries = _fat_lanes()
    want = execute_batch([q.to_worker_dict() for q in queries])
    a, b = socket.socketpair()
    with a, b:
        buffered = sum(
            s.getsockopt(socket.SOL_SOCKET, opt)
            for s, opt in ((a, socket.SO_SNDBUF), (b, socket.SO_RCVBUF))
        )
    assert len(pickle.dumps(want)) > buffered
    pool = ShardPool(1)
    try:
        asyncio.run(pool.warm_up())
        got = asyncio.run(pool.submit_batch(queries, Deadline.after(60.0)))
    finally:
        pool.close()

    def strip(docs):
        return [{k: v for k, v in d.items() if k != "compute_s"}
                for d in docs]

    assert strip(got) == strip(want)


def test_a_partial_frame_never_stalls_the_loop():
    """Half a reply frame in the pipe leaves the call pending and the
    event loop running; the rest completes it."""
    ours, theirs = socket.socketpair()
    worker = _Worker.__new__(_Worker)
    worker.fd, worker._buf, worker._watch = ours.fileno(), bytearray(), None
    os.set_blocking(worker.fd, False)
    reply = list(range(200_000))
    frame = _frame((True, reply))
    assert len(frame) > 2 * theirs.getsockopt(
        socket.SOL_SOCKET, socket.SO_SNDBUF
    )

    async def feed(data: bytes) -> None:
        # as fast as the pipe takes it, letting the loop (and the
        # reader) run in between
        while data:
            try:
                data = data[theirs.send(data):]
            except BlockingIOError:
                pass
            await asyncio.sleep(0)

    async def go():
        call = asyncio.create_task(worker.call(os.getpid, ()))
        half = len(frame) // 2
        await feed(frame[:half])
        for _ in range(20):
            await asyncio.sleep(0)
        assert not call.done() and len(worker._buf) == half
        await feed(frame[half:])
        return await asyncio.wait_for(call, 10.0)

    theirs.setblocking(False)
    with ours, theirs:
        assert asyncio.run(go()) == reply
        # the call itself went out whole, as one frame
        assert theirs.recv(1 << 16) == _frame((os.getpid, ()))
