"""Unit tests for micro-batched query coalescing.

Covers the batch key (what may share a FleetEngine), the
heterogeneous-horizon fleet entry point, the worker batch body's
poisoned-lane isolation, the deadline-aware batcher's flush and demux
behaviour (against an in-process fake pool — no worker processes), and
the shape-bucketed cache index that keeps degraded-mode nearest
lookups O(bucket) under eviction.
"""

from __future__ import annotations

import asyncio
import json

import pytest

from repro.adversaries import FarEndAdversary
from repro.errors import SimulationError
from repro.network.engine_fast import PathEngine
from repro.network.fleet_engine import FleetEngine
from repro.policies import OddEvenPolicy
from repro.service import (
    Deadline,
    DeadlineExceeded,
    ProvisioningService,
    ProvisionQuery,
    QueryBatcher,
    QueryFailed,
    ResultCache,
    ServiceConfig,
    execute_batch,
    execute_query,
    warm_worker,
)
from repro.service.batcher import _DEADLINE_SLACK_S
from repro.service.cache import shape_bucket
from repro.service.shards import NoHealthyShard


def _query(**overrides):
    raw = {
        "topology": "path:16",
        "policy": "odd-even",
        "adversary": "far-end",
        "steps": 40,
        "seed": 0,
    }
    raw.update(overrides)
    return ProvisionQuery.from_dict(raw)


def _strip(doc):
    return {k: v for k, v in doc.items() if k != "compute_s"}


# -- batch key ---------------------------------------------------------
class TestBatchKey:
    def test_same_facts_share_a_key(self):
        a = _query(steps=40, seed=1)
        b = _query(steps=999, seed=2, deadline_s=3.0)
        assert a.batch_key() == b.batch_key() is not None
        assert a.cache_key() != b.cache_key()

    @pytest.mark.parametrize(
        "override",
        [
            {"topology": "path:17"},
            {"policy": "downhill"},
            {"decision_timing": "post_injection"},
            {"overflow": "drop-oldest"},
            {"buffer_capacity": 4},
        ],
    )
    def test_each_fleet_wide_fact_splits_the_key(self, override):
        assert _query().batch_key() != _query(**override).batch_key()

    @pytest.mark.parametrize(
        "adversary", ["seesaw", "pressure", "max-chaser"]
    )
    def test_adaptive_adversaries_are_coalescible(self, adversary):
        # the fleet takes one adversary per lane, scheduled or adaptive
        assert _query(adversary=adversary).batch_key() == _query().batch_key()

    def test_faulted_queries_batch_and_experiments_do_not(self):
        faulted = _query(
            faults={"events": [
                {"start": 5, "kind": "crash", "node": 3},
            ]}
        )
        assert faulted.batch_key() == _query().batch_key()
        exp = ProvisionQuery.from_dict(
            {"kind": "experiment", "experiment": "E2"}
        )
        assert exp.batch_key() is None

    @pytest.mark.parametrize(
        "adversary", ["far-end", "pre-sink", "uniform", "round-robin"]
    )
    def test_scheduled_adversaries_are_coalescible(self, adversary):
        assert _query(adversary=adversary).batch_key() == _query().batch_key()


# -- run_horizons ------------------------------------------------------
class TestRunHorizons:
    def test_each_lane_captured_at_its_own_horizon(self):
        horizons = [13, 40, 7, 40, 25]
        fleet = FleetEngine(
            16,
            OddEvenPolicy(),
            [FarEndAdversary() for _ in horizons],
        )
        results = fleet.run_horizons(horizons)
        for h, got in zip(horizons, results):
            solo = PathEngine(16, OddEvenPolicy(), FarEndAdversary())
            solo.run(h)
            want = solo.result()
            assert got.steps == h == want.steps
            assert got.max_height == want.max_height
            assert got.delivered == want.delivered
            assert got.dropped == want.dropped
        # the fleet itself ends at the longest horizon
        assert fleet.step_index == max(horizons)

    def test_wrong_count_and_backwards_horizons_raise(self):
        fleet = FleetEngine(8, OddEvenPolicy(), [FarEndAdversary()])
        with pytest.raises(SimulationError):
            fleet.run_horizons([5, 5])
        fleet.run(10)
        with pytest.raises(SimulationError):
            fleet.run_horizons([5])


# -- worker batch body -------------------------------------------------
class TestExecuteBatch:
    def test_batch_matches_solo_lane_for_lane(self):
        dicts = [
            _query(steps=30 + i, seed=i).to_worker_dict()
            for i in range(6)
        ]
        batched = execute_batch(dicts)
        for d, got in zip(dicts, batched):
            assert _strip(got) == _strip(execute_query(d))

    def test_unparseable_lane_errors_alone(self):
        good = _query(steps=25).to_worker_dict()
        bad = dict(good, steps=-1)
        out = execute_batch([good, bad, dict(good, seed=9)])
        assert "error" not in out[0] and "error" not in out[2]
        assert "error" in out[1]
        assert _strip(out[0]) == _strip(execute_query(good))

    def test_poisoned_lane_isolated_by_solo_fallback(self):
        # scaled-odd-even-2 passes front-end validation but raises
        # PolicyError in the engine: the fleet call fails, every lane
        # re-runs as its own batch, and only the poisoned lane errors
        poisoned = ProvisionQuery.from_dict(
            {
                "topology": "path:16",
                "policy": "scaled-odd-even-2",
                "adversary": "far-end",
                "steps": 25,
            }
        ).to_worker_dict()
        good = _query(steps=25).to_worker_dict()
        out = execute_batch([poisoned, good])
        assert "PolicyError" in out[0]["error"]
        assert _strip(out[1]) == _strip(execute_query(good))

    def test_empty_batch(self):
        assert execute_batch([]) == []

    def test_warm_worker_runs_in_process(self):
        import os

        assert warm_worker() == os.getpid()


# -- the batcher (fake in-process pool) --------------------------------
class _FakePool:
    """Duck-typed ShardPool: runs worker bodies inline, records calls.

    It has ``shards`` slots.  With ``hold()`` its first batch blocks
    until ``release()`` — that is how a test keeps every slot busy so
    that queries form a batch; ``saturated=True`` makes every later
    batch wait out its deadline and raise ``NoHealthyShard``, as
    :meth:`ShardPool._acquire` does while no shard frees up.
    """

    def __init__(
        self, batch_responses=None, batch_error=None, shards=1,
        saturated=False,
    ):
        self.shards = [None] * shards
        self.solo_queries = []
        self.batch_sizes = []
        self.batch_keys = []
        self._batch_responses = batch_responses
        self._batch_error = batch_error
        self._saturated = saturated
        self._gate = None

    def hold(self):
        self._gate = asyncio.Event()

    def release(self):
        self._gate.set()

    async def submit(self, query, deadline):
        self.solo_queries.append(query)
        response = execute_query(query.to_worker_dict())
        if "error" in response:
            raise QueryFailed(response["error"])
        return response

    async def submit_batch(self, queries, deadline):
        self.batch_sizes.append(len(queries))
        self.batch_keys.append(queries[0].batch_key())
        if self._gate is not None:
            if len(self.batch_sizes) == 1:
                await self._gate.wait()
            elif self._saturated:
                await asyncio.sleep(max(deadline.remaining(), 0))
                raise NoHealthyShard("no shard freed up within the deadline")
        if self._batch_error is not None:
            raise self._batch_error
        if self._batch_responses is not None:
            return self._batch_responses(queries)
        return execute_batch([q.to_worker_dict() for q in queries])


#: the query that holds the busy pool's one slot
_BLOCKER = _query(steps=21, seed=99)


async def _settle_loop():
    """Let every runnable task reach its next wait."""
    for _ in range(10):
        await asyncio.sleep(0)


def _gather(batcher, queries, deadline_s=5.0):
    async def run():
        return await asyncio.gather(
            *(
                batcher.submit(q, Deadline.after(deadline_s))
                for q in queries
            ),
            return_exceptions=True,
        )

    return asyncio.run(run())


def _gather_busy(batcher, pool, queries, deadline_s=5.0):
    """Submit ``queries`` while a blocker holds the pool's only slot,
    then free it; their answers (the blocker's is dropped)."""

    async def run():
        pool.hold()
        blocker = asyncio.ensure_future(
            batcher.submit(_BLOCKER, Deadline.after(deadline_s))
        )
        await _settle_loop()
        waiting = asyncio.gather(
            *(
                batcher.submit(q, Deadline.after(deadline_s))
                for q in queries
            ),
            return_exceptions=True,
        )
        await _settle_loop()
        pool.release()
        await asyncio.gather(blocker, return_exceptions=True)
        return await waiting

    return asyncio.run(run())


class TestQueryBatcher:
    def test_coalesces_and_answers_bit_identical(self):
        pool = _FakePool()
        batcher = QueryBatcher(pool, max_lanes=64)
        queries = [_query(steps=30 + i, seed=i) for i in range(5)]
        got = _gather_busy(batcher, pool, queries)
        assert pool.batch_sizes == [1, 5]
        assert pool.solo_queries == []
        for q, doc in zip(queries, got):
            assert _strip(doc) == _strip(
                execute_query(q.to_worker_dict())
            )
        assert batcher.stats.batches_flushed == 2
        assert batcher.stats.flush_slot == 2
        assert batcher.stats_dict()["mean_occupancy"] == 3.0
        assert batcher.stats_dict()["flushes"]["window"] == 0

    def test_adaptive_and_faulted_queries_ride_batches(self):
        pool = _FakePool()
        batcher = QueryBatcher(pool)
        queries = [
            _query(adversary="seesaw", steps=30, seed=3),
            _query(steps=35, faults={"events": [
                {"start": 4, "kind": "halt"},
                {"start": 6, "kind": "link_down", "node": 2, "duration": 3},
            ]}),
            _query(steps=40),
        ]
        got = _gather_busy(batcher, pool, queries)
        assert pool.batch_sizes == [1, 3]
        assert pool.solo_queries == []
        for q, doc in zip(queries, got):
            assert doc["degraded"] is False
            assert _strip(doc) == _strip(execute_query(q.to_worker_dict()))
        assert batcher.stats.requests_solo == 0
        assert batcher.stats.requests_batched == 4

    def test_one_lane_batcher_flushes_each_query_at_once(self):
        # --no-batching: max_lanes=1 flushes even while the slot is busy
        pool = _FakePool()
        batcher = QueryBatcher(pool, max_lanes=1)
        got = _gather_busy(batcher, pool, [_query(steps=31), _query(steps=32)])
        assert all(isinstance(d, dict) for d in got)
        assert pool.batch_sizes == [1, 1, 1]
        assert pool.solo_queries == []
        assert batcher.stats.flush_size == 3
        assert batcher.stats.flush_slot == 0

    def test_experiment_queries_go_to_the_pool_alone(self):
        pool = _FakePool()
        batcher = QueryBatcher(pool)
        exp = ProvisionQuery.from_dict(
            {"kind": "experiment", "experiment": "NOPE"}
        )
        got = _gather(batcher, [exp])
        assert isinstance(got[0], QueryFailed)
        assert pool.solo_queries == [exp] and pool.batch_sizes == []
        assert batcher.stats.requests_solo == 1

    def test_size_trigger_flushes_early(self):
        # the slot is busy, so only the size trigger can flush the batch
        pool = _FakePool()
        batcher = QueryBatcher(pool, max_lanes=3)
        queries = [_query(steps=40 + i, seed=i) for i in range(3)]
        got = _gather_busy(batcher, pool, queries)
        assert all(isinstance(d, dict) for d in got)
        assert pool.batch_sizes == [1, 3]
        assert batcher.stats.flush_size == 1

    def test_tight_deadline_flushes_immediately(self):
        # a member arriving inside the slack flushes while the slot is busy
        pool = _FakePool()
        batcher = QueryBatcher(pool)
        got = _gather_busy(batcher, pool, [_query(steps=20)], deadline_s=0.01)
        assert isinstance(got[0], dict)
        assert batcher.stats.flush_deadline == 1
        assert pool.batch_sizes == [1, 1]

    def test_same_cache_key_waiters_share_one_lane(self):
        pool = _FakePool()
        batcher = QueryBatcher(pool)
        q = _query(steps=33)
        got = _gather_busy(batcher, pool, [q, q, q])
        assert pool.batch_sizes == [1, 1]  # deduped to one lane
        assert batcher.stats.requests_batched == 4
        assert got[0] == got[1] == got[2]

    def test_lane_error_demuxes_to_query_failed(self):
        def responses(queries):
            out = []
            for q in queries:
                if q.steps == 41:
                    out.append({"error": "poisoned"})
                else:
                    out.append(execute_query(q.to_worker_dict()))
            return out

        pool = _FakePool(batch_responses=responses)
        batcher = QueryBatcher(pool)
        got = _gather_busy(
            batcher, pool, [_query(steps=41, seed=0), _query(steps=42, seed=1)]
        )
        assert pool.batch_sizes == [1, 2]
        assert isinstance(got[0], QueryFailed)
        assert isinstance(got[1], dict) and got[1]["degraded"] is False

    def test_infra_failure_propagates_fresh_instances_per_waiter(self):
        pool = _FakePool(batch_error=NoHealthyShard("all open"))
        batcher = QueryBatcher(pool)
        got = _gather_busy(
            batcher, pool, [_query(steps=43, seed=0), _query(steps=44, seed=1)]
        )
        assert pool.batch_sizes == [1, 2]
        assert all(isinstance(e, NoHealthyShard) for e in got)
        assert got[0] is not got[1]

    def test_query_finding_a_free_slot_leaves_at_once(self):
        pool = _FakePool(shards=2)
        batcher = QueryBatcher(pool)

        async def run():
            pool.hold()
            first = asyncio.ensure_future(
                batcher.submit(_query(steps=50), Deadline.after(5.0))
            )
            await _settle_loop()
            # the blocked first batch holds one of two slots: the next
            # query finds the other free and is answered before the
            # first batch is released
            second = await batcher.submit(
                _query(steps=51, seed=1), Deadline.after(5.0)
            )
            assert not first.done()
            pool.release()
            return await first, second

        got = asyncio.run(run())
        assert all(isinstance(d, dict) for d in got)
        assert pool.batch_sizes == [1, 1]
        assert batcher.stats.flush_slot == 2
        assert batcher.slots == 2

    def test_finishing_batch_flushes_the_oldest_forming_batch(self):
        pool = _FakePool()
        batcher = QueryBatcher(pool)
        older = [_query(topology="path:12", steps=30 + i) for i in range(2)]
        newer = [_query(topology="path:20", steps=30 + i) for i in range(2)]

        async def run():
            pool.hold()
            blocker = asyncio.ensure_future(
                batcher.submit(_BLOCKER, Deadline.after(5.0))
            )
            await _settle_loop()
            a = asyncio.gather(
                *(batcher.submit(q, Deadline.after(5.0)) for q in older)
            )
            await _settle_loop()
            b = asyncio.gather(
                *(batcher.submit(q, Deadline.after(5.0)) for q in newer)
            )
            await _settle_loop()
            assert batcher.pending_lanes == 4
            pool.release()
            await blocker
            return await a, await b

        got_a, got_b = asyncio.run(run())
        assert pool.batch_sizes == [1, 2, 2]
        assert pool.batch_keys == [
            _BLOCKER.batch_key(), older[0].batch_key(), newer[0].batch_key()
        ]
        for q, doc in zip(older + newer, got_a + got_b):
            assert _strip(doc) == _strip(execute_query(q.to_worker_dict()))
        assert batcher.stats.flush_slot == 3

    def test_same_key_waiter_joins_the_in_flight_lane(self):
        pool = _FakePool()
        batcher = QueryBatcher(pool)
        q = _query(steps=60)

        async def run():
            pool.hold()
            first = asyncio.ensure_future(batcher.submit(q, Deadline.after(5.0)))
            await _settle_loop()
            joiner = asyncio.ensure_future(
                batcher.submit(q, Deadline.after(5.0))
            )
            # a joiner is bounded by its own deadline, not the lane's
            hasty = asyncio.ensure_future(
                batcher.submit(q, Deadline.after(0.05))
            )
            await _settle_loop()
            assert batcher.pending_lanes == 0  # nobody formed a batch
            with pytest.raises(DeadlineExceeded):
                await hasty
            pool.release()
            return await first, await joiner

        first, joiner = asyncio.run(run())
        assert pool.batch_sizes == [1]
        assert first == joiner
        assert batcher.stats.requests_batched == 3
        assert batcher.stats.batches_flushed == 1

    def test_saturated_pool_flushes_at_the_slack_and_degrades(self, tmp_path):
        svc = ProvisioningService(
            ServiceConfig(port=0, cache_dir=str(tmp_path / "cache"))
        )
        pool = _FakePool(saturated=True)
        svc.batcher = QueryBatcher(pool)
        body = {"topology": "path:16", "steps": 50, "deadline_s": 0.3}

        async def run():
            pool.hold()
            blocker = asyncio.ensure_future(
                svc.batcher.submit(_BLOCKER, Deadline.after(5.0))
            )
            await _settle_loop()
            loop = asyncio.get_running_loop()
            t0 = loop.time()
            slot = svc.governor.register("client")
            answer = await svc._provision(json.dumps(body).encode(), slot)
            waited = loop.time() - t0
            pool.release()
            await blocker
            return answer, waited

        (status, _headers, doc), waited = asyncio.run(run())
        assert status == 200 and doc["degraded"] is True
        assert "no shard freed up" in doc["degraded_reason"]
        assert svc.batcher.stats.flush_deadline == 1
        assert pool.batch_sizes == [1, 1]
        # degraded at its deadline, not after it
        assert 0.3 - _DEADLINE_SLACK_S - 0.01 <= waited <= 0.3 + 0.2

    def test_stats_carry_every_key_perfbench_reads(self, tmp_path):
        svc = ProvisioningService(
            ServiceConfig(port=0, cache_dir=str(tmp_path / "cache"))
        )
        stats = json.loads(json.dumps(svc.stats()))
        assert {"hits", "misses"} <= set(stats["cache"])
        batcher = stats["batcher"]
        assert {"requests_solo", "requests_batched", "mean_occupancy"} <= set(
            batcher
        )
        assert set(batcher["flushes"]) == {"window", "slot", "size", "deadline"}
        assert batcher["flushes"]["window"] == 0
        assert "shed_total" in stats["admission"]
        assert "restarts_total" in stats["pool"]


# -- bucketed cache index ----------------------------------------------
class TestCacheBuckets:
    def _fill(self, cache, shapes, per_shape):
        queries = []
        for policy, adversary in shapes:
            for i in range(per_shape):
                q = _query(
                    policy=policy, adversary=adversary,
                    steps=20 + i, seed=i,
                )
                cache.put(
                    q.cache_key(),
                    execute_query(q.to_worker_dict()),
                    query=q,
                )
                queries.append(q)
        return queries

    def _assert_consistent(self, cache):
        """Bucket membership and index entries agree exactly."""
        doc = cache.store.load_index()
        bucketed = {
            name
            for names in doc["buckets"].values()
            for name in names
        }
        provision = {
            name
            for name, entry in doc["entries"].items()
            if (entry.get("meta") or {}).get("kind") == "provision"
        }
        assert bucketed == provision
        for bucket, names in doc["buckets"].items():
            for name in names:
                meta = doc["entries"][name]["meta"]
                assert meta["bucket"] == bucket

    def test_nearest_scans_only_the_shape_bucket(self, tmp_path):
        cache = ResultCache(tmp_path)
        self._fill(
            cache,
            [("odd-even", "far-end"), ("downhill", "pre-sink")],
            per_shape=3,
        )
        probe = _query(steps=9999)  # same shape, uncached steps
        near = cache.nearest(probe)
        assert near is not None
        assert near["query"]["policy"] == "odd-even"
        self._assert_consistent(cache)
        names = cache.store.bucket_names(shape_bucket(probe))
        assert len(names) == 3  # O(bucket), not O(cache)

    def test_eviction_keeps_buckets_consistent(self, tmp_path):
        cache = ResultCache(tmp_path, max_entries=4)
        self._fill(
            cache,
            [("odd-even", "far-end"), ("downhill", "pre-sink")],
            per_shape=4,
        )
        doc = cache.store.load_index()
        assert len(doc["entries"]) == 4  # evicted down to the bound
        self._assert_consistent(cache)
        # the surviving (most recent) shape still answers nearest
        assert cache.nearest(
            _query(policy="downhill", adversary="pre-sink", steps=777)
        ) is not None
        # the fully-evicted shape no longer does
        assert cache.nearest(_query(steps=777)) is None

    def test_legacy_index_rebuilds_buckets_from_metas(self, tmp_path):
        cache = ResultCache(tmp_path)
        self._fill(cache, [("odd-even", "far-end")], per_shape=2)
        doc = cache.store.load_index()
        del doc["buckets"]  # simulate an index written before buckets
        cache.store.write_index(doc)
        assert cache.nearest(_query(steps=555)) is not None
        self._assert_consistent(cache)
