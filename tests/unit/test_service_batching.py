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

import pytest

from repro.adversaries import FarEndAdversary
from repro.errors import SimulationError
from repro.network.engine_fast import PathEngine
from repro.network.fleet_engine import FleetEngine
from repro.policies import OddEvenPolicy
from repro.service import (
    Deadline,
    ProvisionQuery,
    QueryBatcher,
    QueryFailed,
    ResultCache,
    execute_batch,
    execute_query,
    warm_worker,
)
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
    """Duck-typed ShardPool: runs worker bodies inline, records calls."""

    def __init__(self, batch_responses=None, batch_error=None):
        self.solo_queries = []
        self.batch_sizes = []
        self._batch_responses = batch_responses
        self._batch_error = batch_error

    async def submit(self, query, deadline):
        self.solo_queries.append(query)
        response = execute_query(query.to_worker_dict())
        if "error" in response:
            raise QueryFailed(response["error"])
        return response

    async def submit_batch(self, queries, deadline):
        self.batch_sizes.append(len(queries))
        if self._batch_error is not None:
            raise self._batch_error
        if self._batch_responses is not None:
            return self._batch_responses(queries)
        return execute_batch([q.to_worker_dict() for q in queries])


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


class TestQueryBatcher:
    def test_coalesces_and_answers_bit_identical(self):
        pool = _FakePool()
        batcher = QueryBatcher(pool, window_s=0.05, max_lanes=64)
        queries = [_query(steps=30 + i, seed=i) for i in range(5)]
        got = _gather(batcher, queries)
        assert pool.batch_sizes == [5]
        assert pool.solo_queries == []
        for q, doc in zip(queries, got):
            assert _strip(doc) == _strip(
                execute_query(q.to_worker_dict())
            )
        assert batcher.stats.batches_flushed == 1
        assert batcher.stats.flush_window == 1
        assert batcher.stats_dict()["mean_occupancy"] == 5.0

    def test_adaptive_and_faulted_queries_ride_batches(self):
        pool = _FakePool()
        batcher = QueryBatcher(pool, window_s=0.05)
        queries = [
            _query(adversary="seesaw", steps=30, seed=3),
            _query(steps=35, faults={"events": [
                {"start": 4, "kind": "halt"},
                {"start": 6, "kind": "link_down", "node": 2, "duration": 3},
            ]}),
            _query(steps=40),
        ]
        got = _gather(batcher, queries)
        assert pool.batch_sizes == [3]
        assert pool.solo_queries == []
        for q, doc in zip(queries, got):
            assert doc["degraded"] is False
            assert _strip(doc) == _strip(execute_query(q.to_worker_dict()))
        assert batcher.stats.requests_solo == 0
        assert batcher.stats.requests_batched == 3

    def test_one_lane_batcher_flushes_each_query_at_once(self):
        # --no-batching: max_lanes=1 never waits out the window
        pool = _FakePool()
        batcher = QueryBatcher(pool, window_s=30.0, max_lanes=1)
        got = _gather(batcher, [_query(steps=31), _query(steps=32)])
        assert all(isinstance(d, dict) for d in got)
        assert pool.batch_sizes == [1, 1]
        assert pool.solo_queries == []
        assert batcher.stats.flush_size == 2
        assert batcher.stats.flush_window == 0

    def test_experiment_queries_go_to_the_pool_alone(self):
        pool = _FakePool()
        batcher = QueryBatcher(pool, window_s=0.05)
        exp = ProvisionQuery.from_dict(
            {"kind": "experiment", "experiment": "NOPE"}
        )
        got = _gather(batcher, [exp])
        assert isinstance(got[0], QueryFailed)
        assert pool.solo_queries == [exp] and pool.batch_sizes == []
        assert batcher.stats.requests_solo == 1

    def test_size_trigger_flushes_early(self):
        # window long enough that the size trigger beats it, but short
        # enough that the 5s request deadline can afford the wait
        pool = _FakePool()
        batcher = QueryBatcher(pool, window_s=1.0, max_lanes=3)
        queries = [_query(steps=40 + i, seed=i) for i in range(3)]
        got = _gather(batcher, queries)
        assert all(isinstance(d, dict) for d in got)
        assert pool.batch_sizes == [3]
        assert batcher.stats.flush_size == 1

    def test_tight_deadline_flushes_immediately(self):
        pool = _FakePool()
        batcher = QueryBatcher(pool, window_s=30.0)
        got = _gather(batcher, [_query(steps=20)], deadline_s=0.5)
        assert isinstance(got[0], dict)
        assert batcher.stats.flush_deadline == 1

    def test_same_cache_key_waiters_share_one_lane(self):
        pool = _FakePool()
        batcher = QueryBatcher(pool, window_s=0.05)
        q = _query(steps=33)
        got = _gather(batcher, [q, q, q])
        assert pool.batch_sizes == [1]  # deduped to one lane
        assert batcher.stats.requests_batched == 3
        assert got[0] == got[1] == got[2]

    def test_lane_error_demuxes_to_query_failed(self):
        def responses(queries):
            out = []
            for i, q in enumerate(queries):
                if i == 0:
                    out.append({"error": "poisoned"})
                else:
                    out.append(execute_query(q.to_worker_dict()))
            return out

        pool = _FakePool(batch_responses=responses)
        batcher = QueryBatcher(pool, window_s=0.05)
        got = _gather(
            batcher, [_query(steps=41, seed=0), _query(steps=42, seed=1)]
        )
        assert isinstance(got[0], QueryFailed)
        assert isinstance(got[1], dict) and got[1]["degraded"] is False

    def test_infra_failure_propagates_fresh_instances_per_waiter(self):
        pool = _FakePool(batch_error=NoHealthyShard("all open"))
        batcher = QueryBatcher(pool, window_s=0.05)
        got = _gather(
            batcher, [_query(steps=43, seed=0), _query(steps=44, seed=1)]
        )
        assert all(isinstance(e, NoHealthyShard) for e in got)
        assert got[0] is not got[1]


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
