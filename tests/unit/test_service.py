"""Unit tests for the provisioning service's building blocks.

Covers the resilience primitives (deadlines, admission control,
circuit breakers, deterministic backoff), query validation and the
content-address cache key (including the Hypothesis property that the
key is insensitive to dict ordering and stable across processes), the
RunStore index/eviction layer (snapshot, journal, reconcile), the
checksummed result cache, including the file operations of its hit
path, and the in-band answer check the front door runs on every
computed answer.
"""

from __future__ import annotations

import asyncio
import builtins
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.runner import RunStore
from repro.service import (
    AdmissionController,
    BadRequest,
    CircuitBreaker,
    ConnectionGovernor,
    ConnectionRefused,
    Deadline,
    DeadlineExceeded,
    ProvisioningService,
    ProvisionQuery,
    QueryBatcher,
    ResultCache,
    ServiceConfig,
    ServiceError,
    Shedding,
    backoff_delay,
    check_answer,
    execute_query,
    topology_sha,
)
from repro.service.protocol import MAX_TOPOLOGY_NODES

REPO = Path(__file__).resolve().parents[2]


class FakeClock:
    def __init__(self) -> None:
        self.now = 100.0

    def __call__(self) -> float:
        return self.now


# ---------------------------------------------------------------------------
class TestDeadline:
    def test_remaining_counts_down(self):
        clock = FakeClock()
        d = Deadline.after(5.0, clock=clock)
        assert d.remaining() == pytest.approx(5.0)
        clock.now += 3.0
        assert d.remaining() == pytest.approx(2.0)
        assert not d.expired

    def test_check_raises_after_expiry(self):
        clock = FakeClock()
        d = Deadline.after(1.0, clock=clock)
        assert d.check("waiting") == pytest.approx(1.0)
        clock.now += 1.5
        assert d.expired
        with pytest.raises(DeadlineExceeded, match="while executing"):
            d.check("executing")

    def test_non_positive_budget_rejected(self):
        from repro.service import ServiceError

        with pytest.raises(ServiceError):
            Deadline.after(0.0)


class TestAdmissionController:
    def test_admits_until_full_then_sheds(self):
        ac = AdmissionController(2, est_service_s=0.5)
        ac.admit()
        ac.admit()
        with pytest.raises(Shedding) as exc:
            ac.admit()
        assert exc.value.retry_after_s >= 1.0
        assert ac.shed_total == 1
        assert ac.admitted_total == 2

    def test_release_reopens_a_slot(self):
        ac = AdmissionController(1)
        ac.admit()
        with pytest.raises(Shedding):
            ac.admit()
        ac.release()
        ac.admit()  # does not raise
        assert ac.pending == 1

    def test_retry_after_scales_with_depth(self):
        ac = AdmissionController(100, est_service_s=2.0)
        for _ in range(10):
            ac.admit()
        assert ac.retry_after_s() == pytest.approx(20.0)

    def test_bad_bound_rejected(self):
        from repro.service import ServiceError

        with pytest.raises(ServiceError):
            AdmissionController(0)


class TestCircuitBreaker:
    def test_opens_after_threshold_consecutive_failures(self):
        clock = FakeClock()
        cb = CircuitBreaker(failure_threshold=3, reset_after_s=5.0,
                            clock=clock)
        cb.record_failure()
        cb.record_failure()
        assert cb.state == CircuitBreaker.CLOSED and cb.allow()
        cb.record_failure()
        assert cb.state == CircuitBreaker.OPEN
        assert not cb.allow()

    def test_success_resets_the_failure_streak(self):
        cb = CircuitBreaker(failure_threshold=2, clock=FakeClock())
        cb.record_failure()
        cb.record_success()
        cb.record_failure()
        assert cb.state == CircuitBreaker.CLOSED

    def test_half_open_allows_exactly_one_probe(self):
        clock = FakeClock()
        cb = CircuitBreaker(failure_threshold=1, reset_after_s=5.0,
                            clock=clock)
        cb.record_failure()
        assert not cb.allow()
        clock.now += 5.1
        assert cb.allow()  # the probe
        assert cb.state == CircuitBreaker.HALF_OPEN
        assert not cb.allow()  # second caller must wait for the probe

    def test_probe_success_closes_probe_failure_reopens(self):
        clock = FakeClock()
        cb = CircuitBreaker(failure_threshold=1, reset_after_s=5.0,
                            clock=clock)
        cb.record_failure()
        clock.now += 5.1
        assert cb.allow()
        cb.record_success()
        assert cb.state == CircuitBreaker.CLOSED
        # fail again, probe again, and this time the probe fails
        cb.record_failure()
        clock.now += 5.1
        assert cb.allow()
        cb.record_failure()
        assert cb.state == CircuitBreaker.OPEN
        # threshold=1: each failure opened the circuit (incl. the probe)
        assert cb.opened_total == 3
        assert not cb.allow()  # a fresh full window applies



class TestConnectionGovernor:
    def test_register_release_and_peak(self):
        gov = ConnectionGovernor(4, clock=FakeClock())
        slots = [gov.register(f"peer-{i}") for i in range(3)]
        assert gov.open == 3
        assert gov.peak == 3
        assert gov.accepted_total == 3
        for slot in slots:
            gov.release(slot)
        assert gov.open == 0
        assert gov.peak == 3  # peak is a high-water mark

    def test_max_connections_refusal_carries_retry_after(self):
        gov = ConnectionGovernor(2, retry_after_s=2.5, clock=FakeClock())
        gov.register("a")
        gov.register("b")
        with pytest.raises(ConnectionRefused) as exc:
            gov.register("c")
        assert exc.value.cause == "max-connections"
        assert exc.value.retry_after_s == 2.5
        assert gov.rejects_by_cause["max-connections"] == 1
        assert gov.accepted_total == 2  # refusals are not accepts

    def test_per_peer_cap_only_hits_the_greedy_peer(self):
        gov = ConnectionGovernor(10, max_per_peer=2, clock=FakeClock())
        gov.register("hog")
        gov.register("hog")
        with pytest.raises(ConnectionRefused) as exc:
            gov.register("hog")
        assert exc.value.cause == "per-peer"
        gov.register("polite")  # other peers are unaffected
        assert gov.rejects_by_cause == {"per-peer": 1}

    def test_release_frees_the_per_peer_budget(self):
        gov = ConnectionGovernor(10, max_per_peer=1, clock=FakeClock())
        slot = gov.register("peer")
        with pytest.raises(ConnectionRefused):
            gov.register("peer")
        gov.release(slot)
        gov.register("peer")  # budget returned

    def test_double_release_is_safe(self):
        gov = ConnectionGovernor(4, clock=FakeClock())
        a = gov.register("peer")
        b = gov.register("peer")
        gov.release(a)
        gov.release(a)  # reap + handler finally may both fire
        assert gov.open == 1
        gov.release(b)
        assert gov.open == 0

    def test_overdue_respects_touch_and_grace(self):
        clock = FakeClock()
        gov = ConnectionGovernor(
            4, io_timeout_s=5.0, reap_grace_s=1.0, clock=clock
        )
        slot = gov.register("peer")
        clock.now += 5.5  # past the deadline but inside the grace
        assert gov.overdue() == []
        clock.now += 1.0  # past deadline + grace
        assert gov.overdue() == [slot]
        gov.touch(slot)  # an I/O phase made progress: re-armed
        assert gov.overdue() == []

    def test_reaped_accounting(self):
        clock = FakeClock()
        gov = ConnectionGovernor(4, io_timeout_s=1.0, clock=clock)
        slot = gov.register("peer")
        gov.reaped(slot)
        assert gov.open == 0
        assert gov.reaped_total == 1
        gov.reaped(slot)  # idempotent: a dead slot is not re-counted
        assert gov.reaped_total == 1
        gov.note_reaped()  # in-band 408 kills count too
        assert gov.reaped_total == 2

    def test_register_stays_open_while_draining(self):
        # probes must still reach /readyz during the drain window;
        # the request layer, not admission, refuses new work.
        gov = ConnectionGovernor(4, clock=FakeClock())
        gov.draining = True
        slot = gov.register("probe")
        assert slot is not None
        stats = gov.stats()
        assert stats["draining"] is True
        assert stats["open"] == 1

    def test_stats_shape(self):
        gov = ConnectionGovernor(
            8, max_per_peer=4, clock=FakeClock()
        )
        gov.register("peer", handle="h1")
        gov.count_reject("draining")
        stats = gov.stats()
        assert stats == {
            "open": 1,
            "peak": 1,
            "accepted_total": 1,
            "max_connections": 8,
            "max_per_peer": 4,
            "rejects_by_cause": {"draining": 1},
            "reaped": 0,
            "draining": False,
            "drain_cancelled": 0,
        }
        assert gov.handles() == ["h1"]

    def test_rejects_bad_limits(self):
        with pytest.raises(Exception):
            ConnectionGovernor(0)
        with pytest.raises(Exception):
            ConnectionGovernor(4, max_per_peer=0)

class TestBackoff:
    def test_deterministic_per_key(self):
        assert backoff_delay("k", 1, 0.5) == backoff_delay("k", 1, 0.5)
        assert backoff_delay("k", 1, 0.5) != backoff_delay("other", 1, 0.5)

    def test_exponential_growth(self):
        d1 = backoff_delay("key", 1, 0.5)
        d2 = backoff_delay("key", 2, 0.5)
        d3 = backoff_delay("key", 3, 0.5)
        assert 0.5 <= d1 < 0.625  # base * (1 + jitter<0.25)
        assert d2 > d1 and d3 > d2


# ---------------------------------------------------------------------------
class TestProvisionQueryValidation:
    def test_defaults(self):
        q = ProvisionQuery.from_dict({})
        assert q.kind == "provision"
        assert q.n == 64 and q.is_path
        assert q.topology_sha

    def test_unknown_field_rejected(self):
        with pytest.raises(BadRequest, match="unknown field"):
            ProvisionQuery.from_dict({"topolgy": "path:64"})

    def test_non_object_rejected(self):
        with pytest.raises(BadRequest):
            ProvisionQuery.from_dict([1, 2])

    @pytest.mark.parametrize("raw", [
        {"kind": "nope"},
        {"topology": "ring:9"},
        {"topology": "path:1"},
        {"policy": "no-such-policy"},
        {"adversary": "no-such-adversary"},
        {"steps": 0},
        {"steps": 10**9},
        {"seed": "zero"},
        {"buffer_capacity": 0},
        {"overflow": "explode"},
        {"faults": "not-a-plan"},
        {"deadline_s": -1},
        {"kind": "experiment"},  # missing the experiment id
        {"kind": "experiment", "experiment": "E1", "preset": "huge"},
        {"topology": "path:8", "policy": "tree-odd-even"},
        {"topology": "binary:3", "policy": "odd-even"},
        {"topology": "spider:0x3"},  # TopologyError used to be a 500
        {"topology": "binary:0"},  # one node: nothing to forward
        {"topology": "random:1"},
        # past MAX_TOPOLOGY_NODES, refused before anything is built
        {"topology": "path:16385"},
        {"topology": "binary:14"},
        {"topology": "binary:60"},
        {"topology": "spider:200x100"},
        {"topology": "random:16385"},
        {"topology": "spider:1x16383"},  # A*L + 2 = 16385 nodes
        {"topology": "layered:3x4"},  # DAG kinds are CLI-only
    ])
    def test_bad_requests_rejected(self, raw):
        with pytest.raises(BadRequest):
            ProvisionQuery.from_dict(raw)

    @pytest.mark.parametrize("topology, n", [("path:16384", 16384),
                                             ("binary:13", 16383)])
    def test_largest_topologies_still_parse(self, topology, n):
        assert MAX_TOPOLOGY_NODES == 16384
        assert ProvisionQuery.from_dict({"topology": topology}).n == n

    def test_oversized_topology_names_the_field(self):
        with pytest.raises(BadRequest, match="topology 'binary:60'"):
            ProvisionQuery.from_dict({"topology": "binary:60"})

    def test_tree_topology_defaults_to_tree_policy(self):
        q = ProvisionQuery.from_dict({"topology": "binary:3"})
        assert q.policy == "tree-odd-even"
        assert not q.is_path

    def test_bad_fault_plan_rejected_up_front(self):
        with pytest.raises(BadRequest, match="bad fault plan"):
            ProvisionQuery.from_dict(
                {"faults": {"events": [{"kind": "implode"}]}}
            )

    @pytest.mark.parametrize("topology", ["binary:3", "spider:2x3",
                                          "random:20"])
    def test_pressure_on_a_tree_is_rejected_at_the_front_door(
        self, topology
    ):
        q = ProvisionQuery.from_dict(
            {"topology": topology, "adversary": "pressure"}
        )
        with pytest.raises(BadRequest, match="adversary 'pressure'"):
            q.check_runnable()
        ProvisionQuery.from_dict({"adversary": "pressure"}).check_runnable()

    def test_policy_that_cannot_run_at_c_1_is_rejected_at_the_front_door(
        self,
    ):
        q = ProvisionQuery.from_dict(
            {"topology": "path:24", "policy": "scaled-odd-even-2"}
        )
        with pytest.raises(BadRequest, match="policy 'scaled-odd-even-2'"):
            q.check_runnable()

    def test_runnability_verdicts_are_memoised(self, monkeypatch):
        from repro.service import protocol

        calls = []
        real = protocol.check_adversary
        monkeypatch.setattr(
            protocol, "check_adversary",
            lambda name, topo: calls.append(name) or real(name, topo),
        )
        protocol._adversary_refusal.cache_clear()
        q = ProvisionQuery.from_dict({"topology": "binary:3"})
        for _ in range(3):
            q.check_runnable()
        assert calls == ["far-end"]

    @pytest.mark.parametrize("topology, event", [
        ("binary:3", {"kind": "crash", "start": 1, "node": 0}),
        ("binary:3", {"kind": "link_down", "start": 1, "node": 99}),
        ("path:8", {"kind": "crash", "start": 1, "node": 7}),
        ("path:8", {"kind": "link_down", "start": 1, "node": -1}),
    ])
    def test_fault_plan_on_the_sink_or_off_the_topology_is_a_400(
        self, topology, event
    ):
        q = ProvisionQuery.from_dict(
            {"topology": topology, "faults": {"events": [event]}}
        )
        with pytest.raises(BadRequest, match="^faults: "):
            q.check_runnable()
        ok = dict(event, node=1)
        ProvisionQuery.from_dict(
            {"topology": topology, "faults": {"events": [ok]}}
        ).check_runnable()

    @pytest.mark.parametrize(
        "field", ["steps", "seed", "buffer_capacity", "deadline_s"]
    )
    @pytest.mark.parametrize("value", [True, False])
    def test_json_booleans_are_not_numbers(self, field, value):
        with pytest.raises(BadRequest, match=f"^{field} "):
            ProvisionQuery.from_dict({field: value})

    def test_topology_sha_is_on_the_resolved_graph(self):
        assert topology_sha("path:8") == topology_sha("path:8")
        assert topology_sha("path:8") != topology_sha("path:9")
        assert topology_sha("binary:2") != topology_sha("path:7")
        assert topology_sha("path") == topology_sha("path:256")
        # the cache is keyed on these: a changed digest cold-starts
        # every existing cache directory
        for spec, digest in {
            "path:8": "b62f25ce8ef264a40438abc098285786"
                      "300beced4fcbe10e1899e23fbf8329ee",
            "binary:7": "291faa829ac4db067d694c8a8e1be906"
                        "f567814b5b90ecf93f64b8254cf1ffb3",
            "spider:8x16": "c419a22626163b79f5a9a97967df996a"
                           "1214aaf424efb1a0695bd2e3aa94d12f",
            "random:300": "4c2d176454c82dfeb9b0fc81eb27bed7"
                          "d1839d85c9db5c38797b07d3f6957fdc",
        }.items():
            assert topology_sha(spec) == digest, spec

    def test_cache_and_batch_keys_are_pinned(self):
        q = ProvisionQuery.from_dict({
            "topology": "random:300", "policy": "tree-odd-even",
            "adversary": "uniform", "steps": 800, "seed": 5,
            "buffer_capacity": 3, "overflow": "push-back",
        })
        assert q.cache_key() == (
            "2d1370fff4e712c086e6d9b6ba09004c3e016c425820dfac5560360b37a75785"
        )
        assert q.batch_key() == (
            "f898c294625cdd9a8964403c26255a784ce93c5cc106a70b16f1d8921ef527c4"
        )

    def test_deadline_excluded_from_cache_key(self):
        a = ProvisionQuery.from_dict({"topology": "path:16"})
        b = ProvisionQuery.from_dict(
            {"topology": "path:16", "deadline_s": 2.5}
        )
        assert a.cache_key() == b.cache_key()


_QUERY_FIELDS = st.fixed_dictionaries({
    "topology": st.sampled_from(["path:8", "path:16", "binary:2"]),
    "adversary": st.sampled_from(["far-end", "pre-sink", "uniform"]),
    "steps": st.integers(min_value=1, max_value=500),
    "seed": st.integers(min_value=0, max_value=2**31),
})


class TestCacheKeyProperties:
    @settings(max_examples=30, deadline=None)
    @given(raw=_QUERY_FIELDS, order=st.randoms(use_true_random=False))
    def test_key_insensitive_to_dict_ordering(self, raw, order):
        if raw["topology"] == "binary:2":
            raw = dict(raw, policy="tree-odd-even")
        else:
            raw = dict(raw, policy="odd-even")
        items = list(raw.items())
        order.shuffle(items)
        shuffled = dict(items)
        assert (
            ProvisionQuery.from_dict(raw).cache_key()
            == ProvisionQuery.from_dict(shuffled).cache_key()
        )

    @settings(max_examples=30, deadline=None)
    @given(raw=_QUERY_FIELDS)
    def test_distinct_params_get_distinct_keys(self, raw):
        if raw["topology"] == "binary:2":
            raw = dict(raw, policy="tree-odd-even")
        q = ProvisionQuery.from_dict(raw)
        bumped = ProvisionQuery.from_dict(
            dict(raw, steps=raw["steps"] + 1)
        )
        assert q.cache_key() != bumped.cache_key()

    def test_key_deterministic_across_processes(self):
        """PYTHONHASHSEED must not leak into the content address."""
        raw = {"topology": "path:32", "policy": "odd-even",
               "adversary": "far-end", "steps": 100, "seed": 3}
        local = ProvisionQuery.from_dict(raw).cache_key()
        code = (
            "import json, sys\n"
            "from repro.service import ProvisionQuery\n"
            "raw = json.loads(sys.argv[1])\n"
            "print(ProvisionQuery.from_dict(raw).cache_key())\n"
        )
        for hashseed in ("0", "424242"):
            out = subprocess.run(
                [sys.executable, "-c", code, json.dumps(raw)],
                capture_output=True, text=True, check=True,
                env={"PYTHONPATH": str(REPO / "src"),
                     "PYTHONHASHSEED": hashseed, "PATH": "/usr/bin:/bin"},
            )
            assert out.stdout.strip() == local


# ---------------------------------------------------------------------------
class TestRunStoreIndex:
    def test_missing_or_corrupt_index_yields_fresh_empty(self, tmp_path):
        store = RunStore(tmp_path)
        assert store.load_index()["entries"] == {}
        store.index_path.write_text("{ not json")
        assert store.load_index()["entries"] == {}
        store.index_path.write_text(json.dumps({"format": "other"}))
        assert store.load_index()["entries"] == {}

    def test_touch_round_trips_through_the_index(self, tmp_path):
        store = RunStore(tmp_path)
        store.record_path("a").write_text("x" * 10)
        store.touch("a", meta={"policy": "odd-even"})
        doc = store.load_index()
        assert doc["entries"]["a"]["bytes"] == 10
        assert doc["entries"]["a"]["last_used"] == 1
        assert doc["entries"]["a"]["meta"] == {"policy": "odd-even"}
        store.touch("a")
        assert store.load_index()["entries"]["a"]["last_used"] == 2

    def test_evict_by_entry_count_is_lru(self, tmp_path):
        store = RunStore(tmp_path)
        for name in ("a", "b", "c"):
            store.record_path(name).write_text("data")
            store.touch(name)
        store.touch("a")  # refresh a: b is now the oldest
        evicted = store.evict(max_entries=2)
        assert evicted == ["b"]
        assert not store.record_path("b").exists()
        assert store.record_path("a").exists()
        assert sorted(store.load_index()["entries"]) == ["a", "c"]

    def test_evict_by_bytes(self, tmp_path):
        store = RunStore(tmp_path)
        for name in ("a", "b", "c"):
            store.record_path(name).write_text("x" * 100)
            store.touch(name)
        evicted = store.evict(max_bytes=250)
        assert evicted == ["a"]  # oldest first, until under the bound
        assert store.indexed_bytes() == 200

    def test_load_prunes_vanished_files(self, tmp_path):
        """Eviction reads memory only; the next load drops the entry."""
        store = RunStore(tmp_path)
        store.record_path("gone").write_text("data")
        store.touch("gone")
        store.record_path("gone").unlink()
        assert store.evict() == []
        assert store.load_index()["entries"] == {}
        assert store.indexed_bytes() == 0

    def test_journal_replays_over_the_snapshot(self, tmp_path):
        store = RunStore(tmp_path)
        for name in ("a", "b", "c"):
            store.record_path(name).write_text("data")
            store.touch(name)
        store.write_index(store.index)  # compaction
        store.touch("a")
        store.evict(max_entries=2)  # journal: touch a, drop b
        with store.journal_path.open("a") as fh:
            fh.write('{"touch": "c", "by')  # a torn tail
        reread = RunStore(tmp_path).load_index()
        assert list(reread["entries"]) == ["c", "a"]  # LRU order
        assert reread["clock"] == store.index["clock"]


class TestResultCache:
    def _query(self, **over):
        return ProvisionQuery.from_dict(
            {"topology": "path:16", "steps": 50, **over}
        )

    def test_put_get_round_trip(self, tmp_path):
        cache = ResultCache(tmp_path)
        q = self._query()
        cache.put(q.cache_key(), {"max_height": 3}, query=q)
        assert cache.get(q.cache_key()) == {"max_height": 3}
        assert cache.hits == 1 and cache.misses == 0
        assert cache.hit_rate == 1.0

    def test_absent_key_misses(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert cache.get("0" * 64) is None
        assert cache.misses == 1

    def test_corrupt_entry_is_a_miss_not_a_wrong_answer(self, tmp_path):
        cache = ResultCache(tmp_path)
        q = self._query()
        path = cache.put(q.cache_key(), {"max_height": 3}, query=q)
        text = path.read_text()
        path.write_text(text.replace('"max_height": 3', '"max_height": 9'))
        assert cache.get(q.cache_key()) is None

    def test_miss_on_an_indexed_key_drops_it(self, tmp_path):
        cache = ResultCache(tmp_path)
        q = self._query()
        cache.put(q.cache_key(), {"max_height": 3}, query=q).unlink()
        assert cache.stats()["entries"] == 1
        assert cache.get(q.cache_key()) is None
        assert cache.stats()["entries"] == 0
        assert cache.stats()["bytes"] == 0

    @pytest.mark.parametrize("damage", ["deleted", "corrupt"])
    def test_lost_index_is_rebuilt_from_the_artifacts(
        self, tmp_path, damage
    ):
        cache = ResultCache(tmp_path, max_entries=5)
        for steps in range(1, 11):
            q = self._query(steps=steps)
            cache.put(q.cache_key(), {"max_height": steps}, query=q)
        for path in (tmp_path / "index.json", tmp_path / "index.journal"):
            if damage == "deleted":
                path.unlink(missing_ok=True)
            else:
                path.write_text('{"format": "repro-store-in')
        cache = ResultCache(tmp_path, max_entries=5)
        on_disk = sorted(tmp_path.glob("q*.json"))
        assert cache.stats()["entries"] == len(on_disk) == 5
        assert cache.stats()["bytes"] == sum(
            p.stat().st_size for p in on_disk
        )
        for steps in range(11, 21):
            q = self._query(steps=steps)
            cache.put(q.cache_key(), {"max_height": steps}, query=q)
        assert len(list(tmp_path.glob("q*.json"))) == 5
        assert cache.stats()["entries"] == 5

    def test_eviction_keeps_store_under_entry_bound(self, tmp_path):
        cache = ResultCache(tmp_path, max_entries=3)
        keys = []
        for steps in range(1, 7):
            q = self._query(steps=steps)
            keys.append(q.cache_key())
            cache.put(keys[-1], {"max_height": steps}, query=q)
        entries = cache.store.load_index()["entries"]
        assert len(entries) == 3
        assert cache.get(keys[0]) is None  # oldest evicted
        assert cache.get(keys[-1]) == {"max_height": 6}

    def test_eviction_keeps_store_under_byte_bound(self, tmp_path):
        cache = ResultCache(tmp_path, max_bytes=2048, max_entries=None)
        for steps in range(1, 20):
            q = self._query(steps=steps)
            cache.put(q.cache_key(), {"blob": "x" * 300}, query=q)
        assert cache.store.indexed_bytes() <= 2048

    def test_nearest_matches_query_shape_only(self, tmp_path):
        cache = ResultCache(tmp_path)
        q = self._query(steps=50)
        cache.put(q.cache_key(), {"max_height": 3}, query=q)
        # same shape, different steps: nearest() should find the entry
        assert self._query(steps=60).cache_key() != q.cache_key()
        assert cache.nearest(self._query(steps=60)) == {"max_height": 3}
        # different adversary: no match
        assert cache.nearest(
            self._query(steps=60, adversary="pre-sink")
        ) is None

    def test_stats_shape(self, tmp_path):
        cache = ResultCache(tmp_path, max_bytes=123, max_entries=7)
        stats = cache.stats()
        assert stats["entries"] == 0 and stats["bytes"] == 0
        assert stats["max_bytes"] == 123 and stats["max_entries"] == 7


class TestCacheHitPathIO:
    """A hit and a put at the bound cost O(1) file operations, whatever
    the cache holds: calls are counted by patching, nothing is timed."""

    ENTRIES = 4096

    def _full_cache(self, tmp_path):
        """A cache at its 4096-entry bound, with one real answer."""
        cache = ResultCache(tmp_path, max_entries=self.ENTRIES)
        q = ProvisionQuery.from_dict({"topology": "path:16", "steps": 50})
        real = cache.put(q.cache_key(), {"max_height": 3}, query=q)
        blob = real.read_bytes()
        entries = {real.stem: {"bytes": len(blob),
                               "last_used": self.ENTRIES}}
        for i in range(self.ENTRIES - 1):
            name = f"q{i:040x}"
            cache.store.record_path(name).write_bytes(blob)
            entries[name] = {"bytes": len(blob), "last_used": i + 1}
        cache.store.write_index({"clock": self.ENTRIES, "entries": entries})
        return ResultCache(tmp_path, max_entries=self.ENTRIES), q

    @staticmethod
    def _journal_lines(tmp_path) -> int:
        journal = tmp_path / "index.journal"
        if not journal.exists():
            return 0
        return len(journal.read_bytes().splitlines())

    def test_hit_reads_and_writes_no_index_file(self, tmp_path, monkeypatch):
        cache, q = self._full_cache(tmp_path)
        touched: list[str] = []
        real_open, real_replace = io.open, os.replace

        def spy_open(file, *args, **kwargs):
            if isinstance(file, (str, os.PathLike)):
                touched.append(os.path.basename(file))
            return real_open(file, *args, **kwargs)

        def spy_replace(src, dst, *args, **kwargs):
            touched.append(os.path.basename(dst))
            return real_replace(src, dst, *args, **kwargs)

        monkeypatch.setattr(io, "open", spy_open)
        monkeypatch.setattr(builtins, "open", spy_open)
        monkeypatch.setattr(os, "replace", spy_replace)
        before = self._journal_lines(tmp_path)
        assert cache.get(q.cache_key()) == {"max_height": 3}
        assert "index.json" not in touched
        assert self._journal_lines(tmp_path) - before <= 1

    def test_put_at_the_bound_stats_a_constant_number_of_paths(
        self, tmp_path, monkeypatch
    ):
        cache, _ = self._full_cache(tmp_path)
        stats: list[str] = []
        real_stat = os.stat

        def spy_stat(path, *args, **kwargs):
            stats.append(str(path))
            return real_stat(path, *args, **kwargs)

        monkeypatch.setattr(os, "stat", spy_stat)
        q = ProvisionQuery.from_dict({"topology": "path:16", "steps": 51})
        cache.put(q.cache_key(), {"max_height": 4}, query=q)
        assert len(stats) <= 4, stats  # not one per indexed entry
        monkeypatch.undo()
        assert cache.stats()["entries"] == self.ENTRIES
        assert not (tmp_path / f"q{0:040x}.json").exists()  # the LRU head


# ---------------------------------------------------------------------------
class TestWorker:
    def test_path_provision_is_deterministic(self):
        wd = self._wd()
        a, b = execute_query(wd), execute_query(wd)
        a.pop("compute_s"), b.pop("compute_s")
        assert a == b
        assert a["degraded"] is False
        assert a["max_height"] >= 1
        assert a["bound"] == pytest.approx(7.0)  # log2(16) + 3

    def test_finite_buffers_account_losses(self):
        out = execute_query(self._wd(buffer_capacity=1))
        assert out["injected"] == (
            out["delivered"] + out["in_flight"] + out["dropped"]
        )

    def test_deterministic_error_is_reported_not_raised(self):
        out = execute_query({"kind": "experiment", "experiment": "NOPE",
                             "preset": "quick"})
        assert "error" in out

    @staticmethod
    def _wd(**over):
        q = ProvisionQuery.from_dict(
            {"topology": "path:16", "steps": 200, **over}
        )
        return q.to_worker_dict()


# ---------------------------------------------------------------------------
def _answer(**over):
    q = ProvisionQuery.from_dict({"topology": "path:16", "steps": 200, **over})
    return q, execute_query(q.to_worker_dict())


class TestCheckAnswer:
    def test_real_answers_pass(self):
        for over in ({}, {"buffer_capacity": 1}, {"topology": "binary:3"},
                     {"adversary": "seesaw"}):
            check_answer(*_answer(**over))

    def test_conservation_is_always_checked(self):
        q, doc = _answer(buffer_capacity=1, decision_timing="post_injection")
        doc["dropped"] += 1
        with pytest.raises(ServiceError, match="conservation check failed"):
            check_answer(q, doc)

    @pytest.mark.parametrize("topology, theorem", [
        ("path:16", "4.13"), ("binary:3", "5.11"),
    ])
    def test_bound_is_checked_where_the_theorem_holds(self, topology, theorem):
        q, doc = _answer(topology=topology)
        doc["max_height"] = int(doc["bound"]) + 1
        with pytest.raises(ServiceError, match=f"Theorem {theorem} bound"):
            check_answer(q, doc)

    @pytest.mark.parametrize("over", [
        {"decision_timing": "post_injection"},
        {"buffer_capacity": 4},
        {"faults": {"events": [{"kind": "crash", "start": 3, "node": 2}]}},
        {"policy": "greedy"},
    ])
    def test_bound_is_not_checked_outside_the_hypotheses(self, over):
        q, doc = _answer(**over)
        doc["max_height"] = int(doc["bound"]) + 1
        check_answer(q, doc)


class _DoctoringPool:
    """Duck-typed ShardPool whose answers break conservation."""

    async def submit_batch(self, queries, deadline):
        docs = [execute_query(q.to_worker_dict()) for q in queries]
        for doc in docs:
            doc["delivered"] += 1
        return docs


def test_a_failed_answer_check_is_a_500_and_never_cached(tmp_path):
    svc = ProvisioningService(
        ServiceConfig(port=0, cache_dir=str(tmp_path / "cache"))
    )
    svc.batcher = QueryBatcher(_DoctoringPool())
    body = json.dumps({"topology": "path:16", "steps": 50}).encode()

    async def post():
        slot = svc.governor.register("client")
        return await svc._provision(body, slot)

    status, _headers, doc = asyncio.run(post())
    assert status == 500
    assert "conservation check failed" in doc["error"]
    assert svc.stats()["served"]["errors"] == 1
    assert svc.stats()["served"]["ok"] == 0
    assert svc.cache.stats()["entries"] == 0


class _InlinePool:
    """Duck-typed ShardPool answering on the event loop."""

    async def submit_batch(self, queries, deadline):
        return [execute_query(q.to_worker_dict()) for q in queries]


def test_a_failed_cache_write_serves_the_answer_uncached(
    tmp_path, monkeypatch
):
    """A disk that refuses the artifact write (ENOSPC) costs the cache
    an entry, not the client its checked answer: 200, ``cached:
    false``, the failure counted in /stats, the key still a miss."""
    import errno

    import repro.service.cache as cache_module

    svc = ProvisioningService(
        ServiceConfig(port=0, cache_dir=str(tmp_path / "cache"))
    )
    svc.batcher = QueryBatcher(_InlinePool())
    query = {"topology": "path:16", "steps": 50}
    body = json.dumps(query).encode()

    def full_disk(path, text):
        raise OSError(errno.ENOSPC, "No space left on device", str(path))

    async def post():
        slot = svc.governor.register("client")
        return await svc._provision(body, slot)

    monkeypatch.setattr(cache_module, "atomic_write_text", full_disk)
    status, _headers, doc = asyncio.run(post())
    assert status == 200
    assert doc["cached"] is False
    want = execute_query(ProvisionQuery.from_dict(query).to_worker_dict())
    assert doc["max_height"] == want["max_height"]
    stats = svc.stats()
    assert stats["cache"]["write_errors"] == 1
    assert stats["cache"]["entries"] == 0
    assert stats["served"] == {
        "ok": 1, "cached": 0, "degraded": 0, "errors": 0,
    }
    assert svc.cache.get(doc["cache_key"]) is None
    assert not list((tmp_path / "cache").glob("q*.json"))
    # once the disk takes writes again, the same query is cached
    monkeypatch.undo()
    status, _headers, doc = asyncio.run(post())
    assert (status, doc["cached"]) == (200, False)
    assert svc.cache.get(doc["cache_key"]) is not None
    assert svc.stats()["cache"]["write_errors"] == 1
