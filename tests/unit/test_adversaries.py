"""Unit tests for the traffic generators."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.adversaries import (
    AmplifiedAdversary,
    BackfillAdversary,
    FarEndAdversary,
    FixedNodeAdversary,
    HeavyBranchAdversary,
    HotSpotAdversary,
    LeafSweepAdversary,
    MaxHeightChaserAdversary,
    NullAdversary,
    OnOffAdversary,
    PhasedAdversary,
    PlateauAdversary,
    PressureAdversary,
    PreSinkAdversary,
    RoundRobinAdversary,
    ScheduleAdversary,
    SeesawAdversary,
    SpiderWaveAdversary,
    TokenBucketAdversary,
    UniformRandomAdversary,
)
from repro.errors import RateViolation
from repro.network.engine_fast import PathEngine
from repro.network.topology import from_parent_array, path, spider
from repro.policies import GreedyPolicy


def zero_heights(topo):
    return np.zeros(topo.n, dtype=np.int64)


class TestDeterministic:
    def test_null_injects_nothing(self):
        topo = path(4)
        assert NullAdversary().inject(0, zero_heights(topo), topo) == ()

    def test_fixed_node_every_step(self):
        topo = path(4)
        adv = FixedNodeAdversary(2)
        adv.reset(topo, 1)
        for step in range(3):
            assert adv.inject(step, zero_heights(topo), topo) == (2,)

    def test_fixed_node_duration(self):
        topo = path(4)
        adv = FixedNodeAdversary(0, duration=2)
        adv.reset(topo, 1)
        out = [adv.inject(s, zero_heights(topo), topo) for s in range(4)]
        assert out == [(0,), (0,), (), ()]

    def test_fixed_count_respects_rate(self):
        topo = path(4)
        adv = FixedNodeAdversary(0, count=3)
        with pytest.raises(RateViolation):
            adv.reset(topo, 1)

    def test_far_end_targets_deepest(self, small_spider):
        adv = FarEndAdversary()
        adv.reset(small_spider, 1)
        (site,) = adv.inject(0, zero_heights(small_spider), small_spider)
        assert small_spider.depth[site] == small_spider.height

    def test_pre_sink_targets_sink_child(self, small_spider):
        adv = PreSinkAdversary()
        adv.reset(small_spider, 1)
        (site,) = adv.inject(0, zero_heights(small_spider), small_spider)
        assert small_spider.succ[site] == small_spider.sink

    def test_schedule_relative_to_reset(self):
        topo = path(4)
        adv = ScheduleAdversary({0: (1,), 2: (2,)})
        adv.reset(topo, 1)
        out = [adv.inject(s, zero_heights(topo), topo) for s in (10, 11, 12)]
        assert out == [(1,), (), (2,)]

    def test_phased_switches_subadversaries(self):
        topo = path(4)
        adv = PhasedAdversary(
            [(2, FixedNodeAdversary(0)), (2, FixedNodeAdversary(1))]
        )
        adv.reset(topo, 1)
        out = [adv.inject(s, zero_heights(topo), topo)[0] for s in range(5)]
        assert out == [0, 0, 1, 1, 1]  # last phase runs forever

    def test_phased_empty_rejected(self):
        with pytest.raises(ValueError):
            PhasedAdversary([])

    def test_round_robin_cycles(self):
        topo = path(4)
        adv = RoundRobinAdversary()
        adv.reset(topo, 1)
        out = [adv.inject(s, zero_heights(topo), topo)[0] for s in range(6)]
        assert out == [0, 1, 2, 0, 1, 2]  # sink (3) excluded


class TestStochastic:
    def test_uniform_is_seeded(self):
        topo = path(16)
        a = UniformRandomAdversary(seed=5)
        b = UniformRandomAdversary(seed=5)
        a.reset(topo, 1)
        b.reset(topo, 1)
        h = zero_heights(topo)
        assert [a.inject(s, h, topo) for s in range(20)] == [
            b.inject(s, h, topo) for s in range(20)
        ]

    def test_uniform_never_hits_sink(self):
        topo = path(8)
        adv = UniformRandomAdversary(seed=0)
        adv.reset(topo, 1)
        h = zero_heights(topo)
        for s in range(200):
            for site in adv.inject(s, h, topo):
                assert site != topo.sink

    def test_uniform_rate_probability(self):
        topo = path(8)
        adv = UniformRandomAdversary(p=0.25, seed=1)
        adv.reset(topo, 1)
        h = zero_heights(topo)
        count = sum(len(adv.inject(s, h, topo)) for s in range(2000))
        assert 350 < count < 650

    def test_invalid_probability(self):
        with pytest.raises(ValueError):
            UniformRandomAdversary(p=1.5)

    def test_hotspot_prefers_hot_node(self):
        topo = path(32)
        adv = HotSpotAdversary(hot_node=5, alpha=3.0, seed=2)
        adv.reset(topo, 1)
        h = zero_heights(topo)
        sites = [adv.inject(s, h, topo)[0] for s in range(500)]
        near = sum(1 for s in sites if abs(s - 5) <= 2)
        assert near > 250

    def test_onoff_duty_cycle(self):
        topo = path(4)
        adv = OnOffAdversary(node=1, on=2, off=2)
        out = [len(adv.inject(s, zero_heights(topo), topo)) for s in range(8)]
        assert out == [1, 1, 0, 0, 1, 1, 0, 0]

    def test_onoff_invalid(self):
        with pytest.raises(ValueError):
            OnOffAdversary(node=0, on=0, off=1)


class TestTokenBucket:
    def test_window_constraint(self):
        """Over any window of t steps at most rho*t + sigma injections."""
        topo = path(8)
        adv = TokenBucketAdversary(
            FarEndAdversary(), rho=1, sigma=3, greedy=True
        )
        adv.reset(topo, 10)
        h = zero_heights(topo)
        counts = [len(adv.inject(s, h, topo)) for s in range(50)]
        for start in range(50):
            for width in (1, 5, 20):
                window = counts[start : start + width]
                assert sum(window) <= len(window) * 1 + 3

    def test_opening_burst_when_drain_first(self):
        topo = path(8)
        adv = TokenBucketAdversary(
            FarEndAdversary(), rho=1, sigma=4, greedy=True
        )
        adv.reset(topo, 10)
        first = adv.inject(0, zero_heights(topo), topo)
        assert len(first) == 5  # sigma + rho

    def test_no_burst_without_drain_first(self):
        topo = path(8)
        adv = TokenBucketAdversary(
            FarEndAdversary(), rho=1, sigma=4, drain_first=False, greedy=True
        )
        adv.reset(topo, 10)
        first = adv.inject(0, zero_heights(topo), topo)
        assert len(first) == 1

    def test_fractional_rho_halves_rate(self):
        topo = path(8)
        adv = TokenBucketAdversary(FarEndAdversary(), rho=0.5, sigma=0,
                                   drain_first=False)
        adv.reset(topo, 4)
        h = zero_heights(topo)
        total = sum(len(adv.inject(s, h, topo)) for s in range(100))
        assert 45 <= total <= 55

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            TokenBucketAdversary(FarEndAdversary(), rho=0)
        with pytest.raises(ValueError):
            TokenBucketAdversary(FarEndAdversary(), sigma=-1)


class TestAdaptive:
    def test_seesaw_phases(self):
        topo = path(8)
        adv = SeesawAdversary(fill=3)
        adv.reset(topo, 1)
        h = zero_heights(topo)
        sites = [adv.inject(s, h, topo)[0] for s in range(6)]
        assert sites[:3] == [0, 0, 0]
        assert sites[3:] == [6, 6, 6]  # the sink's predecessor

    def test_pressure_targets_plateau_edge(self):
        topo = path(6)
        adv = PressureAdversary()
        adv.reset(topo, 1)
        h = np.asarray([0, 0, 2, 2, 1, 0])
        (site,) = adv.inject(0, h, topo)
        assert site == 2  # left edge of the non-increasing run to the sink

    @staticmethod
    def _scan(order, heights):
        """Pressure's site by the gather and scan it used to make."""
        hh = heights[order]
        n = len(order)
        ascents = np.flatnonzero(hh[: n - 2] < hh[1 : n - 1]) + 1
        return int(order[int(ascents[-1]) if ascents.size else 0])

    @given(
        st.integers(2, 300),
        st.sampled_from(["zeros", "plateau", "ascent-near-sink",
                         "ascent-at-far-end", "random"]),
        st.booleans(),
        st.integers(0, 2**16),
    )
    @settings(max_examples=300, deadline=None)
    def test_pressure_answers_as_the_gathered_scan(
        self, n, shape, canonical, seed
    ):
        # a path whose ids run towards the sink, or its mirror image
        topo = path(n) if canonical else from_parent_array(
            [-1] + list(range(n - 1))
        )
        order = topo.path_order()
        rng = np.random.default_rng(seed)
        hh = np.zeros(n, dtype=np.int64)  # heights in path order
        if shape == "plateau":
            at = int(rng.integers(0, n))
            hh[:at] = rng.integers(0, 3, size=at)
            hh[at:] = int(rng.integers(1, 4))
        elif shape == "ascent-near-sink":
            hh[max(n - 3, 0)] = 2
        elif shape == "ascent-at-far-end":
            hh[:2] = (0, 5)
            hh[2:] = np.sort(rng.integers(0, 5, size=n - 2))[::-1]
        elif shape == "random":
            hh[:] = rng.integers(0, 4, size=n)
        hh[-1] = 0  # the sink
        heights = np.zeros(n, dtype=np.int64)
        heights[order] = hh
        adv = PressureAdversary()
        adv.reset(topo, 1)
        assert adv.inject(0, heights, topo) == (self._scan(order, heights),)

    def test_plateau_fills_lowest(self):
        topo = path(6)
        adv = PlateauAdversary(width=3)
        adv.reset(topo, 1)
        h = np.asarray([0, 0, 2, 1, 2, 0])
        (site,) = adv.inject(0, h, topo)
        assert site == 3

    def test_max_chaser_targets_peak(self):
        topo = path(6)
        adv = MaxHeightChaserAdversary()
        h = np.asarray([0, 3, 0, 3, 0, 0])
        (site,) = adv.inject(0, h, topo)
        assert site == 3  # tie broken towards the sink

    def test_backfill_targets_behind_peak(self):
        topo = path(6)
        adv = BackfillAdversary()
        h = np.asarray([0, 0, 5, 0, 0, 0])
        (site,) = adv.inject(0, h, topo)
        assert site == 1

    def test_seesaw_forces_linear_on_greedy(self):
        e = PathEngine(64, GreedyPolicy(), SeesawAdversary())
        e.run(256)
        assert e.max_height >= 20


class TestTreeAdversaries:
    def test_leaf_sweep_hits_only_leaves(self, small_binary):
        adv = LeafSweepAdversary()
        adv.reset(small_binary, 1)
        h = zero_heights(small_binary)
        leaves = set(small_binary.leaves)
        for s in range(20):
            (site,) = adv.inject(s, h, small_binary)
            assert site in leaves

    def test_heavy_branch_follows_weight(self, small_spider):
        adv = HeavyBranchAdversary()
        adv.reset(small_spider, 1)
        h = zero_heights(small_spider)
        h[5] = 4  # load one arm
        (site,) = adv.inject(0, h, small_spider)
        # target is in the hub's subtree (branch containing node 5)
        assert site in small_spider.ball(5, 100) - {small_spider.sink}

    def test_spider_wave_synchronises_arrivals(self):
        topo = spider(4, 4)
        adv = SpiderWaveAdversary.from_spider(topo)
        adv.reset(topo, 1)
        h = zero_heights(topo)
        plan = [adv.inject(s, h, topo) for s in range(6)]
        assert all(len(p) == 1 for p in plan[:4])
        assert plan[4] == () and plan[5] == ()
        # distances to the hub are 4, 3, 2, 1 in injection order
        hub = topo.children[topo.sink][0]
        dists = [topo.depth[p[0]] - topo.depth[hub] for p in plan[:4]]
        assert dists == [4, 3, 2, 1]


class TestTreeSeesaw:
    def test_phases_follow_spine(self, small_spider):
        from repro.adversaries import TreeSeesawAdversary

        adv = TreeSeesawAdversary(fill=2)
        adv.reset(small_spider, 1)
        h = zero_heights(small_spider)
        sites = [adv.inject(s, h, small_spider)[0] for s in range(4)]
        spine = small_spider.spine_order()
        assert sites[0] == sites[1] == spine[0]
        assert sites[2] == sites[3] == spine[-2]

    def test_default_fill_is_spine_length(self):
        from repro.adversaries import TreeSeesawAdversary
        from repro.network.topology import path

        topo = path(10)
        adv = TreeSeesawAdversary()
        adv.reset(topo, 1)
        h = zero_heights(topo)
        sites = [adv.inject(s, h, topo)[0] for s in range(12)]
        assert sites[:9] == [0] * 9
        assert sites[9:] == [8] * 3

    def test_certified_against_tree_policy(self, small_spider):
        from repro.adversaries import TreeSeesawAdversary
        from repro.core.tree_certificate import certify_tree_run

        rep = certify_tree_run(small_spider, TreeSeesawAdversary(), 300)
        assert rep.certified


class TestInjectSchedule:
    """The batched-run contract: ``inject_schedule(start, steps, topo)``
    must return exactly what ``steps`` sequential ``inject`` calls
    would, and leave the adversary in the same state afterwards."""

    FACTORIES = [
        NullAdversary,
        FarEndAdversary,
        PreSinkAdversary,
        RoundRobinAdversary,
        lambda: FixedNodeAdversary(2),
        lambda: FixedNodeAdversary(1, duration=5),
        lambda: OnOffAdversary(0, on=3, off=2),
        lambda: ScheduleAdversary({0: (1,), 3: (2, 2), 9: (4,)}),
        lambda: AmplifiedAdversary(FarEndAdversary(), 3),
        lambda: UniformRandomAdversary(p=0.6, seed=11),
        lambda: HotSpotAdversary(2, seed=23),
        lambda: SeesawAdversary(fill=5),
    ]

    @pytest.mark.parametrize("factory", FACTORIES)
    def test_schedule_matches_sequential_inject(self, factory):
        topo = path(8)
        a, b = factory(), factory()
        a.reset(topo, 1)
        b.reset(topo, 1)
        h = zero_heights(topo)
        sequential = [tuple(a.inject(s, h, topo)) for s in range(12)]
        schedule = b.inject_schedule(0, 12, topo)
        assert [tuple(x) for x in schedule] == sequential

    @pytest.mark.parametrize("factory", FACTORIES)
    def test_schedule_splits_compose(self, factory):
        topo = path(8)
        a, b = factory(), factory()
        a.reset(topo, 1)
        b.reset(topo, 1)
        whole = [tuple(x) for x in a.inject_schedule(0, 12, topo)]
        head = [tuple(x) for x in b.inject_schedule(0, 5, topo)]
        tail = [tuple(x) for x in b.inject_schedule(5, 7, topo)]
        assert head + tail == whole

    @pytest.mark.parametrize("factory", FACTORIES)
    def test_schedule_then_inject_interleave(self, factory):
        # consuming a schedule must leave the adversary able to continue
        # per-step from where the batch ended
        topo = path(8)
        a, b = factory(), factory()
        a.reset(topo, 1)
        b.reset(topo, 1)
        h = zero_heights(topo)
        sequential = [tuple(a.inject(s, h, topo)) for s in range(12)]
        batch = [tuple(x) for x in b.inject_schedule(0, 7, topo)]
        resumed = [tuple(b.inject(s, h, topo)) for s in range(7, 12)]
        assert batch + resumed == sequential

    @pytest.mark.parametrize("fill", [0, 1, 4, 9])
    @pytest.mark.parametrize("first", [0, 3])
    def test_seesaw_schedule_split_at_and_around_fill(self, fill, first):
        # the phase counts from the first step asked for, whichever
        # protocol asks; every split point agrees with stepping
        topo = path(8)
        h = zero_heights(topo)
        stepped = SeesawAdversary(fill=fill)
        stepped.reset(topo, 1)
        want = [
            tuple(stepped.inject(s, h, topo))
            for s in range(first, first + 14)
        ]
        for cut in {0, fill - 1, fill, fill + 1, 14}:
            cut = min(max(cut, 0), 14)
            adv = SeesawAdversary(fill=fill)
            adv.reset(topo, 1)
            head = adv.inject_schedule(first, cut, topo)
            tail = adv.inject_schedule(first + cut, 14 - cut, topo)
            assert [tuple(x) for x in head + tail] == want

    @pytest.mark.parametrize("seed", [0, 1, 7, 2024])
    @pytest.mark.parametrize("p", [1.0, 0.6, 0.1])
    def test_uniform_draws_follow_the_choice_stream(self, seed, p):
        # one bounded integer per draw consumes the generator exactly
        # as Generator.choice over the candidates does
        topo = path(9)
        rng = np.random.default_rng(seed)
        cands = np.arange(8)
        want = [
            (int(rng.choice(cands)),) if rng.random() < p else ()
            for _ in range(500)
        ]
        a, b = (UniformRandomAdversary(p=p, seed=seed) for _ in range(2))
        a.reset(topo, 1)
        b.reset(topo, 1)
        h = zero_heights(topo)
        assert [tuple(a.inject(s, h, topo)) for s in range(500)] == want
        assert [tuple(x) for x in b.inject_schedule(0, 500, topo)] == want

    @pytest.mark.parametrize("seed", [0, 3, 99])
    @pytest.mark.parametrize("p", [1.0, 0.6, 0.1])
    @pytest.mark.parametrize("k", [1, 2, 255, 1023])
    def test_uniform_schedule_decodes_the_generator_stream(self, seed, p, k):
        # inject_schedule decodes raw PCG64 words (53-bit doubles,
        # buffered 32-bit halves through Lemire's method); split at
        # arbitrary points and interleaved with inject(), it must draw
        # exactly what per-step inject() calls draw and leave the
        # generator in the same state
        topo = path(k + 1)
        a, b = (UniformRandomAdversary(p=p, seed=seed) for _ in range(2))
        a.reset(topo, 1)
        b.reset(topo, 1)
        h = zero_heights(topo)
        cuts = np.random.default_rng(seed + 1000)
        t = 0
        for _ in range(6):
            steps = int(cuts.integers(0, 260))
            got = [tuple(x) for x in a.inject_schedule(t, steps, topo)]
            want = [tuple(b.inject(t + i, h, topo)) for i in range(steps)]
            assert got == want
            t += steps
            for _ in range(int(cuts.integers(0, 3))):
                assert tuple(a.inject(t, h, topo)) == tuple(
                    b.inject(t, h, topo)
                )
                t += 1
            assert a._rng.bit_generator.state == b._rng.bit_generator.state

    def test_adaptive_adversaries_opt_out(self):
        # height-dependent traffic cannot be precomputed: the base
        # class answers None and the engine falls back to stepping
        topo = path(8)
        for adv in (MaxHeightChaserAdversary(),
                    PressureAdversary(), BackfillAdversary(),
                    PhasedAdversary([(3, FarEndAdversary())])):
            adv.reset(topo, 1)
            assert adv.inject_schedule(0, 10, topo) is None

    def test_amplified_inherits_inner_opt_out(self):
        # the wrapper is batchable exactly when the inner adversary is
        topo = path(8)
        adv = AmplifiedAdversary(BackfillAdversary(), 2)
        adv.reset(topo, 2)
        assert adv.inject_schedule(0, 10, topo) is None

    @pytest.mark.parametrize(
        "factory",
        [
            lambda: UniformRandomAdversary(p=0.6, seed=11),
            lambda: HotSpotAdversary(2, seed=23),
        ],
    )
    def test_stochastic_schedule_deterministic_under_seed(self, factory):
        # a fixed seed pins the whole published schedule: two fresh
        # instances (or a reset) must publish identical batches
        topo = path(8)
        a, b = factory(), factory()
        a.reset(topo, 1)
        b.reset(topo, 1)
        first = [tuple(x) for x in a.inject_schedule(0, 64, topo)]
        second = [tuple(x) for x in b.inject_schedule(0, 64, topo)]
        assert first == second
        assert any(first)  # the seed produces actual traffic
        # resetting rewinds the stream to the same schedule
        a.reset(topo, 1)
        assert [tuple(x) for x in a.inject_schedule(0, 64, topo)] == first
