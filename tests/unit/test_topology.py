"""Unit tests for the topology substrate."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import networkx as nx

from repro.errors import TopologyError
from repro.network.dag import DagTopology
from repro.network.topology import (
    SINK_SUCC,
    Topology,
    balanced_tree,
    broom,
    caterpillar,
    from_networkx,
    from_parent_array,
    from_spec,
    path,
    random_tree,
    spider,
    star_of_paths,
)


class TestPathBuilder:
    def test_node_count(self):
        assert path(5).n == 5

    def test_sink_is_last_node(self):
        assert path(5).sink == 4

    def test_successors_chain_forward(self):
        t = path(4)
        assert t.succ.tolist() == [1, 2, 3, SINK_SUCC]

    def test_is_path(self):
        assert path(7).is_path

    def test_depths_decrease_towards_sink(self):
        t = path(5)
        assert t.depth.tolist() == [4, 3, 2, 1, 0]

    def test_single_node_path_is_just_the_sink(self):
        t = path(1)
        assert t.sink == 0
        assert t.height == 0

    def test_zero_nodes_rejected(self):
        with pytest.raises(TopologyError):
            path(0)

    def test_path_order_far_end_first(self):
        assert path(4).path_order().tolist() == [0, 1, 2, 3]

    def test_leaves_single_far_end(self):
        assert path(6).leaves == (0,)


class TestSpiderBuilder:
    def test_node_count(self):
        assert spider(3, 4).n == 2 + 12

    def test_hub_has_arm_count_children(self):
        t = spider(5, 2)
        hub = t.children[t.sink][0]
        assert len(t.children[hub]) == 5

    def test_arm_depth(self):
        t = spider(2, 6)
        assert t.height == 6 + 1  # arm length + hub hop

    def test_not_a_path(self):
        assert not spider(2, 2).is_path

    def test_single_arm_is_a_path(self):
        assert spider(1, 3).is_path

    def test_star_of_paths_alias(self):
        a, b = spider(3, 3), star_of_paths(3, 3)
        assert a.succ.tolist() == b.succ.tolist()

    def test_invalid_parameters(self):
        with pytest.raises(TopologyError):
            spider(0, 3)
        with pytest.raises(TopologyError):
            spider(3, 0)

    def test_intersections_contains_hub(self):
        t = spider(3, 2)
        assert 1 in t.intersections()


class TestTreeBuilders:
    def test_balanced_tree_size(self):
        assert balanced_tree(2, 3).n == 15

    def test_balanced_tree_depth(self):
        assert balanced_tree(3, 2).height == 2

    def test_balanced_tree_single_node(self):
        t = balanced_tree(2, 0)
        assert t.n == 1 and t.sink == 0

    def test_caterpillar_size(self):
        assert caterpillar(4, 2).n == 4 + 8

    def test_caterpillar_legs_are_leaves(self):
        t = caterpillar(3, 1)
        assert set(t.leaves) >= {3, 4, 5}

    def test_broom_bristles_attach_at_far_end(self):
        t = broom(3, 4)
        far = 0
        assert len(t.children[far]) == 4

    def test_random_tree_reproducible(self):
        a = random_tree(20, seed=7)
        b = random_tree(20, seed=7)
        assert a.succ.tolist() == b.succ.tolist()

    def test_random_tree_distinct_seeds(self):
        a = random_tree(40, seed=1)
        b = random_tree(40, seed=2)
        assert a.succ.tolist() != b.succ.tolist()

    def test_random_tree_is_rooted_at_zero(self):
        assert random_tree(10, seed=0).sink == 0


class TestValidation:
    def test_two_roots_rejected(self):
        with pytest.raises(TopologyError):
            from_parent_array([-1, -1, 0])

    def test_no_root_rejected(self):
        with pytest.raises(TopologyError):
            from_parent_array([1, 0])

    def test_cycle_rejected(self):
        with pytest.raises(TopologyError):
            from_parent_array([-1, 2, 3, 1])

    def test_self_loop_rejected(self):
        with pytest.raises(TopologyError):
            from_parent_array([-1, 1])

    def test_out_of_range_parent_rejected(self):
        with pytest.raises(TopologyError):
            from_parent_array([-1, 9])

    def test_empty_rejected(self):
        with pytest.raises(TopologyError):
            Topology(np.asarray([], dtype=np.int64))


def _hop_count_depths(t):
    """Reference depths: walk each node's successors to the sink."""
    out = []
    for v in range(t.n):
        d, u = 0, v
        while u != t.sink:
            u, d = int(t.succ[u]), d + 1
        out.append(d)
    return out


class TestDepths:
    @pytest.mark.parametrize("make", [
        lambda: path(257),
        lambda: spider(4, 9),
        lambda: balanced_tree(2, 6),
        lambda: random_tree(300, seed=3),
        lambda: from_parent_array([-1, 0, 0, 2, 2, 4, 1]),
    ], ids=["path", "spider", "binary", "random", "parent-array"])
    def test_depths_match_a_hop_count_walk(self, make):
        t = make()
        assert t.depth.dtype == np.int64
        assert t.depth.tolist() == _hop_count_depths(t)

    def test_cycle_behind_a_tail_rejected(self):
        # node 4 leads into the cycle 1 -> 2 -> 3 -> 1
        with pytest.raises(TopologyError, match="cycle"):
            from_parent_array([-1, 2, 3, 1, 1])


class TestFromSpec:
    @given(
        kind=st.sampled_from(
            ["path", "spider", "binary", "random", "layered", "diamond"]
        ),
        a=st.integers(min_value=1, max_value=9),
        b=st.integers(min_value=1, max_value=9),
    )
    @settings(max_examples=80, deadline=None)
    def test_the_checked_node_count_is_the_built_one(self, kind, a, b):
        """``max_nodes`` is checked against a count worked out before
        building: the cap must admit exactly the built n, not n - 1."""
        two_args = kind in ("spider", "layered", "diamond")
        spec = f"{kind}:{a}x{b}" if two_args else f"{kind}:{a}"
        if spec in ("path:1", "random:1"):
            with pytest.raises(TopologyError, match="at least 2"):
                from_spec(spec)
            return
        n = from_spec(spec).n
        assert from_spec(spec, max_nodes=n).n == n
        with pytest.raises(TopologyError, match="more than"):
            from_spec(spec, max_nodes=n - 1)

    @pytest.mark.parametrize("spec, cls, n", [
        ("path", Topology, 256),
        ("path:8", Topology, 8),
        ("spider:8x16", Topology, 130),
        ("binary:7", Topology, 255),
        ("random:300", Topology, 300),
        ("layered:3x4", DagTopology, 13),
        ("diamond:3x8", DagTopology, 25),
    ])
    def test_kinds(self, spec, cls, n):
        topo = from_spec(spec)
        assert isinstance(topo, cls) and topo.n == n
        assert from_spec(spec) is topo  # memoised

    @pytest.mark.parametrize("spec", [
        "foo:3", "ring:9", "", "spider:3", "spider:3x4x5", "binary:-1",
        "binary:0", "path:x", "random:", "layered:0x3", "diamond:2x",
        "spider:0x3", "random:1",
    ])
    def test_bad_specs_are_refused(self, spec):
        with pytest.raises(TopologyError):
            from_spec(spec)

    def test_a_huge_depth_is_refused_without_the_power(self):
        with pytest.raises(TopologyError, match="more than 16384"):
            from_spec("binary:1000000000000", max_nodes=16384)


class TestQueries:
    def test_path_to_sink(self, small_path):
        assert small_path.path_to_sink(0) == list(range(9))

    def test_path_to_sink_from_sink(self, small_path):
        assert small_path.path_to_sink(8) == [8]

    def test_ball_radius_zero(self, small_path):
        assert small_path.ball(3, 0) == {3}

    def test_ball_radius_one_on_path(self, small_path):
        assert small_path.ball(3, 1) == {2, 3, 4}

    def test_ball_radius_one_at_hub(self, small_spider):
        hub = 1
        ball = small_spider.ball(hub, 1)
        assert small_spider.sink in ball
        assert len(ball) == 1 + 1 + 3  # hub + sink + 3 arm heads

    def test_ball_covers_everything_eventually(self, small_spider):
        assert small_spider.ball(0, 100) == set(range(small_spider.n))

    def test_ball_negative_radius(self, small_path):
        with pytest.raises(ValueError):
            small_path.ball(0, -1)

    def test_siblings_on_tree(self, small_spider):
        hub = 1
        heads = small_spider.children[hub]
        for h in heads:
            assert set(small_spider.siblings(h)) == set(heads)

    def test_siblings_of_sink_is_itself(self, small_path):
        assert small_path.siblings(small_path.sink) == (small_path.sink,)

    def test_path_order_rejects_trees(self, small_spider):
        with pytest.raises(TopologyError):
            small_spider.path_order()

    def test_spine_order_on_path_equals_path_order(self, small_path):
        assert (small_path.spine_order() == small_path.path_order()).all()

    def test_spine_order_ends_at_sink(self, small_spider):
        spine = small_spider.spine_order()
        assert spine[-1] == small_spider.sink
        assert len(spine) == small_spider.height + 1

    def test_bottom_up_leaves_first(self, small_binary):
        order = list(small_binary.bottom_up)
        assert order.index(small_binary.sink) == len(order) - 1


class TestInterop:
    def test_round_trip_networkx(self, small_spider):
        g = small_spider.to_networkx()
        back = from_networkx(g, sink=small_spider.sink)
        assert back.succ.tolist() == small_spider.succ.tolist()

    def test_networkx_edge_count(self, small_binary):
        g = small_binary.to_networkx()
        assert g.number_of_edges() == small_binary.n - 1

    def test_from_networkx_reorients_edges(self):
        g = nx.path_graph(5)
        t = from_networkx(g, sink=2)
        assert t.succ[0] == 1 and t.succ[4] == 3

    def test_from_networkx_rejects_cycles(self):
        g = nx.cycle_graph(4)
        with pytest.raises(TopologyError):
            from_networkx(g, sink=0)

    def test_from_networkx_rejects_bad_labels(self):
        g = nx.path_graph(3)
        g = nx.relabel_nodes(g, {0: "a"})
        with pytest.raises(TopologyError):
            from_networkx(g, sink=1)
