"""Unit tests for the DAG substrate and DAG policies (E17 apparatus)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.adversaries import (
    FarEndAdversary,
    RecursiveLowerBoundAttack,
    ScheduleAdversary,
    UniformRandomAdversary,
)
from repro.errors import (
    CheckpointError,
    RateViolation,
    SimulationError,
    TopologyError,
)
from repro.network.dag import (
    DagTopology,
    diamond_grid,
    from_tree,
    layered_dag,
    tree_with_shortcuts,
)
from repro.network.dag_engine import DagEngine, DagLoopEngine, DagPolicy
from repro.network.engine_fast import PathEngine
from repro.network.topology import path, random_tree
from repro.network.tree_engine import TreeEngine
from repro.policies import GreedyPolicy, OddEvenPolicy
from repro.policies.dag import DagGreedyPolicy, DagOddEvenPolicy


class TestDagTopology:
    def test_cycle_rejected(self):
        with pytest.raises(TopologyError):
            DagTopology(((1,), (2,), (1,), ()), sink=3)

    def test_unreachable_sink_rejected(self):
        # node 2's only edge points away from the sink component
        with pytest.raises(TopologyError):
            DagTopology(((1,), (), (1,), ()), sink=3)

    def test_sink_with_out_edges_rejected(self):
        with pytest.raises(TopologyError):
            DagTopology(((1,), (0,)), sink=1)

    def test_dangling_node_rejected(self):
        with pytest.raises(TopologyError):
            DagTopology(((), ()), sink=0)

    def test_self_loop_rejected(self):
        with pytest.raises(TopologyError):
            DagTopology(((0,), ()), sink=1)

    def test_duplicate_edge_rejected(self):
        with pytest.raises(TopologyError):
            DagTopology(((1, 1), ()), sink=1)

    def test_depth_is_shortest_path(self):
        # 0 -> sink directly and 0 -> 1 -> sink
        dag = DagTopology(((1, 2), (2,), ()), sink=2)
        assert dag.depth.tolist() == [1, 1, 0]

    def test_sources(self):
        dag = DagTopology(((1,), (2,), ()), sink=2)
        assert dag.sources() == (0,)

    def test_spine_order_ends_at_sink(self):
        dag = layered_dag(6, 4, 2, seed=0)
        spine = dag.spine_order()
        assert spine[-1] == dag.sink
        assert len(spine) == dag.depth.max() + 1

    def test_as_tree_keeps_min_depth_edges(self):
        dag = diamond_grid(3, 4)
        tree = dag.as_tree()
        assert tree.n == dag.n
        assert tree.sink == dag.sink
        assert (tree.depth >= dag.depth).all()


class TestBuilders:
    def test_layered_counts(self):
        dag = layered_dag(5, 3, 2, seed=1)
        assert dag.n == 16
        assert dag.depth.max() == 5

    def test_layered_out_degree_capped_by_width(self):
        dag = layered_dag(3, 2, out_degree=5, seed=1)
        for v in range(1, dag.n):
            assert len(dag.out_edges[v]) <= 2

    def test_diamond_grid_structure(self):
        dag = diamond_grid(3, 4)
        assert dag.n == 13
        # interior nodes have exactly 2 out-edges
        interior = [v for v in range(1, dag.n)
                    if dag.depth[v] > 1]
        assert all(len(dag.out_edges[v]) == 2 for v in interior)

    def test_diamond_width_one_is_a_path(self):
        dag = diamond_grid(1, 5)
        assert all(len(o) <= 1 for o in dag.out_edges)

    def test_tree_with_shortcuts_adds_edges(self):
        tree = random_tree(40, seed=1)
        dag = tree_with_shortcuts(tree, 10, seed=2)
        assert dag.edge_count >= tree.n - 1
        assert dag.edge_count <= tree.n - 1 + 10

    def test_from_tree_degenerate(self):
        tree = path(6)
        dag = from_tree(tree)
        assert dag.edge_count == 5

    def test_invalid_parameters(self):
        with pytest.raises(TopologyError):
            layered_dag(0, 2)
        with pytest.raises(TopologyError):
            diamond_grid(2, 0)


class TestDagEngine:
    def test_conservation(self):
        dag = layered_dag(6, 4, 2, seed=3)
        e = DagEngine(dag, DagGreedyPolicy(), UniformRandomAdversary(seed=1))
        e.run(300)
        e.assert_conservation()

    def test_rate_limit(self):
        dag = diamond_grid(2, 3)
        e = DagEngine(dag, DagGreedyPolicy(), None)
        with pytest.raises(RateViolation):
            e.step(injections=(1, 2))

    def test_injection_at_sink_rejected(self):
        dag = diamond_grid(2, 3)
        e = DagEngine(dag, DagGreedyPolicy(), None)
        with pytest.raises(RateViolation):
            e.step(injections=(dag.sink,))

    def test_non_edge_target_rejected(self):
        class Liar(DagPolicy):
            name = "liar"

            def choose(self, heights, dag):
                t = np.full(dag.n, -1, dtype=np.int64)
                occupied = np.flatnonzero(heights > 0)
                for v in occupied:
                    if v != dag.sink:
                        t[v] = dag.sink  # maybe not an edge
                return t

        dag = diamond_grid(2, 4)  # far nodes are not sink-adjacent
        e = DagEngine(dag, Liar(), None)
        far = int(np.argmax(dag.depth))
        e.step(injections=(far,))
        with pytest.raises(SimulationError):
            e.step()

    @pytest.mark.parametrize("engine_cls", [DagEngine, DagLoopEngine])
    def test_empty_buffer_target_rejected_under_validate(self, engine_cls):
        class Eager(DagPolicy):
            name = "eager"

            def choose(self, heights, dag):
                t = np.full(dag.n, -1, dtype=np.int64)
                for v in range(dag.n):
                    if v != dag.sink:
                        t[v] = dag.out_edges[v][0]  # even when empty
                return t

        e = engine_cls(diamond_grid(2, 3), Eager(), None, validate=True)
        with pytest.raises(SimulationError, match="empty buffer"):
            e.step()

    @pytest.mark.parametrize("engine_cls", [DagEngine, DagLoopEngine])
    def test_empty_buffer_target_held_without_validate(self, engine_cls):
        """Outside strict mode an empty-node target is silently a hold
        (the pre-fix behaviour users' policies may rely on)."""

        class Eager(DagPolicy):
            name = "eager"

            def choose(self, heights, dag):
                t = np.full(dag.n, -1, dtype=np.int64)
                for v in range(dag.n):
                    if v != dag.sink:
                        t[v] = dag.out_edges[v][0]
                return t

        e = engine_cls(diamond_grid(2, 3), Eager(), None)
        e.step()
        assert (e.heights == 0).all()
        e.assert_conservation()

    def test_checkpoint_restore(self):
        dag = layered_dag(5, 3, 2, seed=4)
        e = DagEngine(dag, DagOddEvenPolicy(), FarEndAdversary())
        e.run(20)
        cp = e.checkpoint()
        h = e.heights.copy()
        e.run(20)
        e.restore(cp)
        assert (e.heights == h).all()

    # every single-run engine restores through the shared kernel's check
    RESTORING = [DagEngine, DagLoopEngine, PathEngine, TreeEngine]

    @staticmethod
    def _fresh(engine_cls):
        if engine_cls is PathEngine:
            return PathEngine(6, OddEvenPolicy(), None)
        if engine_cls is TreeEngine:
            return TreeEngine(random_tree(7, seed=2), GreedyPolicy(), None)
        return engine_cls(diamond_grid(2, 3), DagGreedyPolicy(), None)

    @pytest.mark.parametrize("engine_cls", RESTORING)
    def test_restore_rejects_wrong_shape(self, engine_cls):
        e = self._fresh(engine_cls)
        cp = e.checkpoint()
        cp["heights"] = np.zeros(e.n + 1, dtype=np.int64)
        with pytest.raises(CheckpointError, match="shape"):
            e.restore(cp)

    @pytest.mark.parametrize("engine_cls", RESTORING)
    def test_restore_rejects_non_integer_heights(self, engine_cls):
        e = self._fresh(engine_cls)
        cp = e.checkpoint()
        cp["heights"] = np.zeros(e.n, dtype=np.float64)
        with pytest.raises(CheckpointError, match="dtype"):
            e.restore(cp)

    @pytest.mark.parametrize("engine_cls", RESTORING)
    def test_restore_rejects_negative_heights(self, engine_cls):
        e = self._fresh(engine_cls)
        cp = e.checkpoint()
        cp["heights"] = np.zeros(e.n, dtype=np.int64)
        cp["heights"][2] = -1
        with pytest.raises(CheckpointError, match="negative"):
            e.restore(cp)

    @pytest.mark.parametrize("adversary", [
        FarEndAdversary(),
        ScheduleAdversary({0: (1,), 3: (4,), 4: (1,), 9: (12,)}),
    ])
    def test_loop_reference_runs_through_its_own_step(
        self, adversary, monkeypatch
    ):
        """The parity suite steps the reference by hand, so it would not
        notice ``DagLoopEngine.run`` taking the kernel's batched path;
        pin that run(k) is exactly k calls of the reference's step."""
        dag = layered_dag(4, 3, 2, seed=1)
        engine = DagLoopEngine(dag, DagOddEvenPolicy(), adversary)
        assert adversary.inject_schedule(0, 12, dag) is not None
        step = DagLoopEngine.step
        calls = []

        def counted(self, injections=None):
            calls.append(injections)
            step(self, injections)

        monkeypatch.setattr(DagLoopEngine, "step", counted)
        engine.run(12)
        assert calls == [None] * 12
        assert engine.step_index == 12

    def test_pre_injection_holds_fresh_packet(self):
        dag = from_tree(path(3))
        e = DagEngine(dag, DagGreedyPolicy(), None)
        e.step(injections=(1,))
        assert e.heights[1] == 1

    def test_post_injection_moves_fresh_packet(self):
        dag = from_tree(path(3))
        e = DagEngine(dag, DagGreedyPolicy(), None,
                      decision_timing="post_injection")
        e.step(injections=(1,))
        assert e.metrics.delivered == 1


class TestDagPolicies:
    def test_degenerate_dag_odd_even_matches_path(self):
        """On a path-as-DAG, DagOddEven reproduces OddEven exactly."""
        n = 12
        dag = from_tree(path(n))
        a = DagEngine(dag, DagOddEvenPolicy(), UniformRandomAdversary(seed=9))
        b = PathEngine(n, OddEvenPolicy(), UniformRandomAdversary(seed=9))
        for _ in range(200):
            a.step()
            b.step()
            # DAG node ids: tree ids are preserved by from_tree
            assert (a.heights == b.heights).all()

    def test_odd_even_blocks_on_even_equal(self):
        dag = from_tree(path(3))
        pol = DagOddEvenPolicy()
        targets = pol.choose(np.asarray([2, 2, 0]), dag)
        assert targets[0] == -1

    def test_greedy_always_forwards(self):
        dag = diamond_grid(2, 3)
        pol = DagGreedyPolicy()
        h = np.ones(dag.n, dtype=np.int64)
        h[dag.sink] = 0
        targets = pol.choose(h, dag)
        assert (targets[np.arange(dag.n) != dag.sink] >= 0).all()

    def test_chooses_lowest_neighbour(self):
        # node 0 -> {1, 2}; 1 is taller than 2
        dag = DagTopology(((1, 2), (3,), (3,), ()), sink=3)
        h = np.asarray([1, 5, 0, 0])
        assert DagGreedyPolicy().choose(h, dag)[0] == 2

    def test_attack_on_degenerate_dag_forces_log(self):
        dag = from_tree(path(256))
        e = DagEngine(dag, DagOddEvenPolicy(), None)
        rep = RecursiveLowerBoundAttack(ell=1).run(e)
        assert rep.forced_height >= rep.predicted
        assert rep.forced_height <= 12


class TestDagRender:
    def test_render_layers(self):
        from repro.viz.dag_render import render_dag

        dag = diamond_grid(2, 3)
        out = render_dag(dag)
        assert "(sink)" in out
        assert "depth  3" in out or "depth 3" in out.replace("  ", " ")

    def test_render_with_heights(self):
        from repro.viz.dag_render import render_dag

        dag = diamond_grid(2, 2)
        h = np.zeros(dag.n, dtype=np.int64)
        h[1] = 4
        assert "(h=4)" in render_dag(dag, h)

    def test_profile_bars(self):
        from repro.viz.dag_render import render_dag_profile

        dag = diamond_grid(2, 2)
        h = np.zeros(dag.n, dtype=np.int64)
        h[1] = 3
        out = render_dag_profile(dag, h)
        assert "###" in out


class TestDagFiniteBuffers:
    """Satellite: finite buffer_capacity + validate on the DAG engine."""

    def test_bad_capacity_rejected(self):
        dag = diamond_grid(2, 3)
        with pytest.raises(SimulationError):
            DagEngine(dag, DagGreedyPolicy(), None, buffer_capacity=0)

    def test_drop_tail_keeps_heights_at_capacity(self):
        dag = layered_dag(3, 4, 2, seed=5)
        src = dag.sources()[0]

        class Hold(DagPolicy):
            def choose(self, heights, d):
                return np.full(d.n, -1, dtype=np.int64)

        e = DagEngine(dag, Hold(), None, buffer_capacity=2, validate=True)
        for _ in range(10):
            e.step(injections=(src,))
        assert int(e.heights[src]) == 2
        ledger = e.metrics.ledger
        assert ledger.total == 8
        assert ledger.by_cause() == {"overflow": 8}
        e.assert_capacity()
        e.assert_conservation()

    def test_arrival_overflow_dropped_at_receiver(self):
        # two sources funnel into one sink-adjacent node of capacity 1;
        # the receiver's surplus arrival must be dropped, not stored
        dag = DagTopology(out_edges=((2,), (2,), (3,), ()), sink=3)
        e = DagEngine(dag, DagGreedyPolicy(), None, buffer_capacity=1,
                      validate=True)
        e.heights[0] = 1
        e.heights[1] = 1
        e.metrics.injected += 2
        e.step()
        assert int(e.heights[2]) <= 1
        e.assert_capacity()
        e.assert_conservation()

    def test_assert_capacity_raises_on_violation(self):
        from repro.errors import BufferOverflow

        dag = diamond_grid(2, 3)
        e = DagEngine(dag, DagGreedyPolicy(), None, buffer_capacity=1)
        e.heights[1] = 5  # corrupt state by hand
        with pytest.raises(BufferOverflow):
            e.assert_capacity()

    def test_unbounded_validate_run_stays_clean(self):
        dag = layered_dag(4, 3, 2, seed=2)
        e = DagEngine(dag, DagGreedyPolicy(),
                      UniformRandomAdversary(seed=1), validate=True)
        e.run(200)  # validate=True checks capacity+conservation each step
        assert e.metrics.ledger.total == 0
