"""Property-based tests of the DAG substrate (E17 apparatus)."""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.adversaries import ScheduleAdversary
from repro.core.bounds import tree_upper_bound
from repro.network.dag import from_tree, layered_dag, tree_with_shortcuts
from repro.network.dag_engine import DagEngine
from repro.network.engine_fast import PathEngine
from repro.network.topology import path, random_tree
from repro.network.tree_engine import TreeEngine
from repro.policies import GreedyPolicy, OddEvenPolicy
from repro.policies.dag import DagGreedyPolicy, DagOddEvenPolicy


@st.composite
def dag_case(draw):
    kind = draw(st.sampled_from(["layered", "shortcuts"]))
    if kind == "layered":
        dag = layered_dag(
            layers=draw(st.integers(2, 6)),
            width=draw(st.integers(1, 4)),
            out_degree=draw(st.integers(1, 3)),
            seed=draw(st.integers(0, 1000)),
        )
    else:
        tree = random_tree(draw(st.integers(5, 25)),
                           seed=draw(st.integers(0, 1000)))
        dag = tree_with_shortcuts(
            tree, draw(st.integers(0, 8)), seed=draw(st.integers(0, 1000))
        )
    steps = draw(st.integers(1, 60))
    sites = draw(
        st.lists(
            st.one_of(st.none(), st.integers(0, dag.n - 1)),
            min_size=steps,
            max_size=steps,
        )
    )
    sched = {}
    for i, s in enumerate(sites):
        if s is not None and s != dag.sink:
            sched[i] = (s,)
    policy = draw(st.sampled_from([DagOddEvenPolicy, DagGreedyPolicy]))
    return dag, steps, sched, policy


@given(dag_case())
@settings(max_examples=60, deadline=None)
def test_dag_conservation_and_nonnegativity(case):
    dag, steps, sched, policy_cls = case
    engine = DagEngine(dag, policy_cls(), ScheduleAdversary(sched))
    engine.run(steps)
    engine.assert_conservation()
    assert (engine.heights >= 0).all()
    assert engine.heights[dag.sink] == 0


@given(dag_case())
@settings(max_examples=30, deadline=None)
def test_dag_checkpoint_roundtrip(case):
    dag, steps, sched, policy_cls = case
    engine = DagEngine(dag, policy_cls(), ScheduleAdversary(sched))
    half = steps // 2
    engine.run(half)
    cp = engine.checkpoint()
    engine.run(steps - half)
    final = engine.heights.copy()
    engine.restore(cp)
    engine.run(steps - half)
    assert (engine.heights == final).all()


@given(
    n=st.integers(4, 20),
    steps=st.integers(1, 80),
    data=st.data(),
)
@settings(max_examples=40, deadline=None)
def test_degenerate_dag_equals_path_engine(n, steps, data):
    """A path viewed as a DAG runs identically under DagOddEven."""
    sites = data.draw(
        st.lists(
            st.one_of(st.none(), st.integers(0, n - 2)),
            min_size=steps,
            max_size=steps,
        )
    )
    sched = {i: (s,) for i, s in enumerate(sites) if s is not None}
    dag_engine = DagEngine(
        from_tree(path(n)), DagOddEvenPolicy(), ScheduleAdversary(sched)
    )
    path_engine = PathEngine(
        n, OddEvenPolicy(), ScheduleAdversary(sched)
    )
    for _ in range(steps):
        dag_engine.step()
        path_engine.step()
        assert (dag_engine.heights == path_engine.heights).all()


@given(
    n=st.integers(3, 24),
    seed=st.integers(0, 1000),
    cap=st.sampled_from([None, 1, 2, 3]),
    overflow=st.sampled_from(["drop-tail", "drop-oldest", "push-back"]),
    timing=st.sampled_from(["pre_injection", "post_injection"]),
    data=st.data(),
)
@settings(max_examples=80, deadline=None)
def test_tree_as_dag_equals_tree_engine(n, seed, cap, overflow, timing, data):
    """A tree viewed as a DAG runs identically under DAG Greedy and
    Greedy, finite buffers included: the DAG engine's heap-Kahn order
    and TreeEngine's ascending (depth, id) order must settle push-back
    the same way, which the shared push-back resolver relies on."""
    tree = random_tree(n, seed=seed)
    senders = [v for v in range(n) if v != tree.sink]
    sites = data.draw(
        st.lists(st.one_of(st.none(), st.sampled_from(senders)),
                 min_size=1, max_size=80)
    )
    kwargs = dict(
        buffer_capacity=cap, overflow=overflow, decision_timing=timing
    )
    dag_engine = DagEngine(from_tree(tree), DagGreedyPolicy(), None, **kwargs)
    tree_engine = TreeEngine(tree, GreedyPolicy(), None, **kwargs)
    for s in sites:
        injections = () if s is None else (s,)
        dag_engine.step(injections)
        tree_engine.step(injections)
        assert (dag_engine.heights == tree_engine.heights).all()
    assert dag_engine.metrics.delivered == tree_engine.metrics.delivered
    assert (
        dag_engine.metrics.ledger.detail()
        == tree_engine.metrics.ledger.detail()
    )


@given(dag_case())
@settings(max_examples=25, deadline=None)
def test_dag_odd_even_stays_modest(case):
    """Empirical sanity at rate 1: DAG Odd-Even never exceeds the tree
    bound on any generated instance (the E17 conjecture at small n)."""
    dag, steps, sched, _ = case
    engine = DagEngine(dag, DagOddEvenPolicy(), ScheduleAdversary(sched))
    engine.run(steps)
    assert engine.max_height <= tree_upper_bound(max(dag.n, 2))
