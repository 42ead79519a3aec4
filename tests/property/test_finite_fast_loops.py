"""Finite buffers ride the fast loops until the first refusal, exactly.

A step in which no injection site meets a full buffer and no buffer
ends above its capacity refuses nothing, and is then exactly the
unbounded step under drop-tail, drop-oldest and push-back alike.  So
the kernel's change-driven loop (1-local pairwise rules) and sparse
loop (Algorithm 5, the DAG rules) run finite-buffer steps too, check
both conditions before committing one, and hand the first step that
would refuse — uncommitted, with its injection batch — to the dense
loop, which owns refusals and the loss ledger.

These properties pin ``run(k)`` to k ``step()`` calls of the same
engine class — heights, ``step_index``, ``result()``, per-node maxima
and the ledger's per-node per-cause detail — under every discipline,
both decision timings, scheduled and live adversaries, with capacities
that make runs refuse never, late and from the first steps, and with
horizons split across several ``run()`` calls.  The engagement pins
show where each run hands off: a run that never refuses takes no dense
step, and one whose first refusal is at step k hands off at step k.
"""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.adversaries import (
    BackfillAdversary,
    FarEndAdversary,
    MaxHeightChaserAdversary,
    PressureAdversary,
    RoundRobinAdversary,
    SeesawAdversary,
    UniformRandomAdversary,
)
from repro.network import dag_engine
from repro.network.buffers import Overflow
from repro.network.dag import layered_dag
from repro.network.dag_engine import DagEngine
from repro.network.engine_fast import PathEngine
from repro.network.topology import from_parent_array, from_spec
from repro.network.tree_engine import TreeEngine
from repro.policies import (
    DownhillPolicy,
    ForwardIfEmptyPolicy,
    GreedyPolicy,
    OddEvenPolicy,
    TreeOddEvenPolicy,
)
from repro.policies.dag import DagGreedyPolicy, DagOddEvenPolicy

TIMINGS = ("pre_injection", "post_injection")

#: adversary family -> factory(n, seed); live families publish no
#: schedule and are asked step by step
FAMILIES = {
    "far-end": lambda n, seed: FarEndAdversary(),
    "round-robin": lambda n, seed: RoundRobinAdversary(),
    "seesaw": lambda n, seed: SeesawAdversary(fill=seed % (2 * n)),
    "uniform": lambda n, seed: UniformRandomAdversary(
        p=(0.6, 1.0)[seed % 2], seed=seed
    ),
    "pressure": lambda n, seed: PressureAdversary(),
    "max-chaser": lambda n, seed: MaxHeightChaserAdversary(),
    "backfill": lambda n, seed: BackfillAdversary(),
}
DAG_FAMILIES = ("far-end", "round-robin", "uniform", "max-chaser")

#: pairwise rules: Odd-Even keeps buffers logarithmic, the others let
#: them grow, so a capacity is met late; Greedy decides by its own
#: ``send_counts`` and so keeps the dense loop throughout
PAIRWISE = {
    "odd-even": OddEvenPolicy,
    "downhill": DownhillPolicy,
    "greedy": GreedyPolicy,
    "fie": ForwardIfEmptyPolicy,
}


def _state(engine) -> tuple:
    """Everything a batched run must reproduce."""
    return (
        engine.heights.tolist(),
        engine.step_index,
        engine.result(),
        engine.metrics.ledger.detail(),
        engine.metrics.tracker.per_node_max.tolist(),
        {k: v for k, v in vars(engine.policy).items()},
    )


@st.composite
def finite_run(draw):
    """``(make_engine, chunks)``: a factory for two identical engines
    with finite buffers, and the ``run()`` lengths of the horizon."""
    kind = draw(st.sampled_from(["path", "tree", "algorithm-5", "dag"]))
    seed = draw(st.integers(0, 2**16))
    kw = {
        "decision_timing": draw(st.sampled_from(TIMINGS)),
        # 1-2 refuse early, 3-4 late or never, 50 never
        "buffer_capacity": draw(st.sampled_from([1, 2, 3, 4, 50])),
        "overflow": draw(st.sampled_from(list(Overflow))),
    }
    if kind == "path":
        n = draw(st.integers(3, 20))
        family = draw(st.sampled_from(sorted(FAMILIES)))
        policy = PAIRWISE[draw(st.sampled_from(sorted(PAIRWISE)))]

        def make():
            return PathEngine(n, policy(), FAMILIES[family](n, seed), **kw)
    elif kind in ("tree", "algorithm-5"):
        n = draw(st.integers(3, 16))
        topo = from_parent_array(
            [-1] + [draw(st.integers(0, v - 1)) for v in range(1, n)]
        )
        family = draw(st.sampled_from(
            sorted(f for f in FAMILIES if f != "pressure")
        ))
        if kind == "tree":
            policy = PAIRWISE[draw(st.sampled_from(sorted(PAIRWISE)))]
        else:
            tie = draw(st.sampled_from(["min_id", "max_id", "round_robin"]))

            def policy():
                return TreeOddEvenPolicy(tie)

        def make():
            return TreeEngine(topo, policy(), FAMILIES[family](n, seed), **kw)
    else:
        layers, width = draw(st.integers(1, 4)), draw(st.integers(1, 3))
        dag = layered_dag(layers, width, out_degree=2, seed=seed)
        family = draw(st.sampled_from(DAG_FAMILIES))
        dag_policy = draw(st.sampled_from([DagOddEvenPolicy, DagGreedyPolicy]))

        def make():
            return DagEngine(
                dag, dag_policy(), FAMILIES[family](dag.n, seed), **kw
            )
    chunks = draw(st.lists(st.integers(0, 200), min_size=1, max_size=4))
    return make, chunks


@given(finite_run(), st.sampled_from([1, 4, 16, 10**6]))
@settings(max_examples=250, deadline=None)
def test_run_equals_stepping(case, limit):
    make, chunks = case
    batched, stepped = make(), make()
    batched._CHANGE_LIMIT = limit
    for k in chunks:
        batched.run(k)
        for _ in range(k):
            stepped.step()
        assert _state(batched) == _state(stepped)


# ---------------------------------------------------------------------
# engagement


def _first_refusal(make, steps: int) -> int | None:
    """The step at which a finite run first refuses a packet, found by
    stepping it beside an unbounded twin: a refusal drops a packet or
    leaves the heights apart."""
    finite, twin = make(), make()
    twin.buffer_capacity = None
    for t in range(steps):
        finite.step()
        twin.step()
        if finite.metrics.ledger.total or not np.array_equal(
            finite.heights, twin.heights
        ):
            return t
    return None


def _dense_entries():
    """Record the step at which each dense-loop call starts."""
    starts: list[int] = []
    real = dag_engine._DagEngineCore._run_dense

    def run_dense(self, *args, **kwargs):
        starts.append(self.step_index)
        return real(self, *args, **kwargs)

    return mock.patch.object(
        dag_engine._DagEngineCore, "_run_dense", run_dense
    ), starts


#: (label, factory(cap, timing)) — each run stays in its fast loop
#: until a refusal: the change-driven loop (scheduled and live), the
#: sparse loop for Algorithm 5 and for a DAG rule
RUNS = {
    "path uniform": lambda cap, timing: PathEngine(
        64, OddEvenPolicy(), UniformRandomAdversary(p=0.5, seed=3),
        buffer_capacity=cap, decision_timing=timing,
    ),
    "path pressure (live)": lambda cap, timing: PathEngine(
        64, DownhillPolicy(), PressureAdversary(), buffer_capacity=cap,
        decision_timing=timing,
    ),
    "path max-chaser (live)": lambda cap, timing: PathEngine(
        64, ForwardIfEmptyPolicy(), MaxHeightChaserAdversary(),
        buffer_capacity=cap, decision_timing=timing, overflow="push-back",
    ),
    "tree algorithm-5": lambda cap, timing: TreeEngine(
        from_spec("random:120"), TreeOddEvenPolicy("round_robin"),
        UniformRandomAdversary(seed=4), buffer_capacity=cap,
        decision_timing=timing, overflow="drop-oldest",
    ),
    "dag greedy": lambda cap, timing: DagEngine(
        layered_dag(4, 3, out_degree=2, seed=1), DagGreedyPolicy(),
        FarEndAdversary(), buffer_capacity=cap, decision_timing=timing,
    ),
}


@pytest.mark.parametrize("timing", TIMINGS)
@pytest.mark.parametrize("label", sorted(RUNS))
def test_a_run_hands_off_at_its_first_refusal(label, timing):
    steps = 1500
    for cap in (1, 2, 3, 5, 1000):
        def make():
            engine = RUNS[label](cap, timing)
            engine._CHANGE_LIMIT = 10**6
            return engine

        k = _first_refusal(make, steps)
        batched, stepped = make(), make()
        patch, starts = _dense_entries()
        with patch:
            batched.run(steps)
        for _ in range(steps):
            stepped.step()
        assert _state(batched) == _state(stepped), cap
        # never refusing: no dense step; else the dense loop starts at
        # the first refusing step
        assert starts == ([] if k is None else [k]), (cap, k, starts)


def test_the_service_sizes_never_refusing_take_no_dense_step():
    """Finite queries whose capacity is above their peak, at the
    service's sizes, finish in the fast loops."""
    patch, starts = _dense_entries()
    with patch:
        for spec, policy, adversary in (
            ("path:1024", OddEvenPolicy(), FarEndAdversary()),
            ("path:256", OddEvenPolicy(), PressureAdversary()),
            ("random:300", TreeOddEvenPolicy(), FarEndAdversary()),
            ("binary:7", TreeOddEvenPolicy(), SeesawAdversary()),
        ):
            for overflow in Overflow:
                TreeEngine(
                    from_spec(spec), policy, adversary, buffer_capacity=8,
                    overflow=overflow,
                ).run(1500)
    assert starts == []
