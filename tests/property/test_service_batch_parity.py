"""Batched-service parity: every lane of every batch answers exactly
what a dedicated engine answers for that query alone.

The service has one execution path: a provision query is a lane of a
:class:`~repro.network.fleet_engine.FleetEngine` batch, whether it
arrives in a burst or alone.  The reference is therefore not the
service itself but :func:`_oracle`, a test-local rebuild of the
service's former per-query path: a ``PathEngine`` or ``TreeEngine``
built straight from the query, run under ``run_with_recovery`` when it
carries a fault plan.  Hypothesis generates bursts over paths and
trees, scheduled and adaptive adversaries, overflow disciplines,
decision timings, finite buffers, fault plans (halts included) and
heterogeneous step budgets, answers them at two layers (the worker's
``execute_batch`` directly, and the full ``QueryBatcher`` demux loop
over an in-process pool), and compares whole response documents.
"""

from __future__ import annotations

import asyncio
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.adversaries import make_adversary
from repro.analysis.occupancy import default_step_budget
from repro.errors import ReproError
from repro.network.dag_engine import _DagEngineCore
from repro.network.engine_fast import PathEngine
from repro.network.faults import FaultPlan, run_with_recovery
from repro.network.topology import from_spec
from repro.network.tree_engine import TreeEngine
from repro.policies import TreeOddEvenPolicy, make_policy
from repro.service import (
    Deadline,
    ProvisionQuery,
    QueryBatcher,
    QueryFailed,
    analytic_bound,
    execute_batch,
    execute_query,
)
from repro.service.protocol import RESPONSE_SCHEMA

#: topology spec -> the one policy the service runs on it
TOPOLOGIES = {
    "path:8": "odd-even",
    "path:12": "odd-even",
    "binary:2": "tree-odd-even",
    "spider:3x3": "tree-odd-even",
    "random:12": "tree-odd-even",
}
#: nodes a fault event may name: everything but the sink
FAULT_NODES = {
    spec: [v for v, s in enumerate(from_spec(spec).succ) if s != -1]
    for spec in TOPOLOGIES
}
#: scheduled (far-end, pre-sink, uniform, round-robin) and adaptive
#: (seesaw, pressure, max-chaser) families; pressure needs a path
PATH_ADVERSARIES = [
    "far-end", "pre-sink", "uniform", "round-robin",
    "seesaw", "pressure", "max-chaser",
]
TREE_ADVERSARIES = [a for a in PATH_ADVERSARIES if a != "pressure"]
OVERFLOWS = st.sampled_from(["drop-tail", "drop-oldest", "push-back"])
TIMINGS = st.sampled_from(["pre_injection", "post_injection"])
CAPACITIES = st.one_of(st.none(), st.integers(min_value=1, max_value=4))


def _oracle(worker_dict):
    """A query's answer on a dedicated engine, built without the fleet."""
    query = ProvisionQuery.from_dict(
        {k: v for k, v in worker_dict.items() if v is not None}
    )
    steps = (
        default_step_budget(query.n) if query.steps is None else query.steps
    )
    plan = FaultPlan.from_dict(query.faults) if query.faults else None
    kwargs = dict(
        decision_timing=query.decision_timing,
        buffer_capacity=query.buffer_capacity,
        overflow=query.overflow,
        faults=plan,
    )
    try:
        adversary = make_adversary(query.adversary, query.seed)
        if query.is_path:
            engine = PathEngine(
                query.n, make_policy(query.policy), adversary, **kwargs
            )
        else:
            engine = TreeEngine(
                from_spec(query.topology), TreeOddEvenPolicy(), adversary,
                **kwargs,
            )
        if plan is not None:
            run_with_recovery(engine, steps, snapshot_every=max(1, steps // 8))
        else:
            engine.run(steps)
    except ReproError as err:
        return {"error": f"{type(err).__name__}: {err}"}
    metrics = engine.metrics
    return {
        "schema": RESPONSE_SCHEMA,
        "kind": "provision",
        "query": query.canonical(),
        "cache_key": query.cache_key(),
        "n": query.n,
        "steps": steps,
        "max_height": int(metrics.tracker.max_height),
        "argmax_node": int(metrics.tracker.argmax_node),
        "bound": analytic_bound(query),
        "injected": int(metrics.injected),
        "delivered": int(metrics.delivered),
        "in_flight": int(engine.heights.sum()),
        "dropped": int(metrics.ledger.total),
        "drops_by_cause": {
            str(c): int(k) for c, k in sorted(metrics.ledger.by_cause().items())
        },
        "degraded": False,
    }


@st.composite
def fault_plans(draw, topology, steps):
    """A fault plan of halts, link outages and crashes on valid nodes."""
    nodes = st.sampled_from(FAULT_NODES[topology])
    starts = st.integers(min_value=0, max_value=steps - 1)
    durations = st.integers(min_value=1, max_value=6)
    events = draw(st.lists(
        st.one_of(
            st.fixed_dictionaries({"kind": st.just("halt"), "start": starts}),
            st.fixed_dictionaries({
                "kind": st.just("link_down"), "start": starts,
                "node": nodes, "duration": durations,
            }),
            st.fixed_dictionaries({
                "kind": st.just("crash"), "start": starts, "node": nodes,
                "duration": durations, "wipe": st.booleans(),
            }),
        ),
        min_size=1, max_size=4,
    ))
    return {"seed": draw(st.integers(0, 7)), "events": events}


@st.composite
def lanes(draw, topology):
    """The per-lane facts of one query: adversary, steps, seed, faults."""
    adversaries = (
        PATH_ADVERSARIES if topology.startswith("path") else TREE_ADVERSARIES
    )
    steps = draw(st.integers(min_value=5, max_value=50))
    return {
        "adversary": draw(st.sampled_from(adversaries)),
        "steps": steps,
        "seed": draw(st.integers(min_value=0, max_value=3)),
        "faults": draw(st.one_of(st.none(), fault_plans(topology, steps))),
    }


@st.composite
def shared_facts(draw):
    """The fleet-wide facts one batch key fixes."""
    topology = draw(st.sampled_from(sorted(TOPOLOGIES)))
    return {
        "topology": topology,
        "policy": TOPOLOGIES[topology],
        "overflow": draw(OVERFLOWS),
        "decision_timing": draw(TIMINGS),
        "buffer_capacity": draw(CAPACITIES),
    }


@st.composite
def queries(draw):
    """One query with its own fleet-wide facts."""
    facts = draw(shared_facts())
    return {**facts, **draw(lanes(facts["topology"]))}


@st.composite
def one_key_batches(draw):
    """A batch whose lanes share a batch key but mix adversary
    families, step budgets, seeds and fault plans."""
    facts = draw(shared_facts())
    per_lane = draw(st.lists(lanes(facts["topology"]), min_size=2, max_size=8))
    return [{**facts, **lane} for lane in per_lane]


def _worker_dict(raw):
    return ProvisionQuery.from_dict(
        {k: v for k, v in raw.items() if v is not None}
    ).to_worker_dict()


def _strip(doc):
    return {k: v for k, v in doc.items() if k != "compute_s"}


@given(raws=one_key_batches())
@settings(max_examples=40, deadline=None)
def test_one_key_batch_matches_dedicated_engines(raws):
    """Worker layer: one fleet holds every lane of a batch key —
    scheduled and adaptive, with and without fault plans — and each
    lane answers exactly what its dedicated engine answers."""
    dicts = [_worker_dict(r) for r in raws]
    for d, got in zip(dicts, execute_batch(dicts)):
        assert _strip(got) == _oracle(d)


#: a crash that wipes node 1 at the very step a halt strikes: a faulted
#: lane resumes in place, so the halt must raise before the crash
#: registers, or the retried step finds the node already down and
#: loses the wipe
HALT_SHARES_A_WIPE = {
    "topology": "binary:2", "policy": "tree-odd-even",
    "overflow": "drop-tail", "decision_timing": "pre_injection",
    "buffer_capacity": None, "adversary": "far-end", "steps": 10,
    "seed": 0, "faults": {"seed": 0, "events": [
        {"kind": "crash", "start": 2, "node": 1, "duration": 1,
         "wipe": True},
        {"kind": "halt", "start": 2},
    ]},
}


@given(raws=st.lists(queries(), min_size=1, max_size=8))
@example(raws=[HALT_SHARES_A_WIPE])
@settings(max_examples=30, deadline=None)
def test_execute_batch_bit_identical_to_solo(raws):
    """Worker layer: a batch that mixes batch keys still answers lane
    for lane what ``execute_query`` and the dedicated engine answer."""
    dicts = [_worker_dict(r) for r in raws]
    batched = execute_batch(dicts)
    assert len(batched) == len(dicts)
    for d, got in zip(dicts, batched):
        want = _oracle(d)
        assert _strip(got) == want
        assert _strip(execute_query(d)) == want


class _InlinePool:
    """Duck-typed ShardPool running worker bodies on the event loop."""

    async def submit(self, query, deadline):
        response = execute_query(query.to_worker_dict())
        if "error" in response:
            raise QueryFailed(response["error"])
        return response

    async def submit_batch(self, queries, deadline):
        return execute_batch([q.to_worker_dict() for q in queries])


@given(raws=st.one_of(
    st.lists(queries(), min_size=1, max_size=8), one_key_batches()
))
@settings(max_examples=15, deadline=None)
def test_batcher_demux_bit_identical_to_solo(raws):
    """Batcher layer: concurrent submissions through the full
    coalesce/flush/demux machinery answer exactly what the dedicated
    engine answers, errors included."""
    parsed = [ProvisionQuery.from_dict(_worker_dict(r)) for r in raws]

    async def run():
        batcher = QueryBatcher(_InlinePool(), max_lanes=64)
        return await asyncio.gather(
            *(batcher.submit(q, Deadline.after(30.0)) for q in parsed),
            return_exceptions=True,
        )

    got = asyncio.run(run())
    for q, doc in zip(parsed, got):
        want = _oracle(q.to_worker_dict())
        if "error" in want:
            assert isinstance(doc, QueryFailed) and str(doc) == want["error"]
        else:
            assert _strip(doc) == want


#: a plan with more halts than ``run_with_recovery`` absorbs (16)
NINETEEN_HALTS = {
    "topology": "path:16", "policy": "odd-even", "adversary": "far-end",
    "steps": 200, "seed": 1,
    "faults": {"events": [
        {"kind": "halt", "start": 10 * (i + 1)} for i in range(19)
    ]},
}


@given(batchmate_steps=st.integers(min_value=5, max_value=199))
@example(batchmate_steps=50)
@settings(max_examples=5, deadline=None)
def test_nineteen_halts_give_up_alone_and_in_a_batch(batchmate_steps):
    """The recovery budget spans a lane's whole horizon: a shorter
    batchmate must not split it into segments that each stay under
    the budget."""
    faulted = _worker_dict(NINETEEN_HALTS)
    want = _oracle(faulted)
    assert "gave up after 16 recoveries" in want["error"]
    assert _strip(execute_query(faulted)) == want
    mate = _worker_dict({
        **NINETEEN_HALTS, "faults": None, "steps": batchmate_steps,
    })
    got = execute_batch([faulted, mate])
    assert _strip(got[0]) == want
    assert _strip(got[1]) == _oracle(mate)


def _halting(topology, events, **over):
    policy = TOPOLOGIES[topology]
    return {
        "topology": topology, "policy": policy, "adversary": "uniform",
        "steps": 40, "seed": 2, "faults": {"seed": 3, "events": events},
        **over,
    }


HALT_EDGES = {
    "first step": [{"kind": "halt", "start": 0}],
    "last step": [{"kind": "halt", "start": 39}],
    "several": [
        {"kind": "halt", "start": t} for t in (0, 1, 7, 8, 20, 39)
    ],
    "twice at one step": [
        {"kind": "halt", "start": 5}, {"kind": "halt", "start": 5},
    ],
    "sharing steps": [
        {"kind": "link_down", "start": 3, "node": 2, "duration": 4},
        {"kind": "halt", "start": 3},
        {"kind": "crash", "start": 7, "node": 1, "duration": 2,
         "wipe": True},
        {"kind": "halt", "start": 7},
        {"kind": "halt", "start": 9},
        {"kind": "crash", "start": 9, "node": 2, "duration": 3},
    ],
    "past the horizon": [{"kind": "halt", "start": 40}],
}


@pytest.mark.parametrize("topology", ["path:12", "binary:2", "random:12"])
@pytest.mark.parametrize("capacity", [None, 2])
@pytest.mark.parametrize("edge", sorted(HALT_EDGES))
def test_halts_at_the_edges_match_run_with_recovery(edge, capacity, topology):
    """Halts at step 0, at the last step, several per run, two at one
    step and halts sharing their step with other faults: a lane that
    resumes in place answers what ``run_with_recovery``'s replay
    answers."""
    d = _worker_dict(_halting(
        topology, HALT_EDGES[edge], buffer_capacity=capacity,
    ))
    want = _oracle(d)
    assert "error" not in want
    assert _strip(execute_batch([d])[0]) == want


@given(raws=one_key_batches())
@settings(max_examples=25, deadline=None)
def test_a_faulted_lane_never_steps_back(raws):
    """A faulted lane survives its halts without a snapshot, a restore
    or a replayed step: every engine's ``run`` starts at or past where
    its previous one did."""
    starts: dict[int, list[int]] = {}
    run = _DagEngineCore.run

    def traced(self, steps):
        starts.setdefault(id(self), []).append(self.step_index)
        return run(self, steps)

    def refuse(self, *args, **kwargs):
        raise AssertionError("a faulted lane went back to a snapshot")

    with mock.patch.object(_DagEngineCore, "run", traced), \
            mock.patch.object(_DagEngineCore, "snapshot", refuse), \
            mock.patch.object(_DagEngineCore, "restore", refuse):
        docs = execute_batch([_worker_dict(r) for r in raws])
    assert all(seq == sorted(seq) for seq in starts.values())
    assert not any("went back" in doc.get("error", "") for doc in docs)
