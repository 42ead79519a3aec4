"""Shard worker bodies for the provisioning service.

:func:`execute_batch` is the one code path that computes a provision
answer: it answers a coalesced batch with **one**
:class:`~repro.network.fleet_engine.FleetEngine` call that holds every
lane — scheduled or adaptive adversary, with or without a fault plan —
and returns one response per lane, in order.  :func:`execute_query`,
the module-level (picklable) entry point for one query, answers a
provision query as a one-lane batch and runs experiment queries
itself.  Neither raises for in-simulation failures — those come back
as an ``{"error": ...}`` payload so the front end can distinguish
"this query is bad" (no retry, don't charge the shard's breaker) from
"this shard died/hung" (retry elsewhere, charge the breaker).  A batch
adds one more distinction: a single *poisoned lane* yields an
``error`` payload **for that lane alone** — its batchmates still get
real answers (when the shared fleet fails, every lane re-runs as its
own one-lane batch).  Crashes and hangs, of course, don't return at
all — that's the failure surface the pool's deadlines, breakers, and
healing exist for, and exactly what the chaos stubs
(:mod:`repro.runner.chaos`) inject when routed through the
``"experiment"`` query kind.

:func:`warm_worker` is the warm-up body ``ShardPool.warm_up()`` runs
in every freshly spawned worker: it pre-imports numpy and the engine
stack and spins a throwaway 2-run fleet, so the first real batch
never pays the import/allocation latency spike inside its deadline.
"""

from __future__ import annotations

import os
import time
from typing import Any

from .protocol import RESPONSE_SCHEMA, ProvisionQuery, analytic_bound

__all__ = ["execute_query", "execute_batch", "warm_worker"]


def _ensure_chaos_registered(experiment_id: str) -> None:
    """Self-install the chaos stubs in this worker process when opted in.

    The parent registers them via :func:`repro.runner.chaos.install`,
    but a spawned (rather than forked) worker would not inherit the
    in-memory registry — the environment variable is the cross-process
    opt-in either way.
    """
    from ..runner import chaos

    if (
        experiment_id in {cls.id for cls in chaos.CHAOS_EXPERIMENTS}
        and os.environ.get(chaos.ENV_CHAOS_DIR)
        and experiment_id not in chaos.EXPERIMENTS
    ):
        chaos.install(os.environ[chaos.ENV_CHAOS_DIR])


def _run_experiment(query: ProvisionQuery) -> dict[str, Any]:
    from ..experiments import get_experiment

    assert query.experiment is not None
    _ensure_chaos_registered(query.experiment)
    result = get_experiment(query.experiment).run(query.preset)
    return {
        "schema": RESPONSE_SCHEMA,
        "kind": "experiment",
        "query": query.canonical(),
        "cache_key": query.cache_key(),
        "experiment": query.experiment,
        "preset": query.preset,
        "passed": bool(result.passed),
        "headers": result.headers,
        "rows": result.rows,
        "degraded": False,
    }


def _parse_worker_dict(worker_dict: dict[str, Any]) -> ProvisionQuery:
    """Re-validate a worker dict into a query (None means 'omitted')."""
    return ProvisionQuery.from_dict(
        {
            k: v
            for k, v in worker_dict.items()
            if v is not None or k in ("steps", "buffer_capacity")
        }
    )


def execute_query(worker_dict: dict[str, Any]) -> dict[str, Any]:
    """Run one validated query to completion inside a shard process.

    A provision query is a one-lane batch (:func:`execute_batch`); an
    experiment query runs the registry experiment.  Returns either a
    response document or ``{"error": message}``; deterministic
    failures never raise across the process boundary.
    """
    if worker_dict.get("kind") != "experiment":
        return execute_batch([worker_dict])[0]
    t0 = time.perf_counter()
    try:
        response = _run_experiment(_parse_worker_dict(worker_dict))
    except (KeyboardInterrupt, SystemExit):
        raise
    except BaseException as err:
        return {"error": f"{type(err).__name__}: {err}"}
    response["compute_s"] = round(time.perf_counter() - t0, 4)
    return response


def _lane_response(
    query: ProvisionQuery, steps: int, result: Any
) -> dict[str, Any]:
    """One lane's response document (``compute_s`` is added by
    :func:`execute_batch` — wall-clock is not part of the answer)."""
    return {
        "schema": RESPONSE_SCHEMA,
        "kind": "provision",
        "query": query.canonical(),
        "cache_key": query.cache_key(),
        "n": query.n,
        "steps": steps,
        # the provisioning answer: buffers of this size lose nothing
        "max_height": int(result.max_height),
        "argmax_node": int(result.argmax_node),
        "bound": analytic_bound(query),
        # ...and what a smaller buffer / faulty network actually lost
        "injected": int(result.injected),
        "delivered": int(result.delivered),
        "in_flight": int(result.in_flight),
        "dropped": int(result.dropped),
        "drops_by_cause": {
            str(c): int(k)
            for c, k in sorted(result.drops_by_cause.items())
        },
        "degraded": False,
    }


def _run_fleet_lanes(
    queries: list[ProvisionQuery],
) -> list[dict[str, Any]]:
    """Answer provision queries with one FleetEngine call.

    Every query must share the batch key's facts (topology, policy,
    decision timing, overflow, buffer capacity); per-lane adversaries,
    steps, seeds and fault plans are heterogeneous and served through
    :meth:`~repro.network.fleet_engine.FleetEngine.run_horizons`.
    """
    from ..adversaries import make_adversary
    from ..analysis.occupancy import default_step_budget
    from ..network.faults import FaultPlan
    from ..network.fleet_engine import FleetEngine
    from ..policies import make_policy
    from .protocol import ServiceError, _tree

    head = queries[0]
    if any(q.batch_key() != head.batch_key() for q in queries):
        raise ServiceError(
            "batch mixes incompatible lanes (batch keys disagree)"
        )
    horizons = [
        default_step_budget(q.n) if q.steps is None else q.steps
        for q in queries
    ]
    adversaries = [make_adversary(q.adversary, q.seed) for q in queries]
    faults = [
        FaultPlan.from_dict(q.faults) if q.faults else None
        for q in queries
    ]
    fleet = FleetEngine(
        _tree(head.topology),
        make_policy(head.policy),
        adversaries,
        decision_timing=head.decision_timing,  # type: ignore[arg-type]
        buffer_capacity=head.buffer_capacity,
        overflow=head.overflow,
        faults=faults,
    )
    results = fleet.run_horizons(horizons)
    return [
        _lane_response(q, steps, res)
        for q, steps, res in zip(queries, horizons, results)
    ]


def _answer_lanes(queries: list[ProvisionQuery]) -> list[dict[str, Any]]:
    """One fleet for every lane; if it fails, each lane alone, so a
    poisoned lane's error is charged to that lane only."""
    try:
        return _run_fleet_lanes(queries)
    except (KeyboardInterrupt, SystemExit):
        raise
    except BaseException as err:
        if len(queries) == 1:
            return [{"error": f"{type(err).__name__}: {err}"}]
    return [_answer_lanes([q])[0] for q in queries]


def execute_batch(
    worker_dicts: list[dict[str, Any]],
) -> list[dict[str, Any]]:
    """Run one coalesced batch inside a shard process.

    Returns exactly one response document (or ``{"error": message}``)
    per input lane, in order.  Failure isolation: a lane that cannot
    even be parsed errors alone; an experiment lane runs on its own;
    if the shared fleet construction or run fails, every lane is
    re-run as its own one-lane batch, so a poisoned lane's error is
    charged to that lane only and its batchmates still get real,
    bit-identical answers.
    """
    t0 = time.perf_counter()
    out: list[dict[str, Any] | None] = [None] * len(worker_dicts)
    lanes: list[tuple[int, ProvisionQuery]] = []
    for i, wd in enumerate(worker_dicts):
        try:
            query = _parse_worker_dict(wd)
        except (KeyboardInterrupt, SystemExit):
            raise
        except BaseException as err:
            out[i] = {"error": f"{type(err).__name__}: {err}"}
            continue
        if query.kind == "provision":
            lanes.append((i, query))
        else:
            out[i] = execute_query(wd)
    if lanes:
        responses = _answer_lanes([q for _, q in lanes])
        for (i, _), response in zip(lanes, responses):
            out[i] = response
    compute_s = round(time.perf_counter() - t0, 4)
    done: list[dict[str, Any]] = []
    for response in out:
        assert response is not None  # every index settled above
        response.setdefault("compute_s", compute_s)
        done.append(response)
    return done


def warm_worker() -> int:
    """Pre-pay the import/JIT cost in a fresh shard worker.

    Imports numpy and the engine stack and advances a throwaway 2-run
    fleet a few steps (two runs, so the vectorised kernel warms too),
    so the first batch a worker serves starts hot.  Returns the
    worker's PID (handy for tests asserting the warm-up actually ran
    in the worker process).
    """
    from ..adversaries import FarEndAdversary
    from ..network.fleet_engine import FleetEngine
    from ..policies import OddEvenPolicy

    fleet = FleetEngine(
        8, OddEvenPolicy(), [FarEndAdversary(), FarEndAdversary()]
    )
    fleet.run_horizons([4, 4])
    return os.getpid()
