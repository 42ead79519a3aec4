"""Occupancy summaries and worst-case sweeps.

The canonical measurement of every experiment: run a (policy,
adversary) pair on a path of ``n`` nodes for a step budget and report
the maximum height; run a whole *suite* of adversaries and keep the
worst — the empirical analogue of the paper's "for any input stream".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from ..adversaries.base import Adversary
from ..network.engine_fast import PathEngine
from ..policies.base import ForwardingPolicy

__all__ = ["OccupancyResult", "measure_path", "measure_tree",
           "worst_case_over_suite", "default_step_budget",
           "profile_snapshot"]


@dataclass(frozen=True)
class OccupancyResult:
    """Max-height measurement for one (policy, adversary, n) triple."""

    policy: str
    adversary: str
    n: int
    steps: int
    max_height: int
    argmax_node: int
    argmax_step: int
    injected: int
    delivered: int


def default_step_budget(n: int, multiplier: int = 16) -> int:
    """A step budget that lets worst cases develop: the linear
    baselines need Θ(n) steps to pile Θ(n) packets, the √n baselines
    Θ(n) as well; ``multiplier``·n covers every family comfortably."""
    return multiplier * n


def measure_path(
    n: int,
    policy: ForwardingPolicy,
    adversary: Adversary,
    steps: int | None = None,
    *,
    capacity: int = 1,
    decision_timing: str = "pre_injection",
) -> OccupancyResult:
    """Run one configuration on the fast path engine and summarise."""
    steps = default_step_budget(n) if steps is None else steps
    engine = PathEngine(
        n,
        policy,
        adversary,
        capacity=capacity,
        decision_timing=decision_timing,
    )
    engine.run(steps)
    t = engine.metrics.tracker
    return OccupancyResult(
        policy=policy.name,
        adversary=adversary.name,
        n=n,
        steps=steps,
        max_height=t.max_height,
        argmax_node=t.argmax_node,
        argmax_step=t.argmax_step,
        injected=engine.metrics.injected,
        delivered=engine.metrics.delivered,
    )


def measure_tree(
    topology,
    policy: ForwardingPolicy,
    adversary: Adversary,
    steps: int | None = None,
    *,
    decision_timing: str = "pre_injection",
) -> OccupancyResult:
    """Tree counterpart of :func:`measure_path` (packet simulator)."""
    from ..network.simulator import Simulator

    steps = default_step_budget(topology.n) if steps is None else steps
    sim = Simulator(
        topology,
        policy,
        adversary,
        decision_timing=decision_timing,
        validate=False,
    )
    sim.run(steps)
    t = sim.metrics.tracker
    return OccupancyResult(
        policy=policy.name,
        adversary=adversary.name,
        n=topology.n,
        steps=steps,
        max_height=t.max_height,
        argmax_node=t.argmax_node,
        argmax_step=t.argmax_step,
        injected=sim.metrics.injected,
        delivered=sim.metrics.delivered,
    )


def worst_case_over_suite(
    n: int,
    policy_factory: Callable[[], ForwardingPolicy],
    adversaries: Sequence[Adversary],
    steps: int | None = None,
    *,
    decision_timing: str = "pre_injection",
) -> OccupancyResult:
    """Max-height over a suite of adversaries (fresh policy per run).

    Returns the single worst :class:`OccupancyResult` — the empirical
    lower envelope of the policy's worst-case buffer requirement.

    The whole suite advances in lockstep on one
    :class:`~repro.network.fleet_engine.FleetEngine` (one ``(n, runs)``
    matrix, one set of numpy ops per step); adaptive adversaries fall
    back to dedicated per-run engines inside the fleet, so results are
    bit-identical to measuring each adversary alone — first-listed
    adversary still wins height ties.
    """
    from ..network.fleet_engine import FleetEngine

    if not adversaries:
        raise ValueError("need at least one adversary")
    steps = default_step_budget(n) if steps is None else steps
    policy = policy_factory()
    fleet = FleetEngine(
        n, policy, list(adversaries), decision_timing=decision_timing
    )
    fleet.run(steps)
    best: OccupancyResult | None = None
    for r, adv in enumerate(adversaries):
        rr = fleet.result(r)
        res = OccupancyResult(
            policy=policy.name,
            adversary=adv.name,
            n=n,
            steps=steps,
            max_height=rr.max_height,
            argmax_node=rr.argmax_node,
            argmax_step=rr.argmax_step,
            injected=rr.injected,
            delivered=rr.delivered,
        )
        if best is None or res.max_height > best.max_height:
            best = res
    assert best is not None
    return best


def profile_snapshot(engine: PathEngine) -> np.ndarray:
    """Current height profile by position (copy, sink included)."""
    return engine.heights.copy()
