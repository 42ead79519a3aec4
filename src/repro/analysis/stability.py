"""Stability detection in the adversarial-queuing sense.

A policy is *stable* for a network if buffer sizes stay bounded by a
constant independent of the input stream length ([11], §1.1).  We
detect (in)stability empirically: run with a doubling horizon and check
whether the running maximum keeps growing.  Local FIE is the canonical
unstable example ([21], experiment E1): its far-end buffer grows ≈ t/2
forever.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

from ..adversaries.base import Adversary
from ..policies.base import ForwardingPolicy

__all__ = ["StabilityVerdict", "probe_stability", "probe_stability_suite"]


@dataclass(frozen=True)
class StabilityVerdict:
    """Outcome of a doubling-horizon stability probe."""

    stable: bool
    horizons: tuple[int, ...]
    max_heights: tuple[int, ...]
    growth_rate: float  # packets of extra height per extra step, tail

    @property
    def final_max(self) -> int:
        return self.max_heights[-1]


def probe_stability(
    n: int,
    policy: ForwardingPolicy,
    adversary: Adversary,
    *,
    base_horizon: int | None = None,
    doublings: int = 4,
    tolerance: int = 1,
) -> StabilityVerdict:
    """Run with doubling horizons; unstable iff the max keeps climbing.

    ``tolerance`` allows the running maximum to creep by that many
    packets per doubling without being flagged (slow convergence to a
    bounded worst case looks like tiny residual growth).  A one-run
    :func:`probe_stability_suite`: a fleet of one run steps on its own
    PathEngine (with a copy of ``policy``).
    """
    return probe_stability_suite(
        n, lambda: policy, [adversary], base_horizon=base_horizon,
        doublings=doublings, tolerance=tolerance,
    )[0]


def probe_stability_suite(
    n: int,
    policy_factory: Callable[[], ForwardingPolicy],
    adversaries: Sequence[Adversary],
    *,
    base_horizon: int | None = None,
    doublings: int = 4,
    tolerance: int = 1,
) -> list[StabilityVerdict]:
    """One doubling-horizon probe per adversary, advanced as a fleet.

    Equivalent to calling :func:`probe_stability` once per adversary
    with a fresh ``policy_factory()`` policy, but the whole suite runs
    in lockstep on a single
    :class:`~repro.network.fleet_engine.FleetEngine` — the per-run
    maxima are read off the fleet's metric vectors after each doubling,
    so a k-adversary probe costs one engine, not k.  Verdicts are
    returned in adversary order.
    """
    from ..network.fleet_engine import FleetEngine

    if doublings < 2:
        raise ValueError("need at least 2 doublings to compare")
    base = 4 * n if base_horizon is None else base_horizon
    fleet = FleetEngine(n, policy_factory(), list(adversaries))
    horizons: list[int] = []
    maxima: list[tuple[int, ...]] = []  # per doubling: per-run maxima
    total = 0
    for d in range(doublings):
        target = base * (2**d)
        fleet.run(target - total)
        total = target
        horizons.append(total)
        maxima.append(tuple(int(m) for m in fleet.max_heights))

    steps_delta = horizons[-1] - horizons[-2]
    verdicts: list[StabilityVerdict] = []
    for r in range(len(adversaries)):
        per_run = tuple(m[r] for m in maxima)
        last_growth = per_run[-1] - per_run[-2]
        verdicts.append(
            StabilityVerdict(
                stable=last_growth <= tolerance,
                horizons=tuple(horizons),
                max_heights=per_run,
                growth_rate=(
                    last_growth / steps_delta if steps_delta else 0.0
                ),
            )
        )
    return verdicts
