"""Adversarial and stochastic traffic generators (the §2 rate-c model).

Per-step adversaries implement :class:`Adversary`; the Theorem 3.1
attack is an *orchestrating* driver (it rewinds the engine between its
two scenarios) and lives in :mod:`repro.adversaries.lower_bound`.
:func:`make_adversary` builds the families the CLI and the
provisioning service name (:data:`ADVERSARY_NAMES`).
"""

from typing import Any, Callable

from ..errors import TopologyError
from .adaptive import (
    BackfillAdversary,
    MaxHeightChaserAdversary,
    PlateauAdversary,
    PressureAdversary,
    SeesawAdversary,
)
from .base import Adversary, NullAdversary, validate_injections
from .composite import AlternatingAdversary, MixtureAdversary
from .deterministic import (
    AmplifiedAdversary,
    FarEndAdversary,
    FixedNodeAdversary,
    PhasedAdversary,
    PreSinkAdversary,
    RoundRobinAdversary,
    ScheduleAdversary,
)
from .lower_bound import (
    AttackReport,
    RecursiveLowerBoundAttack,
    StageReport,
    kept_injection_schedule,
)
from .replay import RecordingAdversary, ReplayAdversary
from .stochastic import (
    HotSpotAdversary,
    OnOffAdversary,
    TokenBucketAdversary,
    UniformRandomAdversary,
)
from .tree_adversaries import (
    HeavyBranchAdversary,
    LeafSweepAdversary,
    SpiderWaveAdversary,
    TreeSeesawAdversary,
)

#: family name -> factory taking the run seed (only ``uniform`` uses it)
_FAMILIES: dict[str, Callable[[int], Adversary]] = {
    "far-end": lambda seed: FarEndAdversary(),
    "pre-sink": lambda seed: PreSinkAdversary(),
    "seesaw": lambda seed: SeesawAdversary(),
    "pressure": lambda seed: PressureAdversary(),
    "uniform": lambda seed: UniformRandomAdversary(seed=seed),
    "round-robin": lambda seed: RoundRobinAdversary(),
    "max-chaser": lambda seed: MaxHeightChaserAdversary(),
}

#: the adversary families :func:`make_adversary` builds by name
ADVERSARY_NAMES = tuple(_FAMILIES)


def make_adversary(name: str, seed: int = 0) -> Adversary:
    """A fresh adversary of the named family (see :data:`ADVERSARY_NAMES`)."""
    return _FAMILIES[name](seed)


def _refusal(name: str, topology: Any) -> TopologyError | None:
    try:
        make_adversary(name).reset(topology, 1)
    except TopologyError as err:
        return err
    return None


def check_adversary(name: str, topology: Any) -> None:
    """Raise :class:`TopologyError` if family ``name`` cannot run on
    ``topology`` (an in-tree or a DAG).

    The family decides: it runs wherever its own ``reset`` accepts the
    topology.  The message names the families that do run there.
    """
    err = _refusal(name, topology)
    if err is not None:
        fits = [a for a in ADVERSARY_NAMES if _refusal(a, topology) is None]
        raise TopologyError(
            f"adversary {name!r} cannot run on this topology ({err}); "
            f"these can: {', '.join(fits)}"
        ) from err


__all__ = [
    "ADVERSARY_NAMES",
    "make_adversary",
    "check_adversary",
    "Adversary",
    "NullAdversary",
    "validate_injections",
    "MixtureAdversary",
    "AlternatingAdversary",
    "AmplifiedAdversary",
    "FarEndAdversary",
    "FixedNodeAdversary",
    "PhasedAdversary",
    "PreSinkAdversary",
    "RoundRobinAdversary",
    "ScheduleAdversary",
    "UniformRandomAdversary",
    "HotSpotAdversary",
    "OnOffAdversary",
    "TokenBucketAdversary",
    "SeesawAdversary",
    "PressureAdversary",
    "PlateauAdversary",
    "MaxHeightChaserAdversary",
    "BackfillAdversary",
    "AttackReport",
    "RecursiveLowerBoundAttack",
    "StageReport",
    "kept_injection_schedule",
    "RecordingAdversary",
    "ReplayAdversary",
    "LeafSweepAdversary",
    "HeavyBranchAdversary",
    "SpiderWaveAdversary",
    "TreeSeesawAdversary",
]
