"""Discrete-step adversarial-queuing substrate (the §2 model).

Topologies, packets, buffers, the reference packet-tracking
:class:`Simulator`, one vectorised height kernel that runs as
:class:`PathEngine`, :class:`TreeEngine` and :class:`DagEngine` (with
the :class:`DagLoopEngine` reference and the cross-run
:class:`FleetEngine`), metric collection, trace recording and
after-the-fact trace auditing.
"""

from .buffers import Buffer, Discipline, Overflow
from .dag import (
    DagTopology,
    diamond_grid,
    from_tree,
    layered_dag,
    tree_with_shortcuts,
)
from .dag_engine import DagEngine, DagLoopEngine, DagPolicy
from .engine_base import (
    ENGINE_KINDS,
    SimulationEngine,
    SteppableEngine,
    resolve_engine,
)
from .engine_fast import DecisionTiming, PathEngine, UndirectedPathEngine
from .events import StepRecord, TraceRecorder
from .faults import (
    NO_FAULTS,
    FaultEvent,
    FaultInjector,
    FaultKind,
    FaultPlan,
    RandomFaults,
    StepFaults,
    run_with_recovery,
)
from .metrics import (
    DelayRecorder,
    LossLedger,
    MaxHeightTracker,
    MetricsBundle,
    SeriesRecorder,
)
from .packet import Packet
from .fleet_engine import FleetEngine
from .simulator import RunResult, Simulator
from .tree_engine import TreeEngine
from .topology import (
    SINK_SUCC,
    Topology,
    balanced_tree,
    broom,
    caterpillar,
    from_networkx,
    from_parent_array,
    path,
    random_tree,
    spider,
    star_of_paths,
)
from .validation import check_step_record, check_trace

__all__ = [
    "Buffer",
    "Discipline",
    "Overflow",
    "DagTopology",
    "DagEngine",
    "DagLoopEngine",
    "DagPolicy",
    "ENGINE_KINDS",
    "SimulationEngine",
    "SteppableEngine",
    "resolve_engine",
    "diamond_grid",
    "from_tree",
    "layered_dag",
    "tree_with_shortcuts",
    "DecisionTiming",
    "PathEngine",
    "UndirectedPathEngine",
    "StepRecord",
    "TraceRecorder",
    "FaultKind",
    "FaultEvent",
    "RandomFaults",
    "FaultPlan",
    "StepFaults",
    "NO_FAULTS",
    "FaultInjector",
    "run_with_recovery",
    "DelayRecorder",
    "LossLedger",
    "MaxHeightTracker",
    "MetricsBundle",
    "SeriesRecorder",
    "Packet",
    "RunResult",
    "Simulator",
    "TreeEngine",
    "FleetEngine",
    "SINK_SUCC",
    "Topology",
    "balanced_tree",
    "broom",
    "caterpillar",
    "from_networkx",
    "from_parent_array",
    "path",
    "random_tree",
    "spider",
    "star_of_paths",
    "check_step_record",
    "check_trace",
]
