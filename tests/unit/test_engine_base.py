"""The unified engine contract: every engine satisfies the Protocols.

``repro.network.engine_base`` is the one interface the service shard
pool, the recovery driver, and the CLI dispatch over; these tests pin
that every concrete engine actually satisfies it (so a drive-by rename
of ``checkpoint`` or ``assert_conservation`` on one engine breaks here,
not in production), and that :func:`resolve_engine` maps the CLI
``--engine`` vocabulary onto the right classes.
"""

from __future__ import annotations

import pytest

from repro.adversaries import FarEndAdversary
from repro.errors import SimulationError
from repro.network import (
    ENGINE_KINDS,
    DagEngine,
    DagLoopEngine,
    FleetEngine,
    PathEngine,
    SimulationEngine,
    Simulator,
    SteppableEngine,
    TreeEngine,
    resolve_engine,
)
from repro.network.dag import layered_dag
from repro.network.topology import balanced_tree
from repro.policies import OddEvenPolicy, TreeOddEvenPolicy
from repro.policies.dag import DagOddEvenPolicy


def _steppables():
    tree = balanced_tree(2, 3)
    dag = layered_dag(3, 2, seed=0)
    return [
        Simulator(tree, TreeOddEvenPolicy(), FarEndAdversary()),
        PathEngine(8, OddEvenPolicy(), FarEndAdversary()),
        TreeEngine(tree, TreeOddEvenPolicy(), FarEndAdversary()),
        DagEngine(dag, DagOddEvenPolicy(), FarEndAdversary()),
        DagLoopEngine(dag, DagOddEvenPolicy(), FarEndAdversary()),
    ]


def test_all_engines_satisfy_the_base_contract():
    fleet = FleetEngine(
        8, OddEvenPolicy(), [FarEndAdversary() for _ in range(4)]
    )
    for engine in [*_steppables(), fleet]:
        assert isinstance(engine, SimulationEngine), type(engine).__name__


def test_single_run_engines_are_steppable():
    for engine in _steppables():
        assert isinstance(engine, SteppableEngine), type(engine).__name__


def test_fleet_engine_is_not_steppable():
    """FleetEngine advances all lanes at once via run(); it offers no
    per-step interface and must only satisfy the base facet."""
    fleet = FleetEngine(
        8, OddEvenPolicy(), [FarEndAdversary() for _ in range(4)]
    )
    assert not isinstance(fleet, SteppableEngine)


def test_contract_survives_a_run():
    """The contract's methods compose: run, checkpoint, restore,
    invariant checks — on every steppable engine through the same
    calls the shard pool and recovery driver make."""
    for engine in _steppables():
        engine.run(12)
        engine.assert_conservation()
        engine.assert_capacity()
        cp = engine.snapshot()
        engine.run(5)
        engine.restore(cp)
        assert engine.step_index == 12


def test_resolve_engine_mapping():
    assert ENGINE_KINDS == ("path", "tree", "dag")
    assert resolve_engine("path") is PathEngine
    assert resolve_engine("tree") is TreeEngine
    assert resolve_engine("dag") is DagEngine


def test_resolve_engine_rejects_unknown_kind():
    with pytest.raises(SimulationError, match="unknown engine"):
        resolve_engine("mesh")
