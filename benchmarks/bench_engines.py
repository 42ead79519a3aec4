"""Micro-benchmarks of the simulation substrate itself.

These measure raw throughput (steps/second) of the hot paths that every
experiment rides on: the height kernel's path, tree and DAG engines
(whose dense loop and settle step also carry FleetEngine's vectorised
lanes, timed by ``repro.runner.perf.fleet_throughput``), the
packet-tracking simulator, the tree policy evaluation, the certifier
overhead and the recursive attack.  They exist so performance regressions in the
substrate are visible independently of the experiment-level timings.

The engine benches run seeded random traffic (the perf record's
``_random_traffic``, built outside the timed region), which never
repeats: on a repeating workload such as a far-end stream the kernel's
steady-state fast-forward skips the laps it has already seen, and a
bench would time the cycle detector instead of the simulated steps.
"""

from __future__ import annotations

from repro.adversaries import (
    RecursiveLowerBoundAttack,
    SeesawAdversary,
    UniformRandomAdversary,
)
from repro.core.certificate import OddEvenCertifier
from repro.core.tree_certificate import certify_tree_run
from repro.network.engine_fast import PathEngine
from repro.network.events import TraceRecorder
from repro.network.simulator import Simulator
from repro.network.topology import (
    balanced_tree,
    caterpillar,
    path,
    random_tree,
    spider,
)
from repro.network.tree_engine import TreeEngine
from repro.policies import GreedyPolicy, OddEvenPolicy, TreeOddEvenPolicy
from repro.runner.perf import _random_traffic


# a script re-arms on reset, so one instance serves every round
_PATH_4096 = _random_traffic(path(4096), 2000, seed=0)
_PATH_512 = _random_traffic(path(512), 2000, seed=0)


def test_bench_fast_engine_4096_nodes(benchmark):
    """Vectorised Odd-Even steps on a 4096-node path."""

    def run():
        engine = PathEngine(4096, OddEvenPolicy(), _PATH_4096)
        engine.run(2000)
        return engine.max_height

    assert benchmark(run) >= 1


def test_bench_fast_engine_batched_run(benchmark):
    """run() through the batched fast path (a published schedule):
    injections precomputed, no per-step python dispatch."""

    def run():
        engine = PathEngine(4096, OddEvenPolicy(), _PATH_4096)
        engine.run(2000)
        return engine.metrics.injected

    assert benchmark(run) == 2000


def test_bench_fast_engine_per_step_baseline(benchmark):
    """The same workload stepped round by round — the baseline the
    batched path is compared against in BENCH records."""

    def run():
        engine = PathEngine(4096, OddEvenPolicy(), _PATH_4096)
        for _ in range(2000):
            engine.step()
        return engine.metrics.injected

    assert benchmark(run) == 2000


def test_bench_push_back_cascade(benchmark):
    """Finite buffers with push-back refusals on a path under random
    traffic: the settle step finds the refusals, then resolve_push_back
    sweeps right to left."""

    def run():
        engine = PathEngine(512, GreedyPolicy(), _PATH_512,
                            buffer_capacity=2, overflow="push-back")
        engine.run(2000)
        return engine.metrics.injected

    assert benchmark(run) > 0


def test_bench_packet_simulator_256_nodes(benchmark):
    """Reference packet simulator on a 256-node path."""

    def run():
        sim = Simulator(path(256), GreedyPolicy(), SeesawAdversary(),
                        validate=False)
        sim.run(600)
        return sim.max_height

    assert benchmark(run) >= 1


def test_bench_tree_policy_binary_depth8(benchmark):
    """Algorithm 5 evaluation on a 511-node binary tree."""
    topo = balanced_tree(2, 8)

    def run():
        sim = Simulator(topo, TreeOddEvenPolicy(),
                        UniformRandomAdversary(seed=1), validate=False)
        sim.run(300)
        return sim.max_height

    assert benchmark(run) >= 1


# ---------------------------------------------------------------------
# TreeEngine vs Simulator pairs: same topology, policy, adversary and
# step budget, so the ratio of the two timings is the tree-engine
# speedup the acceptance criteria and docs/performance.md quote.

_BINARY_2047 = balanced_tree(2, 10)          # n = 2047 >= 2**10
_CATERPILLAR_1026 = caterpillar(512, 2)      # long spine + legs
_RANDOM_2048 = random_tree(2048, seed=5)     # random recursive tree
_BINARY_TRAFFIC = _random_traffic(_BINARY_2047, 2000, seed=0)
_CATERPILLAR_TRAFFIC = _random_traffic(_CATERPILLAR_1026, 2000, seed=0)
_RANDOM_TRAFFIC = _random_traffic(_RANDOM_2048, 2000, seed=0)


def test_bench_tree_engine_binary_2047(benchmark):
    """TreeEngine on a 2047-node balanced binary tree, random traffic
    (the acceptance workload: >= 5x the Simulator pair below)."""

    def run():
        engine = TreeEngine(_BINARY_2047, TreeOddEvenPolicy(),
                            _BINARY_TRAFFIC)
        engine.run(2000)
        return engine.metrics.delivered

    assert benchmark(run) > 0


def test_bench_simulator_binary_2047(benchmark):
    """The packet Simulator on the same binary-tree workload."""

    def run():
        sim = Simulator(_BINARY_2047, TreeOddEvenPolicy(),
                        _BINARY_TRAFFIC, validate=False)
        sim.run(2000)
        return sim.metrics.delivered

    assert benchmark(run) > 0


def test_bench_tree_engine_caterpillar(benchmark):
    """TreeEngine on a 1026-node caterpillar, random traffic."""

    def run():
        engine = TreeEngine(_CATERPILLAR_1026, TreeOddEvenPolicy(),
                            _CATERPILLAR_TRAFFIC)
        engine.run(2000)
        return engine.metrics.delivered

    assert benchmark(run) > 0


def test_bench_simulator_caterpillar(benchmark):
    """The packet Simulator on the same caterpillar workload."""

    def run():
        sim = Simulator(_CATERPILLAR_1026, TreeOddEvenPolicy(),
                        _CATERPILLAR_TRAFFIC, validate=False)
        sim.run(2000)
        return sim.metrics.delivered

    assert benchmark(run) > 0


def test_bench_tree_engine_random_2048(benchmark):
    """TreeEngine on a 2048-node random recursive tree."""

    def run():
        engine = TreeEngine(_RANDOM_2048, TreeOddEvenPolicy(),
                            _RANDOM_TRAFFIC)
        engine.run(2000)
        return engine.metrics.delivered

    assert benchmark(run) > 0


def test_bench_simulator_random_2048(benchmark):
    """The packet Simulator on the same random-tree workload."""

    def run():
        sim = Simulator(_RANDOM_2048, TreeOddEvenPolicy(),
                        _RANDOM_TRAFFIC, validate=False)
        sim.run(2000)
        return sim.metrics.delivered

    assert benchmark(run) > 0


def test_bench_tree_engine_push_back(benchmark):
    """TreeEngine finite buffers with cascading push-back refusals
    (the settle step, then resolve_push_back over the (depth, id)
    order)."""

    def run():
        engine = TreeEngine(_CATERPILLAR_1026, GreedyPolicy(),
                            _CATERPILLAR_TRAFFIC, buffer_capacity=2,
                            overflow="push-back")
        engine.run(2000)
        return engine.metrics.injected

    assert benchmark(run) > 0


def test_bench_certifier_overhead(benchmark):
    """Full attachment-scheme maintenance + validation per round."""

    def run():
        engine = PathEngine(64, OddEvenPolicy(),
                            UniformRandomAdversary(seed=2))
        cert = OddEvenCertifier(63)
        for _ in range(400):
            engine.step()
            cert.observe(engine.heights[:-1])
        return cert.report.rounds

    assert benchmark(run) == 400


def test_bench_tree_certifier(benchmark):
    """Tree certifier (Algorithm 6 + even-residue scheme) on a spider."""
    topo = spider(4, 6)

    def run():
        rep = certify_tree_run(topo, UniformRandomAdversary(seed=3), 250,
                               validate_every=5)
        return rep.rounds

    assert benchmark(run) == 250


def test_bench_recursive_attack_2048(benchmark):
    """The Theorem 3.1 attack (with rollbacks) on a 2048-node path."""

    def run():
        engine = PathEngine(2048, OddEvenPolicy(), None)
        return RecursiveLowerBoundAttack(ell=1).run(engine).forced_height

    assert benchmark(run) >= 5


def test_bench_trace_recording_overhead(benchmark):
    """Engine with full trace recording enabled."""

    def run():
        trace = TraceRecorder()
        engine = PathEngine(512, OddEvenPolicy(), _PATH_512,
                            trace=trace)
        engine.run(500)
        return len(trace)

    assert benchmark(run) == 500


def test_bench_dag_engine_layered(benchmark):
    """Vectorised DAG engine on a 129-node layered DAG."""
    from repro.network.dag import layered_dag
    from repro.network.dag_engine import DagEngine
    from repro.policies.dag import DagOddEvenPolicy

    dag = layered_dag(16, 8, 2, seed=1)

    def run():
        engine = DagEngine(dag, DagOddEvenPolicy(),
                           UniformRandomAdversary(seed=2))
        engine.run(400)
        return engine.metrics.delivered

    assert benchmark(run) > 0


# ---------------------------------------------------------------------
# DagEngine vs DagLoopEngine pair: same layered DAG as the BENCH dag
# block (n = 1025 >= 2**10), so the ratio of the two timings is the
# DAG-engine speedup the acceptance criteria and docs/performance.md
# quote.


def _layered_1025():
    from repro.network.dag import layered_dag

    return layered_dag(128, 8, 2, seed=1)


_LAYERED_1025 = _layered_1025()
_LAYERED_TRAFFIC = _random_traffic(_LAYERED_1025, 400, seed=0)


def test_bench_dag_engine_layered_1025(benchmark):
    """Vectorised DagEngine on the 1025-node layered DAG, random
    traffic (the acceptance workload: >= 5x the loop pair below)."""
    from repro.network.dag_engine import DagEngine
    from repro.policies.dag import DagOddEvenPolicy

    def run():
        engine = DagEngine(_LAYERED_1025, DagOddEvenPolicy(),
                           _LAYERED_TRAFFIC)
        engine.run(400)
        return engine.metrics.delivered

    assert benchmark(run) > 0


def test_bench_dag_loop_engine_layered_1025(benchmark):
    """The per-node loop reference on the same layered-DAG workload."""
    from repro.network.dag_engine import DagLoopEngine
    from repro.policies.dag import DagOddEvenPolicy

    def run():
        engine = DagLoopEngine(_LAYERED_1025, DagOddEvenPolicy(),
                               _LAYERED_TRAFFIC)
        engine.run(400)
        return engine.metrics.delivered

    assert benchmark(run) > 0


def test_bench_dag_engine_push_back(benchmark):
    """DagEngine finite buffers with cascading push-back refusals
    (the settle step, then resolve_push_back over the heap-Kahn
    receiver-first order)."""
    from repro.network.dag_engine import DagEngine
    from repro.policies.dag import DagGreedyPolicy

    def run():
        engine = DagEngine(_LAYERED_1025, DagGreedyPolicy(),
                           _LAYERED_TRAFFIC, buffer_capacity=2,
                           overflow="push-back")
        engine.run(400)
        return engine.metrics.injected

    assert benchmark(run) > 0


def test_bench_sweep_grid_small(benchmark):
    """A 2x2x3 sweep grid (the custom-study workhorse)."""
    from repro.analysis import SweepGrid
    from repro.adversaries import FarEndAdversary
    from repro.policies import GreedyPolicy

    def run():
        grid = SweepGrid(
            policies=[OddEvenPolicy, GreedyPolicy],
            adversaries=[FarEndAdversary, SeesawAdversary],
            ns=[32, 64, 128],
            steps_factor=8,
        )
        return len(grid.run().records)

    assert benchmark(run) == 12
