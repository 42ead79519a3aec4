"""Perf telemetry: engine throughput and ``BENCH_<label>.json`` records.

The ROADMAP's north star is a system that runs as fast as the hardware
allows — which is only meaningful if every change leaves a comparable
perf data point.  A *bench record* is one such point: engine
steps/second (per-step vs batched fast path), per-experiment wall-clock
from a sweep's :class:`~repro.runner.runner.RunManifest`, the preset,
and the git revision that produced it.  ``tools/perf_report.py``
records and compares them; ``repro run ... --bench LABEL`` emits one
from any CLI sweep; CI uploads ``BENCH_quick.json`` on every PR.

Format (``benchmarks/README.md`` documents it for humans)::

    {
      "format": "repro-bench-v1",
      "label": "quick",
      "created_unix": 1754500000,
      "git_rev": "3f9600f",
      "engine": {"n": ..., "steps": ...,
                 "per_step_sps": ..., "batched_sps": ..., "speedup": ...},
      "tree": {"family": ..., "n": ..., "steps": ...,
               "simulator_sps": ..., "tree_engine_sps": ..., "speedup": ...},
      "dag": {"family": ..., "n": ..., "steps": ...,
              "loop_sps": ..., "dag_sps": ..., "speedup": ...},
      "fleet": {"runs": ..., "n": ..., "steps": ..., "sampled_lanes": ...,
                "per_run_sps": ..., "fleet_sps": ..., "speedup": ...},
      "service": {"queries": ..., "n": ..., "base_steps": ...,
                  "batch_lanes": ..., "batch_occupancy": ...,
                  "solo_qps": ..., "service_qps": ..., "speedup": ...},
      "sweep": {"preset": ..., "jobs": ..., "wall_s": ...,
                "experiments": [{"id": ..., "status": ..., "wall_s": ...}]}
    }
"""

from __future__ import annotations

import json
import subprocess
import time
from pathlib import Path
from typing import Any

from ..errors import SimulationError
from .runner import RunManifest

__all__ = [
    "BENCH_FORMAT",
    "git_rev",
    "engine_throughput",
    "tree_engine_throughput",
    "dag_engine_throughput",
    "fleet_throughput",
    "service_throughput",
    "bench_record",
    "write_bench",
    "load_bench",
]

BENCH_FORMAT = "repro-bench-v1"


def git_rev() -> str:
    """Short git revision of the working tree, or ``"unknown"``."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def engine_throughput(n: int = 256, steps: int = 4000) -> dict[str, Any]:
    """Measure :class:`PathEngine` steps/second, per-step vs batched.

    Runs the same (Odd-Even, far-end) workload twice — once stepping
    round by round, once through the batched ``run()`` fast path — and
    asserts the two trajectories are identical before reporting, so a
    perf record can never be produced by a diverging fast path.
    """
    from ..adversaries import FarEndAdversary
    from ..network.engine_fast import PathEngine
    from ..policies import OddEvenPolicy

    per_step = PathEngine(n, OddEvenPolicy(), FarEndAdversary())
    t0 = time.perf_counter()
    for _ in range(steps):
        per_step.step()
    per_step_s = time.perf_counter() - t0

    batched = PathEngine(n, OddEvenPolicy(), FarEndAdversary())
    t0 = time.perf_counter()
    batched.run(steps)
    batched_s = time.perf_counter() - t0

    if (per_step.heights != batched.heights).any():
        raise SimulationError(
            "batched PathEngine.run() diverged from per-step stepping"
        )
    return {
        "n": n,
        "steps": steps,
        "per_step_sps": round(steps / per_step_s, 1),
        "batched_sps": round(steps / batched_s, 1),
        "speedup": round(per_step_s / batched_s, 3),
    }


def tree_engine_throughput(
    depth: int = 10, steps: int = 2000
) -> dict[str, Any]:
    """Measure TreeEngine vs Simulator steps/second on a balanced
    binary tree of the given depth (n = 2^(depth+1) - 1).

    Both engines run the same (Algorithm 5, far-end) workload; the
    height trajectories are asserted identical before reporting, so a
    perf record can never come from a diverging fast path.
    """
    from ..adversaries import FarEndAdversary
    from ..network.simulator import Simulator
    from ..network.topology import balanced_tree
    from ..network.tree_engine import TreeEngine
    from ..policies import TreeOddEvenPolicy

    topo = balanced_tree(2, depth)
    sim = Simulator(
        topo, TreeOddEvenPolicy(), FarEndAdversary(), validate=False
    )
    t0 = time.perf_counter()
    for _ in range(steps):
        sim.step()
    sim_s = time.perf_counter() - t0

    eng = TreeEngine(topo, TreeOddEvenPolicy(), FarEndAdversary())
    t0 = time.perf_counter()
    eng.run(steps)
    eng_s = time.perf_counter() - t0

    if (sim.heights != eng.heights).any():
        raise SimulationError(
            "TreeEngine diverged from the Simulator reference"
        )
    return {
        "family": f"balanced_tree(2,{depth})",
        "n": topo.n,
        "steps": steps,
        "simulator_sps": round(steps / sim_s, 1),
        "tree_engine_sps": round(steps / eng_s, 1),
        "speedup": round(sim_s / eng_s, 3),
    }


def dag_engine_throughput(
    layers: int = 128, width: int = 8, steps: int = 400
) -> dict[str, Any]:
    """Measure DagEngine vs DagLoopEngine steps/second on a layered
    DAG of ``1 + layers × width`` nodes (the defaults give n = 1025,
    the n ≥ 2¹⁰ regime E17's bounded-behaviour sweeps live in).

    Both engines run the same (DAG Odd-Even, far-end) workload; the
    height trajectories and metric counters are asserted identical
    before reporting, so a perf record can never come from a diverging
    vectorised engine.
    """
    from ..adversaries import FarEndAdversary
    from ..network.dag import layered_dag
    from ..network.dag_engine import DagEngine, DagLoopEngine
    from ..policies.dag import DagOddEvenPolicy

    dag = layered_dag(layers, width, out_degree=2, seed=1)
    loop = DagLoopEngine(dag, DagOddEvenPolicy(), FarEndAdversary())
    t0 = time.perf_counter()
    loop.run(steps)
    loop_s = time.perf_counter() - t0

    eng = DagEngine(dag, DagOddEvenPolicy(), FarEndAdversary())
    t0 = time.perf_counter()
    eng.run(steps)
    eng_s = time.perf_counter() - t0

    if (loop.heights != eng.heights).any() or (
        loop.metrics.delivered != eng.metrics.delivered
    ):
        raise SimulationError(
            "DagEngine diverged from the DagLoopEngine reference"
        )
    return {
        "family": f"layered_dag({layers},{width},k=2)",
        "n": dag.n,
        "steps": steps,
        "loop_sps": round(steps / loop_s, 1),
        "dag_sps": round(steps / eng_s, 1),
        "speedup": round(loop_s / eng_s, 3),
    }


def fleet_throughput(
    runs: int = 256, n: int = 256, steps: int = 1024, sample: int = 8
) -> dict[str, Any]:
    """Measure FleetEngine lane-steps/second against per-run stepping.

    The baseline is the batched :class:`PathEngine` ``run()`` fast path
    on ``sample`` representative lanes of the same sweep (each lane is
    a fixed-node workload at a distinct site), extrapolated to the full
    ``runs``; the fleet then advances all ``runs`` lanes at once.  The
    sampled lanes' trajectories are asserted identical to the fleet's
    corresponding rows before reporting, so a perf record can never be
    produced by a diverging fleet kernel.  Both rates count *lane*
    steps (``runs × steps`` total work) per second.
    """
    from ..adversaries import FixedNodeAdversary
    from ..network.engine_fast import PathEngine
    from ..network.fleet_engine import FleetEngine
    from ..policies import OddEvenPolicy

    sample = min(sample, runs)
    sites = [r % (n - 1) for r in range(runs)]
    sampled = list(range(0, runs, max(1, runs // sample)))[:sample]

    lanes = []
    t0 = time.perf_counter()
    for r in sampled:
        eng = PathEngine(n, OddEvenPolicy(), FixedNodeAdversary(sites[r]))
        eng.run(steps)
        lanes.append(eng)
    per_run_s = (time.perf_counter() - t0) * (runs / len(sampled))

    fleet = FleetEngine(
        n, OddEvenPolicy(), [FixedNodeAdversary(s) for s in sites]
    )
    t0 = time.perf_counter()
    fleet.run(steps)
    fleet_s = time.perf_counter() - t0

    heights = fleet.heights
    for r, eng in zip(sampled, lanes):
        if (heights[r] != eng.heights).any():
            raise SimulationError(
                f"FleetEngine diverged from per-run PathEngine on lane {r}"
            )
    if len(fleet.vectorized_runs) != runs:
        raise SimulationError(
            "fleet_throughput expected every lane vectorised, got "
            f"{len(fleet.vectorized_runs)}/{runs}"
        )
    lane_steps = runs * steps
    return {
        "runs": runs,
        "n": n,
        "steps": steps,
        "sampled_lanes": len(sampled),
        "per_run_sps": round(lane_steps / per_run_s, 1),
        "fleet_sps": round(lane_steps / fleet_s, 1),
        "speedup": round(per_run_s / fleet_s, 3),
    }


def service_throughput(
    queries: int = 256,
    n: int = 64,
    base_steps: int = 400,
    max_lanes: int = 64,
) -> dict[str, Any]:
    """Measure the service's solo vs batched queries/second.

    A uniform cache-missing burst of ``queries`` provisioning queries
    sharing one batch key (far-end adversary, heterogeneous per-lane
    step budgets so every cache key is distinct) is answered twice
    through the real worker bodies: once per-query via
    :func:`~repro.service.worker.execute_query` (a one-run fleet, which
    steps on its dedicated engine), once coalesced into batches of up
    to ``max_lanes`` lanes via :func:`~repro.service.worker.execute_batch`
    (one vectorised FleetEngine call per batch).  Every per-lane
    response is asserted identical to its solo twin (``compute_s``
    aside) before reporting, so a perf record can never be produced by
    a diverging batched path.  Both rates count queries per second.
    """
    from ..service.protocol import ProvisionQuery
    from ..service.worker import execute_batch, execute_query

    dicts = [
        ProvisionQuery.from_dict(
            {
                "topology": f"path:{n}",
                "policy": "odd-even",
                "adversary": "far-end",
                "steps": base_steps + i,
                "seed": i,
            }
        ).to_worker_dict()
        for i in range(queries)
    ]

    t0 = time.perf_counter()
    solo = [execute_query(d) for d in dicts]
    solo_s = time.perf_counter() - t0

    batches = [
        dicts[i : i + max_lanes] for i in range(0, len(dicts), max_lanes)
    ]
    t0 = time.perf_counter()
    batched: list[dict[str, Any]] = []
    for chunk in batches:
        batched.extend(execute_batch(chunk))
    batched_s = time.perf_counter() - t0

    for i, (s, b) in enumerate(zip(solo, batched)):
        if "error" in s or "error" in b:
            raise SimulationError(
                f"service_throughput query {i} errored: "
                f"{s.get('error') or b.get('error')}"
            )
        ss = {k: v for k, v in s.items() if k != "compute_s"}
        bb = {k: v for k, v in b.items() if k != "compute_s"}
        if ss != bb:
            raise SimulationError(
                f"batched service answer diverged from solo on query {i}"
            )
    return {
        "queries": queries,
        "n": n,
        "base_steps": base_steps,
        "batch_lanes": max_lanes,
        "batch_occupancy": round(queries / len(batches), 1),
        "solo_qps": round(queries / solo_s, 1),
        "service_qps": round(queries / batched_s, 1),
        "speedup": round(solo_s / batched_s, 3),
    }


def bench_record(
    label: str,
    *,
    manifest: RunManifest | None = None,
    engine: dict[str, Any] | None = None,
    tree: dict[str, Any] | None = None,
    dag: dict[str, Any] | None = None,
    fleet: dict[str, Any] | None = None,
    service: dict[str, Any] | None = None,
) -> dict[str, Any]:
    """Assemble a bench record from its measured parts."""
    record: dict[str, Any] = {
        "format": BENCH_FORMAT,
        "label": label,
        "created_unix": int(time.time()),
        "git_rev": git_rev(),
    }
    if engine is not None:
        record["engine"] = engine
    if tree is not None:
        record["tree"] = tree
    if dag is not None:
        record["dag"] = dag
    if fleet is not None:
        record["fleet"] = fleet
    if service is not None:
        record["service"] = service
    if manifest is not None:
        record["sweep"] = manifest.to_dict()
    return record


def write_bench(
    record: dict[str, Any], directory: str | Path = "."
) -> Path:
    """Write ``BENCH_<label>.json`` into ``directory``; returns the path."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / f"BENCH_{record['label']}.json"
    path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    return path


def load_bench(path: str | Path) -> dict[str, Any]:
    """Load a bench record, refusing files that aren't one."""
    data = json.loads(Path(path).read_text())
    if data.get("format") != BENCH_FORMAT:
        raise ValueError(f"{path}: not a {BENCH_FORMAT} record")
    return data
