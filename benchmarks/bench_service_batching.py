"""Benchmarks of the service's micro-batched query coalescing.

The headline claim of the batching work: a uniform 256-query
cache-missing burst served as coalesced FleetEngine batches sustains
**at least 5x** the queries/second of the solo per-query path, with
every per-lane answer bit-identical to its solo twin (asserted inside
:func:`repro.runner.perf.service_throughput` before any number is
reported).  The width sweep shows how occupancy trades against the
speedup — the same table ``docs/performance.md`` reproduces.
"""

from __future__ import annotations

from repro.runner import service_throughput


def test_bench_service_batching_5x(benchmark):
    """256-query burst: batched qps must be >= 5x solo qps."""

    result = benchmark.pedantic(
        service_throughput,
        kwargs={"queries": 256, "n": 64, "base_steps": 400,
                "max_lanes": 64},
        rounds=1,
        iterations=1,
    )
    assert result["service_qps"] >= 5 * result["solo_qps"], result


def test_bench_service_batching_occupancy_sweep(benchmark):
    """Occupancy sweep: smaller batches still win, monotonically less.

    Exercises the same burst at batch widths 8/32/128 — the worker-side
    analogue of sweeping ``--batch-max-lanes``.  Every width must beat
    solo; the full-width batch must beat the thinnest.
    """

    def sweep():
        return {
            lanes: service_throughput(
                queries=128, n=64, base_steps=300, max_lanes=lanes
            )
            for lanes in (8, 32, 128)
        }

    results = benchmark.pedantic(sweep, rounds=1, iterations=1)
    for lanes, r in results.items():
        assert r["speedup"] > 1.0, (lanes, r)
    assert results[128]["speedup"] > results[8]["speedup"], results
