"""The serial quick sweep: ``run_experiments(["all"], "quick", jobs=1)``.

Runs in this process, so one tracer sees every engine call and the
per-experiment times add up to the wall-clock.  The sweep is fixed
work: it ignores ``--seconds`` and ``--seed``.
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
import time
from collections import defaultdict

import spans
from service_load import ROOT, self_peak_rss_mb

SETUPS = 3
#: share of the sweep's wall-clock the per-experiment times may miss
ACCOUNTING_MARGIN = 0.02
ENGINES = ("path", "tree", "dag", "dag_loop", "fleet", "simulator")


def _setup_s() -> float:
    """Interpreter start to a loaded experiment registry, median of 3."""
    code = ("from repro.runner import run_experiments\n"
            "from repro.experiments import all_experiment_ids\n"
            "all_experiment_ids()\n")
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    times = []
    for _ in range(SETUPS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                       check=True)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def _sweep(on_record=None):
    from repro.runner import run_experiments

    t0 = time.perf_counter()
    manifest = run_experiments(["all"], "quick", jobs=1, on_record=on_record)
    return manifest, time.perf_counter() - t0


def _verdicts(manifests) -> tuple[list[str], int]:
    wrong, failed = [], 0
    for manifest in manifests:
        for rec in manifest.records:
            failed += not rec.ok
            if rec.status == "failed-shape":
                wrong.append(f"{rec.experiment_id}: the paper's shape "
                             "did not reproduce")
    return wrong, failed


def run(trace: int) -> tuple[dict[str, tuple[float, str]], list[str],
                             int, int]:
    if not trace:
        setup = _setup_s()
        manifest, wall = _sweep()
        wrong, failed = _verdicts([manifest])
        metrics = {
            "setup_s": (setup, "s"),
            "sweep_s": (wall, "s"),
            "peak_rss_mb": (self_peak_rss_mb(), "MB"),
        }
        return metrics, wrong, len(manifest.records), failed

    manifest, wall = _sweep()
    tracer = spans.Tracer()
    spans.install_engine(tracer)
    per_experiment: dict[str, dict[str, int]] = {}
    seen: dict[str, int] = defaultdict(int)

    def on_record(rec) -> None:
        now = dict(tracer.self_ns)
        per_experiment[rec.experiment_id] = {
            k: v - seen[k] for k, v in now.items() if v - seen[k]
        }
        seen.update(now)

    traced, traced_wall = _sweep(on_record)
    wrong, failed = _verdicts([manifest, traced])
    for eid, own in per_experiment.items():
        top = sorted(own.items(), key=lambda kv: -kv[1])[:4]
        print(f"{eid}: " + ", ".join(
            f"{k} {v / 1e9:.2f}s" for k, v in top
        ), flush=True)

    accounted = sum(r.wall_s for r in manifest.records)
    if abs(wall - accounted) > ACCOUNTING_MARGIN * wall:
        wrong.append(f"per-experiment times sum to {accounted:.2f}s, "
                     f"the sweep took {wall:.2f}s")
    own = tracer.self_ns
    steps = tracer.steps
    lanes = tracer.counts.get("fleet.lanes", 0)
    metrics: dict[str, tuple[float, str]] = {
        f"runner.experiment_s.{r.experiment_id}": (r.wall_s, "s")
        for r in manifest.records
    }
    metrics["runner.unaccounted_s"] = (wall - accounted, "s")
    for kind in ENGINES:
        metrics[f"engine.{kind}_self_s"] = (
            spans.layer_s(own, f"engine.{kind}"), "s")
    for kind in ENGINES:
        name = "fleet_lane" if kind == "fleet" else kind
        metrics[f"engine.{name}_steps"] = (
            steps.get(f"engine.{kind}", 0), "count")
    for layer in ("policy.decide", "adversary.inject", "metrics.observe"):
        metrics[f"{layer}_s"] = (spans.layer_s(own, layer), "s")
    metrics["fleet.fallback_s"] = (spans.fallback_s(own), "s")
    metrics["fleet.vectorized_share"] = (
        tracer.counts.get("fleet.vectorized", 0) / lanes if lanes else 0.0,
        "fraction")
    metrics["trace.overhead_s"] = (traced_wall - wall, "s")
    attempted = len(manifest.records) + len(traced.records)
    return metrics, wrong, attempted, failed
