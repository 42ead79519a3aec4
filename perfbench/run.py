"""End-to-end benchmark of the provisioning service (and the sweep).

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload provision-hit --seed 1 \
        --seconds 25 --trace 0

``--trace 0`` prints every end-to-end metric; ``--trace 1`` runs the
workload once untraced and once traced and prints the per-layer
metrics.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  A wrong answer
prints ``"correct": false`` and exits 1.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import shutil
import signal
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TMP = ROOT / ".perfbench_tmp"


def _load_program() -> None:
    """Import ``repro`` from this checkout's sources, or exit 1."""
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.exit(f"error: no program to measure: {SRC / 'repro'} is missing")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import repro

    if Path(repro.__file__).resolve().parent != (SRC / "repro").resolve():
        sys.exit(f"error: imported repro from {repro.__file__}, not {SRC}")


def _service(args, work: Path) -> tuple[dict, list[str], int, int]:
    import service_load as sl

    workload = sl.WORKLOADS[args.workload](args.seed)
    if args.trace:
        plain = sl.run_phase(workload, work, args.seconds,
                             traced=False, setups=1)
        traced = sl.run_phase(workload, work, args.seconds,
                              traced=True, setups=1)
        runs = [plain, traced]
        metrics = sl.layer_metrics(plain, traced)
        for line in sl.compute_breakdown(
                traced, workload.queries + workload.warm_queries):
            print(line)
    else:
        run = sl.run_phase(workload, work, args.seconds,
                           traced=False, setups=sl.SETUPS)
        runs = [run]
        phase = run.phase
        metrics = {
            "setup_s": (run.setup_s, "s"),
            "throughput_qps": (phase.ok / phase.wall_s, "1/s"),
            "latency_p50_ms": (phase.percentile_ms(50), "ms"),
            "peak_rss_mb": (run.peak_rss_mb, "MB"),
        }
    sampled = workload.sample_check(runs[-1].phase)
    wrong = [w for r in runs
             for p in (r.warmup, r.phase, r.probe) for w in p.wrong]
    wrong += sampled
    if args.trace and metrics["app.residual_ms"][0] < 0:
        wrong.append("server spans add up to more than the client saw")
    for r in runs:
        w, p, k = r.warmup, r.phase, r.probe
        beyond = p.attempted - int(0.99 * p.attempted)
        print(f"phase: {w.attempted} warm-up requests ({w.failed} failed), "
              f"then {p.attempted} in {p.wall_s:.2f}s, "
              f"{p.ok} ok, {p.failed} failed {p.failures}, "
              f"mean {p.mean_ms:.2f} ms, p99 {p.percentile_ms(99):.2f} ms "
              f"with {beyond} samples beyond", flush=True)
        if k.attempted:
            print(f"known failure: {k.failed} of {k.attempted} pressure "
                  f"queries on trees failed {k.failures}", flush=True)
    # the known-failure probe is reported above, not counted here
    attempted = sum(r.warmup.attempted + r.phase.attempted for r in runs)
    failed = sum(r.warmup.failed + r.phase.failed for r in runs)
    return metrics, wrong, attempted, failed + len(sampled)


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["provision-hit", "provision-miss", "sweep"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    _load_program()
    # a terminated run still stops its servers on the way out
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    TMP.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=TMP))
    try:
        if args.workload == "sweep":
            import sweep

            metrics, wrong, attempted, failed = sweep.run(args.trace)
        else:
            metrics, wrong, attempted, failed = _service(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            TMP.rmdir()
        except OSError:
            pass
    for line in wrong:
        print(f"WRONG: {line}", file=sys.stderr)
    print(json.dumps({
        "correct": not wrong,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }))
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
