"""Command-line front-end: ``python -m repro ...``.

Sub-commands:

* ``list`` — experiments and policies;
* ``describe EXP`` — an experiment's claim and paper reference;
* ``run EXP [EXP...] | all`` — run experiments, print reports, and
  optionally save JSON/TXT artefacts; ``--faults plan.json`` threads a
  :class:`~repro.network.faults.FaultPlan` into experiments that
  simulate;
* ``simulate`` — one ad-hoc (policy, adversary, n) run with a profile
  drawing — handy for exploration.  Supports the robustness extensions
  (``--faults``, ``--buffer-capacity``, ``--overflow``,
  ``--validate``); runs with a fault plan go through the crash/resume
  harness so induced process kills (``halt`` events) are survived and
  reported;
* ``serve`` — the long-running buffer-provisioning HTTP service
  (:mod:`repro.service`): admission control, per-request deadlines,
  circuit-broken shard pool, content-addressed result cache, graceful
  degradation.  See docs/robustness.md ("Provisioning service").
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

from .adversaries import ADVERSARY_NAMES, check_adversary, make_adversary
from .analysis.tables import format_table
from .experiments import all_experiment_ids, get_experiment
from .io.results import save_result
from .policies import available_policies, make_policy

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of 'Optimal Local Buffer Management for "
            "Information Gathering with Adversarial Traffic' (SPAA 2017)"
        ),
    )
    sub = p.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list experiments and policies")

    d = sub.add_parser("describe", help="describe one experiment")
    d.add_argument("experiment")

    r = sub.add_parser("run", help="run experiments")
    r.add_argument("experiments", nargs="+",
                   help="experiment ids (e.g. E2 E3) or 'all'")
    r.add_argument("--preset", choices=("quick", "full"), default="quick")
    r.add_argument("--jobs", type=int, default=1, metavar="N",
                   help="worker processes for the sweep (default 1 = "
                        "serial; 0 = auto, one worker per CPU via "
                        "os.cpu_count(); results print in id order "
                        "either way)")
    r.add_argument("--out", default=None,
                   help="directory for JSON/TXT artefacts")
    r.add_argument("--no-artifacts", action="store_true",
                   help="omit ASCII charts from stdout")
    r.add_argument("--bench", default=None, metavar="LABEL",
                   help="emit a BENCH_<LABEL>.json perf record (engine "
                        "steps/sec + per-experiment wall-clock; see "
                        "benchmarks/README.md)")
    r.add_argument("--faults", default=None, metavar="PLAN.json",
                   help="fault plan JSON threaded into simulating "
                        "experiments (see docs/robustness.md)")
    r.add_argument("--timeout", type=float, default=None, metavar="S",
                   help="per-experiment wall-clock timeout in seconds; "
                        "a hung worker is replaced, the experiment is "
                        "retried (--retries) and recorded as 'timeout' "
                        "if it never finishes (forces pool mode)")
    r.add_argument("--retries", type=int, default=0, metavar="N",
                   help="extra attempts after a timeout or worker death "
                        "(default 0), with exponential backoff")
    r.add_argument("--backoff", type=float, default=0.5, metavar="S",
                   help="base retry backoff in seconds; attempt k waits "
                        "S * 2^(k-1) plus deterministic jitter "
                        "(default 0.5)")
    r.add_argument("--label", default=None, metavar="LABEL",
                   help="persist a durable run directory "
                        "results/runs/<LABEL>/ (one checksummed "
                        "artifact per completed experiment + the "
                        "manifest, flushed as each record lands)")
    r.add_argument("--resume", default=None, metavar="LABEL",
                   help="resume the run directory results/runs/<LABEL>/: "
                        "experiments whose stored artifacts verify are "
                        "reused, the rest are (re)run")
    r.add_argument("--runs-root", default="results/runs", metavar="DIR",
                   help="root for durable run directories "
                        "(default results/runs)")

    c = sub.add_parser(
        "certify",
        help="run Odd-Even (path) or the Tree policy with the proof "
             "certifier attached",
    )
    c.add_argument("--topology", default="path:256",
                   help="path:N | spider:ARMSxLEN | binary:DEPTH | "
                        "random:N (default path:256)")
    c.add_argument("--adversary", default="uniform",
                   choices=ADVERSARY_NAMES + ("attack",))
    c.add_argument("--steps", type=int, default=None)
    c.add_argument("--seed", type=int, default=0)
    c.add_argument("--show-figure", action="store_true",
                   help="render the tallest node's attachments (Fig 1)")

    s = sub.add_parser("simulate", help="one ad-hoc run")
    s.add_argument("--engine", default="path",
                   choices=("path", "tree", "dag"),
                   help="simulation backend; all three satisfy the "
                        "unified engine contract "
                        "(repro.network.engine_base), so faults, "
                        "checkpoints and crash/resume work on each")
    s.add_argument("--topology", default=None, metavar="SPEC",
                   help="path:N | spider:AxL | binary:D | random:N "
                        "(tree engine; viewed as a degenerate DAG under "
                        "--engine dag) | layered:LxW | diamond:WxL "
                        "(dag engine only); default: a size--n topology "
                        "for the chosen engine")
    s.add_argument("--policy", default="odd-even",
                   choices=available_policies())
    s.add_argument("--adversary", default="seesaw",
                   choices=ADVERSARY_NAMES)
    s.add_argument("-n", type=int, default=128)
    s.add_argument("--steps", type=int, default=None)
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--faults", default=None, metavar="PLAN.json",
                   help="fault plan JSON (link outages, crashes, jitter, "
                        "halts)")
    from .network.buffers import Overflow

    s.add_argument("--buffer-capacity", type=int, default=None,
                   help="finite per-node buffer (default: unbounded)")
    s.add_argument("--overflow", default=Overflow.DROP_TAIL.value,
                   choices=tuple(o.value for o in Overflow),
                   help="overflow discipline for finite buffers")
    s.add_argument("--snapshot-every", type=int, default=50,
                   help="snapshot stride for crash/resume when a fault "
                        "plan is given")
    s.add_argument("--checkpoint-dir", default=None, metavar="DIR",
                   help="persist periodic checkpoints to DIR/latest.ckpt "
                        "(atomic + checksummed) and resume from an "
                        "existing one — a killed simulate can be re-run "
                        "with the same arguments and pick up where it "
                        "left off")
    s.add_argument("--validate", action="store_true",
                   help="run the engine's per-step invariant checks "
                        "(legal send counts, finite-buffer capacity, "
                        "conservation ledger) — slower, but any "
                        "violation raises instead of corrupting the "
                        "run silently")

    v = sub.add_parser(
        "serve",
        help="run the buffer-provisioning HTTP service "
             "(POST /provision, GET /healthz /readyz /stats)",
    )
    v.add_argument("--host", default="127.0.0.1")
    v.add_argument("--port", type=int, default=8642,
                   help="TCP port (0 = ephemeral; default 8642)")
    v.add_argument("--shards", type=int, default=2, metavar="N",
                   help="worker-process shards (default 2)")
    v.add_argument("--queue-limit", type=int, default=32, metavar="N",
                   help="admission bound: pending requests beyond this "
                        "are shed with 503 + Retry-After (default 32)")
    v.add_argument("--deadline", type=float, default=30.0, metavar="S",
                   help="default per-request wall-clock deadline "
                        "(default 30s; requests may set deadline_s)")
    v.add_argument("--retries", type=int, default=1, metavar="N",
                   help="extra attempts after a shard crash/hang "
                        "(default 1), with deterministic backoff")
    v.add_argument("--breaker-threshold", type=int, default=3,
                   metavar="N",
                   help="consecutive failures that open a shard's "
                        "circuit breaker (default 3)")
    v.add_argument("--breaker-reset", type=float, default=5.0,
                   metavar="S",
                   help="seconds an open breaker waits before a "
                        "half-open probe (default 5)")
    v.add_argument("--cache-dir", default="results/service-cache",
                   help="content-addressed result cache directory")
    v.add_argument("--cache-max-bytes", type=int,
                   default=64 * 1024 * 1024,
                   help="cache size bound; LRU eviction keeps the "
                        "store under it (default 64 MiB)")
    v.add_argument("--cache-max-entries", type=int, default=4096,
                   help="cache entry bound (default 4096)")
    v.add_argument("--no-degrade", action="store_true",
                   help="fail with 504 instead of answering from the "
                        "nearest cached result / analytic bound when "
                        "the pool is unhealthy")
    v.add_argument("--batch-window-ms", type=float, default=4.0,
                   metavar="MS",
                   help="coalescing window: cache-missing queries "
                        "sharing a batch key wait up to this long to "
                        "be served as one FleetEngine call "
                        "(default 4ms; flushes early on a full batch "
                        "or a tight member deadline)")
    v.add_argument("--batch-max-lanes", type=int, default=64,
                   metavar="N",
                   help="flush a forming batch early once it holds "
                        "this many distinct queries (default 64)")
    v.add_argument("--no-batching", action="store_true",
                   help="another way to write --batch-max-lanes 1: "
                        "every cache miss runs at once as a one-lane "
                        "batch, with no window wait")
    v.add_argument("--max-connections", type=int, default=256,
                   metavar="N",
                   help="concurrent-connection bound: connections "
                        "beyond this are accept-shed with a fast "
                        "503 + Retry-After (default 256)")
    v.add_argument("--max-connections-per-peer", type=int, default=64,
                   metavar="N",
                   help="per-peer slice of the connection bound "
                        "(default 64)")
    v.add_argument("--io-timeout-s", type=float, default=10.0,
                   metavar="S",
                   help="per-phase I/O deadline (header read, body "
                        "read, response write): a slowloris drip or "
                        "stalled body is a 408 within this budget, "
                        "and a client that stops reading its "
                        "response is aborted (default 10)")
    v.add_argument("--drain-deadline-s", type=float, default=5.0,
                   metavar="S",
                   help="graceful-drain budget on SIGTERM/SIGINT: "
                        "/readyz flips to 503 immediately, in-flight "
                        "requests get this long to finish, then are "
                        "force-cancelled with accounting (default 5)")
    return p


def _cmd_list() -> int:
    rows = []
    for eid in all_experiment_ids():
        exp = get_experiment(eid)
        rows.append([eid, exp.title, exp.paper_ref])
    print(format_table(["id", "title", "paper ref"], rows,
                       title="Experiments:"))
    print()
    print("Policies:", ", ".join(available_policies()))
    return 0


def _cmd_describe(experiment: str) -> int:
    exp = get_experiment(experiment)
    print(f"{exp.id}: {exp.title}")
    print(f"paper reference: {exp.paper_ref}")
    print(f"claim: {exp.claim}")
    return 0


def _load_fault_plan(path: str | None):
    """Load ``--faults`` (a FaultPlan JSON file); ``None`` passes through."""
    if path is None:
        return None
    from .errors import FaultError
    from .network.faults import FaultPlan

    try:
        return FaultPlan.from_file(path)
    except OSError as err:
        raise FaultError(f"cannot read fault plan {path!r}: {err}") from err


def _cmd_run(ids: Sequence[str], preset: str, out: str | None,
             no_artifacts: bool, faults: str | None = None,
             jobs: int = 1, bench: str | None = None,
             timeout: float | None = None, retries: int = 0,
             backoff: float = 0.5, label: str | None = None,
             resume_label: str | None = None,
             runs_root: str = "results/runs") -> int:
    from .errors import ExperimentError
    from .runner import (
        RunStore,
        bench_record,
        dag_engine_throughput,
        engine_throughput,
        fleet_throughput,
        service_throughput,
        run_experiments,
        tree_engine_throughput,
        write_bench,
    )

    plan = _load_fault_plan(faults)

    if resume_label is not None and label is not None \
            and resume_label != label:
        raise ExperimentError(
            f"--label {label!r} and --resume {resume_label!r} disagree; "
            f"pass only --resume to continue an existing run"
        )
    resume = resume_label is not None
    store_label = resume_label or label
    store = (
        RunStore.at(store_label, runs_root)
        if store_label is not None else None
    )
    if resume and store is not None:
        from .experiments import all_experiment_ids

        scan_ids = (
            all_experiment_ids()
            if len(ids) == 1 and str(ids[0]).lower() == "all"
            else [i.upper() for i in ids]
        )
        completed, rejected = store.scan(scan_ids)
        print(f"resuming {store.directory}: {len(completed)} verified "
              f"artifact(s) reused, {len(scan_ids) - len(completed)} to "
              f"run" + (f", {len(rejected)} untrusted artifact(s) "
                        f"re-run" if rejected else ""))

    def report(rec) -> None:
        if rec.result is not None:
            print(rec.result.to_text(include_artifacts=not no_artifacts))
            if out:
                print(f"saved {save_result(rec.result, out)}")
        else:
            print(f"=== {rec.experiment_id}: {rec.status.upper()} "
                  f"({rec.error}) ===")
        if rec.retried:
            print(f"note: {rec.experiment_id} took {rec.attempts} attempts")
        print()

    def on_retry(eid: str, attempt: int, delay: float, reason: str) -> None:
        print(f"[retry] {eid}: attempt {attempt} failed ({reason}); "
              f"retrying in {delay:.2f}s")

    manifest = run_experiments(
        ids, preset, jobs=jobs, faults=plan, on_record=report,
        timeout_s=timeout, retries=retries, backoff_s=backoff,
        on_retry=on_retry, store=store, resume=resume,
    )
    if store is not None:
        print(f"run directory: {store.directory}")
    if bench is not None:
        path = write_bench(
            bench_record(bench, manifest=manifest,
                         engine=engine_throughput(),
                         tree=tree_engine_throughput(),
                         dag=dag_engine_throughput(),
                         fleet=fleet_throughput(),
                         service=service_throughput()),
            out or ".",
        )
        print(f"wrote perf record {path}")
    failures = manifest.failures
    if failures:
        detail = ", ".join(f"{r.experiment_id} ({r.status})"
                           for r in failures)
        print(f"{len(failures)} experiment(s) FAILED: {detail}")
    print(f"{len(manifest.records)} experiment(s) in "
          f"{manifest.wall_s:.2f}s (--jobs {manifest.jobs})")
    return 1 if failures else 0


def _sim_topology(engine: str, spec: str | None, n: int):
    """The topology ``--topology`` names (default: a size-n one) in the
    form ``--engine`` runs: a :class:`Topology` for ``path`` and
    ``tree``, a :class:`DagTopology` for ``dag``.

    Raises :class:`~repro.errors.ExperimentError` on an engine/topology
    mismatch, naming the engine that can run the spec.
    """
    from .errors import ExperimentError
    from .network.dag import DagTopology, from_tree
    from .network.topology import from_spec

    if spec is None:
        spec = {
            "path": f"path:{n}",
            "tree": f"random:{n}",
            "dag": f"layered:{max(1, (n - 1) // 8)}x8",
        }[engine]
    topo = from_spec(spec)
    if engine == "dag":
        return topo if isinstance(topo, DagTopology) else from_tree(topo)
    if isinstance(topo, DagTopology):
        raise ExperimentError(
            f"engine {engine!r} cannot run the DAG topology {spec!r}; "
            "use --engine dag"
        )
    if engine == "path" and not topo.is_canonical_path:
        raise ExperimentError(
            f"engine 'path' only runs path topologies, not {spec!r}; "
            "use --engine tree (or --engine dag) for it"
        )
    return topo


def _make_sim_policy(engine: str, policy: str):
    from .errors import PolicyError

    if engine == "path":
        return make_policy(policy)
    if engine == "tree":
        if policy in ("odd-even", "tree-odd-even"):
            return make_policy("tree-odd-even")
        if policy == "greedy":
            return make_policy("greedy")
        raise PolicyError(
            f"policy {policy!r} has no tree variant; engine 'tree' "
            "supports odd-even and greedy"
        )
    from .policies.dag import DagGreedyPolicy, DagOddEvenPolicy

    if policy in ("odd-even", "dag-odd-even"):
        return DagOddEvenPolicy()
    if policy == "greedy":
        return DagGreedyPolicy()
    raise PolicyError(
        f"policy {policy!r} has no DAG variant; engine 'dag' supports "
        "odd-even and greedy"
    )


def _cmd_simulate(policy: str, adversary: str, n: int,
                  steps: int | None, seed: int,
                  faults: str | None = None,
                  buffer_capacity: int | None = None,
                  overflow: str = "drop-tail",
                  snapshot_every: int = 50,
                  checkpoint_dir: str | None = None,
                  validate: bool = False,
                  engine: str = "path",
                  topology: str | None = None) -> int:
    from .analysis.occupancy import default_step_budget
    from .core.bounds import odd_even_upper_bound
    from .network.engine_base import resolve_engine
    from .network.faults import run_with_recovery
    from .viz.ascii import height_profile, sparkline

    plan = _load_fault_plan(faults)
    topo = _sim_topology(engine, topology, n)
    size = topo.n
    steps = default_step_budget(size) if steps is None else steps
    sim_policy = _make_sim_policy(engine, policy)
    check_adversary(adversary, topo)
    # every backend satisfies the SteppableEngine contract, so the
    # construction, recovery driver and reporting below are shared
    sim = resolve_engine(engine)(
        size if engine == "path" else topo,
        sim_policy,
        make_adversary(adversary, seed),
        series_every=max(1, steps // 64),
        buffer_capacity=buffer_capacity,
        overflow=overflow,
        faults=plan,
        validate=validate,
    )
    if plan is not None or checkpoint_dir is not None:
        recoveries = run_with_recovery(
            sim, steps, snapshot_every=snapshot_every,
            checkpoint_dir=checkpoint_dir,
        )
    else:
        recoveries = 0
        sim.run(steps)
    t = sim.metrics.tracker
    print(f"engine={engine} policy={policy} adversary={adversary} "
          f"n={size} steps={steps}")
    print(f"max height: {t.max_height} (node {t.argmax_node} at step "
          f"{t.argmax_step}); log2(n)+3 = {odd_even_upper_bound(size):.1f}")
    print(f"injected {sim.metrics.injected}, delivered "
          f"{sim.metrics.delivered}, in flight {int(sim.heights.sum())}")
    ledger = sim.metrics.ledger
    if plan is not None or buffer_capacity is not None:
        by_cause = ledger.by_cause()
        causes = (
            ", ".join(f"{c}={k}" for c, k in sorted(by_cause.items()))
            if by_cause else "none"
        )
        print(f"dropped {ledger.total} (by cause: {causes}); "
              f"ledger balanced: "
              f"{ledger.balanced(sim.metrics.injected, sim.metrics.delivered, int(sim.heights.sum()))}")
        if plan is not None:
            print(f"induced process kills survived: {recoveries}")
    print()
    print(height_profile(sim.heights, label="final height profile:"))
    if sim.metrics.series.values:
        print()
        print("max height over time: " + sparkline(sim.metrics.series.values))
    return 0


def _cmd_certify(topology: str, adversary: str, steps: int | None,
                 seed: int, show_figure: bool) -> int:
    import numpy as np

    from .core.bounds import attack_schedule_length
    from .core.certificate import (
        CertifiedPathEngine,
        OddEvenCertifier,
        certify_path_run,
    )
    from .core.tree_certificate import certify_tree_run
    from .errors import ExperimentError
    from .network.topology import Topology, from_spec

    topo = from_spec(topology)
    if not isinstance(topo, Topology):
        raise ExperimentError(
            f"certify runs paths and trees, not the DAG topology "
            f"{topology!r}"
        )
    if topo.is_canonical_path:
        n = topo.n
        steps = steps if steps is not None else 16 * n
        if adversary == "attack":
            from .adversaries import RecursiveLowerBoundAttack
            from .network.engine_fast import PathEngine
            from .policies import OddEvenPolicy

            cert = OddEvenCertifier(n - 1, validate_every=5)
            engine = CertifiedPathEngine(
                PathEngine(n, OddEvenPolicy(), None), cert
            )
            attack = RecursiveLowerBoundAttack(ell=1).run(engine)
            report = cert.report
            print(f"attack forced {attack.forced_height} "
                  f"(predicted {attack.predicted:.2f}) over "
                  f"{attack_schedule_length(n, 1)} scheduled steps")
        else:
            cert = None
            report = certify_path_run(
                n, make_adversary(adversary, seed), steps,
                validate_every=5,
            )
        print(f"CERTIFIED path run: n={n}, rounds={report.rounds}, "
              f"max height {report.max_height} <= mechanical bound "
              f"{report.bound} (theorem: log2 n + 3 = "
              f"{report.theorem_bound:.1f})")
        if show_figure and adversary == "attack" and cert is not None:
            from .viz.attachment_render import render_node_attachments

            peak = int(np.argmax(cert.heights))
            print()
            print(render_node_attachments(cert.scheme, cert.heights, peak))
        return 0 if report.certified else 1

    steps = steps if steps is not None else 12 * topo.n
    family = "uniform" if adversary == "attack" else adversary
    check_adversary(family, topo)
    report = certify_tree_run(
        topo, make_adversary(family, seed), steps, validate_every=5
    )
    print(f"CERTIFIED tree run: n={topo.n}, rounds={report.rounds}, "
          f"max height {report.max_height} <= bound {report.bound}, "
          f"{report.crossover_pairs} crossover pairs")
    return 0 if report.certified else 1


def main(argv: Sequence[str] | None = None) -> int:
    from .errors import ReproError

    args = build_parser().parse_args(argv)
    try:
        if args.command == "list":
            return _cmd_list()
        if args.command == "describe":
            return _cmd_describe(args.experiment)
        if args.command == "run":
            return _cmd_run(args.experiments, args.preset, args.out,
                            args.no_artifacts, args.faults,
                            args.jobs, args.bench,
                            args.timeout, args.retries, args.backoff,
                            args.label, args.resume, args.runs_root)
        if args.command == "certify":
            return _cmd_certify(args.topology, args.adversary, args.steps,
                                args.seed, args.show_figure)
        if args.command == "simulate":
            return _cmd_simulate(args.policy, args.adversary, args.n,
                                 args.steps, args.seed, args.faults,
                                 args.buffer_capacity, args.overflow,
                                 args.snapshot_every, args.checkpoint_dir,
                                 args.validate, args.engine,
                                 args.topology)
        return _cmd_serve(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _cmd_serve(args: argparse.Namespace) -> int:
    from .service.app import ServiceConfig, run_service

    return run_service(ServiceConfig(
        host=args.host,
        port=args.port,
        shards=args.shards,
        queue_limit=args.queue_limit,
        deadline_s=args.deadline,
        retries=args.retries,
        failure_threshold=args.breaker_threshold,
        breaker_reset_s=args.breaker_reset,
        cache_dir=args.cache_dir,
        cache_max_bytes=args.cache_max_bytes,
        cache_max_entries=args.cache_max_entries,
        degrade=not args.no_degrade,
        batch_window_ms=args.batch_window_ms,
        batch_max_lanes=1 if args.no_batching else args.batch_max_lanes,
        max_connections=args.max_connections,
        max_connections_per_peer=args.max_connections_per_peer,
        io_timeout_s=args.io_timeout_s,
        drain_deadline_s=args.drain_deadline_s,
    ))


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
