#!/usr/bin/env python3
"""A/B the engine throughput of two source trees in one interpreter.

Usage::

    python tools/engine_ab.py OLD_SRC NEW_SRC [--rounds N]
    python tools/engine_ab.py OLD_SRC NEW_SRC --service N [--seed S]

``OLD_SRC`` and ``NEW_SRC`` are directories holding a ``repro`` package
(``src`` of two checkouts).  Each package is copied under a distinct
name into a temporary directory and both are imported side by side —
the package imports itself only relatively, so the copies never mix.
Every round runs ``repro.runner.perf``'s engine, tree, DAG and fleet
throughput functions on both copies, alternating which goes first, so
drift in the machine's speed hits both sides alike; whole-process A/B
runs on a shared VM swing far more than the few percent this resolves.

For every steps-per-second metric the tool prints the median new/old
ratio, its quartiles, and the rounds the new tree won (a ratio above 1
is faster).  Each throughput function also checks its fast engine
against its reference before reporting, so a diverging tree fails
loudly instead of producing a number.

``--service N`` times what a cache-missing ``POST /provision`` computes
instead: both trees' ``repro.service.execute_batch`` answer the same N
one-lane provision queries, drawn (seeded by ``--seed``) over the
service surface — every topology kind with its policy, every adversary
a topology admits, both decision timings, 500-1,999 steps, one query
in 8 with a finite buffer and one in 8 with a fault plan.  Sides
alternate per 64-query chunk, which each side runs 3 times; a query's
process CPU time is the minimum of its 3 runs.  The tool prints both
totals and the new/old time ratio (below 1 is faster), then both sides'
time per class of query — finite or unbounded buffers × faulted or
clean, each adversary family, each topology — and fails if the two
trees answer any query differently.
"""

from __future__ import annotations

import argparse
import importlib
import random
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

#: BENCH record block -> the ``repro.runner.perf`` function that
#: measures it, run at its default sizes
FUNCTIONS = {
    "engine": "engine_throughput",
    "tree": "tree_engine_throughput",
    "dag": "dag_engine_throughput",
    "fleet": "fleet_throughput",
}


#: what the service answers, as in the provision-miss benchmark: each
#: topology kind with the one policy it accepts
TOPOLOGIES = {
    "path:256": "odd-even",
    "path:1024": "odd-even",
    "binary:7": "tree-odd-even",
    "spider:8x16": "tree-odd-even",
    "random:300": "tree-odd-even",
}
TIMINGS = ("pre_injection", "post_injection")
OVERFLOWS = ("drop-tail", "drop-oldest", "push-back")
#: the service queries are timed in chunks of this many, sides alternating
CHUNK = 64


def load(src: str, name: str, into: Path):
    """Import ``src``'s ``repro`` package as ``name``; return it."""
    pkg = Path(src) / "repro"
    if not (pkg / "__init__.py").is_file():
        raise SystemExit(f"error: {src} holds no repro package")
    shutil.copytree(
        pkg, into / name, ignore=shutil.ignore_patterns("__pycache__")
    )
    importlib.import_module(f"{name}.runner.perf")
    importlib.import_module(f"{name}.service")
    return importlib.import_module(name)


def measure(old, new, rounds: int) -> dict[str, list[float]]:
    """Per metric, the new/old ratio of every round."""
    ratios: dict[str, list[float]] = {}
    for i in range(rounds):
        for block, fn in FUNCTIONS.items():
            sides = (old, new) if i % 2 == 0 else (new, old)
            got = {id(side): getattr(side.runner.perf, fn)() for side in sides}
            before, after = got[id(old)], got[id(new)]
            for key, value in after.items():
                if key.endswith("_sps"):
                    ratios.setdefault(f"{block}.{key}", []).append(
                        value / before[key]
                    )
        print(f"round {i + 1}/{rounds} done", file=sys.stderr)
    return ratios


def service_queries(repro, count: int, seed: int) -> list[dict]:
    """``count`` one-lane provision queries over the surface the
    ``repro`` package serves."""
    rng = random.Random(f"engine-ab-service:{seed}")
    from_spec = repro.network.topology.from_spec
    names = repro.adversaries.ADVERSARY_NAMES
    combos = [
        (topo, adv, timing)
        for topo in TOPOLOGIES for adv in names for timing in TIMINGS
        if adv != "pressure" or from_spec(topo).is_path
    ]
    out = []
    for _ in range(count):
        topo, adv, timing = rng.choice(combos)
        n, steps = from_spec(topo).n, rng.randrange(500, 2000)
        raw = {
            "topology": topo, "policy": TOPOLOGIES[topo], "adversary": adv,
            "steps": steps, "seed": rng.randrange(1 << 30),
            "decision_timing": timing,
        }
        if rng.randrange(8) == 0:
            raw["buffer_capacity"] = rng.randint(2, 8)
            raw["overflow"] = rng.choice(OVERFLOWS)
        if rng.randrange(8) == 0:
            # node 0 drains the trees and node n - 1 the paths
            raw["faults"] = {"seed": rng.randrange(1 << 16), "events": [
                {"kind": "link_down", "start": rng.randrange(steps // 2),
                 "node": rng.randint(1, n - 2),
                 "duration": rng.randint(5, 50)},
                {"kind": "halt", "start": rng.randrange(steps // 4, steps)},
            ]}
        out.append(raw)
    return out


def measure_service(
    old, new, queries: list[dict]
) -> tuple[list[float], list[float]]:
    """Each side's CPU seconds per query, answered one lane at a time;
    both sides must answer alike."""
    spent: dict[int, list[float]] = {
        id(old): [float("inf")] * len(queries),
        id(new): [float("inf")] * len(queries),
    }
    for c, at in enumerate(range(0, len(queries), CHUNK)):
        chunk = queries[at:at + CHUNK]
        answers = {}
        for side in (old, new) if c % 2 == 0 else (new, old):
            lanes = [
                side.service.ProvisionQuery.from_dict(raw).to_worker_dict()
                for raw in chunk
            ]
            best = spent[id(side)]
            for _ in range(3):
                docs = []
                for i, lane in enumerate(lanes, at):
                    t0 = time.process_time()
                    docs.append(side.service.execute_batch([lane])[0])
                    best[i] = min(best[i], time.process_time() - t0)
            answers[id(side)] = [
                {k: v for k, v in doc.items() if k != "compute_s"}
                for doc in docs
            ]
        for raw, a, b in zip(chunk, answers[id(old)], answers[id(new)]):
            if a != b:
                raise SystemExit(f"error: the trees answer {raw} differently")
        print(f"queries {at + len(chunk)}/{len(queries)} done", file=sys.stderr)
    return spent[id(old)], spent[id(new)]


def classes(raw: dict) -> list[str]:
    """The classes a provision query is reported under."""
    return [
        ("finite" if "buffer_capacity" in raw else "unbounded")
        + (" faulted" if "faults" in raw else " clean"),
        f"adversary {raw['adversary']}",
        f"topology {raw['topology']}",
    ]


def service_report(
    queries: list[dict], before: list[float], after: list[float]
) -> str:
    """The totals, then both sides' CPU time per class: the buffer
    classes, the adversaries, the topologies, each kind by the old
    side's time."""
    table: dict[str, list] = {}
    for raw, b, a in zip(queries, before, after):
        for name in classes(raw):
            row = table.setdefault(name, [0, 0.0, 0.0])
            row[0] += 1
            row[1] += b
            row[2] += a
    lines = [
        f"old {sum(before):.2f} s  new {sum(after):.2f} s  "
        f"new/old {sum(after) / sum(before):.3f}",
        f"{'class':<26} {'queries':>7} {'old ms':>9} {'new ms':>9} "
        f"{'new/old':>7}",
    ]
    kinds = {"adversary": 1, "topology": 2}
    for name in sorted(
        table, key=lambda k: (kinds.get(k.split()[0], 0), -table[k][1])
    ):
        count, b, a = table[name]
        lines.append(
            f"{name:<26} {count:7d} {1e3 * b:9.1f} {1e3 * a:9.1f} "
            f"{a / b if b else float('nan'):7.3f}"
        )
    return "\n".join(lines)


def report(ratios: dict[str, list[float]]) -> str:
    lines = [f"{'metric':<30} {'median':>7} {'q1':>7} {'q3':>7}  won"]
    for metric, values in ratios.items():
        q1, mid, q3 = (
            statistics.quantiles(values, n=4, method="inclusive")
            if len(values) > 1
            else values * 3
        )
        won = sum(v > 1 for v in values)
        lines.append(
            f"{metric:<30} {mid:7.3f} {q1:7.3f} {q3:7.3f}  "
            f"{won}/{len(values)}"
        )
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("old_src", help="source dir holding the old repro")
    ap.add_argument("new_src", help="source dir holding the new repro")
    ap.add_argument("--rounds", type=int, default=21,
                    help="alternating rounds (default 21)")
    ap.add_argument("--service", type=int, metavar="N",
                    help="time N one-lane provision queries instead")
    ap.add_argument("--seed", type=int, default=0,
                    help="seed of the --service queries (default 0)")
    args = ap.parse_args(argv)
    if args.rounds < 1:
        ap.error("--rounds must be >= 1")
    if args.service is not None and args.service < 1:
        ap.error("--service must be >= 1")
    with tempfile.TemporaryDirectory(prefix="engine_ab_") as tmp:
        sys.path.insert(0, tmp)
        try:
            old = load(args.old_src, "repro_ab_old", Path(tmp))
            new = load(args.new_src, "repro_ab_new", Path(tmp))
            if args.service is None:
                print(report(measure(old, new, args.rounds)))
            else:
                queries = service_queries(new, args.service, args.seed)
                before, after = measure_service(old, new, queries)
                print(service_report(queries, before, after))
        finally:
            sys.path.remove(tmp)
    return 0


if __name__ == "__main__":
    sys.exit(main())
