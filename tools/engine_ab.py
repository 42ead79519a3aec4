#!/usr/bin/env python3
"""A/B the engine throughput of two source trees in one interpreter.

Usage::

    python tools/engine_ab.py OLD_SRC NEW_SRC [--rounds N]

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
"""

from __future__ import annotations

import argparse
import importlib
import shutil
import statistics
import sys
import tempfile
from pathlib import Path

#: BENCH record block -> the ``repro.runner.perf`` function that
#: measures it, run at its default sizes
FUNCTIONS = {
    "engine": "engine_throughput",
    "tree": "tree_engine_throughput",
    "dag": "dag_engine_throughput",
    "fleet": "fleet_throughput",
}


def load(src: str, name: str, into: Path):
    """Import ``src``'s ``repro`` package as ``name``; return its perf
    module."""
    pkg = Path(src) / "repro"
    if not (pkg / "__init__.py").is_file():
        raise SystemExit(f"error: {src} holds no repro package")
    shutil.copytree(
        pkg, into / name, ignore=shutil.ignore_patterns("__pycache__")
    )
    return importlib.import_module(f"{name}.runner.perf")


def measure(old, new, rounds: int) -> dict[str, list[float]]:
    """Per metric, the new/old ratio of every round."""
    ratios: dict[str, list[float]] = {}
    for i in range(rounds):
        for block, fn in FUNCTIONS.items():
            sides = (old, new) if i % 2 == 0 else (new, old)
            got = {id(side): getattr(side, fn)() for side in sides}
            before, after = got[id(old)], got[id(new)]
            for key, value in after.items():
                if key.endswith("_sps"):
                    ratios.setdefault(f"{block}.{key}", []).append(
                        value / before[key]
                    )
        print(f"round {i + 1}/{rounds} done", file=sys.stderr)
    return ratios


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
    args = ap.parse_args(argv)
    if args.rounds < 1:
        ap.error("--rounds must be >= 1")
    with tempfile.TemporaryDirectory(prefix="engine_ab_") as tmp:
        sys.path.insert(0, tmp)
        try:
            old = load(args.old_src, "repro_ab_old", Path(tmp))
            new = load(args.new_src, "repro_ab_new", Path(tmp))
            print(report(measure(old, new, args.rounds)))
        finally:
            sys.path.remove(tmp)
    return 0


if __name__ == "__main__":
    sys.exit(main())
