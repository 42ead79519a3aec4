"""``repro serve`` with spans around each layer, for the traced run.

Run as ``python perfbench/launcher.py --port 0 --cache-dir DIR`` with
``PERFBENCH_TRACE_DIR`` set.  The server process records parse, cache,
store, batcher and shard-pool spans and writes them to
``server.json`` once the graceful drain has finished.  Shard workers
are spawned processes that re-import this file as ``__mp_main__``;
that import is the only hook into them, so it installs the engine,
policy, adversary and metrics spans there and writes
``worker-<pid>.json`` when the worker exits.
"""

from __future__ import annotations

import argparse
import atexit
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import spans  # noqa: E402

TRACE_DIR = os.environ.get(spans.TRACE_ENV)

if __name__ == "__mp_main__" and TRACE_DIR:
    _worker_tracer = spans.Tracer()
    spans.install_engine(_worker_tracer)
    atexit.register(
        _worker_tracer.dump, Path(TRACE_DIR) / f"worker-{os.getpid()}.json"
    )


def main(argv: list[str]) -> int:
    from repro.service.app import ServiceConfig, run_service

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--port", type=int, default=0)
    parser.add_argument("--cache-dir", required=True)
    args = parser.parse_args(argv)
    if not TRACE_DIR:
        parser.error(f"{spans.TRACE_ENV} must name the span directory")
    tracer = spans.Tracer()
    spans.install_service(tracer)
    code = run_service(ServiceConfig(port=args.port, cache_dir=args.cache_dir))
    tracer.dump(Path(TRACE_DIR) / "server.json")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
