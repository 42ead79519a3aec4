"""In-memory span recording around the public methods of each layer.

Nothing under ``src/`` knows about this module: :func:`install_engine`
and :func:`install_service` replace methods on the classes with timing
wrappers, and the benchmark reads the totals back.  Synchronous spans
nest on one stack, so a layer's self time is its span minus the spans
it contains.  Coroutine spans (batcher and shard pool) interleave on
the event loop, so they are recorded per call instead, keyed by the
cache key of the query they serve.
"""

from __future__ import annotations

import functools
import json
import os
from collections import defaultdict
from pathlib import Path
from time import perf_counter_ns
from typing import Any, Callable

#: the directory a traced server and its workers write their spans to
TRACE_ENV = "PERFBENCH_TRACE_DIR"


class Tracer:
    """Per-category call counts, inclusive and self nanoseconds."""

    def __init__(self) -> None:
        self.calls: dict[str, int] = defaultdict(int)
        self.total_ns: dict[str, int] = defaultdict(int)
        self.self_ns: dict[str, int] = defaultdict(int)
        self.steps: dict[str, int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)
        # coroutine spans: (category, cache keys, ns, compute_s or None)
        self.async_spans: list[tuple[str, list[str], int, float | None]] = []
        self._stack: list[list[int]] = []

    def sync(
        self, fn: Callable, category: Callable[[Any], str] | str
    ) -> Callable:
        """Wrap ``fn`` (a method) in a nesting span."""
        stack = self._stack
        calls, total, own = self.calls, self.total_ns, self.self_ns
        fixed = isinstance(category, str)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [0]
            stack.append(frame)
            t0 = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = perf_counter_ns() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += dur
                cat = category if fixed else category(args[0])
                calls[cat] += 1
                total[cat] += dur
                own[cat] += dur - frame[0]

        return wrapper

    def to_dict(self) -> dict[str, Any]:
        return {
            "calls": dict(self.calls),
            "total_ns": dict(self.total_ns),
            "self_ns": dict(self.self_ns),
            "steps": dict(self.steps),
            "counts": dict(self.counts),
            "async_spans": self.async_spans,
        }

    def dump(self, path: Path) -> None:
        path.write_text(json.dumps(self.to_dict()))


def merge(docs: list[dict[str, Any]]) -> dict[str, Any]:
    """Sum the tracer dumps of several processes."""
    out: dict[str, Any] = {
        k: defaultdict(int)
        for k in ("calls", "total_ns", "self_ns", "steps", "counts")
    }
    out["async_spans"] = []
    for doc in docs:
        for k in ("calls", "total_ns", "self_ns", "steps", "counts"):
            for name, v in doc[k].items():
                out[k][name] += v
        out["async_spans"].extend(doc["async_spans"])
    return out


def layer_s(self_ns: dict[str, int], name: str) -> float:
    """Self seconds of a layer, fleet fallback lanes included."""
    return (self_ns.get(name, 0) + self_ns.get(f"{name}.fleet_lane", 0)) / 1e9


def fallback_s(self_ns: dict[str, int]) -> float:
    """Self seconds of everything run for FleetEngine fallback lanes."""
    return sum(v for k, v in self_ns.items() if k.endswith(".fleet_lane")) / 1e9


def _own_methods(cls: type, names: tuple[str, ...]):
    for name in names:
        fn = cls.__dict__.get(name)
        if callable(fn) and not getattr(fn, "__isabstractmethod__", False):
            yield name, fn


def _subclasses(root: type) -> list[type]:
    seen: list[type] = []
    todo = [root]
    while todo:
        cls = todo.pop()
        if cls not in seen:
            seen.append(cls)
            todo.extend(cls.__subclasses__())
    return seen


#: engine class name -> category; subclasses resolve through the MRO
ENGINE_CATEGORIES = {
    "PathEngine": "path",
    "TreeEngine": "tree",
    "DagEngine": "dag",
    "DagLoopEngine": "dag_loop",
    "FleetEngine": "fleet",
    "Simulator": "simulator",
}


def install_engine(tracer: Tracer) -> None:
    """Time engines, policies, adversaries and ``MetricsBundle``.

    Engine spans are ``engine.<kind>``; steps advanced are counted on
    the outermost span of each engine instance (lanes times steps for
    a FleetEngine).  Spans inside the per-lane engine of a FleetEngine
    fallback lane get a ``.fleet_lane`` suffix.  Every FleetEngine
    built adds its lane count and its vectorised lane count.
    """
    import repro.adversaries as adversaries
    import repro.policies  # noqa: F401  (registers every policy class)
    from repro.network.dag_engine import (
        DagEngine, DagLoopEngine, DagPolicy, _DagEngineCore,
    )
    from repro.network.engine_fast import PathEngine
    from repro.network.fleet_engine import FleetEngine
    from repro.network.metrics import MetricsBundle
    from repro.network.simulator import Simulator
    from repro.network.tree_engine import TreeEngine
    from repro.policies.base import ForwardingPolicy

    fleets_open = [0]  # FleetEngine calls on the stack
    # engines stepping a FleetEngine's fallback lane: their spans, and
    # those of the calls they make, are filed apart so that what the
    # fleet fails to vectorise shows on its own
    lanes_open = [0]

    def lane_suffix() -> str:
        return ".fleet_lane" if lanes_open[0] else ""

    def engine_kind(obj: Any) -> str:
        for cls in type(obj).__mro__:
            kind = ENGINE_CATEGORIES.get(cls.__name__)
            if kind is not None:
                return kind
        return "other"

    def engine_category(obj: Any) -> str:
        return f"engine.{engine_kind(obj)}{lane_suffix()}"

    active: set[int] = set()
    steps = tracer.steps

    def counting(fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(self, *args, **kwargs):
            if id(self) in active:
                return fn(self, *args, **kwargs)
            active.add(id(self))
            kind = engine_kind(self)
            lane = kind != "fleet" and fleets_open[0] > 0
            fleets_open[0] += kind == "fleet"
            lanes_open[0] += lane
            start = self.step_index
            try:
                return fn(self, *args, **kwargs)
            finally:
                fleets_open[0] -= kind == "fleet"
                lanes_open[0] -= lane
                active.discard(id(self))
                lanes = getattr(self, "runs", 1)
                steps[f"engine.{kind}"] += (self.step_index - start) * lanes

        return wrapper

    engines = (PathEngine, TreeEngine, _DagEngineCore, DagEngine,
               DagLoopEngine, FleetEngine, Simulator)
    for cls in engines:
        for name, fn in _own_methods(cls, ("run", "step", "run_horizons")):
            setattr(cls, name, counting(tracer.sync(fn, engine_category)))

    fleet_init = FleetEngine.__init__

    @functools.wraps(fleet_init)
    def init(self, *args, **kwargs):
        fleet_init(self, *args, **kwargs)
        tracer.counts["fleet.lanes"] += self.runs
        tracer.counts["fleet.vectorized"] += len(self.vectorized_runs)

    FleetEngine.__init__ = init

    def layer(name: str) -> Callable[[Any], str]:
        return lambda _obj: name + lane_suffix()

    policy_methods = ("send_counts", "send_mask", "fleet_send_counts",
                      "choose")

    for cls in _subclasses(ForwardingPolicy) + _subclasses(DagPolicy):
        for name, fn in _own_methods(cls, policy_methods):
            setattr(cls, name, tracer.sync(fn, layer("policy.decide")))
    for cls in _subclasses(adversaries.Adversary):
        for name, fn in _own_methods(cls, ("inject", "inject_schedule")):
            setattr(cls, name, tracer.sync(fn, layer("adversary.inject")))
    MetricsBundle.observe = tracer.sync(
        MetricsBundle.observe, layer("metrics.observe")
    )


def install_cache(tracer: Tracer) -> None:
    """Time the result cache and the run-store index under it.

    Index rewrites also add the size of the rewritten ``index.json``
    to ``store.index_bytes`` (a computed figure, not measured I/O).
    """
    from repro.runner.store import RunStore
    from repro.service.cache import ResultCache

    ResultCache.get = tracer.sync(ResultCache.get, "cache.get")
    ResultCache.put = tracer.sync(ResultCache.put, "cache.put")
    RunStore.touch = tracer.sync(RunStore.touch, "store.touch")
    RunStore.evict = tracer.sync(RunStore.evict, "store.evict")
    RunStore.load_index = tracer.sync(
        RunStore.load_index, "store.load_index"
    )
    write_index = RunStore.write_index

    @functools.wraps(write_index)
    def counted_write(self, doc):
        path = write_index(self, doc)
        tracer.counts["store.index_bytes"] += os.stat(path).st_size
        return path

    RunStore.write_index = tracer.sync(counted_write, "store.write_index")


def install_service(tracer: Tracer) -> None:
    """Time the front end's layers: parse, cache, batch wait, shards."""
    from repro.service.batcher import QueryBatcher
    from repro.service.protocol import ProvisionQuery
    from repro.service.shards import ShardPool

    install_cache(tracer)
    parse = ProvisionQuery.__dict__["from_dict"].__func__
    ProvisionQuery.from_dict = classmethod(
        tracer.sync(parse, "protocol.parse")
    )
    spans = tracer.async_spans

    def timed(fn: Callable, category: str, keys, compute) -> Callable:
        @functools.wraps(fn)
        async def wrapper(self, queries, deadline):
            result = None
            t0 = perf_counter_ns()
            try:
                result = await fn(self, queries, deadline)
                return result
            finally:
                dur = perf_counter_ns() - t0
                spent = None if result is None else compute(result)
                spans.append((category, keys(queries), dur, spent))

        return wrapper

    def one_key(query):
        return [query.cache_key()]

    def batch_keys(queries):
        return [q.cache_key() for q in queries]

    QueryBatcher.submit = timed(
        QueryBatcher.submit, "batcher.submit", one_key, lambda r: None
    )
    ShardPool.submit = timed(
        ShardPool.submit, "shards.solo", one_key,
        lambda r: float(r.get("compute_s", 0.0)),
    )
    ShardPool.submit_batch = timed(
        ShardPool.submit_batch, "shards.batch", batch_keys,
        lambda rs: max(float(r.get("compute_s", 0.0)) for r in rs),
    )
