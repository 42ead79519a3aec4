"""Request/response schemas for the buffer-provisioning service.

A *provisioning query* is the repo's product question in data form:
"given this topology, policy, adversary, parameters, and fault overlay
— how big must buffers be, and what do I lose if they're smaller?"
This module validates raw JSON into a :class:`ProvisionQuery`, computes
the content-address the cache is keyed on, and defines the analytic
fallback answer used by graceful degradation.

Two query kinds are accepted:

* ``"provision"`` (the default) — an ad-hoc simulation over a topology
  spec, answered with the measured buffer requirement (max height),
  the paper's analytic bound, and the loss accounting;
* ``"experiment"`` — a registry experiment by id, which lets callers
  (and the chaos soak, via :mod:`repro.runner.chaos`'s ``X*`` stubs)
  route the existing experiment machinery through the shard pool.

The cache key is a SHA-256 over the canonical JSON of
``(topology_sha, policy, adversary, params, faults)``: deterministic
across processes (no ``PYTHONHASHSEED`` dependence) and insensitive to
dict ordering in the incoming request.

Next to the cache key lives the *batch key* — the coarser content
address the service's coalescing batcher groups cache-missing queries
by.  Two provision queries share a batch key iff one
:class:`~repro.network.fleet_engine.FleetEngine` can hold them as
lanes of a single fleet: same resolved topology, policy, decision
timing, overflow discipline and buffer capacity.  Per-lane facts
(adversary, steps, seed, fault plan, deadline) stay out of the batch
key — the fleet takes one adversary and one fault plan per lane and
advances heterogeneous horizons via ``run_horizons``.

:func:`check_answer` checks every computed answer in-band before it
is served or cached.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from ..adversaries import ADVERSARY_NAMES
from ..errors import ReproError
from ..network.buffers import Overflow, coerce_overflow
from ..runner.store import canonical_sha256

__all__ = [
    "RESPONSE_SCHEMA",
    "ServiceError",
    "BadRequest",
    "ProvisionQuery",
    "MAX_TOPOLOGY_NODES",
    "topology_sha",
    "analytic_bound",
    "analytic_answer",
    "check_answer",
]

RESPONSE_SCHEMA = "repro-provision-v1"

#: topology specs the service accepts, mirroring ``repro certify``.
_TOPOLOGY_KINDS = ("path", "spider", "binary", "random")


class ServiceError(ReproError):
    """Base class for provisioning-service failures."""


class BadRequest(ServiceError):
    """The request is malformed; the message names the offending field."""


#: the largest topology the service simulates: the biggest n any
#: experiment preset runs (E2, E3 and E5 at ``full``)
MAX_TOPOLOGY_NODES = 16_384


def _spec_nodes(kind: str, arg: str) -> int:
    """Node count a spec resolves to, worked out without building it."""
    if kind == "path":
        return int(arg or 256)
    if kind == "random":
        return int(arg)
    if kind == "spider":
        arms, _, length = arg.partition("x")
        return int(arms) * int(length) + 1
    if kind == "binary":
        depth = int(arg)
        # 2^(D+1) - 1 nodes; a depth past the cap never takes the power
        if depth > MAX_TOPOLOGY_NODES.bit_length():
            return MAX_TOPOLOGY_NODES + 1
        return (1 << (depth + 1)) - 1
    raise ValueError(f"unknown topology kind {kind!r}")


def _resolve_topology(spec: str):
    """``(succ_list, n, is_path)`` for a topology spec string.

    The size is checked from the spec before anything is built, so an
    oversized spec costs the event loop nothing.
    """
    from ..network import topology as topo

    kind, _, arg = str(spec).partition(":")
    try:
        n = _spec_nodes(kind, arg)
        if n > MAX_TOPOLOGY_NODES:
            raise BadRequest(
                f"topology {spec!r} has more than {MAX_TOPOLOGY_NODES} "
                "nodes, the most the service simulates"
            )
        if kind == "path":
            if n < 2:
                raise ValueError
            return list(range(1, n)) + [-1], n, True
        if kind == "spider":
            arms, _, length = arg.partition("x")
            t = topo.spider(int(arms), int(length))
        elif kind == "binary":
            t = topo.balanced_tree(2, int(arg))
        else:
            t = topo.random_tree(n, seed=0)
        if t.n < 2:
            raise ValueError
    except BadRequest:
        raise
    except (ValueError, TypeError, ReproError) as err:
        raise BadRequest(
            f"bad topology spec {spec!r}; use path:N (N>=2), spider:AxL "
            f"(A, L >= 1), binary:D (D>=1) or random:N (N>=2)"
        ) from err
    return [int(s) for s in t.succ], t.n, bool(t.is_canonical_path)


def topology_sha(spec: str) -> str:
    """Content address of the topology a spec resolves to.

    Hashes the successor array, not the spec string, so two spellings
    of the same tree share cache entries.
    """
    return canonical_sha256({"succ": _resolve_topology(spec)[0]})


_DECISION_TIMINGS = ("pre_injection", "post_injection")


@dataclass
class ProvisionQuery:
    """One validated provisioning request."""

    kind: str = "provision"
    topology: str = "path:64"
    policy: str = "odd-even"
    adversary: str = "far-end"
    steps: int | None = None
    seed: int = 0
    buffer_capacity: int | None = None
    overflow: str = Overflow.DROP_TAIL.value
    decision_timing: str = "pre_injection"
    faults: dict[str, Any] | None = None
    deadline_s: float | None = None
    # experiment kind only:
    experiment: str | None = None
    preset: str = "quick"
    # resolved facts (not part of the wire format):
    n: int = field(default=0, compare=False)
    is_path: bool = field(default=True, compare=False)
    topology_sha: str = field(default="", compare=False)

    @classmethod
    def from_dict(cls, raw: Any) -> "ProvisionQuery":
        if not isinstance(raw, dict):
            raise BadRequest("request body must be a JSON object")
        known = {
            "kind", "topology", "policy", "adversary", "steps", "seed",
            "buffer_capacity", "overflow", "decision_timing", "faults",
            "deadline_s", "experiment", "preset",
        }
        unknown = sorted(set(raw) - known)
        if unknown:
            raise BadRequest(f"unknown field(s): {', '.join(unknown)}")
        kind = raw.get("kind", "provision")
        if kind not in ("provision", "experiment"):
            raise BadRequest(
                f"kind must be 'provision' or 'experiment', got {kind!r}"
            )
        q = cls(kind=kind)
        if kind == "experiment":
            exp = raw.get("experiment")
            if not isinstance(exp, str) or not exp:
                raise BadRequest("experiment queries need an 'experiment' id")
            q.experiment = exp.upper()
            preset = raw.get("preset", "quick")
            if preset not in ("quick", "full"):
                raise BadRequest(f"preset must be quick|full, got {preset!r}")
            q.preset = preset
        else:
            q.topology = str(raw.get("topology", q.topology))
            succ, q.n, q.is_path = _resolve_topology(q.topology)
            q.policy = str(raw.get("policy", q.policy))
            from ..policies import available_policies

            if q.is_path and q.policy == "tree-odd-even":
                raise BadRequest("tree-odd-even needs a tree topology")
            if not q.is_path:
                # non-path topologies run on the TreeEngine, whose
                # policy surface is the tree scheduler
                q.policy = str(raw.get("policy", "tree-odd-even"))
                if q.policy != "tree-odd-even":
                    raise BadRequest(
                        f"tree topologies support policy 'tree-odd-even', "
                        f"got {q.policy!r}"
                    )
            elif q.policy not in available_policies():
                raise BadRequest(
                    f"unknown policy {q.policy!r}; known: "
                    f"{', '.join(available_policies())}"
                )
            q.adversary = str(raw.get("adversary", q.adversary))
            if q.adversary not in ADVERSARY_NAMES:
                raise BadRequest(
                    f"unknown adversary {q.adversary!r}; known: "
                    f"{', '.join(ADVERSARY_NAMES)}"
                )
            steps = raw.get("steps")
            if steps is not None:
                if type(steps) is not int or not 1 <= steps <= 200_000:
                    raise BadRequest(
                        "steps must be an int in [1, 200000] or omitted"
                    )
                q.steps = steps
            seed = raw.get("seed", 0)
            if type(seed) is not int:
                raise BadRequest("seed must be an int")
            q.seed = seed
            cap = raw.get("buffer_capacity")
            if cap is not None and (type(cap) is not int or cap < 1):
                raise BadRequest("buffer_capacity must be an int >= 1 or null")
            q.buffer_capacity = cap
            try:
                q.overflow = coerce_overflow(
                    raw.get("overflow", q.overflow)
                ).value
            except ReproError as err:
                raise BadRequest(str(err)) from err
            timing = raw.get("decision_timing", q.decision_timing)
            if timing not in _DECISION_TIMINGS:
                raise BadRequest(
                    f"decision_timing must be one of "
                    f"{', '.join(_DECISION_TIMINGS)}, got {timing!r}"
                )
            q.decision_timing = timing
            faults = raw.get("faults")
            if faults is not None:
                if not isinstance(faults, dict):
                    raise BadRequest(
                        "faults must be a FaultPlan JSON object or null"
                    )
                from ..network.faults import FaultPlan

                try:  # validate now so shards never see a bad plan
                    FaultPlan.from_dict(faults)
                except ReproError as err:
                    raise BadRequest(f"bad fault plan: {err}") from err
                q.faults = faults
            q.topology_sha = canonical_sha256({"succ": succ})
        deadline = raw.get("deadline_s")
        if deadline is not None:
            # type(), not isinstance(): JSON true/false are bools
            if type(deadline) not in (int, float) or deadline <= 0:
                raise BadRequest("deadline_s must be a positive number")
            q.deadline_s = float(deadline)
        return q

    def check_runnable(self) -> None:
        """Reject a well-formed query no engine can run, as a 400.

        ``pressure`` walks the path order, which trees do not have
        (``repro simulate`` refuses the same pair), and a fault event
        may not name the sink or a node outside the topology.  Kept
        apart from :meth:`from_dict` because such a query still has a
        content address: perfbench parses its known-failure probe
        in-process.  The front door calls both, so the query never
        reaches a shard, where it would fail its whole batch.
        """
        if self.adversary == "pressure" and not self.is_path:
            raise BadRequest(
                "adversary 'pressure' needs a path topology; trees "
                "support: "
                + ", ".join(a for a in ADVERSARY_NAMES if a != "pressure")
            )
        if self.faults is not None:
            from ..network.faults import FaultPlan, check_fault_nodes

            succ = _resolve_topology(self.topology)[0]
            try:
                check_fault_nodes(
                    FaultPlan.from_dict(self.faults), self.n, succ.index(-1)
                )
            except ReproError as err:
                raise BadRequest(f"faults: {err}") from err

    # ------------------------------------------------------------------
    def canonical(self) -> dict[str, Any]:
        """The key-bearing content of the query (deadline excluded —
        how long a caller is willing to wait does not change the
        answer)."""
        if self.kind == "experiment":
            return {
                "kind": "experiment",
                "experiment": self.experiment,
                "preset": self.preset,
            }
        return {
            "kind": "provision",
            "topology_sha": self.topology_sha,
            "policy": self.policy,
            "adversary": self.adversary,
            "params": {
                "steps": self.steps,
                "seed": self.seed,
                "buffer_capacity": self.buffer_capacity,
                "overflow": self.overflow,
                "decision_timing": self.decision_timing,
            },
            "faults": self.faults,
        }

    def cache_key(self) -> str:
        return canonical_sha256(self.canonical())

    def batch_key(self) -> str | None:
        """The coalescing group this query may be co-scheduled in.

        Everything one FleetEngine construction fixes for all of its
        lanes: the resolved topology, the (shared) policy instance
        family, decision timing, the overflow discipline and the
        buffer capacity.  ``None`` for experiment queries, which run
        no fleet.
        """
        if self.kind != "provision":
            return None
        return canonical_sha256(
            {
                "topology_sha": self.topology_sha,
                "policy": self.policy,
                "decision_timing": self.decision_timing,
                "overflow": self.overflow,
                "buffer_capacity": self.buffer_capacity,
            }
        )

    def to_worker_dict(self) -> dict[str, Any]:
        """Everything a shard worker needs, as picklable plain data."""
        return {
            "kind": self.kind,
            "topology": self.topology,
            "policy": self.policy,
            "adversary": self.adversary,
            "steps": self.steps,
            "seed": self.seed,
            "buffer_capacity": self.buffer_capacity,
            "overflow": self.overflow,
            "decision_timing": self.decision_timing,
            "faults": self.faults,
            "experiment": self.experiment,
            "preset": self.preset,
        }


def analytic_bound(query: ProvisionQuery) -> float | None:
    """The paper's closed-form buffer bound for this query's shape.

    Paths get the Odd-Even ``log2(n) + 3`` bound (Theorem 4.13); trees
    the Theorem 5.11 bound.  ``None`` for experiment queries.
    """
    from ..core.bounds import odd_even_upper_bound, tree_upper_bound

    if query.kind != "provision" or query.n < 2:
        return None
    if query.is_path:
        return float(odd_even_upper_bound(query.n))
    return float(tree_upper_bound(query.n))


def analytic_answer(query: ProvisionQuery, reason: str) -> dict[str, Any]:
    """Graceful-degradation fallback: the O(log n)-style bound, honestly
    flagged ``degraded`` — never a guess dressed up as a measurement."""
    return {
        "schema": RESPONSE_SCHEMA,
        "kind": query.kind,
        "query": query.canonical(),
        "cache_key": query.cache_key(),
        "max_height": None,
        "bound": analytic_bound(query),
        "degraded": True,
        "degraded_reason": reason,
    }


def check_answer(query: ProvisionQuery, answer: dict[str, Any]) -> None:
    """Raise :class:`ServiceError` naming the check an answer fails.

    Conservation is always checked.  ``max_height <= bound`` is checked
    where the theorem's hypotheses hold: Odd-Even on a path (Theorem
    4.13) or the Tree policy on a tree (Theorem 5.11), pre-injection
    decisions, no fault plan and unbounded buffers.  Post-injection
    runs are left out: the proofs analyse pre-injection decisions
    (DESIGN.md §3), and E9 checks them against ``log2 n + 4``.
    """
    if query.kind != "provision":
        return
    a = answer
    if a["injected"] != a["delivered"] + a["in_flight"] + a["dropped"]:
        raise ServiceError(
            "conservation check failed: injected={injected} != "
            "delivered={delivered} + in_flight={in_flight} + "
            "dropped={dropped}".format(**a)
        )
    bound = analytic_bound(query)
    if (
        query.policy == ("odd-even" if query.is_path else "tree-odd-even")
        and query.decision_timing == "pre_injection"
        and query.faults is None
        and query.buffer_capacity is None
        and a["max_height"] > bound
    ):
        raise ServiceError(
            f"bound check failed: max_height={a['max_height']} > Theorem "
            f"{'4.13' if query.is_path else '5.11'} bound {bound:g}"
        )
