"""Resilient buffer-provisioning service over the engine shard pool.

The repo's product question — "given topology, rate, burstiness,
locality, and faults: how big must buffers be, and what do I lose if
they're smaller?" — served as a long-running asyncio API
(``repro serve``), built to stay correct and responsive while its own
workers crash, hang, and saturate:

* :mod:`repro.service.protocol` — query schemas, validation, and the
  content-address cache key;
* :mod:`repro.service.resilience` — admission control with explicit
  load shedding, per-request deadlines, circuit breakers, and
  deterministic backoff (the reusable primitives);
* :mod:`repro.service.cache` — checksummed, LRU+size-bounded
  content-addressed result cache over a :class:`~repro.runner.RunStore`
  directory;
* :mod:`repro.service.shards` — the worker-process shard pool with
  per-shard breakers, deadline kills, and pool healing;
* :mod:`repro.service.batcher` — the micro-batching coalescer that
  turns concurrent cache-missing queries sharing a batch key into one
  :class:`~repro.network.fleet_engine.FleetEngine` call per batch (a
  query that arrives alone is a one-lane batch);
* :mod:`repro.service.app` — the HTTP/1.1 front end and endpoints
  (``/provision``, ``/healthz``, ``/readyz``, ``/stats``), hardened
  against hostile clients: connection governor, per-phase I/O
  deadlines, slow-client reaping, and graceful drain;
* :mod:`repro.service.abuse` — the adversarial client corpus
  (slowloris, stalled bodies, oversized inputs, floods) and the
  raw-socket driver behind ``tools/hostile_client.py``.

See ``docs/robustness.md`` ("Provisioning service" and "Hostile
clients & graceful drain") for semantics.
"""

from .abuse import Attack, AttackResult, AttackStep, corpus, flood, run_attack
from .app import ProvisioningService, ServiceConfig, ServiceThread
from .batcher import BatcherStats, QueryBatcher
from .cache import ResultCache
from .protocol import (
    BadRequest,
    ProvisionQuery,
    ServiceError,
    analytic_answer,
    analytic_bound,
    check_answer,
    topology_sha,
)
from .resilience import (
    AdmissionController,
    CircuitBreaker,
    ConnectionGovernor,
    ConnectionRefused,
    ConnectionSlot,
    Deadline,
    DeadlineExceeded,
    Shedding,
    backoff_delay,
)
from .shards import NoHealthyShard, QueryFailed, Shard, ShardPool
from .worker import execute_batch, execute_query, warm_worker

__all__ = [
    "AdmissionController",
    "Attack",
    "AttackResult",
    "AttackStep",
    "BadRequest",
    "BatcherStats",
    "CircuitBreaker",
    "ConnectionGovernor",
    "ConnectionRefused",
    "ConnectionSlot",
    "Deadline",
    "DeadlineExceeded",
    "NoHealthyShard",
    "ProvisionQuery",
    "ProvisioningService",
    "QueryBatcher",
    "QueryFailed",
    "ResultCache",
    "ServiceConfig",
    "ServiceError",
    "ServiceThread",
    "Shard",
    "ShardPool",
    "Shedding",
    "analytic_answer",
    "analytic_bound",
    "backoff_delay",
    "check_answer",
    "corpus",
    "execute_batch",
    "execute_query",
    "flood",
    "run_attack",
    "topology_sha",
    "warm_worker",
]
