"""Self-healing process-pool experiment runner.

``repro run all --preset full`` used to execute all experiments
strictly serially in one process; this module is the orchestration
layer that lets the sweep use however many cores the machine has,
without changing what any experiment computes — and survive its own
adversary: hung experiments, killed workers, and killed sweeps.

* experiments run in *isolated workers* — an experiment that raises
  (or whose worker dies) becomes an ``error`` record instead of
  aborting the sweep;
* results are returned in *submission order* regardless of completion
  order, so serial and parallel sweeps print identically;
* every experiment is timed (wall-clock), and the whole sweep is
  summarised in a :class:`RunManifest` that the perf-telemetry layer
  (:mod:`repro.runner.perf`) serialises into ``BENCH_<label>.json``;
* ``timeout_s`` puts a wall-clock bound on each experiment: a hung
  worker is replaced (the pool is rebuilt, in-flight siblings are
  resubmitted without penalty) and the experiment is retried with
  exponential backoff + deterministic jitter up to ``retries`` times,
  finishing as status ``"timeout"`` if it never completes;
* a ``BrokenProcessPool`` no longer poisons the tail of the sweep: the
  pool is rebuilt and only the lost futures are resubmitted;
* with a :class:`~repro.runner.store.RunStore`, every record is flushed
  to its own artifact as it lands and the manifest is re-flushed with
  it; SIGINT/SIGTERM flush the manifest before the process exits, and
  ``resume=True`` skips experiments whose stored artifacts verify.

``jobs=1`` with no timeout (the default) runs in-process with no pool,
byte-identical to the historical serial path; ``jobs=0`` means "one
worker per CPU" (``os.cpu_count()``).
"""

from __future__ import annotations

import contextlib
import os
import signal
import threading
import time
import zlib
from concurrent.futures import (
    FIRST_COMPLETED,
    Future,
    ProcessPoolExecutor,
    wait,
)
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Sequence

from ..errors import ExperimentError
from ..experiments import all_experiment_ids, get_experiment
from ..io.results import ExperimentResult
from ..network.faults import FaultPlan

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .store import RunStore

__all__ = [
    "ExperimentRecord",
    "RunManifest",
    "backoff_delay",
    "run_experiments",
]

#: callback signature for retry notifications:
#: ``(experiment_id, failed_attempt, delay_s, reason)``
RetryCallback = Callable[[str, int, float, str], None]


@dataclass
class ExperimentRecord:
    """Outcome of one experiment inside a sweep.

    ``status`` is ``"ok"`` (ran, shape assertion passed),
    ``"failed-shape"`` (ran, shape assertion failed), ``"error"``
    (raised / worker died; ``error`` carries the message and ``result``
    is ``None``) or ``"timeout"`` (exceeded the per-experiment
    wall-clock bound on every allowed attempt).  ``attempts`` counts
    how many times the experiment was started; anything above 1 means
    the runner retried it.
    """

    experiment_id: str
    status: str
    wall_s: float
    result: ExperimentResult | None = None
    error: str | None = None
    attempts: int = 1

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    @property
    def retried(self) -> bool:
        return self.attempts > 1

    def to_dict(self) -> dict[str, Any]:
        """Compact form for manifests / BENCH records (no result body)."""
        d: dict[str, Any] = {
            "id": self.experiment_id,
            "status": self.status,
            "wall_s": round(self.wall_s, 4),
        }
        if self.attempts > 1:
            d["attempts"] = self.attempts
            d["retried"] = True
        if self.error is not None:
            d["error"] = self.error
        return d


@dataclass
class RunManifest:
    """The merged record of one sweep: who ran, how it went, how long."""

    preset: str
    jobs: int
    records: list[ExperimentRecord] = field(default_factory=list)
    wall_s: float = 0.0

    @property
    def failures(self) -> list[ExperimentRecord]:
        return [r for r in self.records if not r.ok]

    @property
    def passed(self) -> bool:
        return not self.failures

    def to_dict(self) -> dict[str, Any]:
        return {
            "preset": self.preset,
            "jobs": self.jobs,
            "wall_s": round(self.wall_s, 4),
            "experiments": [r.to_dict() for r in self.records],
        }


def _run_one(
    experiment_id: str, preset: str, plan_json: str | None
) -> tuple[str, float, ExperimentResult | None, str | None]:
    """Worker body: run one experiment, never raise.

    Module-level (picklable) so it can cross a process boundary; the
    fault plan travels as JSON for the same reason.
    """
    plan = FaultPlan.from_json(plan_json) if plan_json else None
    t0 = time.perf_counter()
    try:
        result = get_experiment(experiment_id).run(preset, faults=plan)
    except BaseException as err:  # isolate *any* failure to this record
        return (
            experiment_id,
            time.perf_counter() - t0,
            None,
            f"{type(err).__name__}: {err}",
        )
    return experiment_id, time.perf_counter() - t0, result, None


def _record(
    experiment_id: str,
    wall_s: float,
    result: ExperimentResult | None,
    error: str | None,
) -> ExperimentRecord:
    if error is not None:
        status = "error"
    elif result is not None and result.passed:
        status = "ok"
    else:
        status = "failed-shape"
    return ExperimentRecord(
        experiment_id=experiment_id,
        status=status,
        wall_s=wall_s,
        result=result,
        error=error,
    )


def backoff_delay(key: str, attempt: int, backoff_s: float) -> float:
    """Exponential backoff with deterministic jitter.

    The jitter term is a pure function of ``(key, attempt)`` (a CRC32
    folded into [0, 0.25)), so retry schedules are exactly reproducible
    run to run — no clock or RNG state involved.  Shared with the
    provisioning service (:mod:`repro.service.resilience`), which keys
    it on the request's cache key instead of an experiment id.
    """
    jitter = (
        zlib.crc32(f"{key}:{attempt}".encode("utf-8"))
        % 1000
    ) / 4000.0
    return backoff_s * (2.0 ** (attempt - 1)) * (1.0 + jitter)


@dataclass
class _Task:
    """Scheduler bookkeeping for one experiment in the pool."""

    idx: int
    eid: str
    attempts: int = 0
    not_before: float = 0.0  # monotonic gate for backoff
    started: float = 0.0  # monotonic submission time of current attempt


class _PoolScheduler:
    """Pool sweep with deadlines, retries, and pool self-healing.

    Invariants: at most ``jobs`` futures are in flight (so a future's
    submission time is its start time, which makes the per-experiment
    deadline honest); every task ends in exactly one final record via
    ``finalize(idx, record)``; a broken or deadline-hit pool is rebuilt
    and only the genuinely lost work is resubmitted.
    """

    def __init__(
        self,
        tasks: Sequence[tuple[int, str]],
        preset: str,
        plan_json: str | None,
        jobs: int,
        timeout_s: float | None,
        retries: int,
        backoff_s: float,
        finalize: Callable[[int, ExperimentRecord], None],
        on_retry: RetryCallback | None,
    ) -> None:
        self.queue = [_Task(idx, eid) for idx, eid in tasks]
        self.preset = preset
        self.plan_json = plan_json
        self.jobs = max(1, min(jobs, len(self.queue)))
        self.timeout_s = timeout_s
        self.retries = retries
        self.backoff_s = backoff_s
        self.finalize = finalize
        self.on_retry = on_retry
        self.pool: ProcessPoolExecutor | None = None
        self.running: dict[Future, _Task] = {}

    # -- pool lifecycle ------------------------------------------------
    def _ensure_pool(self) -> ProcessPoolExecutor:
        if self.pool is None:
            self.pool = ProcessPoolExecutor(max_workers=self.jobs)
        return self.pool

    def _discard_pool(self, *, kill: bool) -> None:
        pool, self.pool = self.pool, None
        if pool is None:
            return
        if kill:
            # a running future cannot be cancelled; terminating the
            # worker processes is the only way to reclaim a stuck slot
            for proc in list(getattr(pool, "_processes", {}).values()):
                try:
                    proc.terminate()
                except Exception:  # pragma: no cover - already dead
                    pass
        try:
            pool.shutdown(wait=not kill, cancel_futures=True)
        except Exception:  # pragma: no cover - broken executor teardown
            pass

    def _heal_pool(self, *, kill: bool) -> None:
        """Rebuild the pool; resubmit in-flight siblings without penalty."""
        for fut, task in list(self.running.items()):
            fut.cancel()
            task.attempts -= 1  # innocent bystander: un-charge the attempt
            task.not_before = 0.0
            self.queue.append(task)
        self.running.clear()
        self._discard_pool(kill=kill)
        self._ensure_pool()

    # -- scheduling ----------------------------------------------------
    def _submit_ready(self) -> None:
        pool = self._ensure_pool()
        while len(self.running) < self.jobs and self.queue:
            now = time.monotonic()
            ready = [t for t in self.queue if t.not_before <= now]
            if not ready:
                return
            task = min(ready, key=lambda t: t.idx)
            self.queue.remove(task)
            try:
                fut = pool.submit(
                    _run_one, task.eid, self.preset, self.plan_json
                )
            except BrokenProcessPool:
                # a worker died between collect and submit: put this
                # (never-started) task back unharmed.  With work still
                # in flight, stop submitting and let wait()/_collect
                # surface the dead futures — healing here would requeue
                # the culprit as an innocent bystander, un-charging its
                # attempt (and a persistent crasher would retry forever)
                self.queue.append(task)
                if self.running:
                    return
                self._heal_pool(kill=False)
                pool = self._ensure_pool()
                continue
            task.attempts += 1
            task.started = time.monotonic()
            self.running[fut] = task

    def _next_wait_s(self) -> float | None:
        """How long ``wait()`` may block before something needs us."""
        now = time.monotonic()
        candidates: list[float] = []
        if self.timeout_s is not None and self.running:
            candidates.append(
                min(t.started for t in self.running.values())
                + self.timeout_s
                - now
            )
        backing_off = [t.not_before for t in self.queue if t.not_before > now]
        if backing_off:
            candidates.append(min(backing_off) - now)
        if not candidates:
            return None  # block until a future completes
        return max(0.01, min(candidates))

    def _fail_attempt(
        self, task: _Task, elapsed: float, reason: str, status: str
    ) -> None:
        if task.attempts <= self.retries:
            delay = backoff_delay(task.eid, task.attempts, self.backoff_s)
            task.not_before = time.monotonic() + delay
            self.queue.append(task)
            if self.on_retry is not None:
                self.on_retry(task.eid, task.attempts, delay, reason)
            return
        rec = ExperimentRecord(
            experiment_id=task.eid,
            status=status,
            wall_s=elapsed,
            result=None,
            error=reason,
            attempts=task.attempts,
        )
        self.finalize(task.idx, rec)

    def _collect(self, finished: set[Future]) -> None:
        victims: list[tuple[_Task, float, str]] = []
        for fut in sorted(finished, key=lambda f: self.running[f].idx):
            task = self.running.pop(fut)
            elapsed = time.monotonic() - task.started
            try:
                payload = fut.result()
            except BaseException as err:
                # the worker process died (BrokenProcessPool et al.):
                # report the honest elapsed time since submission, not 0
                victims.append(
                    (task, elapsed,
                     f"worker died: {type(err).__name__}: {err}")
                )
                continue
            rec = _record(*payload)
            rec.attempts = task.attempts
            self.finalize(task.idx, rec)
        if victims:
            # a dead worker poisons every pending future on that pool:
            # rebuild it and resubmit only the lost work
            self._heal_pool(kill=False)
            for task, elapsed, reason in victims:
                self._fail_attempt(task, elapsed, reason, status="error")

    def _check_deadlines(self) -> None:
        if self.timeout_s is None or not self.running:
            return
        now = time.monotonic()
        expired = [
            (fut, task)
            for fut, task in self.running.items()
            if now - task.started >= self.timeout_s
        ]
        if not expired:
            return
        for fut, _ in expired:
            fut.cancel()
            self.running.pop(fut)
        # replace the stuck worker(s): kill the pool, resubmit siblings
        self._heal_pool(kill=True)
        for _, task in expired:
            self._fail_attempt(
                task,
                now - task.started,
                f"timed out after {self.timeout_s:g}s "
                f"(attempt {task.attempts}/{self.retries + 1})",
                status="timeout",
            )

    def run(self) -> None:
        try:
            while self.queue or self.running:
                self._submit_ready()
                timeout = self._next_wait_s()
                if self.running:
                    finished, _ = wait(
                        set(self.running),
                        timeout=timeout,
                        return_when=FIRST_COMPLETED,
                    )
                    self._collect(set(finished))
                elif timeout is not None:
                    time.sleep(min(timeout, 0.5))  # everyone backing off
                self._check_deadlines()
        finally:
            self._discard_pool(kill=True)


class _SigtermFlush:
    """Convert SIGTERM into ``SystemExit`` so ``finally`` blocks run.

    Installed only when a durable store is attached and only from the
    main thread; restored on exit.  SIGINT already raises
    ``KeyboardInterrupt``, which reaches the same ``finally``.
    """

    def __init__(self) -> None:
        self._previous: Any = None
        self._installed = False

    def __enter__(self) -> "_SigtermFlush":
        if threading.current_thread() is not threading.main_thread():
            return self
        def _raise_exit(signum: int, frame: Any) -> None:
            raise SystemExit(128 + signum)

        try:
            self._previous = signal.signal(signal.SIGTERM, _raise_exit)
            self._installed = True
        except (ValueError, OSError):  # pragma: no cover - exotic hosts
            pass
        return self

    def __exit__(self, *exc: Any) -> None:
        if self._installed:
            signal.signal(signal.SIGTERM, self._previous)


def run_experiments(
    ids: Sequence[str],
    preset: str = "quick",
    *,
    jobs: int = 1,
    faults: FaultPlan | None = None,
    on_record: Callable[[ExperimentRecord], None] | None = None,
    timeout_s: float | None = None,
    retries: int = 0,
    backoff_s: float = 0.5,
    on_retry: RetryCallback | None = None,
    store: "RunStore | None" = None,
    resume: bool = False,
) -> RunManifest:
    """Run registry experiments, serially or across a process pool.

    Parameters
    ----------
    ids:
        Experiment ids (``["E2", "E19"]``) or ``["all"]``.
    jobs:
        Worker processes; ``1`` (default) runs in-process serially,
        ``0`` means one worker per CPU (``os.cpu_count()``).
    faults:
        Optional :class:`FaultPlan` threaded into every experiment.
    on_record:
        Progress callback, invoked with each :class:`ExperimentRecord`
        **in submission order** as soon as it (and everything before
        it) is available — the CLI streams reports through this.
    timeout_s:
        Per-experiment wall-clock bound.  A timed-out experiment's
        worker is replaced and the experiment is retried (see
        ``retries``); if every attempt times out its record carries
        status ``"timeout"``.  Timeouts require worker processes, so
        setting this routes even ``jobs=1`` sweeps through a pool.
    retries:
        Extra attempts after a timeout or worker death (not after an
        in-experiment exception, which is deterministic).  Waits
        ``backoff_s * 2**(attempt-1)`` (+ deterministic jitter) between
        attempts.
    on_retry:
        Callback ``(experiment_id, failed_attempt, delay_s, reason)``
        invoked whenever an attempt is rescheduled.
    store:
        Optional :class:`~repro.runner.store.RunStore`; every record is
        flushed to its artifact as it lands, the manifest is re-flushed
        with it, and SIGINT/SIGTERM flush the manifest before exit.
    resume:
        With ``store``: reuse stored artifacts that verify and describe
        completed experiments; only the rest are (re)run.

    Unknown experiment ids raise :class:`ExperimentError` up front
    (before anything runs); failures *inside* an experiment never
    propagate — they are returned as ``error`` records.
    """
    if len(ids) == 1 and str(ids[0]).lower() == "all":
        ids = all_experiment_ids()
    ids = [i.upper() for i in ids]
    for eid in ids:
        get_experiment(eid)  # raises ExperimentError for unknown ids
    if jobs < 0:
        raise ExperimentError(
            f"--jobs must be >= 1 (or 0 for auto = os.cpu_count()), "
            f"got {jobs}"
        )
    if jobs == 0:
        jobs = os.cpu_count() or 1
    if retries < 0:
        raise ExperimentError(f"--retries must be >= 0, got {retries}")
    if timeout_s is not None and timeout_s <= 0:
        raise ExperimentError(f"--timeout must be > 0, got {timeout_s}")
    if resume and store is None:
        raise ExperimentError("resume=True needs a run store")
    plan_json = faults.to_json() if faults is not None else None

    manifest = RunManifest(preset=preset, jobs=jobs)
    t0 = time.perf_counter()

    done: dict[int, ExperimentRecord] = {}
    reused: set[int] = set()
    if store is not None and resume:
        completed, _rejected = store.scan(ids)
        for idx, eid in enumerate(ids):
            if eid in completed:
                done[idx] = completed[eid]
                reused.add(idx)

    emitted = 0

    def sync_manifest() -> None:
        manifest.records = [done[i] for i in sorted(done)]
        manifest.wall_s = time.perf_counter() - t0

    def drain() -> None:
        nonlocal emitted
        while emitted in done:
            if on_record is not None:
                on_record(done[emitted])
            emitted += 1

    def finalize(idx: int, rec: ExperimentRecord) -> None:
        done[idx] = rec
        if store is not None:
            if idx not in reused:
                store.write_record(rec)
            sync_manifest()
            store.write_manifest(
                manifest, partial=len(done) < len(ids)
            )
        drain()

    pending = [(idx, eid) for idx, eid in enumerate(ids) if idx not in done]
    with _SigtermFlush() if store is not None else contextlib.nullcontext():
        try:
            drain()  # stream reused records first
            if not pending:
                pass
            elif timeout_s is None and jobs == 1:
                # the historical in-process path: no pool, no worker to
                # die or hang, so retries/timeouts don't apply here.
                # An explicit jobs >= 2 always gets a pool, even for a
                # single experiment — the caller asked for worker
                # isolation, not just parallelism.
                for idx, eid in pending:
                    finalize(idx, _record(*_run_one(eid, preset, plan_json)))
            else:
                _PoolScheduler(
                    pending, preset, plan_json, jobs,
                    timeout_s, retries, backoff_s, finalize, on_retry,
                ).run()
        finally:
            sync_manifest()
            if store is not None:
                store.write_manifest(
                    manifest, partial=len(done) < len(ids)
                )
    return manifest
