"""Deterministic fault injection for the network engines.

The paper's model is a clean room: links never fail, nodes never crash,
and buffers are unbounded, so zero loss is an *invariant*.  This module
supplies the machinery for the complementary question — what happens to
a deployment when the network itself misbehaves — while keeping every
run exactly reproducible:

* a :class:`FaultPlan` is pure data (scheduled :class:`FaultEvent`
  entries plus an optional seeded :class:`RandomFaults` background
  process) and serialises to/from JSON for the CLI;
* a :class:`FaultInjector` interprets the plan step by step for one
  engine.  Stochastic faults are drawn from a counter-based RNG keyed
  on ``(seed, step)``, so the fault sequence is a pure function of the
  plan and the step index — checkpoint/restore replays it bit-for-bit
  without having to persist generator state.

Fault semantics (the *fail-stop, persistent-queue* model; see
``docs/robustness.md``):

``link_down``
    The node's outgoing link is dead for ``duration`` steps: it cannot
    forward, but it keeps buffering arrivals and injections.  Purely
    recoverable — no packet is lost by the outage itself.
``crash``
    The node's processor is down for ``duration`` steps: it cannot
    forward, and adversary injections at it are *dropped* (the
    ingestion interface is dead; cause ``"crash"``).  Arrivals from
    neighbours still queue (the buffer hardware persists).  With
    ``wipe=True`` the buffer contents are lost at crash onset (cause
    ``"wipe"``); otherwise they are retained through the outage.
``jitter``
    Injection-timing jitter: adversary batches issued during the event
    window are deferred by ``delay`` steps and enter the network late
    (merged ahead of that later step's own batch; they do not count
    against its rate limit — they are late arrivals of
    previously-authorised traffic).
``halt``
    The whole simulation process is killed at ``start`` — the injector
    raises :class:`~repro.errors.FaultError` before the step mutates
    any state.  A halt fires at most once per injector instance:
    the fired set deliberately survives :meth:`FaultInjector.restore`,
    modelling the new process that resumes after the old one died.
"""

from __future__ import annotations

import bisect
import json
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import TYPE_CHECKING, Any, Iterable

import numpy as np

from ..errors import FaultError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .topology import Topology

__all__ = [
    "FaultKind",
    "FaultEvent",
    "RandomFaults",
    "FaultPlan",
    "StepFaults",
    "NO_FAULTS",
    "FaultInjector",
    "check_fault_nodes",
    "run_with_recovery",
]


class FaultKind(str, Enum):
    """What kind of misbehaviour a :class:`FaultEvent` injects."""

    LINK_DOWN = "link_down"
    CRASH = "crash"
    JITTER = "jitter"
    HALT = "halt"


@dataclass(frozen=True)
class FaultEvent:
    """One scheduled fault.

    Attributes
    ----------
    kind:
        The fault type (see module docstring for semantics).
    start:
        0-based step index at which the fault begins.
    node:
        Target node for ``link_down``/``crash``; ignored for ``jitter``
        and ``halt`` (which are network-global).
    duration:
        Steps the fault stays active (``halt`` ignores it).
    wipe:
        ``crash`` only: lose the buffer contents at crash onset.
    delay:
        ``jitter`` only: how many steps injection batches are deferred.
    """

    kind: FaultKind
    start: int
    node: int | None = None
    duration: int = 1
    wipe: bool = False
    delay: int = 1

    def __post_init__(self) -> None:
        kind = FaultKind(self.kind)
        object.__setattr__(self, "kind", kind)
        if self.start < 0:
            raise FaultError(f"fault start must be >= 0, got {self.start}")
        if self.duration < 1:
            raise FaultError(
                f"fault duration must be >= 1, got {self.duration}"
            )
        if kind in (FaultKind.LINK_DOWN, FaultKind.CRASH) and self.node is None:
            raise FaultError(f"{kind.value} fault needs a target node")
        if kind is FaultKind.JITTER and self.delay < 1:
            raise FaultError(f"jitter delay must be >= 1, got {self.delay}")

    @property
    def end(self) -> int:
        """First step at which the fault is no longer active."""
        return self.start + self.duration

    def to_dict(self) -> dict[str, Any]:
        d: dict[str, Any] = {"kind": self.kind.value, "start": self.start}
        if self.node is not None:
            d["node"] = self.node
        if self.duration != 1:
            d["duration"] = self.duration
        if self.wipe:
            d["wipe"] = True
        if self.kind is FaultKind.JITTER:
            d["delay"] = self.delay
        return d

    @classmethod
    def from_dict(cls, d: dict[str, Any]) -> "FaultEvent":
        try:
            return cls(
                kind=FaultKind(d["kind"]),
                start=int(d["start"]),
                node=None if d.get("node") is None else int(d["node"]),
                duration=int(d.get("duration", 1)),
                wipe=bool(d.get("wipe", False)),
                delay=int(d.get("delay", 1)),
            )
        except (KeyError, ValueError) as err:
            raise FaultError(f"malformed fault event {d!r}") from err


@dataclass(frozen=True)
class RandomFaults:
    """Seeded stochastic background faults, drawn per step.

    Each step, every non-sink node independently suffers a fresh link
    outage with probability ``p_link_down`` and a fresh crash with
    probability ``p_crash``, each lasting ``duration`` steps.  Draws
    come from ``default_rng((seed, step))`` so the sequence is a pure
    function of ``(seed, step)`` — no generator state to checkpoint.
    """

    p_link_down: float = 0.0
    p_crash: float = 0.0
    duration: int = 2
    wipe: bool = False

    def __post_init__(self) -> None:
        for name in ("p_link_down", "p_crash"):
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise FaultError(f"{name} must be a probability, got {p}")
        if self.duration < 1:
            raise FaultError(
                f"random fault duration must be >= 1, got {self.duration}"
            )

    @property
    def enabled(self) -> bool:
        return self.p_link_down > 0.0 or self.p_crash > 0.0

    def to_dict(self) -> dict[str, Any]:
        return {
            "p_link_down": self.p_link_down,
            "p_crash": self.p_crash,
            "duration": self.duration,
            "wipe": self.wipe,
        }

    @classmethod
    def from_dict(cls, d: dict[str, Any]) -> "RandomFaults":
        try:
            return cls(
                p_link_down=float(d.get("p_link_down", 0.0)),
                p_crash=float(d.get("p_crash", 0.0)),
                duration=int(d.get("duration", 2)),
                wipe=bool(d.get("wipe", False)),
            )
        except (TypeError, ValueError) as err:
            raise FaultError(f"malformed random-fault spec {d!r}") from err


@dataclass(frozen=True)
class FaultPlan:
    """A complete, reproducible description of a run's faults.

    Pure data: scheduled events, an optional stochastic background, and
    the seed that makes the background deterministic.  Engines accept a
    plan directly and build their own :class:`FaultInjector`.
    """

    events: tuple[FaultEvent, ...] = ()
    random: RandomFaults | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(
            self,
            "events",
            tuple(
                e if isinstance(e, FaultEvent) else FaultEvent.from_dict(e)
                for e in self.events
            ),
        )

    @property
    def empty(self) -> bool:
        return not self.events and (
            self.random is None or not self.random.enabled
        )

    # -- serialisation -------------------------------------------------
    def to_dict(self) -> dict[str, Any]:
        d: dict[str, Any] = {
            "seed": self.seed,
            "events": [e.to_dict() for e in self.events],
        }
        if self.random is not None:
            d["random"] = self.random.to_dict()
        return d

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)

    @classmethod
    def from_dict(cls, d: dict[str, Any]) -> "FaultPlan":
        if not isinstance(d, dict):
            raise FaultError(f"fault plan must be a JSON object, got {d!r}")
        return cls(
            events=tuple(
                FaultEvent.from_dict(e) for e in d.get("events", ())
            ),
            random=(
                RandomFaults.from_dict(d["random"])
                if d.get("random") is not None
                else None
            ),
            seed=int(d.get("seed", 0)),
        )

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as err:
            raise FaultError("fault plan is not valid JSON") from err
        return cls.from_dict(data)

    @classmethod
    def from_file(cls, path: str | Path) -> "FaultPlan":
        return cls.from_json(Path(path).read_text())


@dataclass(frozen=True)
class StepFaults:
    """The injector's verdict for one step, consumed by an engine.

    Attributes
    ----------
    blocked:
        Nodes that may not forward this step (crashed or link down).
    crashed:
        Nodes whose processor is down (injections at them are dropped).
    wiped:
        Nodes whose buffer contents are lost at the start of this step.
    released:
        Injection sites deferred by earlier jitter, entering now.
    defer:
        If > 0, this step's adversary batch is deferred by that many
        steps instead of entering the network.
    """

    blocked: frozenset[int] = frozenset()
    crashed: frozenset[int] = frozenset()
    wiped: tuple[int, ...] = ()
    released: tuple[int, ...] = ()
    defer: int = 0

    @property
    def quiet(self) -> bool:
        """True when nothing fault-related happens this step."""
        return (
            not self.blocked
            and not self.wiped
            and not self.released
            and self.defer == 0
        )


NO_FAULTS = StepFaults()
"""Singleton verdict for a fault-free step."""


def check_fault_nodes(plan: FaultPlan, n: int, sink: int) -> None:
    """Raise :class:`FaultError` if an event names the sink or a node
    outside ``0..n-1``."""
    for e in plan.events:
        if e.node is None:
            continue
        if not 0 <= e.node < n:
            raise FaultError(
                f"fault event targets node {e.node}, out of range for n={n}"
            )
        if e.node == sink:
            raise FaultError(
                "faults cannot target the sink (it is the measurement "
                "boundary, not a buffering node)"
            )


class FaultInjector:
    """Stateful interpreter of a :class:`FaultPlan` for one engine.

    Both engines call :meth:`begin_step` exactly once per step, before
    mutating any state, and shape the step around the returned
    :class:`StepFaults`.  The injector's mutable state (active outages,
    deferred injections) supports :meth:`snapshot` / :meth:`restore` so
    engine checkpoints replay identically; the set of already-fired
    halts deliberately survives a restore (see module docstring).
    """

    def __init__(self, plan: FaultPlan, topology: "Topology") -> None:
        self.plan = plan
        self.n = int(topology.n)
        self.sink = int(topology.sink)
        check_fault_nodes(plan, self.n, self.sink)
        self._by_start: dict[int, list[FaultEvent]] = {}
        for e in plan.events:
            self._by_start.setdefault(e.start, []).append(e)
        self._onsets = sorted(self._by_start)
        # mutable, checkpointable state
        self._crash_until: dict[int, int] = {}
        self._link_until: dict[int, int] = {}
        self._jitter_until: tuple[int, int] = (0, 0)  # (end, delay)
        self._pending: dict[int, list[int]] = {}
        # process memory — survives restore on purpose
        self._fired_halts: set[int] = set()

    # ------------------------------------------------------------------
    def begin_step(self, step: int) -> StepFaults:
        """Resolve the faults affecting ``step``.

        Raises
        ------
        FaultError
            If a ``halt`` event fires at this step (first time only).
        """
        # expire finished outages first, so that a node whose crash ends
        # exactly now can immediately suffer (and wipe on) a fresh one
        for table in (self._crash_until, self._link_until):
            for node in [v for v, until in table.items() if until <= step]:
                del table[node]

        wiped: list[int] = []
        for e in self._by_start.get(step, ()):  # scheduled onsets
            if e.kind is FaultKind.HALT:
                if step not in self._fired_halts:
                    self._fired_halts.add(step)
                    raise FaultError(
                        f"injected halt killed the run at step {step}"
                    )
            elif e.kind is FaultKind.CRASH:
                node = int(e.node)  # type: ignore[arg-type]
                already = node in self._crash_until
                self._crash_until[node] = max(
                    self._crash_until.get(node, 0), e.end
                )
                if e.wipe and not already:
                    wiped.append(node)
            elif e.kind is FaultKind.LINK_DOWN:
                node = int(e.node)  # type: ignore[arg-type]
                self._link_until[node] = max(
                    self._link_until.get(node, 0), e.end
                )
            elif e.kind is FaultKind.JITTER:
                end, delay = self._jitter_until
                self._jitter_until = (max(end, e.end), e.delay)

        rnd = self.plan.random
        if rnd is not None and rnd.enabled:
            draws = self._draws(step)
            for node in range(self.n):
                if node == self.sink:
                    continue
                if draws[node, 0] < rnd.p_link_down:
                    self._link_until[node] = max(
                        self._link_until.get(node, 0), step + rnd.duration
                    )
                if draws[node, 1] < rnd.p_crash:
                    if rnd.wipe and node not in self._crash_until:
                        wiped.append(node)
                    self._crash_until[node] = max(
                        self._crash_until.get(node, 0), step + rnd.duration
                    )

        released = tuple(self._pending.pop(step, ()))
        crashed = frozenset(self._crash_until)
        blocked = crashed | frozenset(self._link_until)
        end, delay = self._jitter_until
        defer = delay if step < end else 0
        if not blocked and not wiped and not released and not defer:
            return NO_FAULTS
        return StepFaults(
            blocked=blocked,
            crashed=crashed,
            wiped=tuple(sorted(wiped)),
            released=released,
            defer=defer,
        )

    def _draws(self, step: int) -> np.ndarray:
        """The background process's ``(n, 2)`` draws for ``step``: a pure
        function of ``(seed, step)``."""
        return np.random.default_rng((self.plan.seed, step)).random((self.n, 2))

    def quiet_steps(self, start: int, limit: int) -> int:
        """How many of the ``limit`` steps from ``start`` on stay quiet.

        A quiet step is one :meth:`begin_step` would answer with
        :data:`NO_FAULTS` while changing no state: no outage is active,
        no event starts, no deferred injection is released, no jitter
        window is open and the background process draws nothing.  An
        engine may run such a stretch without calling :meth:`begin_step`
        at all.  Outages that have already expired are dropped here, as
        the first of those calls would drop them.
        """
        tables = (self._crash_until, self._link_until)
        if any(until > start for t in tables for until in t.values()):
            return 0
        if start < self._jitter_until[0]:
            return 0
        for table in tables:
            table.clear()
        stop = start + limit
        at = bisect.bisect_left(self._onsets, start)
        if at < len(self._onsets):
            stop = min(stop, self._onsets[at])
        stop = min([stop, *(t for t in self._pending if t >= start)])
        rnd = self.plan.random
        if rnd is not None and rnd.enabled:
            live = np.arange(self.n) != self.sink
            for step in range(start, stop):
                draws = self._draws(step)[live]
                if (draws < (rnd.p_link_down, rnd.p_crash)).any():
                    return step - start
        return stop - start

    def defer_injections(
        self, step: int, sites: Iterable[int], delay: int
    ) -> None:
        """Queue an injection batch to be released ``delay`` steps late."""
        sites = tuple(int(s) for s in sites)
        if sites:
            self._pending.setdefault(step + delay, []).extend(sites)

    # ------------------------------------------------------------------
    def snapshot(self) -> dict[str, Any]:
        """Checkpointable state (excludes the fired-halt memory)."""
        return {
            "crash_until": dict(self._crash_until),
            "link_until": dict(self._link_until),
            "jitter_until": tuple(self._jitter_until),
            "pending": {k: list(v) for k, v in self._pending.items()},
        }

    def restore(self, snap: dict[str, Any]) -> None:
        """Roll back to a previous :meth:`snapshot`.

        ``_fired_halts`` is intentionally left alone: the resumed
        process must not die again from the halt that killed its
        predecessor.
        """
        self._crash_until = dict(snap["crash_until"])
        self._link_until = dict(snap["link_until"])
        self._jitter_until = tuple(snap["jitter_until"])
        self._pending = {k: list(v) for k, v in snap["pending"].items()}


def run_with_recovery(
    engine,
    steps: int,
    *,
    snapshot_every: int = 50,
    max_recoveries: int = 16,
    checkpoint_dir: str | Path | None = None,
) -> int:
    """Drive ``engine`` for ``steps`` rounds, surviving injected halts.

    Takes a full :meth:`snapshot` every ``snapshot_every`` steps and
    advances by the engine's ``run()`` in between (the height kernel
    batches the quiet stretches; a halt still raises before its step
    mutates any state); when a :class:`~repro.errors.FaultError` kills
    the run, restores the most recent snapshot and resumes (the
    injector remembers fired halts, so the same kill does not recur).
    Returns the number of recoveries.

    With ``checkpoint_dir`` the harness is durable across *real*
    process deaths too: every in-memory snapshot is also persisted to
    ``<checkpoint_dir>/latest.ckpt`` (atomic + checksummed, see
    :mod:`repro.io.checkpoint`), and on entry an existing checkpoint is
    restored before stepping — so a fresh process pointed at the same
    directory resumes where the dead one left off.  ``steps`` then
    counts from the engine's state *before* the resume (i.e. the total
    run length as the first process saw it), so re-invoking with the
    same arguments converges on the same target step.  A corrupt or
    foreign checkpoint file raises
    :class:`~repro.errors.CheckpointError` — the run is never silently
    restarted from zero.

    Raises
    ------
    FaultError
        If more than ``max_recoveries`` kills occur — the plan is
        hostile beyond what the harness is willing to absorb.
    """
    if snapshot_every < 1:
        raise FaultError(
            f"snapshot_every must be >= 1, got {snapshot_every}"
        )
    target = engine.step_index + steps
    ckpt_path: Path | None = None
    if checkpoint_dir is not None:
        ckpt_path = Path(checkpoint_dir) / "latest.ckpt"
        if ckpt_path.exists():
            engine.load_checkpoint(ckpt_path)  # CheckpointError if corrupt
    snap = engine.snapshot()
    recoveries = 0
    while engine.step_index < target:
        try:
            while engine.step_index < target:
                engine.run(min(
                    target - engine.step_index,
                    snapshot_every - engine.step_index % snapshot_every,
                ))
                if engine.step_index % snapshot_every == 0:
                    snap = engine.snapshot()
                    if ckpt_path is not None:
                        engine.save_checkpoint(ckpt_path)
        except FaultError as err:
            recoveries += 1
            if recoveries > max_recoveries:
                raise FaultError(
                    f"gave up after {max_recoveries} recoveries at step "
                    f"{engine.step_index}"
                ) from err
            engine.restore(snap)
    if ckpt_path is not None:
        engine.save_checkpoint(ckpt_path)  # final state, for auditability
    return recoveries
