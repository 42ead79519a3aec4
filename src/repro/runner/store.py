"""Durable run directories: per-experiment artifacts + a manifest.

A *run directory* (``results/runs/<label>/`` by convention) makes a
sweep survivable: every completed :class:`ExperimentRecord` is flushed
to its own checksummed JSON artifact **the moment it lands** (atomic
temp + fsync + rename, so a kill mid-write never corrupts an earlier
result), and the :class:`RunManifest` is re-flushed alongside it.  A
later ``repro run all --resume <label>`` scans the directory, keeps
every artifact that verifies *and* describes a completed experiment,
and re-runs only the rest.

Layout::

    results/runs/<label>/
    ├── manifest.json      # repro-run-manifest-v1; rewritten as records land
    ├── e1.json            # repro-run-record-v1, one per completed experiment
    ├── e2.json
    └── ...

Verification is deliberately conservative: an artifact is trusted only
if its format tag matches, its SHA-256 (over the canonical record JSON)
verifies, and its status marks the experiment as *completed* (``ok`` /
``failed-shape``).  Records of interrupted outcomes (``error``,
``timeout``) are re-run on resume — a worker death is exactly the kind
of transient a resume should retry.  Corrupt artifacts are reported,
never silently trusted or silently deleted.

The provisioning service's result cache is a RunStore directory too,
and the store's *index* is the recency and size ledger that bounds it.
:meth:`RunStore.load_index` reads it from disk once: the
``index.json`` snapshot, the ``index.journal`` replayed over it, and a
reconcile against the ``q*.json`` artifacts on disk.  From then on it
lives in memory as an LRU (an OrderedDict, oldest first) plus shape
buckets, and each touch or eviction appends one flushed JSON line to
the journal, which :meth:`RunStore.write_index` compacts into the
snapshot.  The journal is never fsync'd: artifacts are checksummed and
fsync'd on their own, so a crash loses only recency and size
accounting, and the next load rebuilds both from the files on disk.
"""

from __future__ import annotations

import hashlib
import json
from collections import OrderedDict
from pathlib import Path
from typing import Any, Iterable

from ..io.checkpoint import atomic_write_text
from ..io.results import ExperimentResult
from .runner import ExperimentRecord, RunManifest

__all__ = [
    "RECORD_FORMAT",
    "MANIFEST_FORMAT",
    "INDEX_FORMAT",
    "COMPLETED_STATUSES",
    "canonical_json",
    "canonical_sha256",
    "RunStore",
]

RECORD_FORMAT = "repro-run-record-v1"
MANIFEST_FORMAT = "repro-run-manifest-v1"
INDEX_FORMAT = "repro-store-index-v1"

#: artifacts the cache index manages: the result cache's ``q<key>.json``
#: entries (experiment records never enter the index)
_INDEXED_GLOB = "q*.json"

#: compact once the journal holds this many lines per live index entry
_COMPACT_RATIO = 4

#: statuses that mean "this experiment ran to completion" — artifacts
#: carrying any other status are re-run on ``--resume``.
COMPLETED_STATUSES = frozenset({"ok", "failed-shape"})


def _record_body(record: ExperimentRecord) -> dict[str, Any]:
    body: dict[str, Any] = {
        "id": record.experiment_id,
        "status": record.status,
        "wall_s": record.wall_s,
        "attempts": record.attempts,
    }
    if record.error is not None:
        body["error"] = record.error
    if record.result is not None:
        body["result"] = record.result.to_dict()
    return body


def canonical_json(body: dict[str, Any]) -> str:
    """Canonical JSON text of ``body`` for hashing.

    Round-trips through JSON first so the hashed form is exactly what a
    reader of the stored file reconstructs — int dict keys become
    strings, numpy scalars take their ``default=str`` spelling — and
    the checksum verifies against the parsed document, not the live
    Python objects that produced it.  Keys are sorted, so the text (and
    hence any digest of it) is independent of dict insertion order and
    of ``PYTHONHASHSEED``.  The spelling is frozen: changing it would
    orphan every existing ``repro-run-record-v1`` artifact.
    """
    normalized = json.loads(json.dumps(body, default=str))
    return json.dumps(normalized, sort_keys=True)


def canonical_sha256(body: Any) -> str:
    """Hex SHA-256 of :func:`canonical_json` — the artifact checksum."""
    return hashlib.sha256(canonical_json(body).encode("utf-8")).hexdigest()


class RunStore:
    """One run directory: artifact/manifest persistence + verification."""

    def __init__(self, directory: str | Path) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self._index: dict[str, Any] | None = None  # read on first use
        self._journal_lines = 0

    @classmethod
    def at(cls, label: str, root: str | Path = "results/runs") -> "RunStore":
        """The conventional location for a labelled run."""
        return cls(Path(root) / label)

    # -- per-experiment artifacts --------------------------------------
    def record_path(self, experiment_id: str) -> Path:
        return self.directory / f"{experiment_id.lower()}.json"

    @property
    def manifest_path(self) -> Path:
        return self.directory / "manifest.json"

    def write_record(self, record: ExperimentRecord) -> Path:
        """Flush one record atomically; returns the artifact path."""
        body = _record_body(record)
        doc = {
            "format": RECORD_FORMAT,
            "sha256": canonical_sha256(body),
            "record": body,
        }
        return atomic_write_text(
            self.record_path(record.experiment_id),
            json.dumps(doc, indent=2, sort_keys=True, default=str) + "\n",
        )

    def load_record(self, experiment_id: str) -> ExperimentRecord | None:
        """Load and verify one artifact; ``None`` if absent or untrusted."""
        path = self.record_path(experiment_id)
        try:
            doc = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError):
            return None
        if not isinstance(doc, dict) or doc.get("format") != RECORD_FORMAT:
            return None
        body = doc.get("record")
        if not isinstance(body, dict):
            return None
        if canonical_sha256(body) != doc.get("sha256"):
            return None
        if body.get("id", "").upper() != experiment_id.upper():
            return None
        result = body.get("result")
        try:
            return ExperimentRecord(
                experiment_id=body["id"],
                status=body["status"],
                wall_s=float(body["wall_s"]),
                attempts=int(body.get("attempts", 1)),
                error=body.get("error"),
                result=(
                    ExperimentResult(**result) if result is not None else None
                ),
            )
        except (KeyError, TypeError, ValueError):
            return None

    def scan(
        self, ids: Iterable[str]
    ) -> tuple[dict[str, ExperimentRecord], list[Path]]:
        """Partition ``ids`` into reusable records and untrusted artifacts.

        Returns ``(completed, rejected)``: ``completed`` maps experiment
        id → verified record with a completed status; ``rejected`` lists
        artifact paths that exist but could not be trusted (corrupt,
        foreign, or describing an interrupted outcome) and will be
        re-run.
        """
        completed: dict[str, ExperimentRecord] = {}
        rejected: list[Path] = []
        for eid in ids:
            path = self.record_path(eid)
            if not path.exists():
                continue
            record = self.load_record(eid)
            if record is not None and record.status in COMPLETED_STATUSES:
                completed[eid.upper()] = record
            else:
                rejected.append(path)
        return completed, rejected

    # -- manifest ------------------------------------------------------
    def write_manifest(
        self, manifest: RunManifest, *, partial: bool = False
    ) -> Path:
        """Flush the manifest atomically (marked partial mid-sweep)."""
        doc = dict(manifest.to_dict())
        doc["format"] = MANIFEST_FORMAT
        if partial:
            doc["partial"] = True
        return atomic_write_text(
            self.manifest_path,
            json.dumps(doc, indent=2, sort_keys=True) + "\n",
        )

    def load_manifest(self) -> dict[str, Any] | None:
        """The last flushed manifest document, or ``None``."""
        try:
            doc = json.loads(self.manifest_path.read_text())
        except (OSError, json.JSONDecodeError):
            return None
        if not isinstance(doc, dict) or doc.get("format") != MANIFEST_FORMAT:
            return None
        return doc

    # -- cache index + LRU/size-bounded eviction -----------------------
    # ``clock`` is a logical LRU counter, so recency replays exactly;
    # ``buckets`` files entries by their meta's ``"bucket"`` string.

    @property
    def index_path(self) -> Path:
        return self.directory / "index.json"

    @property
    def journal_path(self) -> Path:
        return self.directory / "index.journal"

    @property
    def index(self) -> dict[str, Any]:
        """The live in-memory index, read from disk on first use."""
        return self.load_index() if self._index is None else self._index

    def load_index(self) -> dict[str, Any]:
        """Read the index from disk and make it the in-memory state.

        The ``index.json`` snapshot (empty if missing or untrusted),
        then the journal replayed over it (torn lines skipped), then a
        reconcile against the artifacts on disk: entries whose file is
        gone are dropped, every size is re-read, and ``q*.json``
        artifacts the index lost are adopted as least recently used.
        Returns the live index document.
        """
        try:
            doc = json.loads(self.index_path.read_bytes())
            trusted = doc["format"] == INDEX_FORMAT and isinstance(
                doc["entries"], dict
            )
        except (OSError, ValueError, KeyError, TypeError):
            trusted = False
        self._adopt(doc if trusted else {"entries": {}})
        try:
            lines = self.journal_path.read_bytes().splitlines()
        except OSError:
            lines = []
        for line in lines:
            try:
                self._apply(json.loads(line))
            except (ValueError, TypeError, KeyError, AttributeError):
                continue  # a torn tail: the crash lost this record
        self._journal_lines = len(lines)
        entries = self.index["entries"]
        on_disk = {path.stem for path in self.directory.glob(_INDEXED_GLOB)}
        for name in sorted(on_disk - set(entries), reverse=True):
            self._file(name, {"bytes": 0, "last_used": 0})
            entries.move_to_end(name, last=False)
        for name, entry in list(entries.items()):
            size = self._size(name)
            if size is None:
                self._apply({"drop": name})
            else:
                self.index["bytes"] += size - entry["bytes"]
                entry["bytes"] = size
        return self.index

    def write_index(self, doc: dict[str, Any]) -> Path:
        """Compact: make ``doc`` the in-memory index (buckets rebuilt
        from metas), snapshot it atomically to ``index.json`` and empty
        the journal.  Returns the snapshot path."""
        self._adopt(doc)
        snapshot = {k: self.index[k] for k in ("format", "clock", "entries")}
        path = atomic_write_text(
            self.index_path, json.dumps(snapshot, sort_keys=True) + "\n"
        )
        self.journal_path.write_bytes(b"")
        self._journal_lines = 0
        return path

    def _adopt(self, doc: dict[str, Any]) -> None:
        entries = doc["entries"]
        self._index = {
            "format": INDEX_FORMAT,
            "clock": int(doc.get("clock", 0)),
            "bytes": 0,
            "entries": OrderedDict(),
            "buckets": {},
        }
        recency = sorted(entries, key=lambda k: (entries[k]["last_used"], k))
        for name in recency:
            self._file(name, entries[name])

    def _file(self, name: str, entry: dict[str, Any]) -> None:
        """Put ``entry`` at the most recently used end of the LRU."""
        self.index["entries"][name] = entry
        self.index["bytes"] += entry["bytes"]
        bucket = (entry.get("meta") or {}).get("bucket")
        if isinstance(bucket, str):
            self.index["buckets"].setdefault(bucket, set()).add(name)

    def _apply(self, op: dict[str, Any]) -> None:
        """One journal record, ``{"drop": name}`` or ``{"touch": name}``
        with optional ``bytes`` and ``meta``, applied in memory."""
        index = self.index
        name = op["drop"] if "drop" in op else op["touch"]
        entry = index["entries"].pop(name, None)
        if entry is not None:
            index["bytes"] -= entry["bytes"]
            bucket = (entry.get("meta") or {}).get("bucket")
            index["buckets"].get(bucket, set()).discard(name)
        if "drop" not in op:
            entry = {"bytes": 0, **(entry or {}), **op}
            del entry["touch"]
            index["clock"] += 1
            entry["last_used"] = index["clock"]
            self._file(name, entry)

    def _log(self, ops: list[dict[str, Any]]) -> None:
        """Apply ``ops`` and append them to the journal, flushed but not
        fsync'd; compact once the journal outgrows the index."""
        for op in ops:
            self._apply(op)
        if ops:
            with open(self.journal_path, "a", encoding="utf-8") as fh:
                fh.write("".join(json.dumps(op) + "\n" for op in ops))
            self._journal_lines += len(ops)
        if self._journal_lines > _COMPACT_RATIO * len(self.index["entries"]):
            self.write_index(self.index)

    def _size(self, name: str) -> int | None:
        try:
            return self.record_path(name).stat().st_size
        except OSError:
            return None

    def bucket_names(self, bucket: str | None) -> list[str]:
        """Index entry names filed under ``bucket`` (O(bucket), not
        O(index): the degraded-mode nearest lookup's working set)."""
        return list(self.index["buckets"].get(bucket, ()))

    def indexed_bytes(self) -> int:
        """Total artifact bytes currently accounted for by the index."""
        return self.index["bytes"]

    def touch(self, name: str, *, meta: dict[str, Any] | None = None) -> None:
        """Mark artifact ``<name>.json`` as just used (and (re)index it).

        Appends one journal line.  A first touch, or one carrying
        ``meta`` (small, queryable facts such as the query shape), also
        records the artifact's size; a bare touch of an indexed entry (a
        cache hit) stats nothing.
        """
        name = name.lower()
        op: dict[str, Any] = {"touch": name}
        if meta is not None or name not in self.index["entries"]:
            op["bytes"] = self._size(name) or 0
        if meta is not None:
            op["meta"] = meta
        self._log([op])

    def drop(self, name: str) -> None:
        """Forget ``name`` in the index; its file, if any, is left alone."""
        if name.lower() in self.index["entries"]:
            self._log([{"drop": name.lower()}])

    def evict(
        self, *, max_bytes: int | None = None, max_entries: int | None = None
    ) -> list[str]:
        """Delete least-recently-used artifacts until within bounds.

        Pops from the head of the in-memory LRU, so the cost is
        O(evicted) and no artifact is stat'ed.  Returns the evicted
        entry names.  ``None`` bounds are unlimited.
        """
        count, total = len(self.index["entries"]), self.index["bytes"]
        evicted: list[str] = []
        for name, entry in self.index["entries"].items():
            if not (
                (max_entries is not None and count > max_entries)
                or (max_bytes is not None and total > max_bytes)
            ):
                break
            count -= 1
            total -= entry["bytes"]
            evicted.append(name)
            self.record_path(name).unlink(missing_ok=True)
        self._log([{"drop": name} for name in evicted])
        return evicted
