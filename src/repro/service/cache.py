"""Content-addressed result cache for the provisioning service.

Cache entries are checksummed artifacts in a :class:`RunStore`
directory, one file per content address (`q<sha256-prefix>.json`),
fsync'd and renamed into place before they are served, and verified on
every read: a flipped bit, a truncated or a missing file is a miss,
never a wrong answer, and a miss drops the key from the index.

The store's index (LRU recency, sizes, query shapes) is read from disk
once, when the cache opens, and then lives in memory: a hit costs one
artifact read plus one appended journal line, eviction pops the LRU
head, and ``stats()`` and ``nearest()`` read memory.  Provision entries
are filed under a *shape bucket* (topology sha + policy), so a degraded
answer's "nearest cached result" scans one bucket, not the cache.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

from ..io.checkpoint import atomic_write_text
from ..runner.store import RunStore, canonical_sha256
from .protocol import ProvisionQuery

__all__ = ["ENTRY_FORMAT", "ResultCache", "shape_bucket"]

ENTRY_FORMAT = "repro-cache-entry-v1"

#: artifact name for a cache key: a distinct prefix keeps cache entries
#: from ever colliding with experiment-id artifacts in a shared root.
def _entry_name(key: str) -> str:
    return f"q{key[:40]}"


def shape_bucket(query: ProvisionQuery) -> str | None:
    """The index bucket a provision query's cache entry is filed under.

    Topology sha + policy: the coarse shape the degraded-mode nearest
    lookup scopes its scan to (the finer adversary match happens
    within the bucket).  ``None`` for experiment queries — they are
    never nearest-neighbour candidates.
    """
    if query.kind != "provision":
        return None
    return f"{query.topology_sha}|{query.policy}"


class ResultCache:
    """Checksummed, LRU+size-bounded response cache keyed by content."""

    def __init__(
        self,
        directory: str | Path,
        *,
        max_bytes: int | None = 64 * 1024 * 1024,
        max_entries: int | None = 4096,
    ) -> None:
        self.store = RunStore(directory)
        self.max_bytes = max_bytes
        self.max_entries = max_entries
        self.hits = 0
        self.misses = 0
        self.write_errors = 0
        # the one read of the index from disk, compacted at once
        self.store.write_index(self.store.load_index())

    # ------------------------------------------------------------------
    def _read(self, name: str) -> dict[str, Any] | None:
        """The verified body of artifact ``name``, or ``None``."""
        try:
            doc = json.loads(self.store.record_path(name).read_bytes())
            body, seal = doc["body"], (doc["format"], doc["sha256"])
        except (OSError, ValueError, KeyError, TypeError):
            return None
        if seal != (ENTRY_FORMAT, canonical_sha256(body)):
            return None
        return body if isinstance(body, dict) else None

    def get(self, key: str) -> dict[str, Any] | None:
        """The cached response for ``key``, or ``None``.

        Verifies the artifact's checksum and its stored key before
        trusting it, and refreshes the entry's LRU position on a hit.
        """
        name = _entry_name(key)
        body = self._read(name)
        if body is None or body.get("key") != key:
            self.misses += 1
            self.store.drop(name)
            return None
        self.hits += 1
        self.store.touch(name)
        return body.get("response")

    def put(
        self, key: str, response: dict[str, Any], *, query: ProvisionQuery
    ) -> Path | None:
        """Store ``response`` under ``key``, then evict to the bounds.

        Returns the artifact's path, or ``None`` when the disk refused
        a write (a full disk, a read-only directory): the failure is
        counted in :meth:`stats` as ``write_errors`` and the caller
        serves its answer uncached.  A failed artifact write leaves no
        partial artifact, so the key stays a miss; a failure after it
        (the journal line, the eviction) leaves a whole, checksummed
        artifact, which a later :meth:`get` may serve.
        """
        body = {"key": key, "response": response}
        doc = {"format": ENTRY_FORMAT, "sha256": canonical_sha256(body),
               "body": body}
        meta: dict[str, Any] = {
            "kind": query.kind,
            "topology_sha": query.topology_sha,
            "policy": query.policy,
            "adversary": query.adversary,
            "steps": query.steps,
            "bucket": shape_bucket(query),
        }
        try:
            path = atomic_write_text(
                self.store.record_path(_entry_name(key)),
                json.dumps(doc, indent=2, sort_keys=True, default=str) + "\n",
            )
            self.store.touch(_entry_name(key), meta=meta)
            self.store.evict(
                max_bytes=self.max_bytes, max_entries=self.max_entries
            )
        except OSError:
            self.write_errors += 1
            return None
        return path

    # ------------------------------------------------------------------
    def nearest(self, query: ProvisionQuery) -> dict[str, Any] | None:
        """The closest cached response for a degraded answer.

        "Nearest" means: same topology, policy, and adversary (the
        shape of the provisioning question), most recently used first —
        a stale-but-real measurement beats a purely analytic bound.
        Returns ``None`` when nothing in the cache shares the shape.
        The scan reads one shape bucket in memory: O(bucket), not
        O(cache).
        """
        entries = self.store.index["entries"]
        candidates = sorted(
            (entries[name]["last_used"], name)
            for name in self.store.bucket_names(shape_bucket(query))
            if entries[name]["meta"].get("adversary") == query.adversary
        )
        for _, name in reversed(candidates):
            body = self._read(name)
            if body is not None:
                return body.get("response")
        return None

    # ------------------------------------------------------------------
    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def stats(self) -> dict[str, Any]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "hit_rate": round(self.hit_rate, 4),
            "write_errors": self.write_errors,
            "entries": len(self.store.index["entries"]),
            "bytes": self.store.indexed_bytes(),
            "max_bytes": self.max_bytes,
            "max_entries": self.max_entries,
        }
