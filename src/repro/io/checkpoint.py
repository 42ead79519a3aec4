"""Durable engine checkpoints: atomic, checksummed, versioned.

The in-memory ``snapshot()`` / ``restore()`` pair on every engine is
enough to survive an *induced* crash inside one process (see
:func:`repro.network.faults.run_with_recovery`), but a real worker
death loses the process memory along with the run.  This module turns a
snapshot into a file that a **fresh process** can resume from, with the
failure modes of real storage taken seriously:

* **atomic writes** — the checkpoint is written to a temp file in the
  destination directory, flushed, ``fsync``'d and ``os.replace``'d into
  place, so a crash mid-write can never leave a half-written file under
  the real name;
* **payload checksum** — a SHA-256 over the pickled snapshot is stored
  in the header and verified *before* unpickling, so a flipped bit or
  truncated tail raises :class:`~repro.errors.CheckpointError` instead
  of feeding garbage to ``pickle.loads``;
* **schema version + engine class** — the header names the format, the
  schema version and the engine class that produced the snapshot;
  mismatches are refused with a named diagnosis rather than restored
  into the wrong kind of engine.

File layout (version 2)::

    <one JSON header line>\\n
    <pickled snapshot bytes>

Version 2 holds every engine's state as a plain dict; version-1 files,
whose path, tree and fleet snapshots pickled a dataclass, are refused
by the version check rather than failing inside ``restore``.

The header is plain JSON so ``head -1 run.ckpt`` is a usable
inspection tool; the payload is a pickle because snapshots carry live
numpy arrays, packet deques and deep-copied policy/adversary objects.
Checksum-before-unpickle also means a checkpoint file is only ever
unpickled after its integrity is proven.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import pickle
import tempfile
from pathlib import Path
from typing import Any

from ..errors import CheckpointError

__all__ = [
    "CHECKPOINT_FORMAT",
    "CHECKPOINT_VERSION",
    "atomic_write_bytes",
    "atomic_write_text",
    "save_checkpoint",
    "load_checkpoint",
    "read_checkpoint_header",
]

CHECKPOINT_FORMAT = "repro-checkpoint"
CHECKPOINT_VERSION = 2

#: exactly the fields a header carries.  Load refuses headers
#: with missing or unknown keys: every header byte is then load-bearing,
#: so any single-byte corruption of the header is detectable (a flipped
#: key name cannot silently disable the check it used to name).
_HEADER_KEYS = frozenset(
    {"format", "version", "engine", "step", "payload_bytes", "sha256"}
)


# ----------------------------------------------------------------------
# atomic file primitives (shared with the runner's durable run store)
def atomic_write_bytes(path: str | Path, data: bytes) -> Path:
    """Write ``data`` to ``path`` atomically (temp + fsync + rename).

    The temp file lives in the destination directory so the final
    ``os.replace`` is a same-filesystem rename, which POSIX makes
    atomic: readers see either the old complete file or the new
    complete file, never a prefix.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(
        prefix=f".{path.name}.", suffix=".tmp", dir=path.parent
    )
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise
    try:  # best effort: persist the directory entry too
        dir_fd = os.open(path.parent, os.O_RDONLY)
        try:
            os.fsync(dir_fd)
        finally:
            os.close(dir_fd)
    except OSError:  # pragma: no cover - platform-dependent
        pass
    return path


def atomic_write_text(path: str | Path, text: str) -> Path:
    """Atomic UTF-8 text write (see :func:`atomic_write_bytes`)."""
    return atomic_write_bytes(path, text.encode("utf-8"))


# ----------------------------------------------------------------------
def save_checkpoint(engine: Any, path: str | Path) -> Path:
    """Persist ``engine.snapshot()`` to ``path`` atomically.

    Works on any engine exposing ``snapshot()`` and ``step_index``
    (:class:`~repro.network.simulator.Simulator`,
    :class:`~repro.network.engine_fast.PathEngine`,
    :class:`~repro.network.tree_engine.TreeEngine`,
    :class:`~repro.network.dag_engine.DagEngine`).  Returns the path.
    """
    path = Path(path)
    try:
        payload = pickle.dumps(
            engine.snapshot(), protocol=pickle.HIGHEST_PROTOCOL
        )
    except Exception as err:
        raise CheckpointError(
            f"{path}: cannot serialise a {type(engine).__name__} "
            f"snapshot ({type(err).__name__}: {err})"
        ) from err
    header = {
        "format": CHECKPOINT_FORMAT,
        "version": CHECKPOINT_VERSION,
        "engine": type(engine).__name__,
        "step": int(engine.step_index),
        "payload_bytes": len(payload),
        "sha256": hashlib.sha256(payload).hexdigest(),
    }
    buf = io.BytesIO()
    # compact separators: no cosmetic bytes in the header, so corruption
    # can never land on a byte that doesn't matter
    buf.write(
        json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    )
    buf.write(b"\n")
    buf.write(payload)
    return atomic_write_bytes(path, buf.getvalue())


def _read_raw(path: Path) -> tuple[dict[str, Any], bytes]:
    """Split a checkpoint file into (header, payload), diagnosing both."""
    try:
        raw = path.read_bytes()
    except FileNotFoundError:
        raise CheckpointError(f"{path}: checkpoint file does not exist") from None
    except OSError as err:
        raise CheckpointError(f"{path}: cannot read checkpoint: {err}") from err
    head, sep, payload = raw.partition(b"\n")
    if not sep:
        raise CheckpointError(
            f"{path}: not a {CHECKPOINT_FORMAT} file (no header line)"
        )
    try:
        header = json.loads(head.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError):
        raise CheckpointError(
            f"{path}: checkpoint header is not valid JSON "
            f"(corrupt or foreign file)"
        ) from None
    if not isinstance(header, dict) or header.get("format") != CHECKPOINT_FORMAT:
        raise CheckpointError(
            f"{path}: not a {CHECKPOINT_FORMAT} file "
            f"(format={header.get('format')!r} if any)"
        )
    return header, payload


def read_checkpoint_header(path: str | Path) -> dict[str, Any]:
    """Return the header dict without touching the pickled payload."""
    header, _ = _read_raw(Path(path))
    return header


def load_checkpoint(engine: Any, path: str | Path) -> dict[str, Any]:
    """Verify ``path`` and restore it into ``engine``; return the header.

    Raises
    ------
    CheckpointError
        On any integrity problem — missing/truncated file, checksum
        mismatch, unknown schema version, wrong engine class, a
        payload that fails to unpickle, or (from the engine's
        ``restore``) state that does not fit the engine.  The engine
        is left untouched
        in every failure case; the payload is only unpickled after its
        checksum verifies.
    """
    path = Path(path)
    header, payload = _read_raw(path)
    missing = _HEADER_KEYS - header.keys()
    unknown = header.keys() - _HEADER_KEYS
    if missing or unknown:
        detail = []
        if missing:
            detail.append(f"missing {sorted(missing)}")
        if unknown:
            detail.append(f"unknown {sorted(unknown)}")
        raise CheckpointError(
            f"{path}: malformed checkpoint header ({'; '.join(detail)})"
        )
    version = header.get("version")
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"{path}: checkpoint schema version {version!r} is not the "
            f"supported version {CHECKPOINT_VERSION}"
        )
    written_by = header.get("engine")
    if written_by != type(engine).__name__:
        raise CheckpointError(
            f"{path}: checkpoint was written by engine {written_by!r}, "
            f"refusing to restore into a {type(engine).__name__}"
        )
    expected_len = header.get("payload_bytes")
    if expected_len is not None and len(payload) != int(expected_len):
        raise CheckpointError(
            f"{path}: checkpoint payload is {len(payload)} bytes, header "
            f"promises {expected_len} (truncated or appended-to file)"
        )
    digest = hashlib.sha256(payload).hexdigest()
    if digest != header.get("sha256"):
        raise CheckpointError(
            f"{path}: checkpoint payload checksum mismatch (header "
            f"{str(header.get('sha256'))[:12]}…, actual {digest[:12]}…) — "
            f"refusing to unpickle a corrupt file"
        )
    try:
        snap = pickle.loads(payload)
    except Exception as err:  # checksum passed but pickle still broke
        raise CheckpointError(
            f"{path}: checkpoint payload failed to unpickle "
            f"({type(err).__name__}: {err})"
        ) from err
    step = _snapshot_step(snap)
    if step is not None and step != header.get("step"):
        raise CheckpointError(
            f"{path}: header claims step {header.get('step')!r} but the "
            f"payload is at step {step} (tampered or rewritten header)"
        )
    try:
        engine.restore(snap)
    except CheckpointError as err:  # state that does not fit the engine
        raise CheckpointError(f"{path}: {err}") from err
    return header


def _snapshot_step(snap: Any) -> int | None:
    """The step index recorded inside a snapshot payload, if findable.

    The checksum only covers the payload, so the header's ``step``
    field is cross-checked against the payload's own step — a header
    edit that survives JSON parsing is still caught.
    """
    if not isinstance(snap, dict):
        return None
    if "step" in snap:
        return int(snap["step"])
    inner = snap.get("engine")
    if isinstance(inner, dict) and "step" in inner:
        return int(inner["step"])
    return None
