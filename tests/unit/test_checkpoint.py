"""Unit tests for durable engine checkpoints (`repro.io.checkpoint`).

The property suite (`tests/property/test_checkpoint_property.py`) does
the byte-flip fuzzing; this file pins the named diagnostics — every
distinct way a checkpoint file can be untrustworthy must raise
:class:`CheckpointError` with the file named, and must never restore
anything into the engine.
"""

from __future__ import annotations

import json

import pytest

from repro.adversaries import FarEndAdversary
from repro.errors import CheckpointError
from repro.io.checkpoint import (
    CHECKPOINT_FORMAT,
    CHECKPOINT_VERSION,
    read_checkpoint_header,
    save_checkpoint,
)
from repro.network.engine_fast import PathEngine
from repro.network.faults import FaultEvent, FaultKind, FaultPlan
from repro.network.simulator import Simulator
from repro.network.topology import path
from repro.policies import OddEvenPolicy


def build(engine_cls, n: int, faults: FaultPlan | None = None):
    """A PathEngine or a Simulator on the n-node path."""
    first = n if engine_cls is PathEngine else path(n)
    return engine_cls(first, OddEvenPolicy(), FarEndAdversary(), faults=faults)


def make_engine(steps: int = 20) -> PathEngine:
    engine = PathEngine(12, OddEvenPolicy(), FarEndAdversary())
    for _ in range(steps):
        engine.step()
    return engine


class TestHeader:
    def test_header_is_inspectable_json_line(self, tmp_path):
        p = make_engine().save_checkpoint(tmp_path / "a.ckpt")
        head = p.read_bytes().partition(b"\n")[0]
        header = json.loads(head)
        assert header["format"] == CHECKPOINT_FORMAT
        assert header["version"] == CHECKPOINT_VERSION
        assert header["engine"] == "PathEngine"
        assert header["step"] == 20
        assert read_checkpoint_header(p) == header

    def test_save_returns_path_and_is_atomic_name(self, tmp_path):
        p = save_checkpoint(make_engine(), tmp_path / "sub" / "b.ckpt")
        assert p.exists()
        # no temp litter left behind
        assert list(p.parent.glob("*.tmp")) == []


class TestRefusals:
    def test_missing_file(self, tmp_path):
        with pytest.raises(CheckpointError, match="does not exist"):
            make_engine().load_checkpoint(tmp_path / "nope.ckpt")

    def test_not_a_checkpoint(self, tmp_path):
        alien = tmp_path / "alien.ckpt"
        alien.write_bytes(b'{"format": "something-else"}\n1234')
        with pytest.raises(CheckpointError, match="alien.ckpt"):
            make_engine().load_checkpoint(alien)

    def test_garbage_header(self, tmp_path):
        bad = tmp_path / "garbage.ckpt"
        bad.write_bytes(b"\x80\x04garbage\npayload")
        with pytest.raises(CheckpointError, match="garbage.ckpt"):
            make_engine().load_checkpoint(bad)

    def test_no_newline_at_all(self, tmp_path):
        bad = tmp_path / "flat.ckpt"
        bad.write_bytes(b"just one flat blob of bytes")
        with pytest.raises(CheckpointError, match="no header line"):
            make_engine().load_checkpoint(bad)

    def test_version_mismatch(self, tmp_path):
        p = make_engine().save_checkpoint(tmp_path / "v.ckpt")
        head, _, payload = p.read_bytes().partition(b"\n")
        header = json.loads(head)
        header["version"] = CHECKPOINT_VERSION + 1
        p.write_bytes(json.dumps(header).encode() + b"\n" + payload)
        with pytest.raises(CheckpointError, match="schema version"):
            make_engine().load_checkpoint(p)

    def test_engine_class_mismatch(self, tmp_path):
        p = make_engine().save_checkpoint(tmp_path / "e.ckpt")
        sim = Simulator(path(12), OddEvenPolicy(), FarEndAdversary())
        with pytest.raises(CheckpointError, match="PathEngine"):
            sim.load_checkpoint(p)

    def test_truncated_payload(self, tmp_path):
        p = make_engine().save_checkpoint(tmp_path / "t.ckpt")
        raw = p.read_bytes()
        p.write_bytes(raw[:-10])
        with pytest.raises(CheckpointError, match="truncated"):
            make_engine().load_checkpoint(p)

    def test_checksum_mismatch_never_unpickles(self, tmp_path):
        p = make_engine().save_checkpoint(tmp_path / "c.ckpt")
        raw = bytearray(p.read_bytes())
        raw[-1] ^= 0xFF
        p.write_bytes(bytes(raw))
        with pytest.raises(CheckpointError, match="checksum mismatch"):
            make_engine().load_checkpoint(p)

    def test_tampered_header_step_is_cross_checked(self, tmp_path):
        p = make_engine().save_checkpoint(tmp_path / "s.ckpt")
        head, _, payload = p.read_bytes().partition(b"\n")
        header = json.loads(head)
        header["step"] = header["step"] + 1  # lie about progress
        p.write_bytes(json.dumps(header).encode() + b"\n" + payload)
        with pytest.raises(CheckpointError, match="tampered"):
            make_engine().load_checkpoint(p)

    def test_failed_load_leaves_engine_untouched(self, tmp_path):
        p = make_engine(steps=30).save_checkpoint(tmp_path / "u.ckpt")
        raw = bytearray(p.read_bytes())
        raw[-4] ^= 0x10
        p.write_bytes(bytes(raw))
        engine = make_engine(steps=5)
        before = engine.heights.copy()
        with pytest.raises(CheckpointError):
            engine.load_checkpoint(p)
        assert engine.step_index == 5
        assert (engine.heights == before).all()

    @pytest.mark.parametrize("engine_cls", [PathEngine, Simulator])
    def test_checkpoint_of_another_size_is_refused(self, tmp_path, engine_cls):
        """The header names only the engine class, so a size-8 file
        passes every header check on a size-16 engine; the restore must
        still refuse it rather than fail at a later step."""
        small = build(engine_cls, 8)
        small.run(10)
        p = small.save_checkpoint(tmp_path / "small.ckpt")
        engine = build(engine_cls, 16)
        engine.run(5)
        before = engine.heights.copy()
        with pytest.raises(CheckpointError, match=r"small\.ckpt: .*shape"):
            engine.load_checkpoint(p)
        assert engine.step_index == 5
        assert (engine.heights == before).all()
        engine.run(5)

    @pytest.mark.parametrize("engine_cls", [PathEngine, Simulator])
    @pytest.mark.parametrize("saved_with_plan", [True, False])
    def test_checkpoint_with_other_fault_state_is_refused(
        self, tmp_path, saved_with_plan, engine_cls
    ):
        """A crash plan's state loaded into an engine without a plan
        would stop its drops, and the reverse would silently skip the
        plan's earlier events: both are refused, the engine untouched."""
        plan = FaultPlan(events=(
            FaultEvent(kind=FaultKind.CRASH, start=3, node=0, duration=30),
        ))
        saved = build(engine_cls, 12, plan if saved_with_plan else None)
        saved.run(10)
        p = saved.save_checkpoint(tmp_path / "f.ckpt")
        engine = build(engine_cls, 12, None if saved_with_plan else plan)
        engine.run(5)
        before = engine.heights.copy()
        with pytest.raises(CheckpointError, match="fault plan"):
            engine.load_checkpoint(p)
        assert engine.step_index == 5
        assert (engine.heights == before).all()
        engine.run(5)
