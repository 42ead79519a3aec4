"""The result cache's on-disk state under crashes and two writers.

Artifacts are written with fsync and rename before a put returns; the
index journal is only flushed.  So a crash may lose any suffix of the
journal, and these tests discard one themselves: a put crashes between
its artifact write and its journal append, and the journal is cut at an
arbitrary byte.  Whatever survives, a reopened cache must answer every
acknowledged key with exactly its body, read a damaged artifact as a
miss, and account for exactly the artifacts on disk.
"""

from __future__ import annotations

import json
import tempfile
from collections import OrderedDict
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.service import ProvisionQuery, ResultCache

KEYS = 6


class Crash(Exception):
    """The process dies here."""


def _query(k: int) -> ProvisionQuery:
    return ProvisionQuery.from_dict({"topology": "path:16", "steps": k + 1})


def _answer(k: int, version: int = 0) -> dict:
    # a recomputed answer differs (its compute_s does), and so may its size
    return {"max_height": k, "compute_s": "x" * (k + version)}


def _assert_accounts_for_the_disk(cache: ResultCache, directory: Path):
    on_disk = sorted(directory.glob("q*.json"))
    assert cache.stats()["entries"] == len(on_disk)
    assert cache.stats()["bytes"] == sum(p.stat().st_size for p in on_disk)


@settings(max_examples=60, deadline=None)
@given(
    ops=st.lists(
        st.tuples(st.sampled_from(["put", "get"]), st.integers(0, KEYS - 1)),
        min_size=1,
        max_size=25,
    ),
    bound=st.none() | st.integers(1, KEYS),
    crash_at=st.none() | st.integers(0, 24),
    data=st.data(),
)
def test_crash_loses_no_acknowledged_answer(ops, bound, crash_at, data):
    with tempfile.TemporaryDirectory() as tmp:
        directory = Path(tmp)
        cache = ResultCache(directory, max_bytes=None, max_entries=bound)
        model: OrderedDict[int, dict] = OrderedDict()  # acknowledged LRU
        crashed: dict[int, dict] = {}
        for i, (op, k) in enumerate(ops):
            key = _query(k).cache_key()
            if op == "get":
                assert cache.get(key) == model.get(k)
                if k in model:
                    model.move_to_end(k)
                continue
            if i == crash_at:
                def crash(*args, **kwargs):
                    raise Crash

                cache.store.touch = crash  # dies before the journal line
                with pytest.raises(Crash):
                    cache.put(key, _answer(k, i), query=_query(k))
                crashed[k] = _answer(k, i)  # its artifact is on disk
                break
            cache.put(key, _answer(k, i), query=_query(k))
            model[k] = _answer(k, i)
            model.move_to_end(k)
            while bound is not None and len(model) > bound:
                model.popitem(last=False)

        journal = directory / "index.journal"
        size = journal.stat().st_size
        with journal.open("r+b") as fh:
            fh.truncate(data.draw(st.integers(0, size), label="cut"))

        reopened = ResultCache(directory, max_bytes=None, max_entries=None)
        _assert_accounts_for_the_disk(reopened, directory)
        survivors = {**model, **crashed}
        for k in range(KEYS):
            assert reopened.get(_query(k).cache_key()) == survivors.get(k)

        if survivors:
            k = data.draw(st.sampled_from(sorted(survivors)), label="flip")
            path = directory / f"q{_query(k).cache_key()[:40]}.json"
            raw = path.read_bytes()
            at = data.draw(st.integers(0, len(raw) - 1), label="at")
            mask = data.draw(st.integers(1, 255), label="mask")
            flipped = raw[:at] + bytes([raw[at] ^ mask]) + raw[at + 1:]
            path.write_bytes(flipped)
            try:
                same = json.loads(flipped) == json.loads(raw)
            except ValueError:
                same = False
            # a flip the JSON parser cannot see (one blank for another)
            # changes nothing; any other flip is a miss, never an answer
            want = survivors[k] if same else None
            assert reopened.get(_query(k).cache_key()) == want


def test_two_writers_lose_no_acknowledged_entry(tmp_path):
    """Two caches on one directory, interleaved puts, one compaction."""
    a = ResultCache(tmp_path, max_bytes=None, max_entries=None)
    b = ResultCache(tmp_path, max_bytes=None, max_entries=None)
    acknowledged = {}
    for k in range(KEYS * 2):
        writer = (a, b)[k % 2]
        q = ProvisionQuery.from_dict({"topology": "path:16", "seed": k})
        writer.put(q.cache_key(), _answer(k), query=q)
        acknowledged[q.cache_key()] = _answer(k)
        if k == KEYS:
            # a compacts from its own view, which lacks b's puts, and
            # empties the journal that recorded them
            a.store.write_index(a.store.index)
    assert b.get(next(iter(acknowledged))) == _answer(0)  # a's, via disk

    fresh = ResultCache(tmp_path, max_bytes=None, max_entries=None)
    for key, body in acknowledged.items():
        assert fresh.get(key) == body
    _assert_accounts_for_the_disk(fresh, tmp_path)
    assert fresh.stats()["entries"] == len(acknowledged)
