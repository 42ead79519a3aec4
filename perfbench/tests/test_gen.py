"""The seeded request lists: deterministic, seed-sensitive, valid."""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import gen  # noqa: E402
from repro.service import ProvisionQuery  # noqa: E402

LISTS = [
    gen.hit_keys, gen.hit_sequence, gen.hit_warmup,
    gen.miss_requests, gen.miss_warmup, gen.known_failure_requests,
]


@pytest.mark.parametrize("make", LISTS)
def test_same_seed_gives_identical_bytes(make):
    assert gen.encode(make(7)) == gen.encode(make(7))


@pytest.mark.parametrize("make", LISTS)
def test_different_seeds_give_different_lists(make):
    assert gen.encode(make(7)) != gen.encode(make(8))


@pytest.mark.parametrize("make", [
    gen.hit_keys, gen.miss_requests, gen.miss_warmup,
    gen.known_failure_requests,
])
def test_every_request_validates_and_keys_are_distinct(make):
    requests = make(7)
    keys = {ProvisionQuery.from_dict(r).cache_key() for r in requests}
    assert len(keys) == len(requests)


def _keys(requests):
    return {ProvisionQuery.from_dict(r).cache_key() for r in requests}


def test_warmup_and_probe_never_repeat_a_timed_query():
    timed = _keys(gen.miss_requests(7))
    assert not timed & _keys(gen.miss_warmup(7))
    assert not timed & _keys(gen.known_failure_requests(7))


def test_known_failure_is_only_in_the_probe():
    def known(r):
        return r["policy"] == "tree-odd-even" and r["adversary"] == "pressure"

    assert not any(known(r) for r in gen.miss_requests(7))
    assert not any(known(r) for r in gen.miss_warmup(7))
    probe = gen.known_failure_requests(7)
    assert probe and all(known(r) for r in probe)
