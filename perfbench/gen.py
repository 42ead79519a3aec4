"""Seeded request generators for the service workloads.

Every list is a pure function of the seed, so a run can be replayed
exactly; the program under test only ever sees the generated bodies.
"""

from __future__ import annotations

import itertools
import json
import random

HIT_KEYS = 512
MISS_REQUESTS = 4096
HIT_REQUESTS = 65536
#: untimed requests sent before each timed phase
WARMUP_REQUESTS = 32

#: the accepted provisioning surface: every topology kind the service
#: resolves, with the one policy each shape accepts
MISS_TOPOLOGIES = {
    "path:256": "odd-even",
    "path:1024": "odd-even",
    "binary:7": "tree-odd-even",
    "spider:8x16": "tree-odd-even",
    "random:300": "tree-odd-even",
}
ADVERSARIES = (
    "far-end", "pre-sink", "seesaw", "pressure", "uniform",
    "round-robin", "max-chaser",
)
TIMINGS = ("pre_injection", "post_injection")
OVERFLOWS = ("drop-tail", "drop-oldest", "push-back")
TOPOLOGY_SIZES = {"path:256": 256, "path:1024": 1024, "binary:7": 255,
                  "spider:8x16": 130, "random:300": 300}
#: one query in this many sets a finite buffer, and (independently)
#: one in this many carries a fault plan
FINITE_EVERY = 8
FAULT_EVERY = 8
#: the accepted surface minus the known failure: ``pressure`` on a
#: tree passes validation but is answered 422 (see README.md)
TREE_POLICY = "tree-odd-even"
KNOWN_FAILURE = "pressure"


def _known_failure(topology: str, adversary: str) -> bool:
    return (MISS_TOPOLOGIES[topology] == TREE_POLICY
            and adversary == KNOWN_FAILURE)


def hit_keys(seed: int) -> list[dict]:
    """The 512 distinct queries the hit workload prefills and replays."""
    rng = random.Random(f"hit-keys:{seed}")
    steps = rng.sample(range(64, 64 + 4 * HIT_KEYS), HIT_KEYS)
    seeds = rng.sample(range(1 << 30), HIT_KEYS)
    return [
        {"topology": "path:64", "policy": "odd-even",
         "adversary": "far-end", "steps": st, "seed": sd}
        for st, sd in zip(steps, seeds)
    ]


def hit_sequence(seed: int) -> list[int]:
    """Indices into :func:`hit_keys`: the order the clients ask."""
    rng = random.Random(f"hit-seq:{seed}")
    return [rng.randrange(HIT_KEYS) for _ in range(HIT_REQUESTS)]


def hit_warmup(seed: int) -> list[int]:
    """Indices into :func:`hit_keys` asked before the timed phase."""
    rng = random.Random(f"hit-warm:{seed}")
    return [rng.randrange(HIT_KEYS) for _ in range(WARMUP_REQUESTS)]


def _fault_plan(rng: random.Random, n: int, steps: int) -> dict:
    # nodes 1..n-2 are never the sink (paths drain at n-1, the trees
    # the service builds drain at 0)
    return {
        "seed": rng.randrange(1 << 16),
        "events": [
            {"kind": "link_down", "start": rng.randrange(steps // 2),
             "node": rng.randint(1, n - 2),
             "duration": rng.randint(5, 50)},
            {"kind": "halt", "start": rng.randrange(steps // 4, steps)},
        ],
    }


def _miss_list(tag: str, count: int, seeds: range) -> list[dict]:
    """``count`` stratified queries; run seeds are drawn from ``seeds``."""
    rng = random.Random(tag)
    combos = [
        c for c in itertools.product(MISS_TOPOLOGIES, ADVERSARIES, TIMINGS)
        if not _known_failure(c[0], c[1])
    ]
    block = len(combos)
    run_seeds = rng.sample(seeds, count)
    out: list[dict] = []
    while len(out) < count:
        order = rng.sample(combos, block)
        finite = set(rng.sample(range(block), round(block / FINITE_EVERY)))
        faulted = set(rng.sample(range(block), round(block / FAULT_EVERY)))
        for i, (topo, adversary, timing) in enumerate(order):
            steps = rng.randrange(500, 2000)
            req = {
                "topology": topo,
                "policy": MISS_TOPOLOGIES[topo],
                "adversary": adversary,
                "steps": steps,
                "seed": run_seeds[len(out)],
                "decision_timing": timing,
            }
            if i in finite:
                req["buffer_capacity"] = rng.randint(2, 8)
                req["overflow"] = rng.choice(OVERFLOWS)
            if i in faulted:
                req["faults"] = _fault_plan(
                    rng, TOPOLOGY_SIZES[topo], steps
                )
            out.append(req)
            if len(out) == count:
                break
    return out


def miss_requests(seed: int) -> list[dict]:
    """Distinct provisioning queries covering the accepted surface.

    Stratified so that every prefix has nearly the same mix: each
    block of 64 holds every (topology, adversary, timing) triple the
    service answers once, in shuffled order, with exactly 8
    finite-buffer and 8 faulted queries.  Only steps, seeds and the
    extras vary freely.  The known failure is left out of this timed
    mix and sent by :func:`known_failure_requests` instead.
    """
    return _miss_list(f"miss:{seed}", MISS_REQUESTS, range(1 << 30))


def miss_warmup(seed: int) -> list[dict]:
    """Untimed queries sent before the timed phase.

    Their run seeds come from a range the timed list never uses, so
    every timed query is still a miss.
    """
    return _miss_list(f"miss-warm:{seed}", WARMUP_REQUESTS,
                      range(1 << 30, 1 << 31))


def known_failure_requests(seed: int) -> list[dict]:
    """``pressure`` on every tree topology, both timings.

    The service answers these 422 today.  They are sent after the
    timed phase, outside its figures, so that a fix shows in
    ``known_failure.error_ratio`` without the timed mix failing.
    """
    rng = random.Random(f"known-failure:{seed}")
    return [
        {"topology": topo, "policy": policy, "adversary": KNOWN_FAILURE,
         "steps": rng.randrange(500, 2000),
         "seed": rng.randrange(1 << 30, 1 << 31),
         "decision_timing": timing}
        for topo, policy in MISS_TOPOLOGIES.items()
        if policy == TREE_POLICY
        for timing in TIMINGS
    ]


def encode(requests: list[dict]) -> bytes:
    """Canonical bytes of a request list (what determinism compares)."""
    return json.dumps(requests, sort_keys=True).encode("utf-8")
