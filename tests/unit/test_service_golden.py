"""Golden provisioning answers: an engine change must reproduce them.

``tests/data/service_golden.json`` holds the answers a reference tree
gave to :func:`golden_queries`: one query per (topology, adversary,
decision timing) triple of the service surface at a fixed seed and
step count, eight finite-buffer queries covering every overflow
discipline, eight with a ``link_down`` + ``halt`` fault plan, and eight
that omit ``steps`` and so run the default 16n.
``tests/data/service_golden_finite.json`` holds the answers to
:func:`finite_queries`: finite buffers at the service's own sizes,
under every discipline and both timings, in runs that never refuse a
packet, refuse late and refuse from the first steps, with and without
fault plans.  The test answers them
through :func:`~repro.service.worker.execute_batch`, one batch per
batch key, so both vectorised fleet lanes and dedicated-engine lanes
answer, and compares every field but the wall-clock ``compute_s``.

Regenerate a fixture only from a tree whose answers are trusted::

    PYTHONPATH=src python tests/unit/test_service_golden.py \\
        > tests/data/service_golden.json
    PYTHONPATH=src python tests/unit/test_service_golden.py finite \\
        > tests/data/service_golden_finite.json
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

DATA = Path(__file__).resolve().parents[1] / "data"
FIXTURE = DATA / "service_golden.json"
FINITE_FIXTURE = DATA / "service_golden_finite.json"

#: the service's topology kinds, each with the policy it accepts
TOPOLOGIES = {
    "path:64": "odd-even",
    "path:256": "odd-even",
    "binary:5": "tree-odd-even",
    "spider:4x8": "tree-odd-even",
    "random:60": "tree-odd-even",
}
ADVERSARIES = (
    "far-end", "pre-sink", "seesaw", "pressure", "uniform",
    "round-robin", "max-chaser",
)
TIMINGS = ("pre_injection", "post_injection")
OVERFLOWS = ("drop-tail", "drop-oldest", "push-back")
STEPS, SEED = 600, 7
#: the topologies the provisioning service is exercised at
SERVICE_TOPOLOGIES = {
    "path:256": "odd-even",
    "path:1024": "odd-even",
    "binary:7": "tree-odd-even",
    "spider:8x16": "tree-odd-even",
    "random:300": "tree-odd-even",
}


def _combos() -> list[tuple[str, str, str]]:
    return [
        (topo, adv, timing)
        for topo, policy in TOPOLOGIES.items()
        for adv in ADVERSARIES
        for timing in TIMINGS
        if adv != "pressure" or policy == "odd-even"
    ]


def golden_queries() -> list[dict]:
    """The fixture's requests, a pure function of this module."""
    from repro.network.topology import from_spec

    rng = random.Random("service-golden")
    combos = _combos()

    def request(topo: str, adv: str, timing: str, **extra) -> dict:
        return {
            "topology": topo, "policy": TOPOLOGIES[topo], "adversary": adv,
            "decision_timing": timing, "seed": SEED, **extra,
        }

    out = [request(*c, steps=STEPS) for c in combos]
    for i in range(8):
        out.append(request(
            *rng.choice(combos), steps=STEPS,
            buffer_capacity=rng.randint(2, 8), overflow=OVERFLOWS[i % 3],
        ))
    for _ in range(8):
        topo, adv, timing = rng.choice(combos)
        n, steps = from_spec(topo).n, rng.randrange(500, 2000)
        out.append(request(
            topo, adv, timing, steps=steps,
            faults=_fault_plan(rng, n, steps),
        ))
    for _ in range(8):
        out.append(request(*rng.choice(combos), seed=rng.randrange(1 << 30)))
    return out


def _fault_plan(rng: random.Random, n: int, steps: int) -> dict:
    """A ``link_down`` + ``halt`` plan (node 0 drains the trees and
    node n - 1 the paths, so neither goes down)."""
    return {
        "seed": rng.randrange(1 << 16),
        "events": [
            {"kind": "link_down", "start": rng.randrange(steps // 2),
             "node": rng.randint(1, n - 2),
             "duration": rng.randint(5, 50)},
            {"kind": "halt", "start": rng.randrange(steps // 4, steps)},
        ],
    }


def finite_queries() -> list[dict]:
    """Finite-buffer requests at the service's sizes, a pure function of
    this module.

    One per (topology, discipline, timing) with a drawn adversary and a
    capacity in 2..8; capacity 2 under uniform traffic on every
    topology (refusals within tens to hundreds of steps); seesaw,
    round-robin and pressure at capacities 2-4; and eight under a
    fault plan.
    """
    from repro.network.topology import from_spec

    rng = random.Random("service-golden-finite")

    def request(topo: str, adv: str, timing: str, **extra) -> dict:
        steps = rng.randrange(500, 1500)
        return {
            "topology": topo, "policy": SERVICE_TOPOLOGIES[topo],
            "adversary": adv, "decision_timing": timing, "steps": steps,
            "seed": rng.randrange(1 << 30), **extra,
        }

    def admitted(topo: str) -> list[str]:
        return [
            a for a in ADVERSARIES
            if a != "pressure" or SERVICE_TOPOLOGIES[topo] == "odd-even"
        ]

    out = []
    for topo in SERVICE_TOPOLOGIES:
        for overflow in OVERFLOWS:
            for timing in TIMINGS:
                out.append(request(
                    topo, rng.choice(admitted(topo)), timing,
                    buffer_capacity=rng.randint(2, 8), overflow=overflow,
                ))
        out.append(request(
            topo, "uniform", rng.choice(TIMINGS), buffer_capacity=2,
            overflow=rng.choice(OVERFLOWS),
        ))
        for adv in ("seesaw", "round-robin", "pressure"):
            if adv in admitted(topo):
                out.append(request(
                    topo, adv, rng.choice(TIMINGS),
                    buffer_capacity=rng.randint(2, 4),
                    overflow=rng.choice(OVERFLOWS),
                ))
    for i in range(8):
        topo = rng.choice(sorted(SERVICE_TOPOLOGIES))
        q = request(
            topo, rng.choice(admitted(topo)), rng.choice(TIMINGS),
            buffer_capacity=rng.randint(2, 8), overflow=OVERFLOWS[i % 3],
        )
        q["faults"] = _fault_plan(rng, from_spec(topo).n, q["steps"])
        out.append(q)
    return out


def answer(requests: list[dict]) -> list[dict]:
    """Every request's response without ``compute_s``, batched by
    batch key as the service's batcher would coalesce them."""
    from repro.service.protocol import ProvisionQuery
    from repro.service.worker import execute_batch

    queries = [ProvisionQuery.from_dict(r) for r in requests]
    groups: dict[str, list[int]] = {}
    for i, q in enumerate(queries):
        groups.setdefault(q.batch_key(), []).append(i)
    out: list[dict] = [{}] * len(queries)
    for lanes in groups.values():
        responses = execute_batch(
            [queries[i].to_worker_dict() for i in lanes]
        )
        for i, response in zip(lanes, responses):
            response.pop("compute_s", None)
            out[i] = response
    return out


def test_fixture_covers_the_surface():
    requests = [g["request"] for g in json.loads(FIXTURE.read_text())]
    assert requests == golden_queries()
    assert len(requests) == len(_combos()) + 24
    assert {r.get("overflow") for r in requests} >= set(OVERFLOWS)
    assert sum("steps" not in r for r in requests) == 8


def test_execute_batch_reproduces_the_golden_answers():
    golden = json.loads(FIXTURE.read_text())
    got = answer([g["request"] for g in golden])
    for g, response in zip(golden, got):
        assert "error" not in response, (g["request"], response)
        assert response == g["response"], g["request"]


def test_finite_fixture_covers_the_surface():
    golden = json.loads(FINITE_FIXTURE.read_text())
    requests = [g["request"] for g in golden]
    assert requests == finite_queries()
    assert {r["topology"] for r in requests} == set(SERVICE_TOPOLOGIES)
    assert {r["overflow"] for r in requests} == set(OVERFLOWS)
    assert {r["decision_timing"] for r in requests} == set(TIMINGS)
    assert {r["buffer_capacity"] for r in requests} == set(range(2, 9))
    assert sum("faults" in r for r in requests) == 8
    # runs that lose packets and runs that lose none
    lost = [g["response"]["dropped"] > 0 for g in golden]
    assert any(lost) and not all(lost)


def test_execute_batch_reproduces_the_finite_answers():
    golden = json.loads(FINITE_FIXTURE.read_text())
    got = answer([g["request"] for g in golden])
    for g, response in zip(golden, got):
        assert "error" not in response, (g["request"], response)
        assert response == g["response"], g["request"]


if __name__ == "__main__":
    requests = finite_queries() if sys.argv[1:] == ["finite"] else (
        golden_queries()
    )
    json.dump(
        [{"request": r, "response": a}
         for r, a in zip(requests, answer(requests))],
        sys.stdout, indent=1, sort_keys=True,
    )
    sys.stdout.write("\n")
