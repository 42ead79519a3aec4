"""Golden provisioning answers: an engine change must reproduce them.

``tests/data/service_golden.json`` holds the answers a reference tree
gave to :func:`golden_queries`: one query per (topology, adversary,
decision timing) triple of the service surface at a fixed seed and
step count, eight finite-buffer queries covering every overflow
discipline, eight with a ``link_down`` + ``halt`` fault plan, and eight
that omit ``steps`` and so run the default 16n.  The test answers them
through :func:`~repro.service.worker.execute_batch`, one batch per
batch key, so both vectorised fleet lanes and dedicated-engine lanes
answer, and compares every field but the wall-clock ``compute_s``.

Regenerate the fixture only from a tree whose answers are trusted::

    PYTHONPATH=src python tests/unit/test_service_golden.py \\
        > tests/data/service_golden.json
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

FIXTURE = Path(__file__).resolve().parents[1] / "data" / "service_golden.json"

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
        out.append(request(topo, adv, timing, steps=steps, faults={
            "seed": rng.randrange(1 << 16),
            "events": [
                {"kind": "link_down", "start": rng.randrange(steps // 2),
                 "node": rng.randint(1, n - 2),
                 "duration": rng.randint(5, 50)},
                {"kind": "halt", "start": rng.randrange(steps // 4, steps)},
            ],
        }))
    for _ in range(8):
        out.append(request(*rng.choice(combos), seed=rng.randrange(1 << 30)))
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


if __name__ == "__main__":
    requests = golden_queries()
    json.dump(
        [{"request": r, "response": a}
         for r, a in zip(requests, answer(requests))],
        sys.stdout, indent=1, sort_keys=True,
    )
    sys.stdout.write("\n")
