"""Algorithm 5 — the 2-local Tree policy (§5).

A straightforward generalisation of Odd-Even to directed in-trees:

    If the height ``h`` of the node is odd, forward a packet to your
    successor iff its height is at most ``h`` *and you have the highest
    priority among your siblings*; if ``h`` is even, the same with
    "strictly less than ``h``".

The priority scheme completing the algorithm: *a sibling with a higher
height has higher priority; among siblings of the same maximal height,
choose arbitrarily.*  Consequently at most one packet enters any
*intersection* (node of in-degree ≥ 2) per step, and the tree
decomposes into *lines* whose analysis reduces to the path case with
crossover matching pairs (Algorithm 6).

Reading sibling heights requires information two hops away (sibling →
parent → node), hence ``locality = 2``.  Theorem 5.11: buffers stay
O(log n); the certified constant is 2·log₂ n + O(1) because the tree
attachment scheme only tracks even-height residues.

Tie-breaking among equal-height siblings is "arbitrary" in the paper;
we make it configurable (and deterministic by default) because the
reproduction must be replayable.
"""

from __future__ import annotations

from typing import Any, Literal

import numpy as np

from .base import ForwardingPolicy
from ..errors import PolicyError
from ..network.topology import SINK_SUCC, Topology

__all__ = ["TreeOddEvenPolicy", "select_priority_children"]

TieRule = Literal["min_id", "max_id", "round_robin"]

# below this many occupied nodes a plain dict sweep beats the stack of
# numpy calls the vectorised arbitration needs (a single adversarial
# stream on a 2000-node tree occupies ~depth nodes)
_SPARSE_CUTOFF = 64


def _winners(
    heights: np.ndarray, occupied: np.ndarray, parents: np.ndarray,
    tie_rule: str, rotation: int,
) -> tuple[Any, Any]:
    """Each parent's highest-priority occupied child, as ``(winners,
    their parents)``; ``parents[i]`` is the parent of ``occupied[i]``.

    Candidates ascend in node id because ``occupied`` does, so the first
    is the min-id winner and the last the max-id one.  When only a
    handful of nodes hold packets (a single adversarial stream on a
    large tree) numpy call overhead dwarfs the work, so a plain dict
    sweep answers in lists.  Otherwise a scatter-max over the parents
    finds each parent's best occupied-child height, a stable argsort
    groups the tied candidates by parent, and the tie rule picks an
    offset into each group.  Both are pinned winner for winner by the
    policy unit tests against the loop reference.
    """
    if occupied.size <= _SPARSE_CUTOFF:
        cands: dict[int, list[int]] = {}
        besth: dict[int, int] = {}
        for v, hv, p in zip(
            occupied.tolist(), heights[occupied].tolist(), parents.tolist()
        ):
            if p < 0:  # the sink sends nowhere
                continue
            b = besth.get(p, 0)
            if hv > b:
                besth[p] = hv
                cands[p] = [v]
            elif hv == b:
                cands[p].append(v)
        groups = cands.values()
        if tie_rule == "min_id":
            return [g[0] for g in groups], list(cands)
        if tie_rule == "max_id":
            return [g[-1] for g in groups], list(cands)
        return [g[rotation % len(g)] for g in groups], list(cands)
    h = heights[occupied]
    best = np.zeros(heights.size, dtype=np.int64)
    np.maximum.at(best, parents, h)
    tied = h == best[parents]
    top, parents = occupied[tied], parents[tied]
    order = np.argsort(parents, kind="stable")
    group, start, size = np.unique(
        parents[order], return_index=True, return_counts=True
    )
    if tie_rule == "min_id":
        sel = start
    elif tie_rule == "max_id":
        sel = start + size - 1
    else:  # round_robin
        sel = start + rotation % size
    return top[order][sel], group


def select_priority_children(
    heights: np.ndarray,
    topology: Topology,
    tie_rule: TieRule = "min_id",
    rotation: int = 0,
) -> np.ndarray:
    """For every node, the id of its highest-priority child, or -1.

    The highest-priority child is the occupied child of maximal height
    (ties per ``tie_rule``); -1 if the node has no occupied child.
    This is shared with the tree-matching certifier (Algorithm 6),
    which must reconstruct the same priority lines the policy used.
    """
    if tie_rule not in ("min_id", "max_id", "round_robin"):
        raise PolicyError(f"unknown tie rule {tie_rule!r}")
    heights = np.asarray(heights)
    winner = np.full(topology.n, -1, dtype=np.int64)
    succ = topology.succ
    occupied = np.flatnonzero((succ != SINK_SUCC) & (heights > 0))
    w, p = _winners(heights, occupied, succ[occupied], tie_rule, rotation)
    winner[p] = w
    return winner


class TreeOddEvenPolicy(ForwardingPolicy):
    """Odd-Even with height-priority sibling arbitration (Algorithm 5)."""

    name = "tree-odd-even"
    locality = 2
    max_capacity = 1

    def __init__(self, tie_rule: TieRule = "min_id") -> None:
        if tie_rule not in ("min_id", "max_id", "round_robin"):
            raise PolicyError(f"unknown tie rule {tie_rule!r}")
        self.tie_rule: TieRule = tie_rule
        self._rotation = 0

    @property
    def stateless(self) -> bool:  # type: ignore[override]
        """Round-robin ties rotate once per step; the other rules keep
        no state."""
        return self.tie_rule != "round_robin"

    def reset(self, topology: Topology) -> None:
        self._rotation = 0

    def send_mask(self, heights: np.ndarray, topology: Topology) -> np.ndarray:
        """Algorithm 5 on one run's ``(n,)`` heights or a fleet's
        ``(n, runs)`` matrix.

        A fleet is arbitrated as one forest of ``runs`` disjoint trees
        (node ``v`` of run ``r`` becomes ``v·runs + r``): parents of
        different runs never collide, and the flat ids keep the
        ascending within-run order the tie rules are defined over.
        One rotation tick per call, so each run sees the rotation of a
        fresh per-run policy stepping on the same clock.
        """
        heights = np.asarray(heights)
        rotation = self._rotation
        if self.tie_rule == "round_robin":
            self._rotation += 1
        mask = np.zeros(heights.shape, dtype=bool)
        h, flat = heights.ravel(), mask.ravel()
        # the contract guarantees heights[sink] == 0, so the occupied
        # set never contains the sink
        occupied = np.flatnonzero(h > 0)
        if occupied.size == 0:
            return mask
        succ = topology.succ
        runs = h.size // topology.n
        if runs > 1:  # node v of run r is v·runs + r
            parents = succ[occupied // runs] * runs + occupied % runs
        else:
            parents = succ[occupied]
        w, p = _winners(h, occupied, parents, self.tie_rule, rotation)
        # odd height: forward iff parent <= h; even: strictly below
        if occupied.size <= _SPARSE_CUTOFF:  # a few winners, in lists
            for v, u in zip(w, p):
                hv, hu = h.item(v), h.item(u)
                flat[v] = hu <= hv if hv & 1 else hu < hv
        else:
            hw, hp = h[w], h[p]
            flat[w] = np.where(hw & 1, hp <= hw, hp < hw)
        return mask
