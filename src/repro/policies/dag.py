"""DAG forwarding policies (the §6 "arbitrary routing patterns" probe).

*DAG Odd-Even* applies the two-line rule against the **lowest**
out-neighbour: among v's out-edges pick the neighbour u with minimal
height (ties towards smaller depth, then id); forward iff the parity
rule h-odd → h(u) ≤ h(v) / h-even → h(u) < h(v) passes.  Choosing the
minimum gives the rule its best chance — if it blocks, every out-edge
blocks, exactly like the single-successor case.

*DAG Greedy* forwards whenever possible to the lowest out-neighbour —
the work-conserving baseline.

Both are 1-local (heights of out-neighbours only).  ``choose`` is
vectorised over the padded out-edge arrays from
:meth:`~repro.network.dag.DagTopology.packed_out_edges`; the scalar
:func:`_lowest_out_neighbour` is kept as the pinned reference the
property suite compares against.
"""

from __future__ import annotations

import numpy as np

from ..network.dag import DagTopology
from ..network.dag_engine import DagPolicy

__all__ = ["DagOddEvenPolicy", "DagGreedyPolicy"]

_INT64_MAX = np.iinfo(np.int64).max


def _lowest_out_neighbour(
    v: int, heights: np.ndarray, dag: DagTopology
) -> int:
    """Scalar reference for the (height, depth, id) argmin."""
    outs = dag.out_edges[v]
    return min(outs, key=lambda u: (heights[u], dag.depth[u], u))


def _lowest_out_neighbours(
    heights: np.ndarray, dag: DagTopology
) -> tuple[np.ndarray, np.ndarray]:
    """Per-node (height, depth, id)-argmin over out-edges, vectorised.

    Returns ``(u, hu)``; the sink's row (no out-edges) comes back as
    ``u = 0`` with ``hu = INT64_MAX`` and must be masked by the caller.
    The staged refinement below is a lexicographic argmin: restrict to
    minimal height, then minimal depth among those, then minimal id.
    """
    pad, mask, depth_pad = dag.packed_out_edges()
    hk = np.where(mask, heights[pad], _INT64_MAX)
    hu = hk.min(axis=1)
    elig = (hk == hu[:, None]) & mask
    dk = np.where(elig, depth_pad, _INT64_MAX)
    elig &= dk == dk.min(axis=1)[:, None]
    ik = np.where(elig, pad, _INT64_MAX)
    u = ik.min(axis=1)
    u[u == _INT64_MAX] = 0  # rows with no out-edges (the sink)
    return u, hu


class DagOddEvenPolicy(DagPolicy):
    """Odd-Even towards the lowest out-neighbour."""

    name = "dag-odd-even"
    locality = 1
    stateless = True

    def choose(self, heights: np.ndarray, dag: DagTopology) -> np.ndarray:
        heights = np.asarray(heights)
        targets = np.full(dag.n, -1, dtype=np.int64)
        occupied = heights > 0
        occupied[dag.sink] = False
        if not occupied.any():
            return targets
        u, hu = _lowest_out_neighbours(heights, dag)
        odd = (heights % 2) == 1
        forward = occupied & np.where(odd, hu <= heights, hu < heights)
        targets[forward] = u[forward]
        return targets


class DagGreedyPolicy(DagPolicy):
    """Always forward, to the lowest out-neighbour."""

    name = "dag-greedy"
    locality = 1
    stateless = True

    def choose(self, heights: np.ndarray, dag: DagTopology) -> np.ndarray:
        heights = np.asarray(heights)
        targets = np.full(dag.n, -1, dtype=np.int64)
        occupied = heights > 0
        occupied[dag.sink] = False
        u, _ = _lowest_out_neighbours(heights, dag)
        targets[occupied] = u[occupied]
        return targets
