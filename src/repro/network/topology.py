"""Rooted in-tree topologies for convergecast.

The paper (§2) considers tree networks of ``n`` nodes whose root ``s`` is
the *sink*; every edge is directed towards the sink and every packet is
routed along the unique path to it.  A topology is therefore fully
described by a *successor* (parent) array.

Conventions used throughout the library:

* Nodes are integers ``0 .. n-1``; the sink is one of them and is the
  only node with successor ``SINK_SUCC`` (-1).
* For directed paths built by :func:`path` the nodes are ordered by
  distance: node ``0`` is the farthest from the sink (the "left end" in
  the paper's figures) and node ``n-1`` is the sink.
* ``depth[v]`` is the hop distance from ``v`` to the sink.

The class precomputes children lists, sibling groups and a bottom-up
traversal order, all of which are needed by the tree scheduling policy
(Algorithm 5) and the proof machinery (Algorithm 6).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Iterable, Sequence

import numpy as np

from ..errors import TopologyError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .dag import DagTopology

__all__ = [
    "SINK_SUCC",
    "Topology",
    "path",
    "spider",
    "star_of_paths",
    "balanced_tree",
    "caterpillar",
    "broom",
    "random_tree",
    "from_parent_array",
    "from_networkx",
    "from_spec",
]

SINK_SUCC: int = -1


@dataclass(frozen=True)
class Topology:
    """An immutable rooted in-tree.

    Parameters
    ----------
    succ:
        ``succ[v]`` is the node that ``v`` forwards to (its parent on the
        path to the sink); the sink has ``succ[sink] == -1``.

    Raises
    ------
    TopologyError
        If the successor array does not describe a single tree rooted at
        a unique sink (cycles, several roots, out-of-range parents).
    """

    succ: np.ndarray
    sink: int = field(init=False)
    depth: np.ndarray = field(init=False)
    children: tuple[tuple[int, ...], ...] = field(init=False)
    bottom_up: np.ndarray = field(init=False)
    is_canonical_path: bool = field(init=False)

    def __post_init__(self) -> None:
        succ = np.array(self.succ, dtype=np.int64)  # frozen below
        if succ.ndim != 1 or succ.size == 0:
            raise TopologyError("successor array must be 1-D and non-empty")
        n = succ.size
        roots = np.flatnonzero(succ == SINK_SUCC)
        if roots.size != 1:
            raise TopologyError(
                f"expected exactly one sink, found {roots.size}"
            )
        sink = int(roots[0])
        bad = (succ != SINK_SUCC) & ((succ < 0) | (succ >= n))
        if bad.any():
            raise TopologyError(
                f"successor out of range at nodes {np.flatnonzero(bad).tolist()}"
            )
        if (succ[succ != SINK_SUCC] == np.flatnonzero(succ != SINK_SUCC)).any():
            raise TopologyError("a node may not be its own successor")

        depth = self._compute_depths(succ, sink)

        kids: list[list[int]] = [[] for _ in range(n)]
        for v in range(n):
            p = int(succ[v])
            if p != SINK_SUCC:
                kids[p].append(v)

        # leaves first
        bottom_up = np.argsort(depth, kind="stable")[::-1].astype(np.int64)
        # read-only: from_spec hands one instance to every caller
        for arr in (succ, depth, bottom_up):
            arr.flags.writeable = False

        object.__setattr__(self, "succ", succ)
        object.__setattr__(self, "sink", sink)
        object.__setattr__(self, "depth", depth)
        object.__setattr__(
            self, "children", tuple(tuple(c) for c in kids)
        )
        object.__setattr__(self, "bottom_up", bottom_up)
        # the path() node ordering (0 = far end, v -> v+1, sink last):
        # hot loops test this to swap fancy gathers for slice shifts
        object.__setattr__(
            self,
            "is_canonical_path",
            sink == n - 1
            and bool((succ[:-1] == np.arange(1, n, dtype=np.int64)).all()),
        )

    @staticmethod
    def _compute_depths(succ: np.ndarray, sink: int) -> np.ndarray:
        # plain lists, O(n); a cycle's chain outgrows n and raises
        n = succ.size
        nxt = succ.tolist()
        depth = [-1] * n
        depth[sink] = 0
        for v in range(n):
            if depth[v] >= 0:
                continue
            chain = []
            u = v
            while depth[u] < 0:
                chain.append(u)
                u = nxt[u]
                if u == SINK_SUCC:
                    raise TopologyError("found a second root")
                if len(chain) > n:
                    raise TopologyError("cycle detected in successor array")
            base = depth[u]
            for i, w in enumerate(reversed(chain), start=1):
                depth[w] = base + i
        return np.asarray(depth, dtype=np.int64)

    # ------------------------------------------------------------------
    # Basic properties
    # ------------------------------------------------------------------
    @property
    def n(self) -> int:
        """Number of nodes, including the sink."""
        return int(self.succ.size)

    @property
    def is_path(self) -> bool:
        """True iff the tree is a directed path ending at the sink."""
        return all(len(c) <= 1 for c in self.children)

    @property
    def height(self) -> int:
        """Maximum hop distance from any node to the sink."""
        return int(self.depth.max())

    @property
    def leaves(self) -> tuple[int, ...]:
        """Nodes with no children (packet sources at the periphery)."""
        return tuple(v for v in range(self.n) if not self.children[v])

    def siblings(self, v: int) -> tuple[int, ...]:
        """All children of ``succ(v)``, including ``v`` itself."""
        p = int(self.succ[v])
        if p == SINK_SUCC:
            return (v,)
        return self.children[p]

    def intersections(self) -> tuple[int, ...]:
        """Nodes of in-degree at least 2 (the paper's *intersections*)."""
        return tuple(v for v in range(self.n) if len(self.children[v]) >= 2)

    # ------------------------------------------------------------------
    # Paths and neighbourhoods
    # ------------------------------------------------------------------
    def path_to_sink(self, v: int) -> list[int]:
        """Nodes on the unique route from ``v`` to the sink, inclusive."""
        self._check_node(v)
        out = [v]
        while self.succ[out[-1]] != SINK_SUCC:
            out.append(int(self.succ[out[-1]]))
        return out

    def ball(self, v: int, radius: int) -> set[int]:
        """All nodes within undirected hop distance ``radius`` of ``v``.

        This is the ℓ-neighbourhood an ℓ-local policy may observe.
        """
        self._check_node(v)
        if radius < 0:
            raise ValueError("radius must be non-negative")
        frontier = {v}
        seen = {v}
        for _ in range(radius):
            nxt: set[int] = set()
            for u in frontier:
                p = int(self.succ[u])
                if p != SINK_SUCC and p not in seen:
                    nxt.add(p)
                for cvt in self.children[u]:
                    if cvt not in seen:
                        nxt.add(cvt)
            seen |= nxt
            frontier = nxt
            if not frontier:
                break
        return seen

    def path_order(self) -> np.ndarray:
        """For a path topology, node ids ordered from farthest to sink.

        Raises
        ------
        TopologyError
            If the topology is not a directed path.
        """
        if not self.is_path:
            raise TopologyError("path_order is only defined on paths")
        order = np.empty(self.n, dtype=np.int64)
        # unique leaf is the far end
        (far,) = [v for v in range(self.n) if not self.children[v]]
        u = far
        for i in range(self.n):
            order[i] = u
            u = int(self.succ[u])
        return order

    def spine_order(self) -> np.ndarray:
        """The deepest root-to-leaf path, ordered far end → sink.

        For a path this equals :meth:`path_order`; for trees it is the
        longest injection corridor — what the Theorem 3.1 attack uses
        when run on a tree (injections stay on the spine, so the block
        argument applies along it unchanged).
        """
        deepest = int(np.argmax(self.depth))
        return np.asarray(self.path_to_sink(deepest), dtype=np.int64)

    def _check_node(self, v: int) -> None:
        if not 0 <= v < self.n:
            raise TopologyError(f"node {v} out of range for n={self.n}")

    # ------------------------------------------------------------------
    # Interop
    # ------------------------------------------------------------------
    def to_networkx(self):
        """Return the directed tree as a :class:`networkx.DiGraph`."""
        import networkx as nx

        g = nx.DiGraph()
        g.add_nodes_from(range(self.n))
        for v in range(self.n):
            p = int(self.succ[v])
            if p != SINK_SUCC:
                g.add_edge(v, p)
        return g

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        kind = "path" if self.is_path else "tree"
        return f"Topology({kind}, n={self.n}, sink={self.sink}, height={self.height})"


# ----------------------------------------------------------------------
# Builders
# ----------------------------------------------------------------------

@functools.lru_cache(maxsize=16)
def path(n: int) -> Topology:
    """A directed path of ``n`` nodes; node ``n-1`` is the sink.

    Node ``0`` is the far end ("leftmost" in the paper's lower-bound
    construction); node ``i`` forwards to ``i+1``.  Memoised like
    :func:`from_spec`: every caller shares one read-only instance per
    size, so an engine built per query does not rebuild it.
    """
    if n < 1:
        raise TopologyError("a path needs at least one node (the sink)")
    succ = np.arange(1, n + 1, dtype=np.int64)
    succ[-1] = SINK_SUCC
    return Topology(succ)


def spider(arms: int, arm_length: int) -> Topology:
    """A spider: ``arms`` directed paths of ``arm_length`` nodes joined
    at a single hub, which forwards to the sink.

    Layout: node 0 is the sink, node 1 the hub, then arms are laid out
    consecutively with each arm's innermost node forwarding to the hub.
    This is the shape used by the paper's §5 argument that 1-locality is
    insufficient on trees (take ``arms = √n``).
    """
    if arms < 1 or arm_length < 1:
        raise TopologyError("spider needs arms >= 1 and arm_length >= 1")
    n = 2 + arms * arm_length
    succ = np.empty(n, dtype=np.int64)
    succ[0] = SINK_SUCC  # sink
    succ[1] = 0          # hub
    idx = 2
    for _ in range(arms):
        # arm nodes ordered inner -> outer; inner forwards to hub
        succ[idx] = 1
        for j in range(1, arm_length):
            succ[idx + j] = idx + j - 1
        idx += arm_length
    return Topology(succ)


def star_of_paths(arms: int, arm_length: int) -> Topology:
    """Alias of :func:`spider` matching the paper's informal wording."""
    return spider(arms, arm_length)


def balanced_tree(branching: int, depth: int) -> Topology:
    """A complete ``branching``-ary tree of the given depth.

    The root is the sink.  ``depth = 0`` gives a single node.
    """
    if branching < 1 or depth < 0:
        raise TopologyError("branching >= 1 and depth >= 0 required")
    parents: list[int] = [SINK_SUCC]
    level = [0]
    for _ in range(depth):
        nxt = []
        for p in level:
            for _ in range(branching):
                parents.append(p)
                nxt.append(len(parents) - 1)
        level = nxt
    return Topology(np.asarray(parents, dtype=np.int64))


def caterpillar(spine: int, legs_per_node: int) -> Topology:
    """A directed path of ``spine`` nodes with ``legs_per_node`` leaves
    hanging off every spine node; the spine's end is the sink."""
    if spine < 1 or legs_per_node < 0:
        raise TopologyError("spine >= 1 and legs_per_node >= 0 required")
    base = path(spine)
    parents = list(base.succ)
    for v in range(spine):
        for _ in range(legs_per_node):
            parents.append(v)
    return Topology(np.asarray(parents, dtype=np.int64))


def broom(handle: int, bristles: int) -> Topology:
    """A path of ``handle`` nodes towards the sink, with ``bristles``
    leaves attached to the far end of the handle."""
    if handle < 1 or bristles < 0:
        raise TopologyError("handle >= 1 and bristles >= 0 required")
    base = path(handle)
    order = base.path_order()
    far = int(order[0])
    parents = list(base.succ)
    for _ in range(bristles):
        parents.append(far)
    return Topology(np.asarray(parents, dtype=np.int64))


def random_tree(n: int, seed: int | None = None) -> Topology:
    """A uniformly random recursive tree on ``n`` nodes, rooted at the
    sink (node 0): node ``v`` attaches to a uniform node in ``[0, v)``.
    """
    if n < 1:
        raise TopologyError("random_tree needs n >= 1")
    rng = np.random.default_rng(seed)
    parents = np.empty(n, dtype=np.int64)
    parents[0] = SINK_SUCC
    for v in range(1, n):
        parents[v] = rng.integers(0, v)
    return Topology(parents)


def from_parent_array(parents: Sequence[int] | Iterable[int]) -> Topology:
    """Build a topology from any integer parent sequence (-1 = sink)."""
    return Topology(np.asarray(list(parents), dtype=np.int64))


def from_networkx(graph, sink: int) -> Topology:
    """Build a topology from an undirected/directed networkx tree.

    Edges are (re)oriented towards ``sink``; node labels must be
    ``0..n-1``.
    """
    import networkx as nx

    und = graph.to_undirected() if graph.is_directed() else graph
    n = und.number_of_nodes()
    if set(und.nodes) != set(range(n)):
        raise TopologyError("node labels must be 0..n-1")
    if not nx.is_tree(und):
        raise TopologyError("graph must be a tree")
    parents = np.full(n, SINK_SUCC, dtype=np.int64)
    for closer, farther in nx.bfs_edges(und, sink):
        # bfs_edges yields (u, v) with u closer to the BFS source, so the
        # farther endpoint forwards to the closer one.
        parents[farther] = closer
    return Topology(parents)


# ----------------------------------------------------------------------
# The spec grammar: ``kind:ARGS`` strings naming one instance
# ----------------------------------------------------------------------

def _layered(layers: int, width: int) -> "DagTopology":
    from .dag import layered_dag

    return layered_dag(layers, width, seed=0)


def _diamond(width: int, length: int) -> "DagTopology":
    from .dag import diamond_grid

    return diamond_grid(width, length)


#: kind -> (argument names, node count, builder); the count is worked
#: out from the arguments alone, so a spec is refused before it is built
#: (the binary exponent is capped: 2^63 - 1 nodes exceeds any cap)
_SPEC_KINDS: dict[str, tuple[str, Callable[..., int], Callable[..., Any]]] = {
    "path": ("N", lambda n: n, path),
    "spider": ("AxL", lambda arms, length: arms * length + 2, spider),
    "binary": (
        "D", lambda depth: (2 << min(depth, 62)) - 1,
        lambda depth: balanced_tree(2, depth),
    ),
    "random": ("N", lambda n: n, lambda n: random_tree(n, seed=0)),
    "layered": ("LxW", lambda layers, width: layers * width + 1, _layered),
    "diamond": ("WxL", lambda width, length: width * length + 1, _diamond),
}
_SPEC_USAGE = ", ".join(f"{k}:{a}" for k, (a, _, _) in _SPEC_KINDS.items())


@functools.lru_cache(maxsize=16)
def from_spec(
    spec: str, max_nodes: int | None = None
) -> "Topology | DagTopology":
    """The topology a spec string names; the one reader of the grammar.

    ``path:N``, ``spider:AxL``, ``binary:D`` and ``random:N`` (seed 0)
    are in-trees; ``layered:LxW`` (seed 0) and ``diamond:WxL`` are
    :class:`~repro.network.dag.DagTopology` instances.  Every argument
    is an integer >= 1, and a bare ``path`` is ``path:256``.  Results
    are memoised, so a repeated spec costs a lookup and every caller
    shares one instance (a :class:`Topology`'s arrays are read-only).

    Raises
    ------
    TopologyError
        For an unknown kind, malformed arguments, fewer than 2 nodes, or
        more than ``max_nodes`` — checked before anything is built.
    """
    kind, _, arg = spec.partition(":")
    if kind not in _SPEC_KINDS:
        raise TopologyError(
            f"unknown topology kind in {spec!r}; use {_SPEC_USAGE}"
        )
    names, count, build = _SPEC_KINDS[kind]
    if kind == "path" and not arg:
        arg = "256"
    try:
        args = [int(a) for a in arg.split("x")]
    except ValueError:
        args = []
    if len(args) != len(names.split("x")) or min(args) < 1:
        raise TopologyError(
            f"bad topology spec {spec!r}; use {kind}:{names} with "
            "integers >= 1"
        )
    n = count(*args)
    if n < 2:
        raise TopologyError(
            f"topology {spec!r} has {n} node; a run needs at least 2"
        )
    if max_nodes is not None and n > max_nodes:
        raise TopologyError(
            f"topology {spec!r} has more than {max_nodes} nodes"
        )
    return build(*args)
