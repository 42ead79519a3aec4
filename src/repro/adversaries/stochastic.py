"""Stochastic traffic generators.

Random workloads are the *average-case* complement to the crafted
worst cases: the paper's bounds are adversarial, and experiments E1 and
E12 also report how the policies behave under benign random traffic.
All generators are seeded and replayable.

The :class:`TokenBucketAdversary` implements the (ρ, σ) injection model
of Miller & Patt-Shamir [21] used by Corollary 3.2 and experiment E10:
over any window of t steps at most ``ρ·t + σ`` packets are injected.
"""

from __future__ import annotations



import numpy as np

from .base import Adversary

from ..network.topology import Topology

__all__ = [
    "UniformRandomAdversary",
    "HotSpotAdversary",
    "OnOffAdversary",
    "TokenBucketAdversary",
]


class UniformRandomAdversary(Adversary):
    """Each step, with probability ``p``, inject at a uniform node."""

    def __init__(self, p: float = 1.0, seed: int | None = None):
        if not 0.0 <= p <= 1.0:
            raise ValueError("p must be in [0, 1]")
        self.p = float(p)
        self.seed = seed
        self.name = f"uniform(p={p})"
        self._rng = np.random.default_rng(seed)
        self._candidates: np.ndarray | None = None

    def reset(self, topology: Topology, capacity: int) -> None:
        self._rng = np.random.default_rng(self.seed)
        self._candidates = np.asarray(
            [v for v in range(topology.n) if v != topology.sink],
            dtype=np.int64,
        )

    def inject(self, step, heights, topology):
        if self._rng.random() >= self.p:
            return ()
        cands = self._candidates
        # one bounded integer: the draw Generator.choice would make,
        # at a quarter of its cost
        return (int(cands[self._rng.integers(0, len(cands))]),)

    def inject_schedule(self, start, steps, topology):
        """The sites ``steps`` calls of :meth:`inject` would draw, decoded
        from blocks of the generator's raw 64-bit PCG64 words.

        The stream is the Generator's own, so batched and per-step runs
        interleave freely and a fixed seed yields a fixed schedule:
        ``random()`` is one word's top 53 bits; ``integers(0, k)`` takes
        a 32-bit half — a fresh word's low half first, its high half
        buffered for the next draw — through Lemire's method (rejected
        while ``(x * k) mod 2**32 < (2**32 - k) mod k``; the result is
        ``x * k >> 32``), and consumes nothing when ``k == 1``.  The
        buffered half is handed back to the generator afterwards.
        """
        bits = self._rng.bit_generator
        state = bits.state
        has, half = state["has_uint32"], state["uinteger"]
        p = self.p
        cands = self._candidates.tolist()
        k = len(cands)
        reject = (2**32 - k) % k
        words: list[int] = []
        i = 0
        out: list[tuple[int, ...]] = []
        for t in range(steps):
            # each step left takes at least one word: never over-draws
            if i == len(words):
                words, i = bits.random_raw(steps - t).tolist(), 0
            u = (words[i] >> 11) * 2.0**-53
            i += 1
            if u >= p:
                out.append(())
                continue
            if k == 1:
                out.append((cands[0],))
                continue
            while True:
                if has:
                    x, has = half, 0
                else:
                    if i == len(words):
                        words, i = bits.random_raw(steps - t).tolist(), 0
                    x, half, has = words[i] & 0xFFFFFFFF, words[i] >> 32, 1
                    i += 1
                m = x * k
                if m & 0xFFFFFFFF >= reject:
                    break
            out.append((cands[m >> 32],))
        state = bits.state
        state["has_uint32"], state["uinteger"] = has, half
        bits.state = state
        return out


class HotSpotAdversary(Adversary):
    """Zipf-weighted injections concentrated near one node.

    Node weights decay as ``1/(1 + d)^alpha`` where ``d`` is hop
    distance from the hot node — a crude model of a sensor field with a
    localised event.
    """

    def __init__(self, hot_node: int, alpha: float = 2.0, seed: int | None = None):
        self.hot_node = int(hot_node)
        self.alpha = float(alpha)
        self.seed = seed
        self.name = f"hotspot(node={hot_node},alpha={alpha})"
        self._rng = np.random.default_rng(seed)
        self._nodes: np.ndarray | None = None
        self._weights: np.ndarray | None = None

    def reset(self, topology: Topology, capacity: int) -> None:
        self._rng = np.random.default_rng(self.seed)
        # hop distances from the hot node via successive balls
        dist = np.full(topology.n, -1, dtype=np.int64)
        frontier = {self.hot_node}
        seen = {self.hot_node}
        dist[self.hot_node] = 0
        d = 0
        while frontier:
            d += 1
            nxt: set[int] = set()
            for u in frontier:
                p = int(topology.succ[u])
                neigh = list(topology.children[u])
                if p >= 0:
                    neigh.append(p)
                for w in neigh:
                    if w not in seen:
                        seen.add(w)
                        dist[w] = d
                        nxt.add(w)
            frontier = nxt
        nodes = np.asarray(
            [v for v in range(topology.n) if v != topology.sink],
            dtype=np.int64,
        )
        w = 1.0 / (1.0 + dist[nodes]) ** self.alpha
        self._nodes = nodes
        self._weights = w / w.sum()

    def inject(self, step, heights, topology):
        return (int(self._rng.choice(self._nodes, p=self._weights)),)

    def inject_schedule(self, start, steps, topology):
        # same generator consumption order as steps sequential inject()
        # calls — see UniformRandomAdversary.inject_schedule
        rng = self._rng
        return [
            (int(rng.choice(self._nodes, p=self._weights)),)
            for _ in range(steps)
        ]


class OnOffAdversary(Adversary):
    """Bursty on/off source: ``on`` steps of injections at one node,
    then ``off`` silent steps, repeating."""

    def __init__(self, node: int, on: int, off: int):
        if on < 1 or off < 0:
            raise ValueError("need on >= 1 and off >= 0")
        self.node = int(node)
        self.on = int(on)
        self.off = int(off)
        self.name = f"onoff(node={node},{on}on/{off}off)"

    def inject(self, step, heights, topology):
        phase = step % (self.on + self.off)
        return (self.node,) if phase < self.on else ()

    def inject_schedule(self, start, steps, topology):
        burst, quiet, period = (self.node,), (), self.on + self.off
        return [
            burst if (start + i) % period < self.on else quiet
            for i in range(steps)
        ]


class TokenBucketAdversary(Adversary):
    """(ρ, σ) constraint wrapper: rate ρ with burstiness σ ([21] model).

    Wraps an inner adversary that *proposes* injection sites; the
    bucket releases at most ``tokens`` of them per step, where tokens
    accumulate at rate ρ up to a ceiling of σ + ρ (so any window of t
    steps carries at most ρ·t + σ packets).  The engine's hard per-step
    limit is ``capacity``, so proposals are also clipped there.

    With ``drain_first = True`` the bucket starts full — the adversary
    may open with a σ-burst, the worst case for the σ + 2 bound of the
    centralized algorithm (experiment E10).
    """

    def __init__(
        self,
        inner: Adversary,
        rho: float = 1.0,
        sigma: int = 0,
        drain_first: bool = True,
        greedy: bool = False,
    ):
        if rho <= 0:
            raise ValueError("rho must be positive")
        if sigma < 0:
            raise ValueError("sigma must be non-negative")
        self.inner = inner
        self.rho = float(rho)
        self.sigma = int(sigma)
        self.drain_first = drain_first
        # greedy: spend every available token each step by repeating the
        # inner adversary's last proposal — this is what turns a
        # single-site proposer into a genuine sigma-burst source.
        self.greedy = greedy
        self.name = f"bucket(rho={rho},sigma={sigma},{inner.name})"
        self._tokens = 0.0
        self._capacity = 1

    def reset(self, topology: Topology, capacity: int) -> None:
        self.inner.reset(topology, capacity)
        self._capacity = capacity
        self._tokens = float(self.sigma) if self.drain_first else 0.0

    def inject(self, step, heights, topology):
        # the ceiling must admit at least one whole token, or a
        # fractional rate (rho < 1) could never release anything
        ceiling = self.sigma + max(self.rho, 1.0)
        self._tokens = min(self._tokens + self.rho, ceiling)
        proposed = list(self.inner.inject(step, heights, topology))
        # _capacity is the engine's injection_limit, which the caller
        # must set to (at least) sigma + ceil(rho) to allow full bursts.
        budget = min(int(self._tokens), self._capacity)
        if self.greedy and proposed and len(proposed) < budget:
            proposed += [proposed[-1]] * (budget - len(proposed))
        allowed = min(budget, len(proposed))
        self._tokens -= allowed
        return tuple(proposed[:allowed])
