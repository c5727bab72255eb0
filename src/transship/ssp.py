"""Flow profiles via successive shortest augmenting paths.

For a terminal subset S, the question "how much flow can leave S's sources
for the sinks outside S within deadline theta" is answered by a classic
construction: attach a super source to the sources inside S and a super sink
to the sinks outside S, then repeatedly augment along a shortest path in the
residual network, using transit time as the arc length.  Each augmentation
yields a segment (length, amount): a path family of that transit length able
to carry that flow rate.  Sending flow along each family from time 0 until
the deadline minus its length realizes the maximum:

    value_by(theta) = sum over segments with length <= theta
                      of amount * (theta - length).

The segment lengths are nondecreasing, so the value is piecewise linear and
convex in the deadline.  Each segment carries a certificate: a -1/0/+1 vector
over the original arcs (forward/backward use on the augmenting path) whose
inner product with the transit times reproduces the segment length exactly.

The search runs on Python ints, and a profile keeps ints only.  Each
instance is put on an integer grid once, by its ``ProfileCache``, which
also holds the residual layout every subset's search shares.  Scaling by
positive constants keeps every comparison, so the integer search takes
exactly the paths a rational one would; the exact rational segments,
certificates included, are built from a profile's ints when first read.
Ties are broken by node id so repeated runs produce identical profiles.
A subset's first path comes from one search shared by every subset with
the same sources, and each later search stops once it settles the super
sink; both give what a search run to exhaustion would (``compute_profile``).

The cache holds the subset cap as well, 16 terminals by default (one
16-terminal solve took 10.5 s and 92 MB).  Whatever enumerates all 2^k
subsets does so through ``ProfileCache.subsets``, which checks the cap;
single profiles stay uncapped.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction

from .core import FlowNetwork, Rat, SupplyVector, TerminalSet
from .errors import InvariantViolation, ResourceCapExceeded

__all__ = ["DEFAULT_SUBSET_CAP", "Segment", "FlowProfile", "compute_profile",
           "ProfileCache", "cache_for"]

DEFAULT_SUBSET_CAP = 16


def _bits(network: FlowNetwork, subset: TerminalSet) -> int:
    """The subset's bits, once its width is checked against the k terminals."""
    if subset.width != network.k:
        raise ValueError("subset width %d does not match %d terminals"
                         % (subset.width, network.k))
    return subset.bits


@dataclass(frozen=True)
class Segment:
    """One augmentation: a path length, its flow amount, and its certificate."""

    length: Rat
    amount: Rat
    certificate: tuple[int, ...]


@dataclass(frozen=True)
class FlowProfile:
    """Ordered augmentation segments for one terminal subset, found by
    searching until no augmenting path remains, kept on the cache's grid.

    ``lengths`` are in units of 1/time_scale; ``amount_sums`` and
    ``moment_sums`` are prefix sums of amount (units of 1/rate_scale) and of
    amount * length, where entry j sums the first j segments.  ``paths[j]``
    holds the base edges of segment j's path: edge e is arc ``e >> 1``,
    used in reverse when ``e & 1``.  ``segments``, with exact rationals and
    a certificate over all m arcs per segment, is built on first read.
    """

    lengths: tuple[int, ...]
    amount_sums: tuple[int, ...]
    moment_sums: tuple[int, ...]
    paths: tuple[tuple[int, ...], ...]
    time_scale: int
    rate_scale: int
    m: int

    @cached_property
    def segments(self) -> tuple[Segment, ...]:
        out = []
        for j, path in enumerate(self.paths):
            certificate = [0] * self.m
            for e in path:
                certificate[e >> 1] = -1 if e & 1 else 1
            amount = self.amount_sums[j + 1] - self.amount_sums[j]
            out.append(Segment(Fraction(self.lengths[j], self.time_scale),
                               Fraction(amount, self.rate_scale), tuple(certificate)))
        return tuple(out)


def _search(adj, cap, pot, s: int, t: int, far: int):
    """Dijkstra on reduced costs from ``s``, stopped once ``t`` is settled:
    distances (``far`` where not reached), parent edges and the settled nodes
    in order.  A heap entry is the int ``dist * size + node``, ordered as
    ``(dist, node)`` since reduced distances are nonnegative, and parents
    change only on strict improvement, so the result is deterministic."""
    size = len(adj)
    dist = [far] * size
    parent = [None] * size
    dist[s] = 0
    heap = [s]
    settled = []
    pop, push = heapq.heappop, heapq.heappush
    while heap:
        key = pop(heap)
        u = key % size
        d = key // size
        if d > dist[u]:
            continue
        settled.append(u)
        if u == t:
            break
        base = d + pot[u]
        for e, v, c in adj[u]:
            if cap[e] > 0:
                nd = base + c - pot[v]
                if nd < dist[v]:
                    dist[v] = nd
                    parent[v] = e
                    push(heap, nd * size + v)
    return dist, parent, settled


def compute_profile(network: FlowNetwork, subset: TerminalSet, *,
                    cache: ProfileCache | None = None) -> FlowProfile:
    """Run successive shortest paths to exhaustion for one subset.

    The search runs on ``cache``'s layout, checked by ``cache_for``.  Each
    round finds a shortest path from the super source ``s`` to the super
    sink ``t`` on reduced costs and pushes its bottleneck.  Stopping a
    search once ``t`` is settled changes neither the path nor the potentials:
    nodes settled before ``t`` hold their final distance, and every other
    node's final and tentative distance are both at least ``t``'s distance
    d, so the potential update ``min(distance, d)`` is the same.

    The first round is read off ``ProfileCache._first_search`` for the
    subset's sources, which keeps every sink arc closed.  With the arcs of
    the sinks outside the subset open, a search settles nodes in the same
    order until it pops ``t``, reached from the first of those sinks it
    settled (pop order, not node id: a zero-length arc can put a sink behind
    another at the same distance).  Without such a sink the profile is empty.
    """
    cache = cache_for(network, cache)
    bits = _bits(network, subset)
    to, far, s, t = cache.to, cache.far, network.node_count, network.node_count + 1
    dist, parent, sinks = cache._first_search(bits & ~cache.sink_bits)
    dist, parent = list(dist), list(parent)
    for i in sinks:
        if not bits >> i & 1:
            parent[t] = 2 * (cache.m + i)
            dist[t] = dist[to[parent[t] ^ 1]]
            break
    cap, pot = cache.capacities(bits), [0] * (t + 1)
    paths, lengths, amount_sums, moment_sums = [], [], [0], [0]
    while dist[t] < far:
        d = dist[t]
        pot = [p + (dv if dv < d else d) for p, dv in zip(pot, dist)]
        length = pot[t] - pot[s]
        path = []
        v = t
        while v != s:
            e = parent[v]
            path.append(e)
            v = to[e ^ 1]
        amount = min([cap[e] for e in path])
        for e in path:
            cap[e] -= amount
            cap[e ^ 1] += amount
        # The path runs from s through one source's aux arc and base arcs,
        # then one sink's aux arc into t.  A simple path crosses each base
        # arc at most once, so the certificate must reproduce the length.
        path = tuple(path[-2:0:-1])
        if (len({e >> 1 for e in path}) < len(path)
                or sum([cache.cost[e] for e in path]) != length):
            raise InvariantViolation(
                "segment %d of subset %#x: certificate does not reproduce "
                "its length" % (len(paths), subset.bits))
        if amount <= 0:
            raise InvariantViolation("segment %d of subset %#x carries no flow"
                                     % (len(paths), subset.bits))
        if lengths and length < lengths[-1]:
            raise InvariantViolation("segment %d of subset %#x is shorter than "
                                     "the one before" % (len(paths), subset.bits))
        paths.append(path)
        lengths.append(length)
        amount_sums.append(amount_sums[-1] + amount)
        moment_sums.append(moment_sums[-1] + amount * length)
        dist, parent, _ = _search(cache.adj, cap, pot, s, t, far)
    return FlowProfile(tuple(lengths), tuple(amount_sums), tuple(moment_sums),
                       tuple(paths), cache.time_scale, cache.rate_scale, cache.m)


class ProfileCache:
    """One instance on the integer grid, and one memoized profile per
    terminal subset.

    Transit times are multiplied by ``time_scale``, the lcm of their
    denominators, and capacities by ``rate_scale``, the lcm of theirs.
    ``bound``, the sum of the scaled capacities, is the capacity of an open
    auxiliary arc; ``far``, the sum of the scaled transit times plus one,
    exceeds every reduced distance and marks a node no search reached.

    The layout has the m base arcs first, in index order, then one auxiliary
    arc per terminal: arc m + i is terminal i's, from the super source ``n``
    to a source, or from a sink to the super sink ``n + 1``.  Arc i is edge
    2i and its reverse edge 2i + 1, so edge ``e`` pairs with ``e ^ 1``;
    ``to`` and ``cost`` are indexed by edge, and ``adj`` lists each node's
    edges in that order as ``(edge, head, cost)``.  ``closed`` is the
    capacity of every edge with the auxiliary arcs closed (capacity 0).  A
    subset S opens terminal i's arc when i being a source equals i being in
    S, that is for each set bit of ``S ^ sink_bits`` (``capacities``).  A
    search skips a closed edge as it skips a saturated one, so the open
    edges keep the relative order a layout of the base arcs and S's
    auxiliary arcs alone would give them, and ties resolve as they would.

    Profiles are keyed by subset bit pattern.  ``subsets`` enumerates them
    all, up to ``subset_cap`` terminals.
    """

    def __init__(self, network: FlowNetwork, *,
                 subset_cap: int = DEFAULT_SUBSET_CAP):
        self.network = network
        self.subset_cap = subset_cap
        self._profiles: dict[int, FlowProfile] = {}
        self._needs: dict[SupplyVector, tuple[int, list[int]]] = {}
        self._first: dict[int, tuple] = {}
        lt = math.lcm(*(a.transit.denominator for a in network.arcs))
        lc = math.lcm(*(a.capacity.denominator for a in network.arcs))
        self.time_scale, self.rate_scale = lt, lc
        n, self.m = network.node_count, len(network.arcs)
        self.sink_bits = (1 << network.k) - (1 << len(network.sources))
        arcs = [(a.tail, a.head,
                 a.capacity.numerator * (lc // a.capacity.denominator),
                 a.transit.numerator * (lt // a.transit.denominator))
                for a in network.arcs]
        arcs += [(n, v, 0, 0) for v in network.sources]
        arcs += [(v, n + 1, 0, 0) for v in network.sinks]
        to, costs, closed = [], [], []
        adj = [[] for _ in range(n + 2)]
        for tail, head, cap, cost in arcs:
            adj[tail].append((len(to), head, cost))
            adj[head].append((len(to) + 1, tail, -cost))
            to += (head, tail)
            costs += (cost, -cost)
            closed += (cap, 0)
        self.to, self.cost, self.closed = tuple(to), tuple(costs), tuple(closed)
        self.adj = tuple(map(tuple, adj))
        self.bound = sum(closed[0::2])
        self.far = sum(costs[0::2]) + 1

    def capacities(self, bits: int) -> list[int]:
        """The residual capacities subset ``bits`` starts from: ``closed``
        with terminal i's auxiliary arc open, at ``bound``, for each set bit
        i of ``bits ^ sink_bits``."""
        cap = list(self.closed)
        opened = bits ^ self.sink_bits
        while opened:
            low = opened & -opened
            cap[2 * (self.m + low.bit_length() - 1)] = self.bound
            opened ^= low
        return cap

    def _first_search(self, sources: int) -> tuple[list, list, tuple[int, ...]]:
        """Distances, parent edges and the sinks' terminal indices in the
        order settled, of one search from the super source run to exhaustion
        with the arcs of source bits ``sources`` open and every sink arc
        closed; memoized."""
        hit = self._first.get(sources)
        if hit is None:
            net, n = self.network, self.network.node_count
            dist, parent, settled = _search(self.adj, self.capacities(sources | self.sink_bits),
                                            [0] * (n + 2), n, n + 1, self.far)
            index = dict(zip(net.sinks, range(len(net.sources), net.k)))
            hit = self._first[sources] = (dist, parent,
                                          tuple(index[v] for v in settled if v in index))
        return hit

    def subsets(self) -> range:
        """Every terminal bit set, 0 to 2^k - 1; raises ResourceCapExceeded
        when k is over the subset cap."""
        k = self.network.k
        if k > self.subset_cap:
            raise ResourceCapExceeded(k, self.subset_cap, "terminals")
        return range(1 << k)

    def profile(self, subset: TerminalSet | int) -> FlowProfile:
        bits = _bits(self.network, subset) if isinstance(subset, TerminalSet) else subset
        hit = self._profiles.get(bits)
        if hit is None:
            hit = compute_profile(self.network, TerminalSet(bits, self.network.k),
                                  cache=self)
            self._profiles[bits] = hit
        return hit

    def need_table(self, b: SupplyVector) -> tuple[int, list[int]]:
        """Net supply of every terminal bit set, on the grid; built once per ``b``.

        Returns ``(supply_scale, table)``: supply_scale is the lcm of the
        supply denominators, and ``table[bits]`` is that subset's net supply
        times ``supply_scale * rate_scale * time_scale``.  Raises
        ValueError when ``b`` does not have one entry per terminal.
        """
        hit = self._needs.get(b)
        if hit is None:
            if len(b.values) != self.network.k:
                raise ValueError("supply vector has %d entries for %d terminals"
                                 % (len(b.values), self.network.k))
            den = math.lcm(*(x.denominator for x in b.values))
            unit = den * self.rate_scale * self.time_scale
            values = [x.numerator * (unit // x.denominator) for x in b.values]
            subsets = self.subsets()
            table = [0] * len(subsets)
            for bits in subsets[1:]:
                low = bits & -bits
                table[bits] = table[bits ^ low] + values[low.bit_length() - 1]
            hit = self._needs[b] = (den, table)
        return hit

    def __len__(self) -> int:
        return len(self._profiles)


def cache_for(network: FlowNetwork, cache: ProfileCache | None) -> ProfileCache:
    """``cache`` if it was built for ``network``, a fresh cache if it is None."""
    if cache is None:
        return ProfileCache(network)
    if cache.network is not network and cache.network != network:
        raise ValueError("profile cache was built for another network")
    return cache
