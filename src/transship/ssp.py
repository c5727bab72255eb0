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

The search runs on Python ints.  Each instance is put on an integer grid
once, by its ``ProfileCache``: transit times are multiplied by the lcm of
their denominators, capacities by the lcm of theirs.  Scaling by positive
constants keeps every comparison, so the integer search takes exactly the
paths a rational one would, and a returned profile holds the same exact
rational segments.  Ties in the shortest-path search are broken by node id
so repeated runs produce identical profiles.

The cache also holds the one residual layout every subset's search shares:
flat edge arrays in which edge ``e`` pairs with its reverse ``e ^ 1``, the
m base arcs first and then terminal i's auxiliary arc as arc m + i, all
closed.  A subset's search starts from ``ProfileCache.capacities``, a copy
with the auxiliary arcs of its own sources and of the sinks outside it open.
Each Dijkstra search stops as soon as it settles the super sink; it finds
the same path, and leaves the same potentials, as a search run to
exhaustion would (see ``compute_profile``).

The cache holds the subset cap as well, 16 terminals by default (one
16-terminal solve took 30 s and 350 MB).  Whatever enumerates all 2^k
subsets does so through ``ProfileCache.subsets``, which checks the cap;
single profiles stay uncapped.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from fractions import Fraction

from .core import FlowNetwork, Rat, SupplyVector, TerminalSet
from .errors import InvariantViolation, ResourceCapExceeded

__all__ = [
    "DEFAULT_SUBSET_CAP",
    "Segment",
    "FlowProfile",
    "compute_profile",
    "ProfileCache",
    "cache_for",
]

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
    searching until no augmenting path remains.

    ``compute_profile`` also records the segments on the cache's integer
    grid, for the envelope: ``lengths`` in units of
    1/time_scale, and prefix sums of amount (units of 1/rate_scale) and of
    amount * length, where entry j sums the first j segments.
    """

    segments: tuple[Segment, ...]
    lengths: tuple[int, ...]
    amount_sums: tuple[int, ...]
    moment_sums: tuple[int, ...]


def compute_profile(network: FlowNetwork, subset: TerminalSet, *,
                    cache: ProfileCache | None = None) -> FlowProfile:
    """Run successive shortest paths to exhaustion for one subset.

    The search runs on ``cache``'s layout, checked by ``cache_for``;
    ``ProfileCache.profile`` passes itself, so an instance is scaled once
    however many subsets it has.

    Each round runs Dijkstra on reduced costs from the super source ``s``,
    stopped when the super sink ``t`` is settled, then pushes the bottleneck
    along the parent path.  Equal-distance heap ties resolve by node id, and
    parents only change on strict improvement, so the chosen path is a
    deterministic function of the residual state.  Stopping at ``t``
    changes neither the path nor the potentials: nodes settled before ``t``
    hold their final distance, and every other node's final and tentative
    distance are both at least ``t``'s distance d, so ``min(distance, d)``,
    the potential update, is the same.
    """
    cache = cache_for(network, cache)
    adj, to, cost, m = cache.adj, cache.to, cache.cost, cache.m
    cap = cache.capacities(_bits(network, subset))
    pot = [0] * len(adj)
    s, t = network.node_count, network.node_count + 1
    pop, push = heapq.heappop, heapq.heappush
    segments, lengths, amount_sums, moment_sums = [], [], [0], [0]
    while True:
        dist = [None] * len(adj)
        parent = [None] * len(adj)
        dist[s] = 0
        heap = [(0, s)]
        while heap:
            d, u = pop(heap)
            if d > dist[u]:
                continue
            if u == t:
                break
            base = d + pot[u]
            for e in adj[u]:
                if cap[e] > 0:
                    v = to[e]
                    nd = base + cost[e] - pot[v]
                    old = dist[v]
                    if old is None or nd < old:
                        dist[v] = nd
                        parent[v] = e
                        push(heap, (nd, v))
        else:
            break
        pot = [p + (d if dv is None or dv > d else dv) for p, dv in zip(pot, dist)]
        length = pot[t] - pot[s]
        path = []
        v = t
        while v != s:
            e = parent[v]
            path.append(e)
            v = to[e ^ 1]
        amount = min(cap[e] for e in path)
        certificate = [0] * m
        for e in path:
            cap[e] -= amount
            cap[e ^ 1] += amount
            if e < 2 * m:
                certificate[e >> 1] = -1 if e & 1 else 1
        # A simple path crosses each original arc at most once, so the
        # certificate must reproduce the length exactly.
        if sum(cost[2 * i] * c for i, c in enumerate(certificate) if c) != length:
            raise InvariantViolation(
                "segment %d of subset %#x: certificate does not reproduce "
                "its length" % (len(segments), subset.bits))
        if amount <= 0:
            raise InvariantViolation("segment %d of subset %#x carries no flow"
                                     % (len(segments), subset.bits))
        if lengths and length < lengths[-1]:
            raise InvariantViolation("segment %d of subset %#x is shorter than "
                                     "the one before" % (len(segments), subset.bits))
        segments.append(Segment(Fraction(length, cache.time_scale),
                                Fraction(amount, cache.rate_scale),
                                tuple(certificate)))
        lengths.append(length)
        amount_sums.append(amount_sums[-1] + amount)
        moment_sums.append(moment_sums[-1] + amount * length)
    return FlowProfile(segments=tuple(segments), lengths=tuple(lengths),
                       amount_sums=tuple(amount_sums),
                       moment_sums=tuple(moment_sums))


class ProfileCache:
    """One instance on the integer grid, and one memoized profile per
    terminal subset.

    Transit times are multiplied by ``time_scale``, the lcm of their
    denominators, and capacities by ``rate_scale``, the lcm of theirs.
    ``bound``, the sum of the scaled capacities, is the capacity of an open
    auxiliary arc.

    The layout has the m base arcs first, in index order, then one auxiliary
    arc per terminal: arc m + i is terminal i's, from the super source ``n``
    to a source, or from a sink to the super sink ``n + 1``.  Arc i is edge
    2i and its reverse edge 2i + 1, so edge ``e`` pairs with ``e ^ 1``;
    ``to`` and ``cost`` are indexed by edge, and ``adj`` lists each node's
    edges in that order.  ``closed`` is the capacity of every edge with the
    auxiliary arcs closed (capacity 0).  A subset S opens terminal i's arc
    when i being a source equals i being in S, that is for each set bit of
    ``S ^ sink_bits`` (``capacities``).  A search skips a closed edge as it
    skips a saturated one, so the open edges keep the relative order a
    layout of the base arcs and S's auxiliary arcs alone would give them,
    and ties resolve as they would there.

    Profiles are keyed by subset bit pattern.  ``subsets`` enumerates them
    all, up to ``subset_cap`` terminals.
    """

    def __init__(self, network: FlowNetwork, *,
                 subset_cap: int = DEFAULT_SUBSET_CAP):
        self.network = network
        self.subset_cap = subset_cap
        self._profiles: dict[int, FlowProfile] = {}
        self._needs: dict[SupplyVector, tuple[int, list[int]]] = {}
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
            adj[tail].append(len(to))
            adj[head].append(len(to) + 1)
            to += (head, tail)
            costs += (cost, -cost)
            closed += (cap, 0)
        self.to, self.cost, self.closed = tuple(to), tuple(costs), tuple(closed)
        self.adj = tuple(map(tuple, adj))
        self.bound = sum(closed[0::2])

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
