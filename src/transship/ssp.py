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
instance is put on an integer grid once by its ``ProfileCache``, which also
holds the residual layout.  Scaling by positive constants keeps every
comparison, so the integer search takes the paths a rational one would; the
rational segments and certificates are built from a profile's ints when
first read.  Ties are broken by node id, so profiles are deterministic.
The subsets with the same sources are built as one tree, one search per
node (``ProfileCache``).  A subset's next path ends at its open sink of
least distance plus potential, ties to the one settled first: the sink a
search with that subset's own sink arcs open reaches the super sink from.

The cache holds the subset cap as well, 16 terminals by default (a solve
at k = 16 took 8.1 s and 76 MB).  Whatever enumerates all 2^k subsets goes
through ``ProfileCache.subsets``, which checks the cap; one profile does not.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction

from .core import FlowNetwork, Rat, SupplyVector, TerminalSet, scale_lcm
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


def _search(adj, cap, pot, s: int, far: int):
    """Dijkstra on reduced costs from ``s`` to exhaustion: distances (``far``
    where not reached), parent edges and the nodes in settled order.  A heap
    entry is the int ``dist * size + node``, ordered as ``(dist, node)``, and
    parents change only on strict improvement, so the result is deterministic."""
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

    It is read off ``cache``'s tree (checked by ``cache_for``) for the
    subset's sources, which builds every subset with those sources at once;
    each path ends at the open sink of least distance plus potential, ties
    to the one settled first (``ProfileCache`` says why).  Over the subset
    cap, where nothing builds every subset, the walk takes this one alone.
    """
    cache, bits = cache_for(network, cache), _bits(network, subset)
    sources = bits & ~cache.sink_bits
    if network.k > cache.subset_cap:
        return cache._walk(sources, [bits])[bits]
    return cache._grow(sources)[bits]


class ProfileCache:
    """One instance on the integer grid, and one memoized profile per
    terminal subset.

    Transit times are multiplied by ``time_scale``, the lcm of their
    denominators, and capacities by ``rate_scale``, the lcm of theirs.
    ``bound``, the sum of the scaled capacities, is the capacity of an open
    auxiliary arc; ``far``, the sum of the scaled transit times plus one,
    exceeds every reduced distance and marks a node no search reached.

    The layout has the m base arcs first, in index order, then arc m + i,
    terminal i's auxiliary arc, from the super source ``n`` to a source or
    from a sink to the super sink ``n + 1``.  Arc i is edge 2i, its reverse
    edge 2i + 1; ``to`` and ``cost`` are indexed by edge, and ``adj`` lists
    each node's edges in that order as ``(edge, head, cost)``.  ``closed``
    is every edge's capacity with the auxiliary arcs closed (capacity 0).
    Subset S opens terminal i's arc for each set bit i of ``S ^ sink_bits``
    (``capacities``).  A search skips a closed edge as it skips a saturated
    one, so ties resolve as on a layout of the base and open arcs alone.

    The subsets with source bits A form one tree (``_grow``): a node is A
    with the sinks x1 ... xj that its first j augmentations ended at.  Its
    residual network is the same whichever sinks a subset keeps open, as an
    open sink arc (capacity ``bound``) never binds, so a node runs one
    search with every sink arc closed.  A subset with open sinks T goes on
    to the y in T of least ``dist[y] + pot[y]``, ties to the one settled
    first, along y's parents.  A search with T's arcs open settles the same
    nodes in the same order until it pops the super sink t, whose label
    improves only strictly, over arcs of reduced cost ``pot[y] - pot[t] >=
    0``; so its path ends at the same y, and every node it leaves unsettled
    gets ``pot + d`` either way, ``d = dist[y] + pot[y] - pot[t]``.  The
    subsets with no reached sink in T end at the node and share a profile.
    Profiles are keyed by subset bit pattern; ``subsets`` enumerates them
    all, up to ``subset_cap`` terminals.
    """

    def __init__(self, network: FlowNetwork, *,
                 subset_cap: int = DEFAULT_SUBSET_CAP):
        self.network = network
        self.subset_cap = subset_cap
        self._profiles: dict[int, FlowProfile] = {}
        self._needs: dict[SupplyVector, tuple[int, list[int]]] = {}
        self._trees: dict[int, dict[int, FlowProfile]] = {}
        lt = scale_lcm(a.transit.denominator for a in network.arcs)
        lc = scale_lcm(a.capacity.denominator for a in network.arcs)
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

    def _grow(self, sources: int) -> dict[int, FlowProfile]:
        """Every subset with source bits ``sources``, bits to profile; memoized."""
        if sources not in self._trees:
            shift = len(self.network.sources)
            self._trees[sources] = self._walk(
                sources, [sources | j << shift for j in range(1 << self.network.k - shift)])
        return self._trees[sources]

    def _walk(self, sources: int, group: list[int]) -> dict[int, FlowProfile]:
        """Depth first over the tree of ``sources``: each subset in ``group``, bits to profile."""
        net, to, far = self.network, self.to, self.far
        s, t = net.node_count, net.node_count + 1
        mask = {v: 1 << i for i, v in enumerate(net.sinks, len(net.sources))}
        out = {}
        stack = [(self.capacities(sources | self.sink_bits), [0] * (t + 1), group,
                  (), (), (0,), (0,))]
        while stack:
            cap, pot, group, paths, lengths, amount_sums, moment_sums = stack.pop()
            dist, parent, settled = _search(self.adj, cap, pot, s, far)
            # Reached sinks, the next one first: least dist + pot, then settled first.
            order = sorted([v for v in settled if v in mask], key=lambda v: dist[v] + pot[v])
            branches = []
            for y in order:
                open_y = [bits for bits in group if not bits & mask[y]]
                if open_y:
                    branches.append((y, open_y))
                    group = [bits for bits in group if bits & mask[y]]
            if group:       # no open sink reached: these subsets end here
                out.update(dict.fromkeys(group, FlowProfile(
                    lengths, amount_sums, moment_sums, paths,
                    self.time_scale, self.rate_scale, self.m)))
            for y, branch in branches:
                d = dist[y] + pot[y] - pot[t]
                after = [p + (dv if dv < d else d) for p, dv in zip(pot, dist)]
                length = after[t] - after[s]
                path, v = [], y
                while v != s:
                    path.append(parent[v])
                    v = to[parent[v] ^ 1]
                amount = min([cap[e] for e in path])
                residual = list(cap)
                for e in path:
                    residual[e] -= amount
                    residual[e ^ 1] += amount
                # The path runs from s through one source's aux arc and base arcs
                # to sink y.  A simple path crosses each base arc at most once,
                # so the certificate must reproduce the length.
                path = tuple(path[-2::-1])
                named = (len(paths), branch[0])
                if (len({e >> 1 for e in path}) < len(path)
                        or sum([self.cost[e] for e in path]) != length):
                    raise InvariantViolation("segment %d of subset %#x: certificate does "
                                             "not reproduce its length" % named)
                if amount <= 0:
                    raise InvariantViolation("segment %d of subset %#x carries no flow" % named)
                if lengths and length < lengths[-1]:
                    raise InvariantViolation("segment %d of subset %#x is shorter than "
                                             "the one before" % named)
                stack.append((residual, after, branch, paths + (path,), lengths + (length,),
                              amount_sums + (amount_sums[-1] + amount,),
                              moment_sums + (moment_sums[-1] + amount * length,)))
        return out

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
            den = scale_lcm(x.denominator for x in b.values)
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
