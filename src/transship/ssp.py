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
Reversing every arc maps each static flow from S's sources to the sinks
outside S onto one from those sinks back to those sources, of the same
value and cost (a flow over time run backwards), so the reversed network
has the same value function.  ``ProfileCache`` lays it out reversed when
there are more sources than sinks, and builds the subsets with the same
root-side terminals (sources, or reversed, sinks) as one tree.

The cache holds the subset cap, 16 terminals by default (a k = 16 solve
takes 1.2-1.8 s and 36 MB).  Whatever enumerates all 2^k subsets goes
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


def compute_profile(network: FlowNetwork, subset: TerminalSet | int, *,
                    cache: ProfileCache | None = None) -> FlowProfile:
    """Run successive shortest paths to exhaustion for one subset, given as
    a ``TerminalSet`` or as its bits (ValueError unless 0 <= bits < 2^k).

    It is read off ``cache``'s tree (checked by ``cache_for``) for the
    subset's root-side terminals, its sources, or its sinks when the cache
    is reversed, which builds every subset with those terminals at once;
    each path ends at the open tree-side terminal of least distance plus
    potential, ties to the one settled first (``ProfileCache`` says why).
    Over the subset cap, where nothing builds every subset, the walk takes
    this one alone.
    """
    cache = cache_for(network, cache)
    bits = _bits(network, subset) if isinstance(subset, TerminalSet) else subset
    if not 0 <= bits < 1 << cache.k:
        raise ValueError("bit set %#x does not fit %d terminals" % (bits, cache.k))
    root = bits & ~cache.tree_bits
    if cache.k > cache.subset_cap:
        return cache._walk(root, [bits])[bits]
    return cache._grow(root)[bits]


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
    from a sink to the super sink ``n + 1``.  ``reversed`` (more sources
    than sinks) runs each base arc head to tail, and arc m + i from a source
    to ``n + 1`` or from ``n`` to a sink.  Arc i is edge 2i, its reverse
    edge 2i + 1; ``to`` and ``cost`` are indexed by edge, and ``adj`` lists
    each node's edges in that order as ``(edge, head, cost)``.  ``closed``
    is every edge's capacity with the auxiliary arcs closed (capacity 0).
    Subset S opens terminal i's arc for each set bit i of ``S ^ sink_bits``
    (``capacities``).  A search skips a closed edge as it skips a saturated
    one, so ties resolve as on a layout of the base and open arcs alone.

    The subsets with root-side bits A form one tree (``_grow``) over the
    tree side, the sinks or, reversed, the sources (``tree_bits``): a node is
    A with the tree-side terminals x1 ... xj its first j augmentations ended
    at.  Its residual network is the same whichever of those arcs a subset
    keeps open, as an open one (capacity ``bound``) never binds, so a node
    runs one search with them all closed.  A subset with open tree-side
    terminals T goes on to the y in T of least ``dist[y] + pot[y]``, ties to
    the one settled first, along y's parents.  A search with T's arcs open
    settles the same nodes in the same order until it pops the super sink t,
    whose label improves only strictly, over arcs of reduced cost ``pot[y] -
    pot[t] >= 0``; so its path ends at the same y, and every node it leaves
    unsettled gets ``pot + d`` either way, ``d = dist[y] + pot[y] - pot[t]``.
    The subsets with no reached terminal in T end at the node and share a
    profile.  A path is kept from source to sink over the original arcs, so
    its certificate means the same either way.
    Profiles are keyed by subset bit pattern; ``subsets`` enumerates them
    all, up to ``subset_cap`` terminals.
    """

    def __init__(self, network: FlowNetwork, *,
                 subset_cap: int = DEFAULT_SUBSET_CAP):
        self.network = network
        self.subset_cap = subset_cap
        self._profiles: dict[int, FlowProfile] = {}
        self._needs: dict[SupplyVector, tuple[int, list[int]]] = {}
        self._last_need: tuple[object, tuple[int, list[int]] | None] = (object(), None)
        self._trees: dict[int, dict[int, FlowProfile]] = {}
        lt = scale_lcm(a.transit.denominator for a in network.arcs)
        lc = scale_lcm(a.capacity.denominator for a in network.arcs)
        self.time_scale, self.rate_scale = lt, lc
        n, self.m, self.k = network.node_count, len(network.arcs), network.k
        ns = len(network.sources)
        self.sink_bits = (1 << self.k) - (1 << ns)
        self.reversed = flip = ns > len(network.sinks)
        self.tree_bits = (1 << ns) - 1 if flip else self.sink_bits
        self._masks = {v: 1 << i for i, v in enumerate(network.terminals)
                       if self.tree_bits >> i & 1}
        arcs = [(a.head, a.tail) if flip else (a.tail, a.head) for a in network.arcs]
        arcs = [(u, v, a.capacity.numerator * (lc // a.capacity.denominator),
                 a.transit.numerator * (lt // a.transit.denominator))
                for (u, v), a in zip(arcs, network.arcs)]
        arcs += [(v, n + 1, 0, 0) if flip else (n, v, 0, 0) for v in network.sources]
        arcs += [(n, v, 0, 0) if flip else (v, n + 1, 0, 0) for v in network.sinks]
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

    def _grow(self, root: int) -> dict[int, FlowProfile]:
        """Every subset with root-side bits ``root``, bits to profile; memoized."""
        if root not in self._trees:
            shift = self.tree_bits.bit_length() - len(self._masks)
            self._trees[root] = self._walk(
                root, [root | j << shift for j in range(1 << len(self._masks))])
        return self._trees[root]

    def _walk(self, root: int, group: list[int]) -> dict[int, FlowProfile]:
        """Depth first over the tree of ``root``: each subset in ``group``, bits to profile."""
        to, far, mask, sink_bits = self.to, self.far, self._masks, self.sink_bits
        s, t = self.network.node_count, self.network.node_count + 1
        out = {}
        stack = [(self.capacities(root | self.tree_bits & sink_bits), [0] * (t + 1), group,
                  (), (), (0,), (0,))]
        while stack:
            cap, pot, group, paths, lengths, amount_sums, moment_sums = stack.pop()
            dist, parent, settled = _search(self.adj, cap, pot, s, far)
            # Reached tree-side terminals, next first: least dist + pot, then settled first.
            order = sorted([v for v in settled if v in mask], key=lambda v: dist[v] + pot[v])
            branches = []
            for y in order:
                open_y = [bits for bits in group if (bits ^ sink_bits) & mask[y]]
                if open_y:
                    branches.append((y, open_y))
                    group = [bits for bits in group if not (bits ^ sink_bits) & mask[y]]
            if group:       # no open terminal reached: these subsets end here
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
                # From s through a root-side aux arc and base arcs to y; read back
                # without that arc, from a source to a sink.  A simple path crosses
                # each base arc at most once, so the certificate must reproduce the length.
                path = tuple(path[:-1] if self.reversed else path[-2::-1])
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
        k = self.k
        if k > self.subset_cap:
            raise ResourceCapExceeded(k, self.subset_cap, "terminals")
        return range(1 << k)

    def profile(self, subset: TerminalSet | int) -> FlowProfile:
        bits = _bits(self.network, subset) if isinstance(subset, TerminalSet) else subset
        hit = self._profiles.get(bits)
        if hit is None:
            hit = self._profiles[bits] = compute_profile(self.network, bits, cache=self)
        return hit

    def need_table(self, b: SupplyVector) -> tuple[int, list[int]]:
        """Net supply of every terminal bit set, on the grid; built once per ``b``.

        Returns ``(supply_scale, table)``: supply_scale is the lcm of the
        supply denominators, and ``table[bits]`` is that subset's net supply
        times ``supply_scale * rate_scale * time_scale``.  Raises
        ValueError when ``b`` does not have one entry per terminal.  The last
        ``b`` is held by reference, so asking again for it hashes nothing.
        """
        if b is self._last_need[0]:
            return self._last_need[1]
        hit = self._needs.get(b)
        if hit is None:
            if len(b.values) != self.k:
                raise ValueError("supply vector has %d entries for %d terminals"
                                 % (len(b.values), self.k))
            den = scale_lcm(x.denominator for x in b.values)
            unit = den * self.rate_scale * self.time_scale
            values = [x.numerator * (unit // x.denominator) for x in b.values]
            subsets = self.subsets()
            table = [0] * len(subsets)
            for bits in subsets[1:]:
                low = bits & -bits
                table[bits] = table[bits ^ low] + values[low.bit_length() - 1]
            hit = self._needs[b] = (den, table)
        self._last_need = (b, hit)
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
