"""Time-expanded networks: an independent route to feasibility.

The profile machinery answers deadline questions analytically.  This module
answers them by brute force instead: discretize time, materialize one copy
of every node per unit step, and run a static max-flow.  Agreement between
the two routes is the strongest correctness check the package has, because
they share no code beyond the instance model.

Discretization convention: after scaling, layer t stands for the time slice
[t, t+1) of unit width.  Flow entering an arc during slice t arrives during
slice t + transit, so a movement copy exists only when t + transit <= T - 1;
that keeps every arrival inside the horizon and makes the discrete maximum
agree exactly with the profile value for integral data.  Holdover arcs let
flow wait anywhere; they carry volume, not rate, so their stand-in for an
unbounded capacity is the total supply rather than any sum of capacities.

Most copies of the full expansion can carry no flow: they lie too early
for any source to reach, or too late to reach any sink.  Each node keeps
only the copies in its time window, from its least transit from a supplied
source to the horizon less its least transit to a demanding sink (see
``build_time_expanded``).  The max flow is the same; on the perfbench
``extract`` pool the network is about six times smaller.

The flow side runs on ints: ``build_time_expanded`` scales all capacities
once, by the lcm of the denominators of the arc capacities and supplies,
and a highest-label push-relabel max flow runs on those ints, once per
question.  Fractions appear only in answers: rate pieces, a shortfall, a
value.  Max flows are not unique; the extracted one is whichever the max
flow finds, the same on every run.  The node cap bounds node copies and,
separately, movement copies of the full expansion, windows aside; both are
checked before anything is allocated.

``extract_transshipment`` turns the max-flow back into a piecewise-constant
rate function per original arc, and ``verify_flow`` re-checks such a flow
against the instance from scratch.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from heapq import heapify, heappop, heappush

from .core import Arc, FlowNetwork, Rat, SupplyVector, TerminalSet
from .errors import ExpansionCapExceeded, InfeasibleDeadline

__all__ = [
    "DEFAULT_NODE_CAP",
    "scale_to_integral",
    "TimeExpandedNetwork",
    "build_time_expanded",
    "feasible_by_expansion",
    "value_by_expansion",
    "FlowOverTime",
    "extract_transshipment",
    "verify_flow",
]

DEFAULT_NODE_CAP = 200_000


def scale_to_integral(network: FlowNetwork, theta: Rat):
    """Rescale time so the deadline and all transit times become integers.

    Returns ``(scaled, steps, q)`` where q is the least common multiple of
    the denominators involved, transit times are multiplied by q, capacities
    divided by q (a rate per new unit step), and steps = theta * q.  Supplies
    are volumes and stay untouched.
    """
    theta = Fraction(theta)
    if theta < 0:
        raise ValueError("deadline must be nonnegative, got %s" % theta)
    q = theta.denominator
    for a in network.arcs:
        q = math.lcm(q, a.transit.denominator)
    scaled = FlowNetwork(
        node_count=network.node_count,
        arcs=tuple(Arc(a.tail, a.head, a.capacity / q, a.transit * q)
                   for a in network.arcs),
        sources=network.sources,
        sinks=network.sinks,
    )
    # q is a multiple of theta's denominator, so theta * q is an integer.
    return scaled, theta.numerator * (q // theta.denominator), q


@dataclass(frozen=True)
class TimeExpandedNetwork:
    """A time expansion on ints, capacities times ``scale``: ``arcs`` holds
    ``(tail, head, capacity)`` per copy, ``moves`` holds ``(index into arcs,
    original arc, layer)`` per movement copy."""

    scale: int
    node_count: int
    arcs: tuple[tuple[int, int, int], ...]
    moves: tuple[tuple[int, int, int], ...]
    super_source: int
    super_sink: int


def _check_expandable(network: FlowNetwork, steps: int, node_cap: int):
    for i, a in enumerate(network.arcs):
        if a.transit.denominator != 1:
            raise ValueError("arc %d has non-integral transit %s; scale first"
                             % (i, a.transit))
    if steps < 0:
        raise ValueError("negative number of steps")
    nodes = (steps + 1) * network.node_count
    if nodes > node_cap:
        raise ExpansionCapExceeded(nodes, node_cap, "node")
    # With parallel arcs, movement copies can outnumber node copies by any factor.
    moves = sum(max(0, steps - int(a.transit)) for a in network.arcs
                if a.capacity > 0)
    if moves > node_cap:
        raise ExpansionCapExceeded(moves, node_cap, "arc")


def _least_transit(n: int, edges, starts, horizon: int) -> list[int]:
    """Least transit from any node in ``starts`` to each node, along
    ``(from, to, transit)`` edges; ``horizon`` where that is at least
    ``horizon`` or the node is unreachable."""
    out = [[] for _ in range(n)]
    for u, v, transit in edges:
        out[u].append((v, transit))
    dist = [horizon] * n
    heap = [(0, v) for v in starts]
    heapify(heap)
    while heap:
        d, v = heappop(heap)
        if d >= dist[v]:
            continue
        dist[v] = d
        for w, transit in out[v]:
            if d + transit < dist[w]:
                heappush(heap, (d + transit, w))
    return dist


def build_time_expanded(network: FlowNetwork, b: SupplyVector, steps: int, *,
                        node_cap: int = DEFAULT_NODE_CAP) -> TimeExpandedNetwork:
    """Expand with supply-capped terminal wiring, for feasibility testing.

    Sources feed from layer 0 (they sit on their supply until it leaves),
    sinks drain through one collector each so no sink can absorb more than
    its demand, and the total super-source capacity is the total supply.
    The capacity scale is the lcm of the denominators of the arc capacities
    and the supplies.

    Only copies that can carry flow are built.  Over the arcs with positive
    capacity, ``early(v)`` is the least transit from a source with positive
    supply to v, and ``late(v)`` the least transit from v to a sink with
    positive demand.  Flow reaching copy v@t left a source at layer 0, so
    t >= early(v); it must still drain at a sink copy by layer steps - 1, so
    t <= steps - 1 - late(v).  Conversely, waiting makes every copy inside
    that window reachable from a source and able to reach a sink.  So node
    v keeps its copies in ``early(v) <= t <= steps - 1 - late(v)``, the
    movement copy of arc u->w (transit tau) exists for ``early(u) <= t <=
    steps - 1 - tau - late(w)``, and holdovers, drains and source hookups
    exist only between kept copies.  The max flow is the same as on the
    full expansion, which the node cap still counts.

    Layout: node v's copies take contiguous ids in layer order, node 0's
    first; the collectors, the super source and the super sink follow.
    Copies are emitted layer by layer, in each layer the movement copies in
    arc order and then the holdovers in node order; source hookups, drains
    and collector arcs come last.  Push-relabel's running time depends on
    this order.
    """
    _check_expandable(network, steps, node_cap)
    n = network.node_count
    n_src = len(network.sources)
    scale = math.lcm(*(a.capacity.denominator for a in network.arcs),
                     *(x.denominator for x in b.values))
    total = int(b.total_supply() * scale)
    live = [(a.tail, a.head, int(a.transit)) for a in network.arcs
            if a.capacity > 0]
    early = _least_transit(n, live, [v for i, v in enumerate(network.sources)
                                     if b.values[i] > 0], steps)
    late = _least_transit(n, [(w, u, tau) for u, w, tau in live],
                          [w for j, w in enumerate(network.sinks)
                           if b.values[n_src + j] < 0], steps)
    last = [steps - 1 - x for x in late]
    offset = []         # id of copy v@t is offset[v] + t
    kept = 0
    for v in range(n):
        offset.append(kept - early[v])
        kept += max(0, last[v] - early[v] + 1)
    # Per layer: (arc or None for a holdover, tail, head, capacity), the
    # copy at that layer running from tail + layer to head + layer.
    at = [[] for _ in range(steps)]
    for idx, a in enumerate(network.arcs):
        if a.capacity > 0:
            transit = int(a.transit)
            copy = (idx, offset[a.tail], offset[a.head] + transit,
                    int(a.capacity * scale))
            for layer in range(early[a.tail], last[a.head] - transit + 1):
                at[layer].append(copy)
    if total > 0:
        for v in range(n):
            hold = (None, offset[v], offset[v] + 1, total)
            for layer in range(early[v], last[v]):
                at[layer].append(hold)
    arcs = []
    moves = []
    for layer, copies in enumerate(at):
        for idx, tail, head, cap in copies:
            if idx is not None:
                moves.append((len(arcs), idx, layer))
            arcs.append((tail + layer, head + layer, cap))
    s = kept + len(network.sinks)
    t = s + 1
    # A supplied source's window, when it has one, starts at layer 0.
    for i, v in enumerate(network.sources):
        if b.values[i] > 0 and early[v] <= last[v]:
            arcs.append((s, offset[v], int(b.values[i] * scale)))
    for j, w in enumerate(network.sinks):
        demand = -b.values[n_src + j]
        if demand > 0 and early[w] <= last[w]:
            collector = kept + j
            arcs.extend((offset[w] + layer, collector, total)
                        for layer in range(early[w], last[w] + 1))
            arcs.append((collector, t, int(demand * scale)))
    return TimeExpandedNetwork(scale=scale, node_count=t + 1,
                               arcs=tuple(arcs), moves=tuple(moves),
                               super_source=s, super_sink=t)


def _max_flow_int(n: int, arcs, s: int, t: int):
    """Highest-label push-relabel on integer capacities; returns (value,
    per-arc flow).  Labels are exact sink distances, recomputed by a
    breadth-first search from the sink at the start and after every n
    relabels.  Only the first phase runs, so the per-arc flow is a flow
    only when the value saturates the source's arcs."""
    adj = [[] for _ in range(n)]
    to = []
    cap = []
    for u, v, c in arcs:
        adj[u].append(len(to)); to.append(v); cap.append(c)
        adj[v].append(len(to)); to.append(u); cap.append(0)
    excess = [0] * n
    for e in adj[s]:
        excess[to[e]] += cap[e]
        cap[e ^ 1] += cap[e]
        cap[e] = 0
    relabels = n
    while True:
        if relabels >= n:
            # Nothing flows back to the source, so the search never reaches it.
            label = [n] * n
            label[t] = 0
            queue = deque([t])
            while queue:
                v = queue.popleft()
                for e in adj[v]:
                    w = to[e]
                    if label[w] == n and cap[e ^ 1]:
                        label[w] = label[v] + 1
                        queue.append(w)
            active = [(-label[v], v) for v in range(n)
                      if excess[v] and label[v] < n and v != t]
            heapify(active)
            current = [0] * n
            relabels = 0
        if not active:
            return excess[t], cap[1::2]
        _, v = heappop(active)
        edges = adj[v]
        height, ex, i = label[v], excess[v], current[v]
        while ex and height < n:
            if i == len(edges):
                relabels += 1
                label[v] = height = 1 + min(
                    (label[to[e]] for e in edges if cap[e]), default=n)
                i = 0
                continue
            e = edges[i]
            if cap[e] and label[to[e]] == height - 1:
                w = to[e]
                push = min(ex, cap[e])
                if not excess[w] and w != t:
                    heappush(active, (1 - height, w))
                excess[w] += push
                cap[e] -= push
                cap[e ^ 1] += push
                ex -= push
            if ex:
                i += 1
        excess[v] = ex
        current[v] = i


def _expanded_max_flow(network: FlowNetwork, b: SupplyVector, theta: Rat,
                       node_cap: int):
    """Scale time, expand, and run the max flow on the expansion.  Returns
    ``(value, q, expansion, per-copy flow)``, the value in supply units."""
    scaled, steps, q = scale_to_integral(network, theta)
    xnet = build_time_expanded(scaled, b, steps, node_cap=node_cap)
    value, flows = _max_flow_int(xnet.node_count, xnet.arcs, xnet.super_source,
                                 xnet.super_sink)
    return Fraction(value, xnet.scale), q, xnet, flows


def feasible_by_expansion(network: FlowNetwork, b: SupplyVector, theta: Rat, *,
                          node_cap: int = DEFAULT_NODE_CAP) -> bool:
    """Feasibility by discretize-and-max-flow, independent of the profiles."""
    return _expanded_max_flow(network, b, theta, node_cap)[0] == b.total_supply()


def value_by_expansion(network: FlowNetwork, subset: TerminalSet, theta: Rat, *,
                       node_cap: int = DEFAULT_NODE_CAP) -> Rat:
    """Maximum amount the subset can ship out by ``theta``, via expansion.

    The question ignores supplies, so the subset's sources hold, and the
    sinks outside it absorb, more than all movement copies can carry.
    """
    big = Fraction(theta) * network.capacity_bound + 1
    n_src = len(network.sources)
    values = [big if i in subset else 0 for i in range(n_src)]
    values += [0 if i in subset else -big for i in range(n_src, network.k)]
    return _expanded_max_flow(network, SupplyVector(tuple(values)), theta,
                              node_cap)[0]


@dataclass(frozen=True)
class FlowOverTime:
    """Piecewise-constant inflow rate per original arc.

    ``rates[i]`` is a tuple of (time, rate) steps: the rate holds from its
    time until the next step's time.  Before the first step the rate is zero,
    and a non-empty tuple always ends with an explicit rate-zero step.  An
    empty tuple means the arc is never used.
    """

    theta: Rat
    rates: tuple[tuple[tuple[Rat, Rat], ...], ...]


def _pieces(copies, q: int, scale: int):
    """Rate steps of one arc from ``(layer, scaled volume)`` per movement
    copy, in layer order over one run of layers.  A layer is 1/q wide, so
    its rate is volume * q / scale."""
    pieces = []
    current = 0
    for layer, flow in copies:
        if flow != current:
            pieces.append((Fraction(layer, q), Fraction(flow * q, scale)))
            current = flow
    if current:
        pieces.append((Fraction(copies[-1][0] + 1, q), Fraction(0)))
    return tuple(pieces)


def extract_transshipment(network: FlowNetwork, b: SupplyVector, theta: Rat, *,
                          node_cap: int = DEFAULT_NODE_CAP) -> FlowOverTime:
    """Produce an actual transshipment meeting the deadline.

    Runs the expanded max-flow and reads each movement copy's volume back as
    a constant rate over its time slice.  Raises InfeasibleDeadline when the
    deadline is too small.
    """
    value, q, xnet, flows = _expanded_max_flow(network, b, theta, node_cap)
    shortfall = b.total_supply() - value
    if shortfall:
        raise InfeasibleDeadline(theta, shortfall)
    # An arc's copies come in layer order, over one run of layers.
    per_arc = [[] for _ in network.arcs]
    for copy, idx, layer in xnet.moves:
        per_arc[idx].append((layer, flows[copy]))
    return FlowOverTime(theta=theta, rates=tuple(
        _pieces(copies, q, xnet.scale) for copies in per_arc))


class _Cumulative:
    """Fast integral of a piecewise-constant rate function."""

    def __init__(self, pieces):
        self.times = [t for t, _ in pieces]
        self.rates = [r for _, r in pieces]
        self.prefix = [Fraction(0)]
        for j in range(len(pieces) - 1):
            self.prefix.append(self.prefix[-1]
                               + self.rates[j] * (self.times[j + 1] - self.times[j]))

    def at(self, x: Rat) -> Rat:
        if not self.times or x <= self.times[0]:
            return Fraction(0)
        j = bisect_right(self.times, x) - 1
        return self.prefix[j] + self.rates[j] * (x - self.times[j])


def verify_flow(network: FlowNetwork, b: SupplyVector, flow: FlowOverTime,
                theta: Rat) -> list[str]:
    """Re-check a flow over time against the instance, from scratch.

    Checks arc capacities, that no flow arrives after the deadline, that
    no node's storage goes negative at any time (a source starts with its
    supply, every other node with nothing), zero final storage at
    non-terminals, and exact supply/demand balance at terminals.  Returns
    human-readable violations; empty means the flow is valid.
    """
    problems = []
    if len(flow.rates) != len(network.arcs):
        return ["flow describes %d arcs, instance has %d"
                % (len(flow.rates), len(network.arcs))]
    for i, (arc, pieces) in enumerate(zip(network.arcs, flow.rates)):
        last_time = None
        for time, rate in pieces:
            if time < 0:
                problems.append("arc %d has a piece at negative time %s" % (i, time))
            if last_time is not None and time <= last_time:
                problems.append("arc %d has non-increasing piece times at %s" % (i, time))
            last_time = time
            if rate < 0:
                problems.append("arc %d has negative rate %s" % (i, rate))
            if rate > arc.capacity:
                problems.append("arc %d exceeds capacity: rate %s > %s"
                                % (i, rate, arc.capacity))
        if pieces and pieces[-1][1] != 0:
            problems.append("arc %d never returns to rate zero" % i)
        latest = theta - arc.transit
        for j, (time, rate) in enumerate(pieces):
            if rate == 0:
                continue
            end = pieces[j + 1][0] if j + 1 < len(pieces) else None
            if time < 0 or end is None or end > latest:
                problems.append("arc %d sends flow that cannot arrive by %s"
                                % (i, theta))
                break
    if problems:
        return problems

    cumulative = [_Cumulative(pieces) for pieces in flow.rates]
    incoming = [[] for _ in range(network.node_count)]
    outgoing = [[] for _ in range(network.node_count)]
    for i, arc in enumerate(network.arcs):
        outgoing[arc.tail].append(i)
        incoming[arc.head].append(i)
    terminal_values = dict(zip(network.terminals, b.values))

    for v in range(network.node_count):
        in_arcs, out_arcs = incoming[v], outgoing[v]
        if not in_arcs and not out_arcs:
            continue
        arrived = lambda t: sum(
            (cumulative[i].at(t - network.arcs[i].transit) for i in in_arcs),
            Fraction(0))
        departed = lambda t: sum((cumulative[i].at(t) for i in out_arcs), Fraction(0))
        held = max(terminal_values.get(v, 0), 0)
        events = {theta}
        for i in in_arcs:
            tau = network.arcs[i].transit
            events.update(t + tau for t, _ in flow.rates[i])
        for i in out_arcs:
            events.update(t for t, _ in flow.rates[i])
        for t in sorted(events):
            if t > theta:
                continue
            stored = held + arrived(t) - departed(t)
            if stored < 0:
                problems.append("node %d sends flow it has not received by %s"
                                % (v, t))
                break
        if v in terminal_values:
            sent = departed(theta) - arrived(theta)
            if sent != terminal_values[v]:
                problems.append("terminal %d ships net %s, expected %s"
                                % (v, sent, terminal_values[v]))
            continue
        leftover = arrived(theta) - departed(theta)
        if leftover != 0:
            problems.append("node %d still stores %s at the deadline" % (v, leftover))
    return problems
