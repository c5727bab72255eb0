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

The flow side runs on ints: ``build_time_expanded`` scales all capacities
once, by the lcm of the denominators of the arc capacities and supplies,
and Dinic's max flow runs on those ints.  Scaling every capacity alike keeps
every augmenting path, so the flow is the rational one times the scale, and
Fractions appear only in answers: rate pieces, a shortfall, a value.  The
node cap bounds node copies and, separately, movement copies; both are
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


def build_time_expanded(network: FlowNetwork, b: SupplyVector, steps: int, *,
                        node_cap: int = DEFAULT_NODE_CAP) -> TimeExpandedNetwork:
    """Expand with supply-capped terminal wiring, for feasibility testing.

    Sources feed from layer 0 (they sit on their supply until it leaves),
    sinks drain through one collector each so no sink can absorb more than
    its demand, and the total super-source capacity is the total supply.
    The capacity scale is the lcm of the denominators of the arc capacities
    and the supplies.
    """
    _check_expandable(network, steps, node_cap)
    n = network.node_count
    n_src = len(network.sources)
    scale = math.lcm(*(a.capacity.denominator for a in network.arcs),
                     *(x.denominator for x in b.values))
    total = int(b.total_supply() * scale)
    live = []           # (arc, tail, head offset, layers with a copy, capacity)
    for idx, a in enumerate(network.arcs):
        if a.capacity > 0:
            transit = int(a.transit)
            live.append((idx, a.tail, transit * n + a.head, steps - transit,
                         int(a.capacity * scale)))
    arcs = []
    moves = []
    for layer in range(steps):
        base = layer * n
        for idx, tail, reach, end, cap in live:
            if layer < end:
                moves.append((len(arcs), idx, layer))
                arcs.append((base + tail, base + reach, cap))
        if layer + 1 < steps and total > 0:
            arcs.extend((base + v, base + n + v, total) for v in range(n))
    s = steps * n + len(network.sinks)
    t = s + 1
    if steps > 0:
        for i, v in enumerate(network.sources):
            if b.values[i] > 0:
                arcs.append((s, v, int(b.values[i] * scale)))
        for j, w in enumerate(network.sinks):
            demand = -b.values[n_src + j]
            if demand > 0:
                collector = steps * n + j
                arcs.extend((layer * n + w, collector, total) for layer in range(steps))
                arcs.append((collector, t, int(demand * scale)))
    return TimeExpandedNetwork(scale=scale, node_count=t + 1,
                               arcs=tuple(arcs), moves=tuple(moves),
                               super_source=s, super_sink=t)


def _max_flow_int(n: int, arcs, s: int, t: int):
    """Dinic's algorithm on integer capacities; returns (value, per-arc flow).

    The breadth-first search stops at the sink: nodes at or beyond its level
    can only dead-end in the blocking-flow search, so the augmenting paths
    and their order are those of a full search."""
    adj = [[] for _ in range(n)]
    to = []
    cap = []
    for u, v, c in arcs:
        adj[u].append(len(to)); to.append(v); cap.append(c)
        adj[v].append(len(to)); to.append(u); cap.append(0)
    value = 0
    while True:
        level = [-1] * n
        level[s] = 0
        queue = deque([s])
        while queue:
            u = queue.popleft()
            if u == t:
                break
            nxt = level[u] + 1
            for e in adj[u]:
                w = to[e]
                if level[w] < 0 and cap[e]:
                    level[w] = nxt
                    queue.append(w)
        if level[t] < 0:
            break
        it = [0] * n
        stack = []
        v = s
        while True:
            if v == t:
                aug = min(cap[e] for e in stack)
                value += aug
                for e in stack:
                    cap[e] -= aug
                    cap[e ^ 1] += aug
                del stack[next(i for i, e in enumerate(stack) if not cap[e]):]
                v = to[stack[-1]] if stack else s
                continue
            edges = adj[v]
            i = it[v]
            nxt = level[v] + 1
            while i < len(edges):
                e = edges[i]
                if cap[e] and level[to[e]] == nxt:
                    break
                i += 1
            it[v] = i
            if i < len(edges):
                stack.append(e)
                v = to[e]
            else:
                level[v] = -1
                if not stack:
                    break
                v = to[stack.pop() ^ 1]
    return value, cap[1::2]


def feasible_by_expansion(network: FlowNetwork, b: SupplyVector, theta: Rat, *,
                          node_cap: int = DEFAULT_NODE_CAP) -> bool:
    """Feasibility by discretize-and-max-flow, independent of the profiles."""
    scaled, steps, _ = scale_to_integral(network, theta)
    total = b.total_supply()
    if total == 0:
        return True
    xnet = build_time_expanded(scaled, b, steps, node_cap=node_cap)
    value, _ = _max_flow_int(xnet.node_count, xnet.arcs, xnet.super_source,
                             xnet.super_sink)
    return value == total * xnet.scale


def value_by_expansion(network: FlowNetwork, subset: TerminalSet, theta: Rat, *,
                       node_cap: int = DEFAULT_NODE_CAP) -> Rat:
    """Maximum amount the subset can ship out by ``theta``, via expansion.

    The question ignores supplies, so the subset's sources hold, and the
    sinks outside it absorb, more than all movement copies can carry.
    """
    scaled, steps, _ = scale_to_integral(network, theta)
    big = steps * scaled.capacity_bound + 1
    n_src = len(scaled.sources)
    values = [big if i in subset else 0 for i in range(n_src)]
    values += [0 if i in subset else -big for i in range(n_src, scaled.k)]
    xnet = build_time_expanded(scaled, SupplyVector(tuple(values)), steps,
                               node_cap=node_cap)
    value, _ = _max_flow_int(xnet.node_count, xnet.arcs, xnet.super_source,
                             xnet.super_sink)
    return Fraction(value, xnet.scale)


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


def _pieces(volumes, q: int, scale: int):
    """Rate steps of one arc from its scaled volume per layer.  A layer is
    1/q wide, so its rate is volume * q / scale."""
    pieces = []
    current = 0
    for layer, flow in enumerate(volumes):
        if flow != current:
            pieces.append((Fraction(layer, q), Fraction(flow * q, scale)))
            current = flow
    if current:
        pieces.append((Fraction(len(volumes), q), Fraction(0)))
    return tuple(pieces)


def extract_transshipment(network: FlowNetwork, b: SupplyVector, theta: Rat, *,
                          node_cap: int = DEFAULT_NODE_CAP) -> FlowOverTime:
    """Produce an actual transshipment meeting the deadline.

    Runs the expanded max-flow and reads each movement copy's volume back as
    a constant rate over its time slice.  Raises InfeasibleDeadline when the
    deadline is too small.
    """
    scaled, steps, q = scale_to_integral(network, theta)
    total = b.total_supply()
    if total == 0:
        return FlowOverTime(theta=theta, rates=tuple(() for _ in network.arcs))
    xnet = build_time_expanded(scaled, b, steps, node_cap=node_cap)
    value, flows = _max_flow_int(xnet.node_count, xnet.arcs, xnet.super_source,
                                 xnet.super_sink)
    shortfall = total - Fraction(value, xnet.scale)
    if shortfall:
        raise InfeasibleDeadline(theta, shortfall)
    per_arc = [[0] * steps for _ in network.arcs]
    for copy, idx, layer in xnet.moves:
        per_arc[idx][layer] = flows[copy]
    return FlowOverTime(theta=theta, rates=tuple(
        _pieces(volumes, q, xnet.scale) for volumes in per_arc))


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

    Checks arc capacities, that no flow arrives after the deadline, prefix
    conservation (with storage allowed) and zero final storage at
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
        if v in terminal_values:
            sent = departed(theta) - arrived(theta)
            if sent != terminal_values[v]:
                problems.append("terminal %d ships net %s, expected %s"
                                % (v, sent, terminal_values[v]))
            continue
        events = {theta}
        for i in in_arcs:
            tau = network.arcs[i].transit
            events.update(t + tau for t, _ in flow.rates[i])
        for i in out_arcs:
            events.update(t for t, _ in flow.rates[i])
        for t in sorted(events):
            if t > theta:
                continue
            stored = arrived(t) - departed(t)
            if stored < 0:
                problems.append("node %d sends flow it has not received by %s"
                                % (v, t))
                break
        leftover = arrived(theta) - departed(theta)
        if leftover != 0:
            problems.append("node %d still stores %s at the deadline" % (v, leftover))
    return problems
