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
    "XArc",
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
class XArc:
    """One arc of a time-expanded network, tagged with its origin."""

    tail: int
    head: int
    capacity: Rat
    kind: str               # "move" | "hold" | "supply" | "collect" | "demand"
    base_arc: int | None    # original arc index for "move" copies
    layer: int | None       # departure slice for "move"/"hold"/"collect"


@dataclass(frozen=True)
class TimeExpandedNetwork:
    base: FlowNetwork       # scaled network (integral transit times)
    steps: int
    node_count: int
    arcs: tuple[XArc, ...]
    super_source: int
    super_sink: int


def _check_expandable(network: FlowNetwork, steps: int, node_cap: int):
    for i, a in enumerate(network.arcs):
        if a.transit.denominator != 1:
            raise ValueError("arc %d has non-integral transit %s; scale first"
                             % (i, a.transit))
    if steps < 0:
        raise ValueError("negative number of steps")
    needed = (steps + 1) * network.node_count
    if needed > node_cap:
        raise ExpansionCapExceeded(needed, node_cap)


def build_time_expanded(network: FlowNetwork, b: SupplyVector, steps: int, *,
                        node_cap: int = DEFAULT_NODE_CAP) -> TimeExpandedNetwork:
    """Expand with supply-capped terminal wiring, for feasibility testing.

    Sources feed from layer 0 (they sit on their supply until it leaves),
    sinks drain through one collector each so no sink can absorb more than
    its demand, and the total super-source capacity is the total supply.
    """
    _check_expandable(network, steps, node_cap)
    n = network.node_count
    n_src = len(network.sources)
    total = b.total_supply()
    collector = {j: steps * n + j for j in range(len(network.sinks))}
    s = steps * n + len(network.sinks)
    t = s + 1
    arcs = []
    for layer in range(steps):
        base = layer * n
        for idx, a in enumerate(network.arcs):
            arrive = layer + int(a.transit)
            if arrive <= steps - 1 and a.capacity > 0:
                arcs.append(XArc(base + a.tail, arrive * n + a.head,
                                 a.capacity, "move", idx, layer))
        if layer + 1 < steps and total > 0:
            for v in range(n):
                arcs.append(XArc(base + v, base + n + v, total, "hold", None, layer))
    if steps > 0:
        for i, v in enumerate(network.sources):
            if b.values[i] > 0:
                arcs.append(XArc(s, v, b.values[i], "supply", None, None))
        for j, w in enumerate(network.sinks):
            demand = -b.values[n_src + j]
            if demand <= 0:
                continue
            for layer in range(steps):
                arcs.append(XArc(layer * n + w, collector[j], total, "collect",
                                 None, layer))
            arcs.append(XArc(collector[j], t, demand, "demand", None, None))
    return TimeExpandedNetwork(base=network, steps=steps, node_count=t + 1,
                               arcs=tuple(arcs), super_source=s, super_sink=t)


def _max_flow_int(n: int, arcs, s: int, t: int):
    """Dinic's algorithm on integer capacities; returns (value, per-arc flow)."""
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
            for e in adj[u]:
                if cap[e] > 0 and level[to[e]] < 0:
                    level[to[e]] = level[u] + 1
                    queue.append(to[e])
        if level[t] < 0:
            break
        it = [0] * n
        stack = []
        v = s
        while True:
            if v == t:
                aug = min(cap[e] for e in stack)
                value += aug
                cut = None
                for i, e in enumerate(stack):
                    cap[e] -= aug
                    cap[e ^ 1] += aug
                    if cut is None and cap[e] == 0:
                        cut = i
                del stack[cut:]
                v = s if not stack else to[stack[-1]]
                continue
            moved = False
            while it[v] < len(adj[v]):
                e = adj[v][it[v]]
                if cap[e] > 0 and level[to[e]] == level[v] + 1:
                    stack.append(e)
                    v = to[e]
                    moved = True
                    break
                it[v] += 1
            if not moved:
                level[v] = -1
                if not stack:
                    break
                v = to[stack.pop() ^ 1]
    return value, [cap[2 * i + 1] for i in range(len(arcs))]


def _max_flow_exact(n: int, arcs, s: int, t: int):
    """Exact rational max flow by clearing denominators first."""
    denom = 1
    for _, _, c in arcs:
        denom = math.lcm(denom, c.denominator)
    scaled = [(u, v, int(c * denom)) for u, v, c in arcs]
    value, flows = _max_flow_int(n, scaled, s, t)
    return Fraction(value, denom), [Fraction(f, denom) for f in flows]


def _run_expanded(xnet: TimeExpandedNetwork):
    return _max_flow_exact(xnet.node_count,
                           [(a.tail, a.head, a.capacity) for a in xnet.arcs],
                           xnet.super_source, xnet.super_sink)


def feasible_by_expansion(network: FlowNetwork, b: SupplyVector, theta: Rat, *,
                          node_cap: int = DEFAULT_NODE_CAP) -> bool:
    """Feasibility by discretize-and-max-flow, independent of the profiles."""
    scaled, steps, _ = scale_to_integral(network, theta)
    total = b.total_supply()
    if total == 0:
        return True
    xnet = build_time_expanded(scaled, b, steps, node_cap=node_cap)
    value, _ = _run_expanded(xnet)
    return value == total


def value_by_expansion(network: FlowNetwork, subset: TerminalSet, theta: Rat, *,
                       node_cap: int = DEFAULT_NODE_CAP) -> Rat:
    """Maximum amount the subset can ship out by ``theta``, via expansion.

    Terminal wiring is uncapped here (the question ignores supplies), so the
    stand-in for infinity is the total movement capacity of the expansion.
    """
    scaled, steps, _ = scale_to_integral(network, theta)
    _check_expandable(scaled, steps, node_cap)
    n = scaled.node_count
    n_src = len(scaled.sources)
    s = steps * n
    t = s + 1
    arcs = []
    big = Fraction(0)
    for layer in range(steps):
        for idx, a in enumerate(scaled.arcs):
            arrive = layer + int(a.transit)
            if arrive <= steps - 1 and a.capacity > 0:
                arcs.append((layer * n + a.tail, arrive * n + a.head, a.capacity))
                big += a.capacity
    big += 1
    moves = len(arcs)
    for layer in range(steps - 1):
        for v in range(n):
            arcs.append((layer * n + v, (layer + 1) * n + v, big))
    if steps > 0:
        for i, v in enumerate(scaled.sources):
            if i in subset:
                arcs.append((s, v, big))
        for j, w in enumerate(scaled.sinks):
            if (n_src + j) not in subset:
                for layer in range(steps):
                    arcs.append((layer * n + w, t, big))
    if moves == 0:
        return Fraction(0)
    value, _ = _max_flow_exact(t + 1, arcs, s, t)
    return value


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


def _steps_to_pieces(layer_rates, q: int):
    pieces = []
    current = Fraction(0)
    for layer, rate in enumerate(layer_rates):
        if rate != current:
            pieces.append((Fraction(layer, q), rate))
            current = rate
    if current != 0:
        pieces.append((Fraction(len(layer_rates), q), Fraction(0)))
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
    value, flows = _run_expanded(xnet)
    if value != total:
        raise InfeasibleDeadline(theta, total - value)
    per_arc = [[Fraction(0)] * steps for _ in network.arcs]
    for xarc, flow in zip(xnet.arcs, flows):
        if xarc.kind == "move" and flow:
            # volume in a slice of width 1/q, hence rate = volume * q
            per_arc[xarc.base_arc][xarc.layer] += flow * q
    return FlowOverTime(theta=theta,
                        rates=tuple(_steps_to_pieces(rates, q) for rates in per_arc))


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
