"""Differential tests on small instances with rational data.

The acceptance corpus only has integer capacities and transit times.  Here
capacities and transit times have denominators up to 12, some arcs have
zero capacity, and some instances carry a cycle of zero transit time.  The
integer profile kernel is compared against the rational successive-shortest-
paths algorithm kept below as the reference, the solvers against each other
and against two exact symmetries of the problem, and the time expansion
against the solvers' answer.
"""

import heapq
from fractions import Fraction as F

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from transship import (Arc, FlowNetwork, ProfileCache, SupplyVector,
                       TerminalSet, breakpoints, compute_profile,
                       extract_transshipment, feasible_by_expansion,
                       minimize_slack, net_supply, scale_to_integral,
                       solve_newton_jumps, solve_newton_simple,
                       sources_reach_sinks, theta_star_bruteforce, value_at,
                       verify_flow)

# ---------------------------------------------------------------------------
# Reference: successive shortest paths on Fractions, as the package ran them
# before profiles moved to integers: a residual graph built per subset from
# the base arcs and that subset's hookups only, and every search run to
# exhaustion.  The kernel shares one layout per instance and stops at the
# super sink; the tie-breaking must come out the same.  The super terminals
# are wired here from the subset's node ids, not by the kernel, so the
# comparison also checks the kernel's wiring.


def reference_profile(network, subset):
    """(length, amount, certificate) per segment, in rational arithmetic."""
    n, m = network.node_count, len(network.arcs)
    s, t = n, n + 1
    # Any flow from s to t crosses an original arc, so the sum of all
    # capacities never binds on an auxiliary arc.
    big = sum(a.capacity for a in network.arcs)
    inside = set(subset.nodes(network))
    arcs = (network.arcs
            + tuple(Arc(s, v, big, F(0)) for v in network.sources if v in inside)
            + tuple(Arc(v, t, big, F(0)) for v in network.sinks if v not in inside))
    adj = [[] for _ in range(n + 2)]
    for idx, a in enumerate(arcs):
        orig = idx if idx < m else None
        fwd = [a.head, a.capacity, a.transit, len(adj[a.head]), orig, 1]
        bwd = [a.tail, F(0), -a.transit, len(adj[a.tail]), orig, -1]
        adj[a.tail].append(fwd)
        adj[a.head].append(bwd)
    pot = [F(0)] * (n + 2)
    segments = []
    while True:
        dist = [None] * (n + 2)
        parent = [None] * (n + 2)
        dist[s] = F(0)
        heap = [(F(0), s)]
        while heap:
            d, u = heapq.heappop(heap)
            if d > dist[u]:
                continue
            for i, entry in enumerate(adj[u]):
                if entry[1] <= 0:
                    continue
                v = entry[0]
                nd = d + entry[2] + pot[u] - pot[v]
                if dist[v] is None or nd < dist[v]:
                    dist[v] = nd
                    parent[v] = (u, i)
                    heapq.heappush(heap, (nd, v))
        if dist[t] is None:
            return segments
        reach = dist[t]
        for v in range(n + 2):
            pot[v] += reach if dist[v] is None or dist[v] > reach else dist[v]
        path = []
        v = t
        while v != s:
            u, i = parent[v]
            path.append(adj[u][i])
            v = u
        amount = min(entry[1] for entry in path)
        uses = {}
        for entry in path:
            entry[1] -= amount
            adj[entry[0]][entry[3]][1] += amount
            if entry[4] is not None:
                uses[entry[4]] = entry[5]
        certificate = tuple(uses.get(i, 0) for i in range(m))
        segments.append((pot[t] - pot[s], amount, certificate))


def reversed_network(network):
    """Every arc run head to tail, with the sinks as sources and the sources
    as sinks."""
    return FlowNetwork(network.node_count,
                       tuple(Arc(a.head, a.tail, a.capacity, a.transit)
                             for a in network.arcs),
                       network.sinks, network.sources)


def oriented_reference(network, subset):
    """``reference_profile`` as the kernel lays the instance out.  With more
    sources than sinks that is the reversed network: every arc runs head to
    tail, the sinks are its sources and the sources its sinks, and the
    subset is the terminals outside ``subset``, so the same hookups open.
    The segments come out in the original network's terms: a reversed arc
    used forward is the original arc used forward."""
    if len(network.sources) <= len(network.sinks):
        return reference_profile(network, subset)
    flipped = reversed_network(network)
    inside = set(subset.nodes(network))
    outside = [v for v in network.terminals if v not in inside]
    return reference_profile(flipped, TerminalSet.of_nodes(flipped, outside))


def value_function(segments):
    """Each distinct length of ``(length, amount, ...)`` segments with the
    amount and the amount * length summed over the segments up to it: the
    value function, whichever way tied paths split or route."""
    out, amount, moment = [], F(0), F(0)
    for length, step, *_ in segments:
        amount, moment = amount + step, moment + step * length
        if out and out[-1][0] == length:
            out.pop()
        out.append((length, amount, moment))
    return out


# ---------------------------------------------------------------------------
# Instances: a chain through every node with sources ahead of sinks (so a
# finite answer exists), extra arcs that may have zero capacity, and
# optionally a two-arc cycle of zero transit time.

def transit_times(max_denominator=12):
    return st.fractions(min_value=0, max_value=6, max_denominator=max_denominator)


transits = transit_times()


@st.composite
def instances(draw, max_denominator=12):
    transits = transit_times(max_denominator)
    positive = st.fractions(min_value=F(1, max_denominator), max_value=6,
                            max_denominator=max_denominator)
    capacities = st.one_of(st.just(F(0)), positive)
    n = draw(st.integers(2, 5))
    chain = draw(st.permutations(range(n)))
    arcs = [Arc(chain[i], chain[i + 1], draw(positive), draw(transits))
            for i in range(n - 1)]
    for _ in range(draw(st.integers(0, 4))):
        tail = draw(st.integers(0, n - 1))
        head = draw(st.integers(0, n - 2))
        head += head >= tail
        arcs.append(Arc(tail, head, draw(capacities), draw(transits)))
    if draw(st.booleans()):
        u, v = chain[0], chain[-1]
        arcs.append(Arc(u, v, draw(positive), F(0)))
        arcs.append(Arc(v, u, draw(positive), F(0)))
    k = draw(st.integers(2, min(n, 4)))
    positions = sorted(draw(st.lists(st.integers(0, n - 1), min_size=k,
                                     max_size=k, unique=True)))
    n_src = draw(st.integers(1, k - 1))
    sources = tuple(chain[p] for p in positions[:n_src])
    sinks = tuple(chain[p] for p in positions[n_src:])
    network = FlowNetwork(n, tuple(arcs), sources, sinks)
    supplies = [draw(positive) for _ in sources]
    weights = [draw(positive) for _ in sinks]
    total = sum(supplies)
    demands = [-total * w / sum(weights) for w in weights]
    return network, SupplyVector(tuple(supplies + demands))


def scaled(network, b, rate, time):
    """The instance with capacities times ``rate / time``, transit times
    times ``time`` and supplies times ``rate``."""
    arcs = tuple(Arc(a.tail, a.head, a.capacity * rate / time, a.transit * time)
                 for a in network.arcs)
    return (FlowNetwork(network.node_count, arcs, network.sources, network.sinks),
            SupplyVector(tuple(x * rate for x in b.values)))


factors = st.fractions(min_value=F(1, 12), max_value=12, max_denominator=12)


@settings(max_examples=60, deadline=None)
@given(instance=instances())
def test_integer_profiles_match_rational_reference(instance):
    network, _ = instance
    assert sources_reach_sinks(network)
    cache = ProfileCache(network)
    for bits in range(1 << network.k):
        subset = TerminalSet(bits, network.k)
        profile = compute_profile(network, subset)
        assert profile == cache.profile(bits)
        segments = [(s.length, s.amount, s.certificate) for s in profile.segments]
        assert segments == oriented_reference(network, subset)
        # Reversed or not, the value function is the forward one.
        assert value_function(segments) == value_function(reference_profile(network, subset))


@settings(max_examples=60, deadline=None)
@given(instance=instances(), thetas=st.lists(transits, min_size=1, max_size=3))
def test_envelope_matches_rational_minimum(instance, thetas):
    network, b = instance
    cache = ProfileCache(network)
    # Each breakpoint, and a deadline just short of it, besides the drawn ones.
    bends = {bend for bits in range(1 << network.k)
             for bend in breakpoints(cache.profile(bits))}
    thetas = set(thetas) | bends | {x - F(1, 1009) for x in bends if x > 0}
    for theta in sorted(thetas):
        slack = {bits: value_at(cache.profile(bits), theta)
                 - net_supply(b, TerminalSet(bits, network.k))
                 for bits in range(1 << network.k)}
        lowest = min(slack.values())
        minimal = (1 << network.k) - 1
        for bits, value in slack.items():
            if value == lowest:
                minimal &= bits
        found = minimize_slack(network, b, theta, cache=cache)
        assert (found.value, found.subset.bits) == (lowest, minimal)


@settings(max_examples=60, deadline=None)
@given(instance=instances(), time=factors, rate=factors)
def test_solvers_agree_and_respect_scaling(instance, time, rate):
    network, b = instance
    cache = ProfileCache(network)
    star = theta_star_bruteforce(network, b, cache=cache)
    assert solve_newton_jumps(network, b, cache=cache).theta_star == star
    assert solve_newton_simple(network, b, cache=cache).theta_star == star
    # A change of time unit: transit times times ``time`` and rates
    # divided by it stretch every deadline by ``time``.
    stretched = scaled(network, b, F(1), time)
    assert solve_newton_jumps(*stretched).theta_star == star * time
    # Capacities and supplies times the same factor: the same deadline.
    heavier = scaled(network, b, rate, F(1))
    assert solve_newton_jumps(*heavier).theta_star == star


@settings(max_examples=60, deadline=None)
@given(instance=instances(max_denominator=3))
def test_expansion_agrees_and_extracted_flow_verifies(instance):
    # Denominators up to 3 keep the time grid coarse, so expansions fit
    # the default cap; the one in ten over 2,000 node copies is skipped to
    # keep the test fast.
    network, b = instance
    star = solve_newton_jumps(network, b).theta_star
    _, steps, q = scale_to_integral(network, star)
    assume((steps + 1) * network.node_count <= 2000)
    assert feasible_by_expansion(network, b, star)
    # theta* less one step of its own time grid must be infeasible.
    assert not feasible_by_expansion(network, b, star - F(1, q))
    flow = extract_transshipment(network, b, star)
    assert verify_flow(network, b, flow, star) == []
