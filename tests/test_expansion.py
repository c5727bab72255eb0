import json
import math
import random
from collections import deque
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from transship import (Arc, FlowNetwork, FlowOverTime, InfeasibleDeadline,
                       ProfileCache, ResourceCapExceeded, SupplyVector,
                       TerminalSet, build_time_expanded, extract_transshipment,
                       feasible_by_expansion, is_feasible, parse_instance,
                       scale_to_integral, solve_newton_jumps, value_at,
                       value_by_expansion, verify_flow)
from transship.expansion import _max_flow_int
from conftest import (instance_b_network, instance_b_supply,
                      single_arc_network, single_arc_supply)
from test_rational import instances

DATA = Path(__file__).parent / "data"

# ---------------------------------------------------------------------------
# Reference: the flow side on Fractions, as the package ran it before the
# expansion moved to ints.  Same copy order, and Dinic's algorithm with a
# breadth-first search over the whole network, on capacities cleared of
# their common denominator per max flow.


def reference_max_flow(n, arcs, s, t):
    """(value, per-copy flow) for rational capacities."""
    denom = 1
    for _, _, c in arcs:
        denom = math.lcm(denom, c.denominator)
    adj = [[] for _ in range(n)]
    to = []
    cap = []
    for u, v, c in arcs:
        adj[u].append(len(to)); to.append(v); cap.append(int(c * denom))
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
    return F(value, denom), [F(cap[2 * i + 1], denom) for i in range(len(arcs))]


def reference_expansion(network, b, steps):
    """(node count, s, t, copies); a copy is (tail, head, capacity, original
    arc or None, layer)."""
    n = network.node_count
    n_src = len(network.sources)
    total = b.total_supply()
    s = steps * n + len(network.sinks)
    t = s + 1
    arcs = []
    for layer in range(steps):
        base = layer * n
        for idx, a in enumerate(network.arcs):
            arrive = layer + int(a.transit)
            if arrive <= steps - 1 and a.capacity > 0:
                arcs.append((base + a.tail, arrive * n + a.head, a.capacity,
                             idx, layer))
        if layer + 1 < steps and total > 0:
            for v in range(n):
                arcs.append((base + v, base + n + v, total, None, layer))
    if steps > 0:
        for i, v in enumerate(network.sources):
            if b.values[i] > 0:
                arcs.append((s, v, b.values[i], None, None))
        for j, w in enumerate(network.sinks):
            demand = -b.values[n_src + j]
            if demand <= 0:
                continue
            for layer in range(steps):
                arcs.append((layer * n + w, steps * n + j, total, None, layer))
            arcs.append((steps * n + j, t, demand, None, None))
    return t + 1, s, t, arcs


def reference_extract(network, b, theta):
    scaled, steps, q = scale_to_integral(network, theta)
    total = b.total_supply()
    if total == 0:
        return FlowOverTime(theta=theta, rates=tuple(() for _ in network.arcs))
    n, s, t, arcs = reference_expansion(scaled, b, steps)
    value, flows = reference_max_flow(n, [a[:3] for a in arcs], s, t)
    if value != total:
        raise InfeasibleDeadline(theta, total - value)
    per_arc = [[F(0)] * steps for _ in network.arcs]
    for (_, _, _, idx, layer), flow in zip(arcs, flows):
        if idx is not None and flow:
            per_arc[idx][layer] += flow * q
    rates = []
    for layer_rates in per_arc:
        pieces = []
        current = F(0)
        for layer, rate in enumerate(layer_rates):
            if rate != current:
                pieces.append((F(layer, q), rate))
                current = rate
        if current != 0:
            pieces.append((F(len(layer_rates), q), F(0)))
        rates.append(tuple(pieces))
    return FlowOverTime(theta=theta, rates=tuple(rates))


def reference_value(network, subset, theta):
    scaled, steps, _ = scale_to_integral(network, theta)
    n = scaled.node_count
    n_src = len(scaled.sources)
    s = steps * n
    t = s + 1
    arcs = []
    big = F(0)
    for layer in range(steps):
        for a in scaled.arcs:
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
        return F(0)
    return reference_max_flow(t + 1, arcs, s, t)[0]


def outcome(extract, network, b, theta):
    """The flow, or the shortfall when the deadline is too small."""
    try:
        return extract(network, b, theta)
    except InfeasibleDeadline as exc:
        return ("short", exc.shortfall)


@st.composite
def digraphs(draw):
    """(n, arcs, s, t) with integer capacities, parallel arcs and loops."""
    n = draw(st.integers(2, 7))
    node = st.integers(0, n - 1)
    arcs = draw(st.lists(st.tuples(node, node, st.integers(0, 9)), max_size=20))
    s, t = draw(st.permutations(range(n)))[:2]
    return n, arcs, s, t


class TestMaxFlow:
    @settings(max_examples=300, deadline=None)
    @given(graph=digraphs())
    @example(graph=(3, [(0, 1, 5)], 0, 2))                 # sink unreachable
    @example(graph=(3, [(0, 1, 9), (1, 2, 4)], 0, 2))      # source arc wider than the cut
    @example(graph=(4, [(0, 1, 9), (1, 2, 4), (1, 3, 7), (3, 0, 2)], 0, 2))
    def test_value_and_flow(self, graph):
        n, arcs, s, t = graph
        value, flow = _max_flow_int(n, arcs, s, t)
        reference, _ = reference_max_flow(n, [(u, v, F(c)) for u, v, c in arcs], s, t)
        assert value == reference
        balance = [0] * n
        for (u, v, c), f in zip(arcs, flow):
            assert 0 <= f <= c
            balance[u] -= f
            balance[v] += f
        assert balance[t] == value
        # A preflow: no node but the source sends more than it receives.
        assert all(x >= 0 for v, x in enumerate(balance) if v != s)
        if value == sum(c for u, v, c in arcs if u == s and v != s):
            # The value saturates the source's arcs: the flow is a flow.
            assert all(x == 0 for v, x in enumerate(balance) if v not in (s, t))


class TestScaling:
    def test_half_integral_deadline(self):
        net = instance_b_network()
        scaled, steps, q = scale_to_integral(net, F(5, 2))
        assert q == 2
        assert steps == 5
        assert [a.transit for a in scaled.arcs] == [0, 2]
        assert [a.capacity for a in scaled.arcs] == [1, F(1, 2)]

    def test_third_integral_deadline(self):
        net = instance_b_network()
        scaled, steps, q = scale_to_integral(net, F(7, 3))
        assert (q, steps) == (3, 7)

    def test_already_integral(self):
        net = single_arc_network()
        scaled, steps, q = scale_to_integral(net, F(5))
        assert (q, steps) == (1, 5)
        assert scaled.arcs == net.arcs

    def test_rational_transit_joins_lcm(self):
        net = FlowNetwork(node_count=2,
                          arcs=(Arc(0, 1, F(2), F(3, 4)),),
                          sources=(0,), sinks=(1,))
        scaled, steps, q = scale_to_integral(net, F(3, 2))
        assert q == 4
        assert steps == 6
        assert scaled.arcs[0].transit == 3
        assert scaled.arcs[0].capacity == F(1, 2)

    def test_negative_deadline_rejected(self):
        with pytest.raises(ValueError):
            scale_to_integral(single_arc_network(), F(-1))

    @given(theta=st.fractions(min_value=0, max_value=40, max_denominator=10))
    def test_scale_invariants(self, theta):
        net = instance_b_network()
        scaled, steps, q = scale_to_integral(net, theta)
        assert steps == theta * q
        assert all(a.transit.denominator == 1 for a in scaled.arcs)
        for before, after in zip(net.arcs, scaled.arcs):
            assert after.transit == before.transit * q
            assert after.capacity * q == before.capacity


class TestLayering:
    def test_movement_copy_count(self):
        # transit 2 inside 5 unit steps: departures at 0, 1 and 2 only.
        # Node 0 keeps layers 0-2 (ids 0-2), node 1 layers 2-4 (ids 3-5).
        net = single_arc_network()
        b = single_arc_supply(net)
        expanded = build_time_expanded(net, b, 5)
        assert [(arc, layer) for _, arc, layer in expanded.moves] == [
            (0, 0), (0, 1), (0, 2)]
        assert [expanded.arcs[copy] for copy, _, _ in expanded.moves] == [
            (0, 3, 1), (1, 4, 1), (2, 5, 1)]

    def test_zero_transit_gets_one_copy_per_step(self):
        net = FlowNetwork(node_count=2, arcs=(Arc(0, 1, F(1), F(0)),),
                          sources=(0,), sinks=(1,))
        b = SupplyVector.for_network(net, {0: F(2), 1: F(-2)})
        expanded = build_time_expanded(net, b, 4)
        assert len(expanded.moves) == 4

    def test_too_long_transit_gets_none(self):
        net = single_arc_network()
        b = single_arc_supply(net)
        expanded = build_time_expanded(net, b, 2)
        assert expanded.moves == ()

    def test_holdover_and_wiring_caps(self):
        # Flow leaves node 0 by layer 2 and reaches node 1 from layer 2 on,
        # so each keeps 3 of the 5 layers and 2 holdovers, not 4.
        net = single_arc_network()
        b = single_arc_supply(net)  # total supply 3
        expanded = build_time_expanded(net, b, 5)
        assert expanded.scale == 1
        assert (expanded.node_count, expanded.super_source,
                expanded.super_sink) == (9, 7, 8)
        assert expanded.arcs == (
            (0, 3, 1), (0, 1, 3),                   # layer 0: move, hold
            (1, 4, 1), (1, 2, 3),                   # layer 1
            (2, 5, 1), (3, 4, 3),                   # layer 2
            (4, 5, 3),                              # layer 3
            (7, 0, 3),                              # source hookup to 0@0
            (3, 6, 3), (4, 6, 3), (5, 6, 3),        # drains of 1@2..1@4
            (6, 8, 3))                              # collector to the sink

    def test_one_capacity_scale(self):
        # capacities 1/2 and 1/3 after scaling, supply 5/4: scale lcm(2, 3, 4)
        net = FlowNetwork(node_count=2, arcs=(Arc(0, 1, F(1), F(0)),
                                              Arc(0, 1, F(2, 3), F(1))),
                          sources=(0,), sinks=(1,))
        b = SupplyVector.for_network(net, {0: F(5, 4), 1: F(-5, 4)})
        scaled, steps, q = scale_to_integral(net, F(3, 2))
        expanded = build_time_expanded(scaled, b, steps)
        assert (q, steps, expanded.scale) == (2, 3, 12)
        assert {expanded.arcs[copy][2] for copy, _, _ in expanded.moves} == {6, 4}
        s = expanded.super_source
        assert [c for u, _, c in expanded.arcs if u == s] == [15]

    def test_node_cap_enforced(self):
        net = single_arc_network()
        b = single_arc_supply(net)
        with pytest.raises(ResourceCapExceeded):
            build_time_expanded(net, b, 10 ** 7)

    def test_arc_copies_count_against_the_cap(self):
        # 202 node copies fit a cap of 1000; 50 parallel arcs over 100
        # steps ask for 5000 movement copies, which do not.
        net = FlowNetwork(node_count=2,
                          arcs=tuple(Arc(0, 1, F(1), F(0)) for _ in range(50)),
                          sources=(0,), sinks=(1,))
        b = SupplyVector.for_network(net, {0: F(1), 1: F(-1)})
        with pytest.raises(ResourceCapExceeded) as err:
            build_time_expanded(net, b, 100, node_cap=1000)
        assert (err.value.needed, err.value.what) == (5000, "arc copies")
        assert len(build_time_expanded(net, b, 20, node_cap=1000).moves) == 1000

    def test_node_no_supplied_source_reaches(self):
        # Source 2 holds nothing: no copy of it, none of its arc.
        net = FlowNetwork(node_count=3,
                          arcs=(Arc(0, 1, F(1), F(1)), Arc(2, 1, F(1), F(0))),
                          sources=(0, 2), sinks=(1,))
        b = SupplyVector.for_network(net, {0: F(2), 2: F(0), 1: F(-2)})
        expanded = build_time_expanded(net, b, 3)
        assert expanded.moves == ((0, 0, 0), (2, 0, 1))
        assert (expanded.node_count, expanded.super_source) == (7, 5)
        assert expanded.arcs == (
            (0, 2, 1), (0, 1, 2), (1, 3, 1), (2, 3, 2),
            (5, 0, 2), (2, 4, 2), (3, 4, 2), (4, 6, 2))
        assert same_max_flow(net, b, 3)

    def test_node_reaching_no_demanding_sink(self):
        # Sink 2 demands nothing and node 3 is a dead end: neither gets a
        # copy, and sink 2's collector gets no arcs.
        net = FlowNetwork(node_count=4,
                          arcs=(Arc(0, 1, F(1), F(1)), Arc(0, 2, F(1), F(0)),
                                Arc(0, 3, F(1), F(0))),
                          sources=(0,), sinks=(1, 2))
        b = SupplyVector.for_network(net, {0: F(2), 1: F(-2), 2: F(0)})
        expanded = build_time_expanded(net, b, 3)
        assert expanded.moves == ((0, 0, 0), (2, 0, 1))
        assert (expanded.node_count, expanded.super_source) == (8, 6)
        assert expanded.arcs == (
            (0, 2, 1), (0, 1, 2), (1, 3, 1), (2, 3, 2),
            (6, 0, 2), (2, 4, 2), (3, 4, 2), (4, 7, 2))
        assert same_max_flow(net, b, 3)

    def test_source_too_far_from_every_sink(self):
        # Source 1 needs 4 steps to reach the sink and has 3: it gets no
        # copy and no hookup, and its supply is short.
        net = FlowNetwork(node_count=3,
                          arcs=(Arc(0, 2, F(2), F(0)), Arc(1, 2, F(1), F(4))),
                          sources=(0, 1), sinks=(2,))
        b = instance_b_supply(net)
        expanded = build_time_expanded(net, b, 3)
        s = expanded.super_source
        assert [a for a in expanded.arcs if a[0] == s] == [(s, 0, 5)]
        assert {arc for _, arc, _ in expanded.moves} == {0}
        assert same_max_flow(net, b, 3)
        expected = outcome(reference_extract, net, b, F(3))
        assert expected == ("short", 1)
        assert outcome(extract_transshipment, net, b, F(3)) == expected

    def test_no_steps(self):
        net = single_arc_network()
        b = single_arc_supply(net)
        expanded = build_time_expanded(net, b, 0)
        assert (expanded.arcs, expanded.moves, expanded.node_count) == ((), (), 3)

    def test_zero_supply(self):
        net = single_arc_network()
        b = SupplyVector.for_network(net, {0: F(0), 1: F(0)})
        expanded = build_time_expanded(net, b, 4)
        assert (expanded.arcs, expanded.moves, expanded.node_count) == ((), (), 3)
        assert feasible_by_expansion(net, b, F(4))


def same_max_flow(network, b, steps):
    """True when the expansion's max flow equals the full expansion's."""
    expanded = build_time_expanded(network, b, steps)
    value, _ = _max_flow_int(expanded.node_count, expanded.arcs,
                             expanded.super_source, expanded.super_sink)
    n, s, t, arcs = reference_expansion(network, b, steps)
    return F(value, expanded.scale) == reference_max_flow(
        n, [a[:3] for a in arcs], s, t)[0]


class TestFeasibilityOracle:
    def test_single_arc_boundary(self, single_arc):
        net, b = single_arc
        assert not feasible_by_expansion(net, b, F(4))
        assert feasible_by_expansion(net, b, F(5))
        assert feasible_by_expansion(net, b, F(11, 2))

    def test_instance_b_boundary(self, instance_b):
        net, b = instance_b
        assert not feasible_by_expansion(net, b, F(2))
        assert not feasible_by_expansion(net, b, F(49, 20))
        assert feasible_by_expansion(net, b, F(5, 2))

    def test_zero_supply_trivially_feasible(self):
        net = single_arc_network()
        b = SupplyVector.for_network(net, {0: F(0), 1: F(0)})
        assert feasible_by_expansion(net, b, F(0))

    def test_agrees_with_subset_oracle(self, instance_b):
        net, b = instance_b
        for num in range(0, 28):
            theta = F(num, 8)
            assert feasible_by_expansion(net, b, theta) \
                == is_feasible(net, b, theta), theta


class TestValueOracle:
    @settings(max_examples=40, deadline=None)
    @given(theta=st.fractions(min_value=0, max_value=6, max_denominator=6))
    def test_matches_profile_value(self, theta):
        net = instance_b_network()
        cache = ProfileCache(net)
        subset = TerminalSet.of_nodes(net, [0, 1])
        assert value_by_expansion(net, subset, theta) \
            == value_at(cache.profile(subset), theta)

    @settings(max_examples=40, deadline=None)
    @given(instance=instances(max_denominator=3))
    def test_matches_full_expansion_on_rational_data(self, instance):
        network, b = instance
        star = solve_newton_jumps(network, b).theta_star
        _, steps, q = scale_to_integral(network, star)
        assume((steps + 1) * network.node_count <= 1000)
        for theta in (star, star - F(1, q)):
            for bits in range(1 << network.k):
                subset = TerminalSet(bits, network.k)
                assert value_by_expansion(network, subset, theta) \
                    == reference_value(network, subset, theta), (theta, bits)

    def test_single_source_subsets(self):
        net = instance_b_network()
        cache = ProfileCache(net)
        for nodes in ([0], [1]):
            subset = TerminalSet.of_nodes(net, nodes)
            for num in range(0, 12):
                theta = F(num, 3)
                assert value_by_expansion(net, subset, theta) \
                    == value_at(cache.profile(subset), theta)

    @pytest.mark.parametrize("subset", [TerminalSet(1, 2), TerminalSet(1, 4),
                                        TerminalSet(0b1001, 4)])
    def test_subset_of_wrong_width_refused(self, subset):
        # instance B has k = 3; membership alone would read bits past the
        # width as absent and ignore bits past k
        with pytest.raises(ValueError, match="subset width %d does not match "
                           "3 terminals" % subset.width):
            value_by_expansion(instance_b_network(), subset, F(5, 2))


class TestExtraction:
    def test_single_arc_flow_frozen(self, single_arc):
        net, b = single_arc
        flow = extract_transshipment(net, b, F(5))
        assert flow.theta == 5
        assert flow.rates == (((F(0), F(1)), (F(3), F(0))),)
        assert verify_flow(net, b, flow, F(5)) == []

    def test_instance_b_flow_verifies(self, instance_b):
        net, b = instance_b
        flow = extract_transshipment(net, b, F(5, 2))
        assert verify_flow(net, b, flow, F(5, 2)) == []
        # the fast arc must run at full rate the whole horizon
        assert flow.rates[0] == ((F(0), F(2)), (F(5, 2), F(0)))

    def test_below_deadline_raises(self, single_arc):
        net, b = single_arc
        with pytest.raises(InfeasibleDeadline) as err:
            extract_transshipment(net, b, F(4))
        assert err.value.theta == 4
        assert err.value.shortfall == 1

    def test_rational_seed_18(self, corpus):
        # 6,504 node copies and many augmenting-path lengths: Dinic needed
        # 744 phases and 6 s here.
        entry = corpus[18]
        network = rational_variant(entry.network, entry.seed)
        star = solve_newton_jumps(network, entry.b).theta_star
        _, _, q = scale_to_integral(network, star)
        assert (star, node_copies(network, star)) == (F(361, 26), 6504)
        flow = extract_transshipment(network, entry.b, star)
        assert verify_flow(network, entry.b, flow, star) == []
        assert not feasible_by_expansion(network, entry.b, star - F(1, q))

    def test_long_holdover_chain(self):
        # 4 nodes, 19,311 layers, 77,248 node copies (72,898 can carry
        # flow).  With copies numbered layer by layer, excess sloshed along
        # one holdover chain for over 40 s; numbered node by node, the max
        # flow takes about 1 s.
        doc = json.loads((DATA / "long_holdover_chain.json").read_text())
        network, b = parse_instance(doc)
        star = F(6437, 1740)
        assert solve_newton_jumps(network, b).theta_star == star
        assert node_copies(network, star) == 77248
        flow = extract_transshipment(network, b, star)
        assert verify_flow(network, b, flow, star) == []

    def test_corpus_extractions_verify(self, corpus):
        done = 0
        for entry in corpus:
            star = entry.jumps.theta_star
            if star < 1 or star != int(star):
                continue
            flow = extract_transshipment(entry.network, entry.b, star)
            assert verify_flow(entry.network, entry.b, flow, star) == []
            done += 1
            if done == 25:
                break
        assert done == 25


def rational_variant(network, seed):
    """The network with each capacity and transit time divided by a seeded
    denominator in 1..3."""
    rng = random.Random(seed)
    arcs = tuple(Arc(a.tail, a.head, a.capacity / rng.randint(1, 3),
                     a.transit / rng.randint(1, 3)) for a in network.arcs)
    return FlowNetwork(network.node_count, arcs, network.sources, network.sinks)


def node_copies(network, theta):
    _, steps, _ = scale_to_integral(network, theta)
    return (steps + 1) * network.node_count


class TestAgainstReference:
    """The integer flow side gives the reference's feasibility answers,
    shortfalls and values exactly.  Max flows are not unique, so where the
    reference emits a flow, the package's own flow must verify."""

    def check(self, network, b, star):
        for theta in (star, star - F(1, 2)):
            if theta >= 0:
                got = outcome(extract_transshipment, network, b, theta)
                expected = outcome(reference_extract, network, b, theta)
                if isinstance(expected, FlowOverTime):
                    assert isinstance(got, FlowOverTime), theta
                    assert verify_flow(network, b, got, theta) == [], theta
                else:
                    assert got == expected, theta
        for bits in range(1 << network.k):
            subset = TerminalSet(bits, network.k)
            assert value_by_expansion(network, subset, star) \
                == reference_value(network, subset, star), bits

    @pytest.mark.parametrize("integral", [True, False])
    def test_corpus(self, corpus, integral):
        entries = [e for e in corpus
                   if (e.jumps.theta_star.denominator == 1) == integral
                   and e.network.k <= 4
                   and node_copies(e.network, e.jumps.theta_star) <= 400][:8]
        assert len(entries) == 8
        for entry in entries:
            self.check(entry.network, entry.b, entry.jumps.theta_star)

    def test_rational_variants(self, corpus):
        done = 0
        for entry in corpus:
            network = rational_variant(entry.network, entry.seed)
            star = solve_newton_jumps(network, entry.b).theta_star
            integral = all(a.capacity.denominator == a.transit.denominator == 1
                           for a in network.arcs)
            if integral or network.k > 4 or node_copies(network, star) > 400:
                continue
            self.check(network, entry.b, star)
            done += 1
            if done == 8:
                break
        assert done == 8



class TestVerifier:
    def test_rejects_over_capacity(self, single_arc):
        net, b = single_arc
        flow = FlowOverTime(theta=F(5),
                            rates=(((F(0), F(2)), (F(3, 2), F(0))),))
        problems = verify_flow(net, b, flow, F(5))
        assert any("capacity" in p for p in problems)

    def test_rejects_late_arrival(self, single_arc):
        net, b = single_arc
        # rate 1 on [0,4): the tail of that flow lands after the deadline
        flow = FlowOverTime(theta=F(5),
                            rates=(((F(0), F(1)), (F(4), F(0))),))
        problems = verify_flow(net, b, flow, F(5))
        assert any("cannot arrive" in p for p in problems)

    def test_rejects_imbalance(self, single_arc):
        net, b = single_arc
        flow = FlowOverTime(theta=F(5),
                            rates=(((F(0), F(1)), (F(2), F(0))),))
        problems = verify_flow(net, b, flow, F(5))
        assert any("net" in p or "supply" in p for p in problems)

    def test_rejects_negative_storage(self):
        # relay node sends before anything has arrived
        net = FlowNetwork(node_count=3,
                          arcs=(Arc(0, 1, F(1), F(2)), Arc(1, 2, F(1), F(0))),
                          sources=(0,), sinks=(2,))
        b = SupplyVector.for_network(net, {0: F(1), 2: F(-1)})
        flow = FlowOverTime(theta=F(3),
                            rates=(((F(0), F(1)), (F(1), F(0))),
                                   ((F(0), F(1)), (F(1), F(0)))))
        problems = verify_flow(net, b, flow, F(3))
        assert problems

    def test_rejects_terminal_sending_before_arrival(self):
        # Sink 1 sends on at time 0 what first reaches it at time 1; its
        # net balance and every other node's storage are right.
        net = FlowNetwork(node_count=3,
                          arcs=(Arc(0, 1, F(1), F(1)), Arc(1, 2, F(1), F(0)),
                                Arc(2, 1, F(1), F(1))),
                          sources=(0,), sinks=(1,))
        b = SupplyVector.for_network(net, {0: F(1), 1: F(-1)})
        once = ((F(0), F(1)), (F(1), F(0)))
        flow = FlowOverTime(theta=F(2), rates=(once, once, once))
        assert verify_flow(net, b, flow, F(2)) == [
            "node 1 sends flow it has not received by 1"]

    def test_rejects_unordered_pieces(self, single_arc):
        net, b = single_arc
        flow = FlowOverTime(theta=F(5),
                            rates=(((F(3), F(1)), (F(1), F(0))),))
        assert verify_flow(net, b, flow, F(5))

    def test_accepts_idle_network(self):
        net = single_arc_network()
        b = SupplyVector.for_network(net, {0: F(0), 1: F(0)})
        flow = FlowOverTime(theta=F(0), rates=((),))
        assert verify_flow(net, b, flow, F(0)) == []

    @pytest.mark.parametrize("values", [(5, 1), (5, 1, -6, 0)])
    def test_supply_vector_of_wrong_length_refused(self, instance_b, values):
        net, good = instance_b
        flow = extract_transshipment(net, good, F(5, 2))
        b = SupplyVector(tuple(map(F, values)))
        message = "supply vector has %d entries for 3 terminals" % len(values)
        for call in (extract_transshipment, feasible_by_expansion):
            with pytest.raises(ValueError, match=message):
                call(net, b, F(5, 2))
        assert verify_flow(net, b, flow, F(5, 2)) == [message]
