from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from transship import (Arc, ExpansionCapExceeded, FlowNetwork, FlowOverTime,
                       InfeasibleDeadline, ProfileCache, SupplyVector,
                       TerminalSet, build_time_expanded, extract_transshipment,
                       feasible_by_expansion, is_feasible, scale_to_integral,
                       value_at, value_by_expansion, verify_flow)
from conftest import (instance_b_network, instance_b_supply,
                      single_arc_network, single_arc_supply)


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


def moves(xnet):
    """Copies of original arcs in a time expansion."""
    return [a for a in xnet.arcs if a.kind == "move"]


class TestLayering:
    def test_movement_copy_count(self):
        # transit 2 inside 5 unit steps: departures at 0, 1 and 2 only
        net = single_arc_network()
        b = single_arc_supply(net)
        expanded = build_time_expanded(net, b, 5)
        assert len(moves(expanded)) == 3

    def test_zero_transit_gets_one_copy_per_step(self):
        net = FlowNetwork(node_count=2, arcs=(Arc(0, 1, F(1), F(0)),),
                          sources=(0,), sinks=(1,))
        b = SupplyVector.for_network(net, {0: F(2), 1: F(-2)})
        expanded = build_time_expanded(net, b, 4)
        assert len(moves(expanded)) == 4

    def test_too_long_transit_gets_none(self):
        net = single_arc_network()
        b = single_arc_supply(net)
        expanded = build_time_expanded(net, b, 2)
        assert moves(expanded) == []

    def test_holdover_and_wiring_caps(self):
        net = single_arc_network()
        b = single_arc_supply(net)  # total supply 3
        expanded = build_time_expanded(net, b, 5)
        holds = [a for a in expanded.arcs if a.kind == "hold"]
        assert holds and all(a.capacity == 3 for a in holds)
        supply = [a for a in expanded.arcs if a.kind == "supply"]
        assert [(a.tail, a.capacity) for a in supply] == [
            (expanded.super_source, F(3))]
        demand = [a for a in expanded.arcs if a.kind == "demand"]
        assert [a.capacity for a in demand] == [F(3)]

    def test_node_cap_enforced(self):
        net = single_arc_network()
        b = single_arc_supply(net)
        with pytest.raises(ExpansionCapExceeded):
            build_time_expanded(net, b, 10 ** 7)


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

    def test_single_source_subsets(self):
        net = instance_b_network()
        cache = ProfileCache(net)
        for nodes in ([0], [1]):
            subset = TerminalSet.of_nodes(net, nodes)
            for num in range(0, 12):
                theta = F(num, 3)
                assert value_by_expansion(net, subset, theta) \
                    == value_at(cache.profile(subset), theta)


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
