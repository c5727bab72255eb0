from fractions import Fraction as F

import pytest
from hypothesis import given
from hypothesis import strategies as st

from transship import (Arc, FlowNetwork, ProfileCache, ResourceCapExceeded,
                       SupplyVector, TerminalSet, build_time_expanded,
                       format_rational, net_supply, parse_rational,
                       scale_to_integral, validate_instance)
from transship.core import MAX_SCALE_BITS
from conftest import instance_b_network, single_arc_network


class TestRationals:
    def test_parse_integer(self):
        assert parse_rational(7) == F(7)
        assert parse_rational("-3") == F(-3)

    def test_parse_fraction_string(self):
        assert parse_rational("5/2") == F(5, 2)
        assert parse_rational("-22/9") == F(-22, 9)

    def test_parse_rejects_float_and_bool(self):
        with pytest.raises(ValueError):
            parse_rational(2.5)
        with pytest.raises(ValueError):
            parse_rational(True)
        with pytest.raises(ValueError):
            parse_rational("1.5")

    def test_format(self):
        # integral values stay bare ints so JSON documents read naturally
        assert format_rational(F(5)) == 5
        assert isinstance(format_rational(F(5)), int)
        assert format_rational(F(5, 2)) == "5/2"
        assert format_rational(F(-6, 3)) == -2

    @given(st.fractions())
    def test_round_trip(self, q):
        assert parse_rational(format_rational(q)) == q


class TestTerminalSet:
    def test_of_nodes_and_members(self):
        net = instance_b_network()
        s = TerminalSet.of_nodes(net, [0, 2])
        assert list(s.members()) == [0, 2]
        assert list(s.nodes(net)) == [0, 2]
        assert 0 in s and 1 not in s and 2 in s
        assert len(s) == 2

    def test_full_and_empty(self):
        assert list(TerminalSet(0b111, 3).members()) == [0, 1, 2]
        assert len(TerminalSet(0, 3)) == 0

    def test_label(self):
        net = instance_b_network()
        assert TerminalSet.of_nodes(net, [0, 1]).label(net) == "{0,1}"
        assert TerminalSet(0, net.k).label(net) == "{}"

    def test_rejects_non_terminal_node(self):
        net = instance_b_network()
        with pytest.raises(ValueError):
            TerminalSet.of_nodes(net, [0, 1, 2, 3])


class TestSupplyVector:
    def test_for_network_alignment(self):
        net = instance_b_network()
        b = SupplyVector.for_network(net, {0: F(5), 1: F(1), 2: F(-6)})
        assert b.values == (F(5), F(1), F(-6))
        assert b.total_supply() == F(6)

    def test_net_supply_over_subsets(self):
        net = instance_b_network()
        b = SupplyVector.for_network(net, {0: F(5), 1: F(1), 2: F(-6)})
        assert net_supply(b, TerminalSet.of_nodes(net, [0, 1])) == F(6)
        assert net_supply(b, TerminalSet.of_nodes(net, [0, 2])) == F(-1)
        assert net_supply(b, TerminalSet((1 << net.k) - 1, net.k)) == 0
        assert net_supply(b, TerminalSet(0, net.k)) == 0


class TestNetworkValidation:
    def test_clean_instance(self, instance_b):
        net, b = instance_b
        assert validate_instance(net, b) == []

    def test_unbalanced_supplies(self):
        net = single_arc_network()
        b = SupplyVector.for_network(net, {0: F(3), 1: F(-2)})
        problems = validate_instance(net, b)
        assert any("supplies do not sum to zero (total 1)" in p for p in problems)

    def test_overlapping_terminals(self):
        net = FlowNetwork(node_count=2, arcs=(Arc(0, 1, F(1), F(1)),),
                          sources=(0,), sinks=(0,))
        problems = validate_instance(net)
        assert any("both source and sink" in p for p in problems)

    def test_negative_capacity_and_transit(self):
        net = FlowNetwork(node_count=2, arcs=(Arc(0, 1, F(-1), F(-2)),),
                          sources=(0,), sinks=(1,))
        problems = validate_instance(net)
        assert len(problems) >= 2

    def test_arc_endpoint_out_of_range(self):
        net = FlowNetwork(node_count=2, arcs=(Arc(0, 5, F(1), F(1)),),
                          sources=(0,), sinks=(1,))
        assert validate_instance(net)

    def test_sign_of_supplies(self):
        net = single_arc_network()
        b = SupplyVector.for_network(net, {0: F(-3), 1: F(3)})
        assert validate_instance(net, b)


class TestNetworkDerived:
    def test_terminals_order_sources_first(self):
        net = instance_b_network()
        assert net.terminals == (0, 1, 2)
        assert net.k == 3
        assert net.terminal_index == {0: 0, 1: 1, 2: 2}

    def test_capacity_bound(self):
        net = instance_b_network()
        assert net.capacity_bound == F(3)


def one_arc(capacity=F(1), transit=F(1), supply=F(1)):
    net = FlowNetwork(node_count=2, arcs=(Arc(0, 1, capacity, transit),),
                      sources=(0,), sinks=(1,))
    return net, SupplyVector((supply, -supply))


def primes(count):
    found, p = [], 3
    while len(found) < count:
        if all(p % q for q in found if q * q <= p):
            found.append(p)
        p += 2
    return found


class TestScaleCap:
    """Every lcm that scales an instance onto integers stops at
    MAX_SCALE_BITS bits, before the ints that carry it grow without bound."""

    over = F(1, 2 ** MAX_SCALE_BITS)        # a denominator one bit over the cap

    def refused(self, call):
        with pytest.raises(ResourceCapExceeded) as err:
            call()
        assert (err.value.needed, err.value.cap, err.value.what) \
            == (MAX_SCALE_BITS + 1, MAX_SCALE_BITS, "scale bits")
        assert str(err.value) == "%d scale bits exceed the cap at %d" % (
            MAX_SCALE_BITS + 1, MAX_SCALE_BITS)

    def test_each_scale_refused(self):
        net, b = one_arc(supply=self.over)
        for call in (lambda: ProfileCache(one_arc(capacity=self.over)[0]),
                     lambda: ProfileCache(one_arc(transit=self.over)[0]),
                     lambda: ProfileCache(net).groups(b),
                     lambda: scale_to_integral(one_arc(transit=self.over)[0], F(1)),
                     lambda: scale_to_integral(one_arc()[0], self.over),
                     lambda: build_time_expanded(*one_arc(capacity=self.over), 3),
                     lambda: build_time_expanded(net, b, 3)):
            self.refused(call)

    def test_at_the_cap_accepted(self):
        at = F(1, 2 ** (MAX_SCALE_BITS - 1))
        cache = ProfileCache(one_arc(capacity=at, transit=at)[0])
        assert cache.time_scale == cache.rate_scale == 2 ** (MAX_SCALE_BITS - 1)

    def test_many_distinct_denominators_refused(self):
        # 600 parallel arcs with distinct odd prime denominators: their lcm
        # passes the cap part way through, so the refusal comes at once
        arcs = tuple(Arc(0, 1, F(1, p), F(1, p)) for p in primes(600))
        net = FlowNetwork(node_count=2, arcs=arcs, sources=(0,), sinks=(1,))
        with pytest.raises(ResourceCapExceeded) as err:
            ProfileCache(net)
        assert err.value.what == "scale bits"
        assert MAX_SCALE_BITS < err.value.needed <= MAX_SCALE_BITS + 13
