from fractions import Fraction as F

import pytest
from hypothesis import given
from hypothesis import strategies as st

from transship import (InfeasibleForever, TerminalSet, breakpoints,
                       compute_profile, crossing_time, slope_left, value_at)
from transship.ssp import FlowProfile, Segment
from conftest import instance_b_network, single_arc_network


@pytest.fixture(scope="module")
def b_profile():
    net = instance_b_network()
    return compute_profile(net, TerminalSet.of_nodes(net, [0, 1]))


@pytest.fixture(scope="module")
def arc_profile():
    net = single_arc_network()
    return compute_profile(net, TerminalSet.of_nodes(net, [0]))


small_rationals = st.fractions(min_value=0, max_value=20, max_denominator=12)


class TestValue:
    def test_single_arc_values(self, arc_profile):
        assert value_at(arc_profile, F(0)) == 0
        assert value_at(arc_profile, F(2)) == 0
        assert value_at(arc_profile, F(3)) == 1
        assert value_at(arc_profile, F(5)) == 3

    def test_instance_b_values(self, b_profile):
        assert value_at(b_profile, F(1)) == 2
        assert value_at(b_profile, F(2)) == 5
        assert value_at(b_profile, F(7, 3)) == 6
        assert value_at(b_profile, F(5, 2)) == F(13, 2)

    def test_negative_theta_rejected(self, arc_profile):
        with pytest.raises(ValueError):
            value_at(arc_profile, F(-1))

    @given(theta=small_rationals, bump=small_rationals)
    def test_nondecreasing(self, b_profile, theta, bump):
        assert value_at(b_profile, theta + bump) >= value_at(b_profile, theta)

    @given(theta=small_rationals, bump=small_rationals)
    def test_convexity_by_midpoint(self, b_profile, theta, bump):
        lo, hi = theta, theta + bump
        mid = (lo + hi) / 2
        assert 2 * value_at(b_profile, mid) \
            <= value_at(b_profile, lo) + value_at(b_profile, hi)


class TestSlopes:
    def test_left_and_right_at_breakpoint(self, b_profile):
        # the value function bends at 0 and 1: slope 2 between them, 3 after
        assert slope_left(b_profile, F(1, 100)) == 2
        assert slope_left(b_profile, F(1)) == 2
        assert slope_left(b_profile, F(101, 100)) == 3
        assert slope_left(b_profile, F(2)) == 3

    def test_left_slope_rejects_zero(self, b_profile):
        with pytest.raises(ValueError):
            slope_left(b_profile, F(0))

    @given(theta=st.fractions(min_value="1/10", max_value=20,
                              max_denominator=12),
           bump=st.fractions(min_value="1/12", max_value=5,
                             max_denominator=12))
    def test_left_at_most_right(self, b_profile, theta, bump):
        # convexity: the left slope is at most any right difference quotient
        right = (value_at(b_profile, theta + bump)
                 - value_at(b_profile, theta)) / bump
        assert slope_left(b_profile, theta) <= right


class TestCrossing:
    def test_single_arc(self, arc_profile):
        assert crossing_time(arc_profile, F(3)) == 5

    def test_instance_b_cases(self, b_profile):
        assert crossing_time(b_profile, F(6)) == F(7, 3)
        assert crossing_time(b_profile, F(5)) == 2
        assert crossing_time(b_profile, F(2)) == 1

    def test_nonpositive_need_is_free(self, b_profile):
        assert crossing_time(b_profile, F(0)) == 0
        assert crossing_time(b_profile, F(-4)) == 0

    def test_unreachable_need(self):
        net = single_arc_network()
        prof = compute_profile(net, TerminalSet.of_nodes(net, [1]))
        # the sink set sends nothing anywhere
        assert prof.segments == ()
        with pytest.raises(InfeasibleForever):
            crossing_time(prof, F(1), nodes=(1,))

    def test_forever_error_carries_group(self):
        net = single_arc_network()
        prof = compute_profile(net, TerminalSet.of_nodes(net, [1]))
        with pytest.raises(InfeasibleForever) as err:
            crossing_time(prof, F(2), nodes=(1,))
        assert err.value.nodes == (1,)
        assert err.value.net_supply == F(2)

    @given(need=st.fractions(min_value="1/7", max_value=30,
                             max_denominator=9))
    def test_postcondition(self, b_profile, need):
        theta = crossing_time(b_profile, need)
        assert value_at(b_profile, theta) >= need
        if theta > 0:
            shade = theta - F(1, 1000)
            assert value_at(b_profile, shade) < need


class TestBreakpoints:
    def test_values(self, b_profile, arc_profile):
        assert breakpoints(b_profile) == (F(0), F(1))
        assert breakpoints(arc_profile) == (F(2),)

    def test_deduplicated_and_sorted(self):
        prof = FlowProfile(lengths=(1, 1, 3), amount_sums=(0, 1, 3, 4),
                           moment_sums=(0, 1, 3, 6), paths=((0,), (0,), (0,)),
                           time_scale=1, rate_scale=1, m=1)
        assert prof.segments == (Segment(F(1), F(1), (1,)), Segment(F(1), F(2), (1,)),
                                 Segment(F(3), F(1), (1,)))
        assert breakpoints(prof) == (F(1), F(3))
