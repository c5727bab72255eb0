from fractions import Fraction as F

import pytest

from transship import (ProfileCache, ResourceCapExceeded, TerminalSet,
                       is_feasible, min_slack, minimize_slack)


class TestBruteForceMinimizer:
    def test_instance_b_at_two(self, instance_b):
        net, b = instance_b
        result = minimize_slack(net, b, F(2))
        assert result.value == -1
        assert list(result.subset.nodes(net)) == [0]

    def test_instance_b_at_answer(self, instance_b):
        net, b = instance_b
        # the empty set always has slack 0, so 0 is the feasible ceiling
        assert min_slack(net, b, F(5, 2)) == 0
        assert min_slack(net, b, F(3)) == 0
        assert min_slack(net, b, F(12, 5)) < 0

    def test_single_arc_sweep(self, single_arc):
        net, b = single_arc
        assert min_slack(net, b, F(0)) == -3
        assert min_slack(net, b, F(4)) == -1
        assert min_slack(net, b, F(5)) == 0
        assert min_slack(net, b, F(6)) == 0

    def test_minimal_minimizer_among_ties(self, instance_b):
        # at theta=2 both {0} and {0,1} sit at slack -1; the report must be
        # their intersection {0}, which itself attains the minimum
        net, b = instance_b
        from transship import net_supply, value_at
        cache = ProfileCache(net)
        argmins = []
        for bits in range(1 << net.k):
            s = TerminalSet(bits, net.k)
            v = value_at(cache.profile(s), F(2)) - net_supply(b, s)
            if v == -1:
                argmins.append(bits)
        assert TerminalSet.of_nodes(net, [0]).bits in argmins
        assert TerminalSet.of_nodes(net, [0, 1]).bits in argmins
        result = minimize_slack(net, b, F(2), cache=cache)
        assert result.value == -1
        assert list(result.subset.nodes(net)) == [0]
        for bits in argmins:
            assert result.subset.bits & bits == result.subset.bits

    def test_empty_set_reported_when_feasible(self, instance_b):
        # every slack is >= 0 at a feasible deadline and the empty set
        # attains 0, so the minimal minimizer is {}
        net, b = instance_b
        result = minimize_slack(net, b, F(4))
        assert result.value == 0
        assert len(result.subset) == 0

    def test_feasibility_wrapper(self, instance_b):
        net, b = instance_b
        assert is_feasible(net, b, F(5, 2))
        assert not is_feasible(net, b, F(2))

    def test_shared_cache_reused(self, instance_b):
        net, b = instance_b
        cache = ProfileCache(net)
        minimize_slack(net, b, F(2), cache=cache)
        assert len(cache) == 1 << net.k
        minimize_slack(net, b, F(3), cache=cache)
        assert len(cache) == 1 << net.k


class TestCapAndStrategy:
    def test_cap_exceeded(self, instance_b):
        net, b = instance_b
        with pytest.raises(ResourceCapExceeded):
            minimize_slack(net, b, F(1), cache=ProfileCache(net, subset_cap=2))

    def test_cap_error_reports_sizes(self, instance_b):
        net, b = instance_b
        with pytest.raises(ResourceCapExceeded) as err:
            minimize_slack(net, b, F(1), cache=ProfileCache(net, subset_cap=2))
        assert (err.value.needed, err.value.what) == (3, "terminals")
        assert err.value.cap == 2
