from fractions import Fraction as F
from unittest import mock

import pytest
from hypothesis import given, settings

from transship import (ProfileCache, ResourceCapExceeded, SupplyVector, TerminalSet,
                       generate_instance, is_feasible, min_slack, minimize_slack,
                       net_supply, parse_instance, solve_newton_jumps, solver, ssp,
                       theta_star_bruteforce, value_at)
from transship.horizon import all_breakpoints
from test_rational import instances, scan_every_subset


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

    def test_shared_cache_reused(self, instance_b, monkeypatch):
        # the first envelope builds one tree bounded by b per root-side set,
        # the sink sets of the reversed layout, and no full tree; one at
        # another deadline runs no search
        net, b = instance_b
        cache = ProfileCache(net)
        minimize_slack(net, b, F(2), cache=cache)
        roots = 1 << bin(~cache.tree_bits & (1 << net.k) - 1).count("1")
        assert cache.reversed and len(cache) == roots == 2
        searches, real = [], ssp._search
        monkeypatch.setattr(ssp, "_search", lambda *args: searches.append(args) or real(*args))
        minimize_slack(net, b, F(3), cache=cache)
        assert searches == [] and len(cache) == roots


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


def check_group_envelope(network, b, reference=None):
    """Groups from trees bounded by ``b`` (a fresh cache, which a solve
    fills) and from full trees (a cache whose trees were built first, which
    ``groups`` reuses) agree with the per-subset scan, value and minimal
    minimizer, at every deadline the jumps solver visits, at every
    breakpoint and at theta* + 1, and give the same brute-force theta*.
    ``reference`` is the cache the scan looks its profiles up in, a fresh
    one by default."""
    bounded, visited, envelope = ProfileCache(network), [], solver.minimize_slack

    def recorded(network, b, theta, **kwargs):
        visited.append(theta)
        return envelope(network, b, theta, **kwargs)
    with mock.patch.object(solver, "minimize_slack", recorded):
        star = solve_newton_jumps(network, b, cache=bounded).theta_star
    full = ProfileCache(network)
    bends = all_breakpoints(full)
    reference = reference or ProfileCache(network)
    profiles = [reference.profile(bits) for bits in range(1 << network.k)]
    for cache in (bounded, full):
        assert theta_star_bruteforce(network, b, cache=cache) == star
    for theta in sorted(set(visited) | bends | {star + 1}):
        expected = scan_every_subset(network, b, theta, profiles)
        for cache in (bounded, full):
            found = minimize_slack(network, b, theta, cache=cache)
            assert (found.value, found.subset.bits) == expected
    # one tree per root-side set in each: bounded trees only, full ones only
    assert len(bounded) == len(full)


def wide_instance(seed):
    # k = 8: seed 1 has 5 sources and 3 sinks, so it is laid out reversed;
    # seed 2 has 3 sources and 5 sinks
    return parse_instance(generate_instance(n=12, m=24, k=8, max_u=10, max_tau=10,
                                            max_b=30, seed=seed))


def zero_supplies(network, b):
    """``b`` with the first source's supply moved onto the last source and
    the first sink's demand onto the last sink."""
    values, ns = list(b.values), len(network.sources)
    values[ns - 1] += values[0]
    values[-1] += values[ns]
    values[0] = values[ns] = F(0)
    return SupplyVector(tuple(values))


class TestGroupEnvelope:
    """``minimize_slack`` scans one group per tree leaf, on trees bounded by
    the supply vector or on full ones; it must agree with a scan of every
    subset."""

    def test_corpus_slice(self, corpus):
        for entry in corpus[:60]:
            check_group_envelope(entry.network, entry.b, entry.cache)

    @settings(max_examples=40, deadline=None)
    @given(instance=instances())
    def test_rational_instances(self, instance):
        check_group_envelope(*instance)

    @pytest.mark.parametrize("seed", [1, 2])
    def test_both_layouts(self, seed):
        net, b = wide_instance(seed)
        assert ProfileCache(net).reversed == (seed == 1)
        check_group_envelope(net, b)

    @pytest.mark.parametrize("seed", [1, 2])
    def test_zero_supply_terminals(self, seed):
        # a free terminal of zero supply stays out of its group's subset,
        # as the AND of the subsets attaining the minimum leaves it out
        net, b = wide_instance(seed)
        b = zero_supplies(net, b)
        assert b.values.count(0) >= 2 and sum(b.values) == 0
        check_group_envelope(net, b)

    @pytest.mark.parametrize("seed", [1, 2])
    def test_profiles_walked_one_at_a_time(self, seed):
        # under the cap each profile is walked alone, fixing every
        # tree-side terminal open or closed from the start
        net, b = wide_instance(seed)
        check_group_envelope(net, zero_supplies(net, b),
                             ProfileCache(net, subset_cap=net.k - 1))
