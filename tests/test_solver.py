from dataclasses import replace
from fractions import Fraction as F

import pytest

from transship import (InfeasibleForever, ProfileCache, ResourceCapExceeded,
                       SupplyVector, TerminalSet, classify_iterations,
                       halving_violations, jump_set, solve_newton_jumps,
                       solve_newton_simple, theta_star_bruteforce)
from transship import solver
from conftest import (instance_b_network, instance_b_supply,
                      single_arc_network, single_arc_supply)


class TestJumpSet:
    def test_small_k(self):
        assert jump_set(2) == (1,)
        assert jump_set(3) == (1, 2, 4)
        assert jump_set(4) == (1, 2, 4)
        assert jump_set(10) == (1, 2, 4, 8, 16, 32)

    def test_doubling_structure(self):
        for k in range(2, 40):
            js = jump_set(k)
            assert js[0] == 1
            assert all(b == 2 * a for a, b in zip(js, js[1:]))
            # largest multiplier reaches at least k^2/4
            assert 4 * js[-1] >= k * k
            assert js[-1] == 1 or 4 * js[-1] < 2 * k * k

    def test_rejects_degenerate_k(self):
        with pytest.raises(ValueError):
            jump_set(1)


class TestWorkedInstances:
    def test_single_arc_both_algorithms(self, single_arc):
        net, b = single_arc
        simple = solve_newton_simple(net, b)
        jumps = solve_newton_jumps(net, b)
        assert simple.theta_star == 5
        assert jumps.theta_star == 5
        assert len(simple.trace) == 1
        assert len(jumps.trace) == 1
        assert simple.algorithm == "simple"
        assert jumps.algorithm == "jumps"

    def test_instance_b_jumps_trace_frozen(self, instance_b):
        net, b = instance_b
        result = solve_newton_jumps(net, b)
        assert result.theta_star == F(5, 2)
        assert len(result.trace) == 2

        first, second = result.trace
        assert first.theta == 0
        assert list(first.subset.nodes(net)) == [0, 1]
        assert first.slack == -6
        assert first.theta_prime == F(7, 3)
        assert first.jump == 1
        assert first.theta_next == F(22, 9)

        assert second.theta == F(22, 9)
        assert list(second.subset.nodes(net)) == [0]
        assert second.slack == F(-1, 9)
        assert second.theta_prime == F(5, 2)
        assert second.jump == 0
        assert second.theta_next == F(5, 2)

    def test_instance_b_simple(self, instance_b):
        net, b = instance_b
        result = solve_newton_simple(net, b)
        assert result.theta_star == F(5, 2)
        assert all(rec.jump == 0 for rec in result.trace)
        assert all(rec.theta_next == rec.theta_prime for rec in result.trace)

    def test_instance_b_alternate_supplies(self):
        net = instance_b_network()
        b = instance_b_supply(net, b0=4, b1=2)
        assert solve_newton_simple(net, b).theta_star == 3
        assert solve_newton_jumps(net, b).theta_star == 3

    def test_zero_supply_answers_zero(self):
        net = single_arc_network()
        b = SupplyVector.for_network(net, {0: F(0), 1: F(0)})
        assert solve_newton_jumps(net, b).theta_star == 0
        assert solve_newton_jumps(net, b).trace == ()


class TestBruteForceOracle:
    def test_worked_values(self, single_arc, instance_b):
        net, b = single_arc
        assert theta_star_bruteforce(net, b) == 5
        net, b = instance_b
        assert theta_star_bruteforce(net, b) == F(5, 2)

    def test_alternate_supplies(self):
        net = instance_b_network()
        assert theta_star_bruteforce(net, instance_b_supply(net, 4, 2)) == 3

    def test_agrees_on_corpus_slice(self, corpus):
        for entry in corpus[:120]:
            assert entry.simple.theta_star == entry.bruteforce
            assert entry.jumps.theta_star == entry.bruteforce


class TestInfeasibility:
    def test_isolated_source(self):
        net = single_arc_network()
        # add a second source with no outgoing capacity
        from transship import Arc, FlowNetwork
        net = FlowNetwork(node_count=3, arcs=net.arcs,
                          sources=(0, 2), sinks=(1,))
        b = SupplyVector.for_network(net, {0: F(1), 2: F(1), 1: F(-2)})
        for solve in (solve_newton_simple, solve_newton_jumps,
                      theta_star_bruteforce):
            with pytest.raises(InfeasibleForever):
                solve(net, b)

    def test_error_names_stranded_group(self):
        from transship import Arc, FlowNetwork
        net = FlowNetwork(node_count=3,
                          arcs=(Arc(0, 1, F(1), F(2)),),
                          sources=(0, 2), sinks=(1,))
        b = SupplyVector.for_network(net, {0: F(1), 2: F(1), 1: F(-2)})
        with pytest.raises(InfeasibleForever) as err:
            solve_newton_jumps(net, b)
        assert 2 in err.value.nodes
        assert err.value.net_supply > 0

    @pytest.mark.parametrize("sources, sinks, arcs, values, named", [
        # group {0, 1, 2, 3} is stranded too, but {2} comes first in bit order
        ((0, 1, 2), (3, 4), ((0, 3), (1, 3)), (1, 1, 2, -2, -2), (2,)),
        # reversed layout; {0, 1, 3, 4} is stranded too
        ((0, 1), (2, 3, 4), ((0, 3), (0, 4)), (2, 2, -1, -1, -2), (1,)),
    ])
    def test_oracle_names_least_stranded_group(self, sources, sinks, arcs, values, named):
        from transship import Arc, FlowNetwork
        net = FlowNetwork(node_count=5, arcs=tuple(Arc(u, v, F(1), F(1)) for u, v in arcs),
                          sources=sources, sinks=sinks)
        with pytest.raises(InfeasibleForever) as err:
            theta_star_bruteforce(net, SupplyVector(tuple(map(F, values))))
        assert (err.value.nodes, err.value.net_supply) == (named, 2)


class TestTraceInvariants:
    def test_corpus_slice(self, corpus):
        for entry in corpus[:120]:
            for result in (entry.simple, entry.jumps):
                thetas = [rec.theta for rec in result.trace]
                assert thetas == sorted(thetas)
                assert len(set(thetas)) == len(thetas)
                subsets = [rec.subset.bits for rec in result.trace]
                assert len(set(subsets)) == len(subsets)
                for rec in result.trace:
                    assert rec.slack < 0
                    assert rec.theta <= rec.theta_prime <= rec.theta_next
                if result.trace:
                    assert result.trace[-1].theta_next == result.theta_star


class TestClassification:
    def test_single_arc_is_i2(self, single_arc):
        net, b = single_arc
        result = solve_newton_jumps(net, b)
        # the only breakpoint (2) falls inside the only step [0, 5]
        assert classify_iterations(result, net) == ("I2",)

    def test_instance_b_labels(self, instance_b):
        net, b = instance_b
        result = solve_newton_jumps(net, b)
        labels = classify_iterations(result, net)
        # iteration 0 spans the breakpoints {0, 1}; iteration 1 runs
        # [22/9, 5/2] which contains none, and its kept jump j=1 is not
        # the largest multiplier (4 for k=3)
        assert labels == ("I2", "I3")

    def test_empty_trace(self):
        net = single_arc_network()
        b = SupplyVector.for_network(net, {0: F(0), 1: F(0)})
        result = solve_newton_jumps(net, b)
        assert classify_iterations(result, net) == ()

    def test_largest_multiplier_is_i1(self, corpus):
        for entry in corpus[:120]:
            top = jump_set(entry.network.k)[-1]
            labels = classify_iterations(entry.jumps, entry.network,
                                         cache=entry.cache)
            for rec, label in zip(entry.jumps.trace, labels):
                assert (rec.jump == top) == (label == "I1")

    def test_cap_guard(self, instance_b):
        net, b = instance_b
        result = solve_newton_jumps(net, b)
        with pytest.raises(ResourceCapExceeded):
            classify_iterations(result, net,
                                cache=ProfileCache(net, subset_cap=2))


class TestHalving:
    def test_clean_on_worked_instances(self, single_arc, instance_b):
        net, b = single_arc
        assert halving_violations(solve_newton_jumps(net, b)) == []
        net, b = instance_b
        assert halving_violations(solve_newton_jumps(net, b)) == []

    def test_corrupted_trace_reports(self, instance_b):
        net, b = instance_b
        result = solve_newton_jumps(net, b)
        # shrink the first advance to almost nothing
        bad_first = replace(result.trace[0], theta_next=F(1, 100),
                            theta_prime=F(1, 200), jump=1)
        bad = replace(result, trace=(bad_first,) + result.trace[1:])
        problems = halving_violations(bad)
        assert len(problems) == 2
        assert "iteration 0" in problems[0]

    def test_final_iteration_exempt(self, instance_b):
        net, b = instance_b
        result = solve_newton_jumps(net, b)
        # corrupting only the last record must not trip the check
        bad_last = replace(result.trace[-1],
                           theta_next=result.trace[-1].theta)
        bad = replace(result, trace=result.trace[:-1] + (bad_last,))
        assert halving_violations(bad) == []


def linear_probe(still_violated, multipliers) -> int:
    """Reference scan: walk the multipliers up while the probe stays negative."""
    best = 0
    for j in multipliers:
        if not still_violated(j):
            break
        best = j
    return best


class TestProbeSearch:
    def test_binary_and_linear_agree(self):
        # the envelope is nondecreasing, so the violated multipliers are a
        # prefix of the list; try every prefix length
        for k in range(2, 12):
            multipliers = jump_set(k)
            for size in range(len(multipliers) + 1):
                violated = set(multipliers[:size])
                found = solver._largest_negative_probe(violated.__contains__,
                                                       multipliers)
                assert found == linear_probe(violated.__contains__, multipliers) \
                    == (multipliers[size - 1] if size else 0)

    def test_linear_scan_gives_same_traces(self, corpus, monkeypatch):
        monkeypatch.setattr(solver, "_largest_negative_probe", linear_probe)
        for entry in corpus[:60]:
            linear = solve_newton_jumps(entry.network, entry.b,
                                        cache=entry.cache)
            assert linear.theta_star == entry.jumps.theta_star
            assert linear.trace == entry.jumps.trace

    def test_unknown_scan_rejected(self, instance_b):
        # binary search is the only scan; the solvers take no scan option
        net, b = instance_b
        for solve in (solve_newton_jumps, solve_newton_simple):
            with pytest.raises(TypeError):
                solve(net, b, probe_scan="linear")
