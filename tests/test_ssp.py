from fractions import Fraction as F

import pytest

from transship import (ProfileCache, ResourceCapExceeded, SupplyVector,
                       TerminalSet, classify_iterations, compute_profile,
                       generate_instance, minimize_slack, parse_instance,
                       solve_newton_jumps, solve_newton_simple,
                       theta_star_bruteforce)
from transship import solver, ssp
from transship.bench import corpus_instance
from transship.horizon import all_breakpoints
from conftest import instance_b_network, instance_b_supply, single_arc_network
from test_rational import reference_profile


def opened(net, nodes):
    """(edge, tail, head) of each auxiliary edge a subset's capacities open,
    checking each opens at the cache's bound."""
    cache = ProfileCache(net)
    cap = cache.capacities(TerminalSet.of_nodes(net, nodes).bits)
    edges = [e for e in range(2 * cache.m, len(cap), 2) if cap[e]]
    assert all(cap[e] == cache.bound for e in edges)
    assert cap[:2 * cache.m] == list(cache.closed[:2 * cache.m])
    return [(e, cache.to[e ^ 1], cache.to[e]) for e in edges]


class TestExtendedNetwork:
    """The network a profile search runs on: the original arcs on the
    integer grid, plus auxiliary arcs from super source ``n`` to the
    subset's sources and from the sinks outside it to super sink ``n + 1``."""

    def test_single_arc_source_set(self):
        net = single_arc_network()
        # super source feeds the one source, the one sink drains to super sink
        assert opened(net, [0]) == [(2, 2, 0), (4, 1, 3)]
        assert ProfileCache(net).bound == net.capacity_bound == 1

    def test_instance_b_both_sources(self):
        net = instance_b_network()
        # two source hookups plus one sink drain
        assert opened(net, [0, 1]) == [(4, 3, 0), (6, 3, 1), (8, 2, 4)]

    def test_subset_without_sources_gets_no_source_hookup(self):
        net = instance_b_network()
        # sink 2 is inside S, so nothing drains and nothing feeds
        assert opened(net, [2]) == []

    def test_shared_layout(self):
        net = instance_b_network()
        cache = ProfileCache(net)
        # arcs 0-1 are the base arcs, 2-3 the source hookups from super
        # source 3, 4 the sink's drain into super sink 4; arc i is edge 2i,
        # its reverse 2i + 1, and every auxiliary edge starts closed
        assert cache.to == (2, 0, 2, 1, 0, 3, 1, 3, 4, 2)
        assert cache.cost == (0, 0, 1, -1, 0, 0, 0, 0, 0, 0)
        assert cache.closed == (2, 0, 1, 0, 0, 0, 0, 0, 0, 0)
        # adj lists each node's edges as (edge, head, cost)
        assert cache.adj == (((0, 2, 0), (5, 3, 0)), ((2, 2, 1), (7, 3, 0)),
                             ((1, 0, 0), (3, 1, -1), (8, 4, 0)),
                             ((4, 0, 0), (6, 1, 0)), ((9, 2, 0),))
        # terminal i's auxiliary arc is arc m + i; bit 2, the sink, opens
        # its arc when it is outside the subset
        assert (cache.m, cache.sink_bits) == (2, 0b100)

    def test_original_arcs_preserved(self):
        net = instance_b_network()
        cache = ProfileCache(net)
        to, cost, closed = cache.to, cache.cost, cache.closed
        assert [(to[2 * i + 1], to[2 * i], F(closed[2 * i], cache.rate_scale),
                 F(cost[2 * i], cache.time_scale)) for i in range(cache.m)] \
            == [(a.tail, a.head, a.capacity, a.transit) for a in net.arcs]


class TestProfiles:
    def test_single_arc_source_profile(self):
        net = single_arc_network()
        prof = compute_profile(net, TerminalSet.of_nodes(net, [0]))
        assert [(s.length, s.amount) for s in prof.segments] == [(F(2), F(1))]

    def test_instance_b_both_sources_profile(self):
        net = instance_b_network()
        prof = compute_profile(net, TerminalSet.of_nodes(net, [0, 1]))
        assert [(s.length, s.amount) for s in prof.segments] == [
            (F(0), F(2)), (F(1), F(1))]

    def test_instance_b_single_source_profiles(self):
        net = instance_b_network()
        fast = compute_profile(net, TerminalSet.of_nodes(net, [0]))
        slow = compute_profile(net, TerminalSet.of_nodes(net, [1]))
        assert [(s.length, s.amount) for s in fast.segments] == [(F(0), F(2))]
        assert [(s.length, s.amount) for s in slow.segments] == [(F(1), F(1))]

    def test_full_set_profile_is_empty(self):
        net = instance_b_network()
        prof = compute_profile(net, TerminalSet((1 << net.k) - 1, net.k))
        assert prof.segments == ()

    def test_lengths_nondecreasing_and_amounts_positive(self, corpus):
        for entry in corpus[:60]:
            net = entry.network
            for bits in range(1 << net.k):
                prof = entry.cache.profile(bits)
                lengths = [s.length for s in prof.segments]
                assert lengths == sorted(lengths)
                assert all(s.amount > 0 for s in prof.segments)

    def test_certificates_witness_lengths(self, corpus):
        for entry in corpus[:60]:
            net = entry.network
            taus = [a.transit for a in net.arcs]
            for bits in range(1 << net.k):
                for seg in entry.cache.profile(bits).segments:
                    assert len(seg.certificate) == len(net.arcs)
                    assert set(seg.certificate) <= {-1, 0, 1}
                    total = sum(l * t for l, t in zip(seg.certificate, taus))
                    assert total == seg.length


@pytest.mark.parametrize("seed", range(12))
def test_tie_heavy_profiles_match_reference(seed):
    """Every subset's profile on an instance full of equal-length paths
    equals the rational reference, which runs each search to exhaustion on
    a layout of the base arcs and the subset's own hookups.

    Short transit times and a parallel copy of every third arc make many
    shortest paths tie, so the path each search picks, and with it the
    certificates, depends on the heap's tie-break by node id and on the
    order in which a node's edges are scanned.  Seeds 6-11 repeat seeds 0-5
    with every transit time zero: every path ties, and a sink can be
    settled behind another at the same distance, so each path, which the
    tree shares among all subsets with the same sources and the same sinks
    reached so far, must go to the open sink settled first.
    """
    zero_transit, seed = seed >= 6, seed % 6
    k = 6 + seed % 3
    doc = generate_instance(n=k + 3, m=3 * (k + 3), k=k, max_u=4,
                            max_tau=0 if zero_transit else 1 + seed % 3,
                            max_b=10, seed=seed)
    doc["arcs"] += doc["arcs"][::3]
    network, _ = parse_instance(doc)
    cache = ProfileCache(network)
    for bits in range(1 << k):
        subset = TerminalSet(bits, k)
        profile = compute_profile(network, subset, cache=cache)
        assert [(s.length, s.amount, s.certificate) for s in profile.segments] \
            == reference_profile(network, subset)


class TestProfileTree:
    """The subsets with the same sources are built as one tree: one search
    per source set and sequence of sinks its first augmentations ended at."""

    @staticmethod
    def count_searches(monkeypatch):
        searches, real = [], ssp._search

        def search(*args):
            searches.append(args)
            return real(*args)
        monkeypatch.setattr(ssp, "_search", search)
        return searches

    def test_one_search_per_tree_node(self, monkeypatch):
        net, _ = parse_instance(generate_instance(n=12, m=24, k=8, max_u=10, max_tau=10,
                                                  max_b=30, seed=1))
        searches = self.count_searches(monkeypatch)
        cache = ProfileCache(net)
        profiles = {bits: cache.profile(bits) for bits in cache.subsets()}

        def end(e):
            arc = net.arcs[e >> 1]
            return arc.tail if e & 1 else arc.head
        nodes, leaves = set(), {}
        for bits, profile in profiles.items():
            branch = (bits & ~cache.sink_bits, tuple(end(path[-1]) for path in profile.paths))
            assert all(v in net.sinks for v in branch[1])
            nodes.update((branch[0], branch[1][:j]) for j in range(len(branch[1]) + 1))
            leaves.setdefault(branch, set()).add(id(profile))
        # one first search per source set and one search per segment would
        # make 32 + 533 = 565
        assert len(searches) == len(nodes) == 399
        # subsets that end at the same node share one profile
        assert all(len(ids) == 1 for ids in leaves.values())

    def test_over_the_cap_one_branch(self, monkeypatch):
        # k = 40 with 30 sinks: the whole tree of a source set would hold
        # 2^30 subsets, so over the cap a profile walks its own branch only
        net, _ = parse_instance(generate_instance(n=44, m=90, k=40, max_u=5, max_tau=5,
                                                  max_b=10, seed=3))
        searches = self.count_searches(monkeypatch)
        cache = ProfileCache(net)
        for bits in (0b1011 | 0b101 << 20, (1 << 20) - 1, 0x5A5A5A5A5A):
            subset = TerminalSet(bits, net.k)
            searches.clear()
            profile = cache.profile(subset)
            assert len(searches) == len(profile.lengths) + 1
            assert [(s.length, s.amount, s.certificate) for s in profile.segments] \
                == reference_profile(net, subset)


class TestLazySegments:
    """A profile's rational ``Segment``s are built only when something reads
    them; on the solve path that is ``value_at``'s re-check of each envelope
    minimizer, while crossings, slopes and the envelope read grid ints."""

    @staticmethod
    def instance():
        # k = 8; its 256 subset profiles hold 533 segments
        return parse_instance(generate_instance(n=12, m=24, k=8, max_u=10, max_tau=10,
                                                max_b=30, seed=1))

    @staticmethod
    def count_segments(monkeypatch):
        built, real = [], ssp.Segment

        def segment(*args):
            built.append(args)
            return real(*args)
        monkeypatch.setattr(ssp, "Segment", segment)
        return built

    def test_solve_builds_only_what_it_reads(self, monkeypatch):
        net, b = self.instance()
        minimizers, envelope = set(), solver.minimize_slack

        def recorded(*args, **kwargs):
            minimum = envelope(*args, **kwargs)
            minimizers.add(minimum.subset.bits)
            return minimum
        monkeypatch.setattr(solver, "minimize_slack", recorded)
        built = self.count_segments(monkeypatch)
        cache = ProfileCache(net)
        result = solve_newton_jumps(net, b, cache=cache)
        count = len(built)
        read = minimizers | {record.subset.bits for record in result.trace}
        bound = sum(len(cache.profile(bits).lengths) for bits in read)
        total = sum(len(cache.profile(bits).lengths) for bits in cache.subsets())
        assert 0 < count <= bound and 20 * bound < total

    def test_bruteforce_builds_none(self, monkeypatch):
        net, b = self.instance()
        built = self.count_segments(monkeypatch)
        star = theta_star_bruteforce(net, b, cache=ProfileCache(net))
        assert built == []
        assert star == solve_newton_jumps(net, b).theta_star


class TestProfileCache:
    def test_memoizes(self):
        net = instance_b_network()
        cache = ProfileCache(net)
        s = TerminalSet.of_nodes(net, [0, 1])
        first = cache.profile(s)
        assert cache.profile(s) is first
        assert cache.profile(s.bits) is first
        assert len(cache) == 1

    def test_subset_width_checked(self):
        # instance B has k = 3; a width-2 set must not alias bits 0b01
        net = instance_b_network()
        cache = ProfileCache(net)
        cache.profile(0b01)
        for call in (lambda: cache.profile(TerminalSet(1, 2)),
                     lambda: compute_profile(net, TerminalSet(1, 2))):
            with pytest.raises(ValueError, match="width 2 does not match 3 terminals"):
                call()

    def test_deterministic_across_caches(self):
        net = instance_b_network()
        a = ProfileCache(net)
        b = ProfileCache(net)
        for bits in range(1 << net.k):
            pa, pb = a.profile(bits), b.profile(bits)
            assert [(s.length, s.amount, s.certificate) for s in pa.segments] \
                == [(s.length, s.amount, s.certificate) for s in pb.segments]

    def test_subset_cap_refuses_every_enumeration(self):
        # instance B has k = 3 terminals, over a cap of 2
        net = instance_b_network()
        b = instance_b_supply(net)
        result = solve_newton_jumps(net, b)
        cache = ProfileCache(net, subset_cap=2)
        for enumerate_all in (
                lambda: minimize_slack(net, b, F(1), cache=cache),
                lambda: theta_star_bruteforce(net, b, cache=cache),
                lambda: classify_iterations(result, net, cache=cache),
                lambda: all_breakpoints(cache)):
            with pytest.raises(ResourceCapExceeded) as err:
                enumerate_all()
            assert (err.value.needed, err.value.cap) == (3, 2)
        # single profiles stay uncapped
        assert cache.profile(0b011).segments == ProfileCache(net).profile(0b011).segments

    @pytest.mark.parametrize("values", [(5, 1), (5, 1, -6, 0)])
    def test_supply_vector_of_wrong_length_refused(self, values):
        net, b = instance_b_network(), SupplyVector(tuple(map(F, values)))
        message = "supply vector has %d entries for 3 terminals" % len(values)
        for call in (lambda: minimize_slack(net, b, F(1)),
                     lambda: solve_newton_jumps(net, b)):
            with pytest.raises(ValueError, match=message):
                call()

    @pytest.mark.parametrize("other_seed", [3, 1])
    def test_cache_of_another_network_refused(self, other_seed):
        # corpus seeds 0 and 3 both have k = 2; seed 1 has k = 4
        net, b = corpus_instance(0)
        other = ProfileCache(corpus_instance(other_seed)[0])
        result = solve_newton_jumps(net, b)
        for call in (lambda: minimize_slack(net, b, F(1), cache=other),
                     lambda: solve_newton_simple(net, b, cache=other),
                     lambda: solve_newton_jumps(net, b, cache=other),
                     lambda: theta_star_bruteforce(net, b, cache=other),
                     lambda: classify_iterations(result, net, cache=other),
                     lambda: compute_profile(net, TerminalSet(1, net.k),
                                             cache=other)):
            with pytest.raises(ValueError, match="another network"):
                call()
        # an equal network built separately shares the cache
        twin = ProfileCache(corpus_instance(0)[0])
        assert solve_newton_jumps(net, b, cache=twin).theta_star == F(69, 2)
