import json
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from transship import (MAX_NODES, InstanceFormatError, ResourceCapExceeded,
                       dump_document, generate_instance, parse_instance,
                       serialize_instance, sources_reach_sinks,
                       validate_instance)
from transship.core import MAX_ARCS, MAX_TERMINALS
from conftest import instance_b_network, instance_b_supply


def minimal_doc():
    return {
        "nodes": 3,
        "arcs": [
            {"tail": 0, "head": 2, "capacity": 2, "transit": 0},
            {"tail": 1, "head": 2, "capacity": 1, "transit": 1},
        ],
        "sources": [{"node": 0, "supply": 5}, {"node": 1, "supply": 1}],
        "sinks": [{"node": 2, "demand": -6}],
    }


class TestParsing:
    def test_minimal_document(self):
        net, b = parse_instance(minimal_doc())
        assert net.node_count == 3
        assert net.sources == (0, 1)
        assert net.sinks == (2,)
        assert b.values == (F(5), F(1), F(-6))
        assert [a.capacity for a in net.arcs] == [2, 1]

    def test_accepts_json_text(self):
        net, b = parse_instance(json.dumps(minimal_doc()))
        assert net.node_count == 3

    def test_rational_fields(self):
        doc = minimal_doc()
        doc["arcs"][0]["capacity"] = "5/2"
        doc["sources"][0]["supply"] = "11/2"
        doc["sinks"][0]["demand"] = "-13/2"
        net, b = parse_instance(doc)
        assert net.arcs[0].capacity == F(5, 2)
        assert b.values[0] == F(11, 2)

    def test_missing_field_path(self):
        doc = minimal_doc()
        del doc["arcs"][1]["transit"]
        with pytest.raises(InstanceFormatError) as err:
            parse_instance(doc)
        assert "arcs[1].transit" in str(err.value)

    def test_float_rejected_with_path(self):
        doc = minimal_doc()
        doc["arcs"][0]["capacity"] = 2.5
        with pytest.raises(InstanceFormatError) as err:
            parse_instance(doc)
        assert "arcs[0].capacity" in str(err.value)

    def test_duplicate_terminal_rejected(self):
        doc = minimal_doc()
        doc["sources"].append({"node": 0, "supply": 1})
        with pytest.raises(InstanceFormatError):
            parse_instance(doc)

    def test_positive_demand_rejected(self):
        doc = minimal_doc()
        doc["sinks"][0]["demand"] = 6
        with pytest.raises(InstanceFormatError):
            parse_instance(doc)

    def test_duplicate_key_in_json_text_rejected(self):
        text = json.dumps(minimal_doc())[:-1] + ', "sinks": []}'
        with pytest.raises(InstanceFormatError) as err:
            parse_instance(text)
        assert "'sinks'" in str(err.value)

    def test_node_count_capped(self):
        doc = {"nodes": 10 ** 9, "arcs": [], "sources": [], "sinks": []}
        with pytest.raises(ResourceCapExceeded) as err:
            parse_instance(doc)
        assert (err.value.needed, err.value.cap) == (10 ** 9, MAX_NODES)
        doc["nodes"] = MAX_NODES
        assert parse_instance(doc)[0].node_count == MAX_NODES

    def test_arc_count_capped(self):
        # refused before any arc is read, so these empty entries never are
        doc = {"nodes": 2, "arcs": [{}] * (MAX_ARCS + 1), "sources": [], "sinks": []}
        with pytest.raises(ResourceCapExceeded) as err:
            parse_instance(doc)
        assert (err.value.needed, err.value.cap, err.value.what) \
            == (MAX_ARCS + 1, MAX_ARCS, "arcs")

    def test_unknown_field_path(self):
        edits = {
            "nodez": lambda doc: doc.update(nodez=3),
            "arcs[1].capcity": lambda doc: doc["arcs"][1].update(capcity=1),
            "sources[0].demand": lambda doc: doc["sources"][0].update(demand=0),
            "sinks[0].supply": lambda doc: doc["sinks"][0].update(supply=0),
        }
        for path, edit in edits.items():
            doc = minimal_doc()
            edit(doc)
            with pytest.raises(InstanceFormatError) as err:
                parse_instance(doc)
            assert str(err.value) == "unknown field " + path

    def test_non_dict_rejected(self):
        with pytest.raises(InstanceFormatError):
            parse_instance([1, 2, 3])
        with pytest.raises(InstanceFormatError):
            parse_instance("[]")


class TestSerialization:
    def test_round_trip_byte_identical(self):
        net = instance_b_network()
        b = instance_b_supply(net)
        doc = serialize_instance(net, b)
        text = dump_document(doc)
        net2, b2 = parse_instance(json.loads(text))
        assert net2 == net
        assert b2 == b
        assert dump_document(serialize_instance(net2, b2)) == text

    def test_dump_is_stable(self):
        doc = minimal_doc()
        assert dump_document(doc) == dump_document(json.loads(dump_document(doc)))
        assert dump_document(doc).endswith("\n")


class TestGenerator:
    def test_deterministic(self):
        a = generate_instance(n=6, m=10, k=3, max_u=10, max_tau=10,
                              max_b=30, seed=42)
        b = generate_instance(n=6, m=10, k=3, max_u=10, max_tau=10,
                              max_b=30, seed=42)
        assert dump_document(a) == dump_document(b)

    def test_distinct_seeds_differ(self):
        docs = {dump_document(generate_instance(n=6, m=10, k=3, max_u=10,
                                                max_tau=10, max_b=30, seed=s))
                for s in range(8)}
        assert len(docs) > 1

    def test_generated_instances_are_valid(self):
        for seed in range(25):
            doc = generate_instance(n=7, m=14, k=4, max_u=10, max_tau=10,
                                    max_b=30, seed=seed)
            net, b = parse_instance(doc)
            assert validate_instance(net, b) == []
            assert net.node_count == 7
            assert len(net.arcs) == 14
            assert net.k == 4
            assert b.total_supply() > 0
            assert all(a.capacity >= 1 for a in net.arcs)
            assert all(0 <= a.transit <= 10 for a in net.arcs)
            assert all(abs(v) <= 30 for v in b.values)

    def test_backbone_reaches_all_sinks(self):
        for seed in range(25):
            doc = generate_instance(n=8, m=12, k=5, max_u=6, max_tau=8,
                                    max_b=12, seed=seed)
            net, _ = parse_instance(doc)
            assert sources_reach_sinks(net)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            generate_instance(n=1, m=2, k=2, max_u=5, max_tau=5, max_b=5, seed=0)
        with pytest.raises(ValueError):
            generate_instance(n=5, m=3, k=2, max_u=5, max_tau=5, max_b=5, seed=0)
        with pytest.raises(ValueError):
            generate_instance(n=5, m=8, k=1, max_u=5, max_tau=5, max_b=5, seed=0)
        with pytest.raises(ValueError):
            generate_instance(n=5, m=8, k=6, max_u=5, max_tau=5, max_b=5, seed=0)

    def test_node_count_capped(self):
        # the document parse_instance would refuse is never built
        with pytest.raises(ResourceCapExceeded) as err:
            generate_instance(n=MAX_NODES + 1, m=MAX_NODES, k=2, max_u=5,
                              max_tau=5, max_b=5, seed=0)
        assert (err.value.needed, err.value.cap) == (MAX_NODES + 1, MAX_NODES)

    def test_arc_count_capped(self):
        with pytest.raises(ResourceCapExceeded) as err:
            generate_instance(n=10, m=MAX_ARCS + 1, k=2, max_u=5, max_tau=5,
                              max_b=5, seed=0)
        assert (err.value.needed, err.value.cap, err.value.what) \
            == (MAX_ARCS + 1, MAX_ARCS, "arcs")

    def test_terminal_count_capped(self):
        # worded as validate_instance words it for a parsed instance
        message = "instance has %d terminals, over the bit-set limit of %d" \
            % (MAX_TERMINALS + 8, MAX_TERMINALS)
        with pytest.raises(ValueError, match=message):
            generate_instance(n=100, m=120, k=MAX_TERMINALS + 8, max_u=5,
                              max_tau=5, max_b=5, seed=0)

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 10 ** 6),
           n=st.integers(2, 9),
           k_off=st.integers(0, 7),
           m_off=st.integers(0, 12))
    def test_random_parameter_space(self, seed, n, k_off, m_off):
        k = min(2 + k_off, n)
        m = n - 1 + m_off
        doc = generate_instance(n=n, m=m, k=k, max_u=7, max_tau=9, max_b=20,
                                seed=seed)
        net, b = parse_instance(doc)
        assert validate_instance(net, b) == []
        assert sources_reach_sinks(net)


class TestReachability:
    def test_positive_case(self):
        net = instance_b_network()
        assert sources_reach_sinks(net)

    def test_negative_case(self):
        from transship import Arc, FlowNetwork
        net = FlowNetwork(node_count=3,
                          arcs=(Arc(0, 1, F(1), F(1)),),
                          sources=(0, 2), sinks=(1,))
        assert not sources_reach_sinks(net)

    def test_zero_capacity_does_not_count(self):
        from transship import Arc, FlowNetwork
        net = FlowNetwork(node_count=2,
                          arcs=(Arc(0, 1, F(0), F(1)),),
                          sources=(0,), sinks=(1,))
        assert not sources_reach_sinks(net)
