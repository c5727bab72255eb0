"""Checks of the benchmark itself, on small pools.

Run from the repository root:

    python3 -m pytest perfbench

Only work counters and answers are compared between runs, never times.
"""

from __future__ import annotations

import dataclasses
import functools
import json

import pytest

import run
import workloads
from tracer import DETERMINISTIC

SMALL = {"corpus": 12, "rational": 12, "wide-k": 2, "extract": 6}


@pytest.fixture
def small_pools(monkeypatch):
    for name, size in SMALL.items():
        workload = workloads.WORKLOADS[name]
        monkeypatch.setitem(workloads.WORKLOADS, name, dataclasses.replace(
            workload, plan=functools.partial(workload.plan, size=size)))


@pytest.mark.parametrize("name", sorted(SMALL))
def test_traced_counts_repeat(small_pools, name):
    first = run.run_workload(name, 3, 0, trace=True)
    second = run.run_workload(name, 3, 0, trace=True)
    for out in (first, second):
        assert out["result"]["correct"] and out["result"]["failed"] == 0
    assert first["info"]["counts"] == second["info"]["counts"]
    assert first["info"]["theta_digest"] == second["info"]["theta_digest"]
    assert set(first["info"]["counts"]) == set(DETERMINISTIC)


def test_envelope_counts_each_subset_once(small_pools):
    counts = run.run_workload("wide-k", 3, 0, trace=True)["info"]["counts"]
    assert counts["sfm.subsets_per_envelope"] == 2 ** 8


def test_layers_touched_match_workload(small_pools):
    solve = run.run_workload("corpus", 4, 0, trace=True)["info"]["counts"]
    extract = run.run_workload("extract", 4, 0, trace=True)["info"]["counts"]
    assert solve["ssp.profiles_built"] > 0 and solve["sfm.envelope_calls"] > 0
    assert all(solve[key] == 0 for key in DETERMINISTIC if key.startswith("expansion."))
    assert extract["expansion.nodes"] > 0
    assert extract["ssp.profiles_built"] == 0 and extract["sfm.envelope_calls"] == 0


def test_untraced_run_reports_every_end_to_end_metric(small_pools):
    out = run.run_workload("corpus", 5, 0, trace=False)
    result = out["result"]
    assert set(result["metrics"]) == set(run.END_TO_END)
    assert result["correct"] and result["metrics"]["ok_frac"]["value"] == 1
    assert result["attempted"] == SMALL["corpus"]


def items(name, seed, size):
    workload = workloads.WORKLOADS[name]
    return [workload.make_item(r) for r in workload.plan(seed, size=size)]


def test_seed_changes_the_pool():
    first = items("corpus", 1, 5)
    second = items("corpus", 2, 5)
    assert [i.doc for i in first] != [i.doc for i in second]
    assert [i.doc for i in first] == [i.doc for i in items("corpus", 1, 5)]


def test_rational_pool_has_fractions():
    values = [arc[key] for item in items("rational", 1, 5) for arc in item.doc["arcs"]
              for key in ("capacity", "transit")]
    assert any(isinstance(value, str) and "/" in value for value in values)


def test_extract_pool_stays_in_node_window():
    lo, hi = workloads.EXTRACT_NODES
    assert all(lo <= workloads.extract_nodes(item) <= hi
               for item in items("extract", 1, 4))


def test_wide_k_pool_stays_in_segment_window():
    lo, hi = workloads.WIDE_K_SEGMENTS
    assert all(lo <= workloads.profile_segments(item.network) <= hi
               for item in items("wide-k", 1, 2))


def test_wrong_outputs_count_as_failures():
    workload = workloads.WORKLOADS["corpus"]
    item = items("corpus", 1, 1)[0]
    right = json.dumps({"theta_star": str(item.theta_star)})
    wrong = json.dumps({"theta_star": str(item.theta_star + 1)})
    outputs = [{(0, right): 3, (0, wrong): 2, (1, ""): 1, (0, "not json"): 1}]
    assert run.count_failures(workload, [item], outputs) == 4


def test_extract_check_rejects_a_broken_flow(tmp_path):
    item = items("extract", 1, 1)[0]
    path = tmp_path / "net.json"
    path.write_text(run.dump_document(item.doc))
    code, stdout = run.call_cli(workloads.extract_argv(str(path), item))
    assert code == 0 and workloads.check_extract(item, stdout)
    doc = json.loads(stdout)
    doc["flows"] = doc["flows"][1:]
    assert not workloads.check_extract(item, json.dumps(doc))
