import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from transship.cli import build_parser, main
from transship.instances import dump_document
from conftest import instance_b_network, instance_b_supply
from transship import MAX_NODES, serialize_instance
from transship.core import MAX_SCALE_BITS


@pytest.fixture
def instance_file(tmp_path):
    net = instance_b_network()
    b = instance_b_supply(net)
    path = tmp_path / "b.json"
    path.write_text(dump_document(serialize_instance(net, b)))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSolve:
    def test_default_jumps(self, capsys, instance_file):
        code, out, err = run(capsys, "solve", "--input", instance_file)
        assert code == 0
        assert "theta_star = 5/2" in out
        assert err == ""

    def test_both_algorithms_json(self, capsys, instance_file):
        code, out, _ = run(capsys, "solve", "--input", instance_file,
                           "--algo", "both", "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["theta_star"] == "5/2"
        assert set(doc["iterations"]) == {"simple", "jumps"}

    def test_missing_file(self, capsys, tmp_path):
        code, out, err = run(capsys, "solve", "--input",
                             str(tmp_path / "nope.json"))
        assert code == 2
        assert out == ""
        assert json.loads(err)["error"] == "input"

    def test_invalid_instance(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"nodes": 2}')
        code, _, err = run(capsys, "solve", "--input", str(path))
        assert code == 2
        assert "arcs" in json.loads(err)["message"]

    def test_infeasible_forever(self, capsys, tmp_path):
        doc = {"nodes": 3,
               "arcs": [{"tail": 0, "head": 1, "capacity": 1, "transit": 1}],
               "sources": [{"node": 0, "supply": 1}, {"node": 2, "supply": 1}],
               "sinks": [{"node": 1, "demand": -2}]}
        path = tmp_path / "forever.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "solve", "--input", str(path))
        assert code == 1
        assert json.loads(err)["error"] == "infeasible-forever"

    def test_subset_cap(self, capsys, instance_file):
        code, _, err = run(capsys, "solve", "--input", instance_file,
                           "--bf-cap", "2")
        assert code == 3
        assert json.loads(err)["error"] == "resource-cap"

    @pytest.mark.parametrize("argv", [("feas", "--theta", "1"), ("oracle",),
                                      ("trace",)])
    def test_subset_cap_other_commands(self, capsys, instance_file, argv):
        code, out, err = run(capsys, argv[0], "--input", instance_file,
                             "--bf-cap", "2", *argv[1:])
        assert code == 3 and out == ""
        assert json.loads(err)["error"] == "resource-cap"

    def test_default_subset_cap(self, capsys, tmp_path):
        # one source and 16 sinks: k = 17 is over the default cap of 16
        doc = {"nodes": 17,
               "arcs": [{"tail": 0, "head": v, "capacity": 1, "transit": 1}
                        for v in range(1, 17)],
               "sources": [{"node": 0, "supply": 16}],
               "sinks": [{"node": v, "demand": -1} for v in range(1, 17)]}
        path = tmp_path / "wide.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "solve", "--input", str(path))
        assert code == 3 and out == ""
        doc = json.loads(err)
        assert doc["error"] == "resource-cap"
        assert "17 terminals" in doc["message"] and "at 16" in doc["message"]


class TestFeas:
    def test_feasible(self, capsys, instance_file):
        code, out, _ = run(capsys, "feas", "--input", instance_file,
                           "--theta", "5/2")
        assert code == 0
        assert "feasible at 5/2" in out

    def test_infeasible_names_witness(self, capsys, instance_file):
        code, out, _ = run(capsys, "feas", "--input", instance_file,
                           "--theta", "2")
        assert code == 0
        assert "infeasible at 2" in out
        assert "{0}" in out
        assert "short by 1" in out

    def test_json_witness(self, capsys, instance_file):
        code, out, _ = run(capsys, "feas", "--input", instance_file,
                           "--theta", "2", "--json")
        doc = json.loads(out)
        assert doc == {"feasible": False, "theta": 2,
                       "witness": {"nodes": [0], "slack": -1}}

    def test_bad_theta(self, capsys, instance_file):
        code, _, err = run(capsys, "feas", "--input", instance_file,
                           "--theta", "fast")
        assert code == 2
        assert json.loads(err)["error"] == "input"

    def test_negative_theta(self, capsys, instance_file):
        code, _, err = run(capsys, "feas", "--input", instance_file,
                           "--theta", "-1")
        assert code == 2


class TestOracle:
    def test_matches_solver(self, capsys, instance_file):
        code, out, _ = run(capsys, "oracle", "--input", instance_file, "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["theta_star"] == "5/2"
        assert doc["method"] == "bruteforce"


class TestExtract:
    def test_flow_document(self, capsys, instance_file):
        code, out, _ = run(capsys, "extract", "--input", instance_file,
                           "--theta", "5/2")
        assert code == 0
        doc = json.loads(out)
        assert doc["theta"] == "5/2"
        by_arc = {entry["arc"]: entry["pieces"] for entry in doc["flows"]}
        assert by_arc[0][0] == {"time": 0, "rate": 2}
        assert by_arc[0][-1] == {"time": "5/2", "rate": 0}

    def test_too_small_deadline(self, capsys, instance_file):
        code, out, err = run(capsys, "extract", "--input", instance_file,
                             "--theta", "2")
        assert code == 1
        assert json.loads(err)["error"] == "infeasible-deadline"

    def test_expansion_cap(self, capsys, instance_file):
        code, _, err = run(capsys, "extract", "--input", instance_file,
                           "--theta", "5/2", "--expansion-cap", "3")
        assert code == 3
        assert json.loads(err)["error"] == "resource-cap"

    def test_no_bf_cap(self, capsys, instance_file):
        # extract enumerates no subsets, so it takes no subset cap
        with pytest.raises(SystemExit) as exc:
            main(["extract", "--input", instance_file, "--theta", "5/2",
                  "--bf-cap", "3"])
        assert exc.value.code == 2
        assert "--bf-cap" in capsys.readouterr().err


class TestTrace:
    def test_text_table(self, capsys, instance_file):
        code, out, _ = run(capsys, "trace", "--input", instance_file)
        assert code == 0
        lines = out.strip().splitlines()
        assert "theta_star = 5/2" in lines[0]
        assert lines[1].startswith("idx theta subset")
        assert lines[2].startswith("0 0 {0,1} -6 7/3 1 22/9")
        assert lines[3].startswith("1 22/9 {0} -1/9 5/2 0 5/2")

    def test_json_classes(self, capsys, instance_file):
        code, out, _ = run(capsys, "trace", "--input", instance_file, "--json")
        doc = json.loads(out)
        assert doc["algorithm"] == "jumps"
        # step 0 spans breakpoints 0 and 1; step 1 runs [22/9, 5/2], which
        # contains none, and its kept jump was not the largest multiplier
        assert [r["class"] for r in doc["iterations"]] \
            == ["I2", "I3"]
        assert doc["iterations"][0]["theta_next"] == "22/9"

    def test_simple_algo(self, capsys, instance_file):
        code, out, _ = run(capsys, "trace", "--input", instance_file,
                           "--algo", "simple", "--json")
        doc = json.loads(out)
        assert doc["algorithm"] == "simple"
        assert all(r["jump"] == 0 for r in doc["iterations"])


class TestBench:
    def test_csv_to_stdout(self, capsys):
        code, out, _ = run(capsys, "bench", "--seed", "0", "--count", "3")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].split(",")[:5] == ["seed", "n", "m", "k", "theta_star"]
        assert len(lines) == 4

    def test_csv_files_deterministic(self, capsys, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run(capsys, "bench", "--seed", "5", "--count", "4", "--csv", str(a),
            "--envelope-csv", str(tmp_path / "ea.csv"))
        run(capsys, "bench", "--seed", "5", "--count", "4", "--csv", str(b),
            "--envelope-csv", str(tmp_path / "eb.csv"))

        def strip_walls(text):
            return ["".join(line.split(",")[:-2]) for line in text.splitlines()]

        assert strip_walls(a.read_text()) == strip_walls(b.read_text())
        assert (tmp_path / "ea.csv").read_text() \
            == (tmp_path / "eb.csv").read_text()

    def test_each_solver_timed_on_a_fresh_cache(self, monkeypatch):
        from transship import bench

        sizes = []

        def entry_size(solve):
            def wrapped(network, b, *, cache):
                sizes.append((solve.__name__, len(cache)))
                return solve(network, b, cache=cache)
            return wrapped

        for name in ("solve_newton_simple", "solve_newton_jumps"):
            monkeypatch.setattr(bench, name, entry_size(getattr(bench, name)))
        bench.run_bench([0])
        assert sizes == [("solve_newton_simple", 0), ("solve_newton_jumps", 0)]


class TestGen:
    def test_round_trip_through_solver(self, capsys, tmp_path):
        code, out, _ = run(capsys, "gen", "--seed", "11", "--n", "6",
                           "--m", "9", "--k", "3")
        assert code == 0
        path = tmp_path / "gen.json"
        path.write_text(out)
        code, out, _ = run(capsys, "solve", "--input", str(path), "--json")
        assert code == 0
        assert "theta_star" in json.loads(out)

    def test_deterministic(self, capsys):
        _, first, _ = run(capsys, "gen", "--seed", "3")
        _, second, _ = run(capsys, "gen", "--seed", "3")
        assert first == second

    def test_node_cap(self, capsys):
        code, out, err = run(capsys, "gen", "--n", "100001", "--m", "100000",
                             "--k", "2")
        assert code == 3 and out == ""
        assert json.loads(err)["error"] == "resource-cap"

    def test_arc_cap(self, capsys):
        code, out, err = run(capsys, "gen", "--n", "10", "--m", "1000001",
                             "--k", "2")
        assert code == 3 and out == ""
        error = json.loads(err)
        assert error["error"] == "resource-cap"
        assert error["message"] == "1000001 arcs exceed the cap at 1000000"

    def test_terminals_over_bit_set_limit(self, capsys):
        # solve would refuse the document with exit 2, so gen does not write it
        code, out, err = run(capsys, "gen", "--n", "100", "--m", "120",
                             "--k", "70")
        assert code == 2 and out == ""
        error = json.loads(err)
        assert error["error"] == "input"
        assert "70 terminals, over the bit-set limit of 62" in error["message"]


class TestInputChecks:
    def test_negative_bf_cap(self, capsys, instance_file):
        code, out, err = run(capsys, "solve", "--input", instance_file,
                             "--bf-cap", "-1")
        assert code == 2 and out == ""
        doc = json.loads(err)
        assert doc["error"] == "input" and "--bf-cap" in doc["message"]

    def test_negative_expansion_cap(self, capsys, instance_file):
        code, out, err = run(capsys, "extract", "--input", instance_file,
                             "--theta", "5/2", "--expansion-cap", "-5")
        assert code == 2 and out == ""
        doc = json.loads(err)
        assert doc["error"] == "input" and "--expansion-cap" in doc["message"]

    def test_duplicate_key(self, capsys, tmp_path):
        # the second "sinks" used to win silently and surface as an
        # unbalanced-supplies complaint
        path = tmp_path / "dup.json"
        path.write_text('{"nodes": 2, "arcs": [], "sources": [],'
                        ' "sinks": [{"node": 1, "demand": 0}], "sinks": []}')
        code, _, err = run(capsys, "solve", "--input", str(path))
        assert code == 2
        doc = json.loads(err)
        assert doc["error"] == "input" and "'sinks'" in doc["message"]

    def test_node_cap(self, capsys, tmp_path):
        net = instance_b_network()
        doc = serialize_instance(net, instance_b_supply(net))
        doc["nodes"] = MAX_NODES + 1
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "solve", "--input", str(path))
        assert code == 3 and out == ""
        doc = json.loads(err)
        assert doc["error"] == "resource-cap" and "nodes" in doc["message"]

    def test_scale_cap(self, capsys, tmp_path):
        net = instance_b_network()
        doc = serialize_instance(net, instance_b_supply(net))
        doc["arcs"][0]["transit"] = "1/%d" % 2 ** MAX_SCALE_BITS
        path = tmp_path / "scale.json"
        path.write_text(json.dumps(doc))
        for command in ("solve", "oracle", "trace"):
            code, out, err = run(capsys, command, "--input", str(path))
            assert code == 3 and out == ""
            assert json.loads(err) == {
                "error": "resource-cap",
                "message": "%d scale bits exceed the cap at %d"
                           % (MAX_SCALE_BITS + 1, MAX_SCALE_BITS)}

    def test_unknown_field(self, capsys, tmp_path):
        net = instance_b_network()
        doc = serialize_instance(net, instance_b_supply(net))
        doc["arcs"][1]["capcity"] = 1
        path = tmp_path / "typo.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "solve", "--input", str(path))
        assert code == 2 and out == ""
        doc = json.loads(err)
        assert doc["error"] == "input" and "arcs[1].capcity" in doc["message"]


def test_repeated_calls_match_fresh_processes(capsys, instance_file):
    # The parser is built once per process; no call may leave a default or
    # a parsed value behind for the next one.
    assert build_parser() is build_parser()
    calls = [["solve", "--input", instance_file, "--algo", "both", "--json"],
             ["solve", "--input", instance_file, "--json"],
             ["solve", "--input", instance_file, "--algo", "fast"],
             ["solve", "--input", instance_file, "--json"],
             ["solve", "--input", instance_file]]
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    codes = []
    for argv in calls:
        fresh = subprocess.run(
            [sys.executable, "-c", "import sys; from transship.cli import main; "
             "sys.exit(main(sys.argv[1:]))", *argv],
            capture_output=True, text=True, env=env, timeout=60)
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) \
            == (fresh.returncode, fresh.stdout, fresh.stderr)
        codes.append(code)
    # the bad flag leaves through argparse's SystemExit with code 2
    assert codes == [0, 0, 2, 0, 0]


# Runs the CLI under ``python -O`` with one stub that breaks an invariant;
# the check must still fire and map to exit code 4.
O_SCRIPT = """
import sys
assert False, "assertions are on; this must run under -O"
from transship import cli, ssp
if sys.argv[1] == "segment-length":
    # Every forward auxiliary edge takes time in the costs the search reads,
    # which no certificate over the base arcs can witness.
    real = ssp.ProfileCache.__init__
    def wrong(self, network, **kwargs):
        real(self, network, **kwargs)
        self.adj = tuple(tuple((e, v, c + 1 if e >= 2 * self.m and not e & 1 else c)
                               for e, v, c in edges) for edges in self.adj)
    ssp.ProfileCache.__init__ = wrong
else:
    real = cli.solve_newton_simple
    def wrong(*args, **kwargs):
        result = real(*args, **kwargs)
        return result.__class__(result.theta_star + 1, result.trace,
                                result.algorithm, result.k)
    cli.solve_newton_simple = wrong
sys.exit(cli.main(["solve", "--algo", "both", "--input", sys.argv[2]]))
"""

STUB_MESSAGES = {"segment-length": "certificate does not reproduce its length",
                 "solver-variants": "solver variants disagree"}


@pytest.mark.parametrize("stub", ["segment-length", "solver-variants"])
def test_invariant_checks_survive_optimize_flag(instance_file, stub):
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, "-O", "-c", O_SCRIPT, stub, instance_file],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 4, proc.stderr
    assert proc.stdout == ""
    error = json.loads(proc.stderr)
    assert error["error"] == "internal"
    assert STUB_MESSAGES[stub] in error["message"]
