"""Command-line front end.

Subcommands:
  solve     minimum feasible deadline (simple, accelerated, or both)
  feas      test one deadline, reporting a violated terminal group if any
  oracle    brute-force reference answer over all terminal subsets
  extract   materialize a flow over time for a deadline (JSON to stdout)
  trace     per-iteration solver trace with step classification
  bench     seeded corpus benchmark, CSV output
  gen       emit a random solvable instance document

Exit codes: 0 success, 1 infeasible, 2 bad input, 3 resource cap exceeded,
4 internal invariant violated (a bug).  Errors are written to stderr as one
JSON object per failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .bench import run_bench, write_envelope_csv, write_rows_csv
from .core import format_rational, parse_rational, validate_instance
from .errors import (InfeasibleDeadline, InfeasibleForever,
                     InstanceFormatError, InvariantViolation,
                     ResourceCapExceeded)
from .expansion import DEFAULT_NODE_CAP, extract_transshipment
from .instances import (dump_document, generate_instance, parse_instance,
                        reject_duplicate_keys)
from .sfm import minimize_slack
from .solver import (classify_iterations, solve_newton_jumps,
                     solve_newton_simple, theta_star_bruteforce)
from .ssp import DEFAULT_SUBSET_CAP, ProfileCache


def _load_instance(path: str):
    try:
        with open(path) as handle:
            doc = json.load(handle, object_pairs_hook=reject_duplicate_keys)
    except OSError as exc:
        raise InstanceFormatError("cannot read %s: %s" % (path, exc)) from None
    except json.JSONDecodeError as exc:
        raise InstanceFormatError("%s is not valid JSON: %s" % (path, exc)) from None
    except InstanceFormatError as exc:
        raise InstanceFormatError("%s: %s" % (path, exc)) from None
    network, b = parse_instance(doc)
    problems = validate_instance(network, b)
    if problems:
        raise InstanceFormatError("invalid instance %s: %s"
                                  % (path, "; ".join(problems)))
    return network, b


def _theta(args):
    try:
        value = parse_rational(args.theta)
    except ValueError as exc:
        raise InstanceFormatError("bad --theta: %s" % exc) from None
    if value < 0:
        raise InstanceFormatError("bad --theta: deadline must be nonnegative")
    return value


def _check_caps(args):
    for flag in ("bf_cap", "expansion_cap"):
        value = getattr(args, flag, None)
        if value is not None and value < 0:
            raise InstanceFormatError("bad --%s: must be nonnegative, got %d"
                                      % (flag.replace("_", "-"), value))


def _emit(args, payload: dict, text: str):
    if getattr(args, "json", False):
        print(json.dumps(payload, sort_keys=True))
    else:
        print(text)


def cmd_solve(args) -> int:
    network, b = _load_instance(args.input)
    cache = ProfileCache(network, subset_cap=args.bf_cap)
    results = {}
    if args.algo in ("simple", "both"):
        results["simple"] = solve_newton_simple(network, b, cache=cache)
    if args.algo in ("jumps", "both"):
        results["jumps"] = solve_newton_jumps(network, b, cache=cache)
    stars = {r.theta_star for r in results.values()}
    if len(stars) != 1:
        raise InvariantViolation("solver variants disagree: %s" % ", ".join(
            "%s gives %s" % (name, r.theta_star)
            for name, r in sorted(results.items())))
    star = stars.pop()
    payload = {"theta_star": format_rational(star),
               "iterations": {name: len(r.trace) for name, r in results.items()}}
    text = "theta_star = %s  (%s)" % (star, ", ".join(
        "%s: %d iterations" % (name, len(r.trace)) for name, r in sorted(results.items())))
    _emit(args, payload, text)
    return 0


def cmd_feas(args) -> int:
    network, b = _load_instance(args.input)
    theta = _theta(args)
    minimum = minimize_slack(network, b, theta,
                             cache=ProfileCache(network, subset_cap=args.bf_cap))
    if minimum.value >= 0:
        _emit(args, {"theta": format_rational(theta), "feasible": True},
              "feasible at %s" % theta)
    else:
        witness = minimum.subset.label(network)
        _emit(args,
              {"theta": format_rational(theta), "feasible": False,
               "witness": {"nodes": list(minimum.subset.nodes(network)),
                           "slack": format_rational(minimum.value)}},
              "infeasible at %s: terminal group %s is short by %s"
              % (theta, witness, -minimum.value))
    return 0


def cmd_oracle(args) -> int:
    network, b = _load_instance(args.input)
    star = theta_star_bruteforce(
        network, b, cache=ProfileCache(network, subset_cap=args.bf_cap))
    _emit(args, {"theta_star": format_rational(star), "method": "bruteforce"},
          "theta_star = %s  (brute force over %d subsets)" % (star, 1 << network.k))
    return 0


def cmd_extract(args) -> int:
    network, b = _load_instance(args.input)
    theta = _theta(args)
    flow = extract_transshipment(network, b, theta, node_cap=args.expansion_cap)
    doc = {"theta": format_rational(flow.theta), "flows": []}
    for i, pieces in enumerate(flow.rates):
        if pieces:
            doc["flows"].append({
                "arc": i,
                "pieces": [{"time": format_rational(t), "rate": format_rational(r)}
                           for t, r in pieces],
            })
    print(dump_document(doc), end="")
    return 0


def cmd_trace(args) -> int:
    network, b = _load_instance(args.input)
    cache = ProfileCache(network, subset_cap=args.bf_cap)
    solve = solve_newton_jumps if args.algo != "simple" else solve_newton_simple
    result = solve(network, b, cache=cache)
    labels = classify_iterations(result, network, cache=cache)
    if args.json:
        payload = {"algorithm": result.algorithm,
                   "theta_star": format_rational(result.theta_star),
                   "iterations": [
                       {"index": r.index, "theta": format_rational(r.theta),
                        "subset": list(r.subset.nodes(network)),
                        "slack": format_rational(r.slack),
                        "theta_prime": format_rational(r.theta_prime),
                        "jump": r.jump,
                        "theta_next": format_rational(r.theta_next),
                        "class": labels[r.index]}
                       for r in result.trace]}
        print(json.dumps(payload, sort_keys=True))
    else:
        print("algorithm %s, theta_star = %s, %d iterations"
              % (result.algorithm, result.theta_star, len(result.trace)))
        print("idx theta subset slack theta_prime jump theta_next class")
        for r in result.trace:
            print("%d %s %s %s %s %d %s %s"
                  % (r.index, r.theta, r.subset.label(network), r.slack,
                     r.theta_prime, r.jump, r.theta_next, labels[r.index]))
    return 0


def cmd_bench(args) -> int:
    rows, samples = run_bench(range(args.seed, args.seed + args.count))
    if args.csv:
        with open(args.csv, "w", newline="") as handle:
            write_rows_csv(rows, handle)
    else:
        write_rows_csv(rows, sys.stdout)
    if args.envelope_csv:
        with open(args.envelope_csv, "w", newline="") as handle:
            write_envelope_csv(samples, handle)
    return 0


def cmd_gen(args) -> int:
    doc = generate_instance(n=args.n, m=args.m, k=args.k, max_u=args.max_u,
                            max_tau=args.max_tau, max_b=args.max_b,
                            seed=args.seed)
    print(dump_document(doc), end="")
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="transship",
        description="Exact quickest-transshipment solver for flow-over-time networks")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help_text):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(func=func)
        return p

    def instance_flags(p, theta=False, subsets=True):
        p.add_argument("--input", required=True, help="instance JSON file")
        if subsets:
            p.add_argument("--bf-cap", type=int, default=DEFAULT_SUBSET_CAP,
                           help="max terminals for brute-force subset enumeration")
        if theta:
            p.add_argument("--theta", required=True,
                           help="deadline, as an integer or p/q")

    p = add("solve", cmd_solve, "minimum feasible deadline")
    instance_flags(p)
    p.add_argument("--algo", choices=["simple", "jumps", "both"], default="jumps")
    p.add_argument("--json", action="store_true")

    p = add("feas", cmd_feas, "test feasibility of one deadline")
    instance_flags(p, theta=True)
    p.add_argument("--json", action="store_true")

    p = add("oracle", cmd_oracle, "brute-force reference answer")
    instance_flags(p)
    p.add_argument("--json", action="store_true")

    p = add("extract", cmd_extract, "materialize a flow over time (JSON)")
    instance_flags(p, theta=True, subsets=False)
    p.add_argument("--expansion-cap", type=int, default=DEFAULT_NODE_CAP,
                   help="max node copies, and max arc copies, in the time expansion")

    p = add("trace", cmd_trace, "per-iteration solver trace")
    instance_flags(p)
    p.add_argument("--algo", choices=["simple", "jumps"], default="jumps")
    p.add_argument("--json", action="store_true")

    p = add("bench", cmd_bench, "seeded corpus benchmark")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--count", type=int, default=20)
    p.add_argument("--csv", help="write benchmark rows to this file")
    p.add_argument("--envelope-csv", help="write envelope samples to this file")

    p = add("gen", cmd_gen, "generate a random solvable instance")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--n", type=int, default=6)
    p.add_argument("--m", type=int, default=10)
    p.add_argument("--k", type=int, default=3)
    p.add_argument("--max-u", type=int, default=10)
    p.add_argument("--max-tau", type=int, default=10)
    p.add_argument("--max-b", type=int, default=30)
    return parser


def _fail(kind: str, exc: Exception, code: int) -> int:
    sys.stderr.write(json.dumps({"error": kind, "message": str(exc)}) + "\n")
    return code


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _check_caps(args)
        return args.func(args)
    except InstanceFormatError as exc:
        return _fail("input", exc, 2)
    except InfeasibleForever as exc:
        return _fail("infeasible-forever", exc, 1)
    except InfeasibleDeadline as exc:
        return _fail("infeasible-deadline", exc, 1)
    except ResourceCapExceeded as exc:
        return _fail("resource-cap", exc, 3)
    except InvariantViolation as exc:
        return _fail("internal", exc, 4)
    except ValueError as exc:
        return _fail("input", exc, 2)


if __name__ == "__main__":
    sys.exit(main())
