"""Benchmark for transship: seeded workloads driven through the command line.

Run from the root of a checkout:

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

Each operation is one in-process call of ``transship.cli.main`` with its
output captured, so it covers file read, JSON, parse, validate, solve or
extract, and output formatting.  The program is imported from this
checkout's ``src`` directory.  A run plans its pool from the seed (untimed),
sets it up (instance documents, input files, reference answers) at least
three times and for at least five seconds, and reports the median set-up
time, then runs whole passes over the pool until ``--seconds`` have
elapsed.  Every
distinct output is checked after the timed phase; a non-zero exit or a wrong
answer counts as a failed operation.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` sets up once,
runs one untraced pass, then the timed phase (at least one pass) with spans
around the program's public functions, prints the per-layer metrics and
writes the spans to ``perfbench/_work/spans-<workload>.tsv``.  The last line
of standard output is always one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``--workload all`` runs every
workload in its own process, one after another.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "_work"

sys.path.insert(0, str(SRC))
try:
    import transship
    from transship import cli
    from transship.instances import dump_document
except ImportError as exc:
    sys.exit("perfbench: cannot import transship from %s: %s" % (SRC, exc))
if Path(transship.__file__).resolve().parent.parent != SRC:
    sys.exit("perfbench: transship was imported from %s, not from %s"
             % (transship.__file__, SRC))

from tracer import DETERMINISTIC, LAYER_METRICS, Tracer, layer_metrics  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# Set-up runs at least SETUP_REPEATS times per run, and again until
# SETUP_SECONDS have passed; setup_s is the median.
SETUP_REPEATS = 3
SETUP_SECONDS = 5.0

# End-to-end metrics: name -> unit.
END_TO_END = {
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_frac": "frac",
}


def set_up(workload, recipes, workdir: str):
    """Make the pool, write one input file per instance, compute references."""
    items = [workload.make_item(recipe) for recipe in recipes]
    argvs = []
    for i, item in enumerate(items):
        path = os.path.join(workdir, "i%03d.json" % i)
        with open(path, "w") as handle:
            handle.write(dump_document(item.doc))
        argvs.append(workload.argv(path, item))
    return items, argvs


def call_cli(argv):
    """One operation: the command's exit code and standard output."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:       # the installed command would exit 1 here
            code = 1
    return code, out.getvalue()


def run_ops(argvs, seconds: float, tracer=None):
    """Run whole passes over the pool until ``seconds`` have elapsed.

    Whole passes keep every instance equally often in the figures.  Returns
    the phase's wall time, per-operation latencies and, per pool item, the
    distinct (exit code, stdout) pairs with their operation counts.
    """
    latencies = []
    outputs = [Counter() for _ in argvs]
    clock = time.perf_counter
    start = clock()
    while True:
        for j, argv in enumerate(argvs):
            if tracer is not None:
                tracer.op = len(latencies)
            t0 = clock()
            result = call_cli(argv)
            latencies.append(clock() - t0)
            outputs[j][result] += 1
        elapsed = clock() - start
        if elapsed >= seconds:
            return elapsed, latencies, outputs


def count_failures(workload, items, outputs) -> int:
    failed = 0
    for item, seen in zip(items, outputs):
        for (code, stdout), ops in seen.items():
            try:
                ok = code == 0 and workload.check(item, stdout)
            except (ValueError, KeyError, TypeError, IndexError):
                ok = False
            if not ok:
                failed += ops
    return failed


def theta_digest(items) -> str:
    text = "\n".join(str(item.theta_star) for item in items)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def git_commit() -> str:
    """The checked-out commit, or ``unknown`` outside a git checkout."""
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def end_to_end(workload, items, argvs, seconds: float, setups, info):
    elapsed, latencies, outputs = run_ops(argvs, seconds)
    failed = count_failures(workload, items, outputs)
    ok_frac = (len(latencies) - failed) / len(latencies)
    metrics = {
        "ops_per_s": (len(latencies) - failed) / elapsed,
        "latency_p50_ms": 1000 * statistics.median(latencies),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ok_frac": ok_frac,
    }
    # A p90 needs ten samples beyond it, which a wide-k run cannot give, so
    # it is printed but is not one of the metrics.
    if len(latencies) >= 100:
        info["latency_p90_ms"] = 1000 * statistics.quantiles(latencies, n=10)[-1]
    return latencies, failed, metrics, END_TO_END


def per_layer(workload, items, argvs, seconds: float, info):
    _, base, base_outputs = run_ops(argvs, 0)
    tracer = Tracer()
    with tracer:
        _, latencies, outputs = run_ops(argvs, seconds, tracer)
    failed = (count_failures(workload, items, base_outputs)
              + count_failures(workload, items, outputs))
    metrics = layer_metrics(tracer, len(items), len(latencies))
    metrics["trace.overhead_frac"] = sum(latencies[:len(items)]) / sum(base) - 1
    spans = WORK / ("spans-%s.tsv" % info["workload"])
    info["spans"] = str(spans.relative_to(ROOT))
    info["counts"] = {key: metrics[key] for key in DETERMINISTIC}
    tracer.write(spans, info)
    units = {key: unit for key, (unit, _) in LAYER_METRICS.items()}
    return base + latencies, failed, metrics, units


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    workload = WORKLOADS[name]
    WORK.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="%s-%d-" % (name, seed), dir=WORK)
    try:
        recipes = workload.plan(seed)
        setups = []
        while not setups or not trace and (len(setups) < SETUP_REPEATS
                                           or sum(setups) < SETUP_SECONDS):
            t0 = time.perf_counter()
            items, argvs = set_up(workload, recipes, workdir)
            setups.append(time.perf_counter() - t0)
        info = {"workload": name, "seed": seed, "pool": len(items),
                "theta_digest": theta_digest(items),
                "python": platform.python_version(), "nproc": os.cpu_count(),
                "commit": git_commit()}
        if trace:
            latencies, failed, metrics, units = per_layer(workload, items, argvs,
                                                          seconds, info)
        else:
            latencies, failed, metrics, units = end_to_end(workload, items, argvs,
                                                           seconds, setups, info)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    info["ops"] = len(latencies)
    return {"info": info,
            "result": {"correct": failed == 0, "attempted": len(latencies),
                       "failed": failed,
                       "metrics": {key: {"value": value, "unit": units[key]}
                                   for key, value in metrics.items()}}}


def print_result(info: dict, result: dict):
    print("workload %s  seed %d  pool %d  ops %d  failed %d"
          % (info["workload"], info["seed"], info["pool"], result["attempted"],
             result["failed"]))
    for key, metric in result["metrics"].items():
        print("  %-32s %16.6f %s" % (key, metric["value"], metric["unit"]))
    if "latency_p90_ms" in info:
        print("  %-32s %16.6f ms (printed only)" % ("latency_p90_ms", info["latency_p90_ms"]))
    print(json.dumps({"run": info}, sort_keys=True))


def run_all(args) -> int:
    """Every workload in its own process, one after another."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, cwd=ROOT)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            return proc.returncode or 1
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for key, metric in result["metrics"].items():
            merged["metrics"]["%s.%s" % (name, key)] = metric
    print(json.dumps(merged, sort_keys=True))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    out = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print_result(out["info"], out["result"])
    print(json.dumps(out["result"], sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
