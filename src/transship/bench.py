"""Seeded benchmark corpus: generate, solve both ways, tabulate.

Each seed deterministically fixes an instance family member (size, terminal
count, bounds) and the instance itself, so two runs over the same seeds
produce identical rows except for the wall-time columns, which sit last so
they are easy to strip when comparing.
"""

from __future__ import annotations

import csv
import random
import time
from dataclasses import dataclass, fields
from fractions import Fraction

from .core import FlowNetwork, format_rational, SupplyVector
from .errors import InvariantViolation
from .horizon import all_breakpoints
from .instances import generate_instance, parse_instance
from .sfm import min_slack
from .solver import (classify_iterations, solve_newton_jumps,
                     solve_newton_simple)
from .ssp import ProfileCache

__all__ = ["BenchRow", "corpus_params", "corpus_instance", "run_bench",
           "write_rows_csv", "write_envelope_csv", "BENCH_COLUMNS"]

@dataclass(frozen=True)
class BenchRow:
    seed: int
    n: int
    m: int
    k: int
    theta_star: Fraction
    iters_simple: int
    iters_jumps: int
    count_I1: int
    count_I2: int
    count_I3: int
    wall_simple: float
    wall_jumps: float

    def as_list(self):
        values = (getattr(self, f.name) for f in fields(self))
        return [format_rational(v) if isinstance(v, Fraction)
                else "%.6f" % v if isinstance(v, float) else v
                for v in values]


BENCH_COLUMNS = [f.name for f in fields(BenchRow)]


def corpus_params(seed: int) -> dict:
    """Instance family for one seed: small but varied."""
    rng = random.Random("corpus-params-%d" % seed)
    n = rng.randint(4, 10)
    return {
        "n": n,
        "m": rng.randint(n - 1, 25),
        "k": rng.randint(2, min(6, n)),
        "max_u": 10,
        "max_tau": 10,
        "max_b": 30,
        "seed": seed,
    }


def corpus_instance(seed: int) -> tuple[FlowNetwork, SupplyVector]:
    """The corpus instance for one seed.  The generator's chain layout puts
    every source ahead of every sink, so every source reaches every sink."""
    return parse_instance(generate_instance(**corpus_params(seed)))


def run_bench(seeds) -> tuple[list[BenchRow], list[tuple[int, Fraction, Fraction]]]:
    """Solve every seed with both algorithms; return rows and envelope samples.

    Envelope samples are (seed, theta, min-slack) triples taken at every
    subset breakpoint and every deadline the accelerated trace visited,
    enough to reconstruct the envelope's shape around the solve path.
    """
    rows = []
    samples = []
    for seed in seeds:
        network, b = corpus_instance(seed)
        simple_cache, cache = ProfileCache(network), ProfileCache(network)
        start = time.perf_counter()
        simple = solve_newton_simple(network, b, cache=simple_cache)
        wall_simple = time.perf_counter() - start
        start = time.perf_counter()
        jumps = solve_newton_jumps(network, b, cache=cache)
        wall_jumps = time.perf_counter() - start
        if simple.theta_star != jumps.theta_star:
            raise InvariantViolation("seed %d: solver variants disagree (%s, %s)"
                                     % (seed, simple.theta_star, jumps.theta_star))
        labels = classify_iterations(jumps, network, cache=cache)
        rows.append(BenchRow(
            seed=seed, n=network.node_count, m=len(network.arcs), k=network.k,
            theta_star=jumps.theta_star,
            iters_simple=len(simple.trace), iters_jumps=len(jumps.trace),
            count_I1=labels.count("I1"), count_I2=labels.count("I2"),
            count_I3=labels.count("I3"),
            wall_simple=wall_simple, wall_jumps=wall_jumps))
        probes = all_breakpoints(cache)
        for record in jumps.trace:
            probes.update((record.theta, record.theta_prime, record.theta_next))
        for theta in sorted(probes):
            samples.append((seed, theta, min_slack(network, b, theta, cache=cache)))
    return rows, samples


def write_rows_csv(rows, stream):
    writer = csv.writer(stream)
    writer.writerow(BENCH_COLUMNS)
    for row in rows:
        writer.writerow(row.as_list())


def write_envelope_csv(samples, stream):
    writer = csv.writer(stream)
    writer.writerow(["seed", "theta", "min_slack"])
    for seed, theta, slack in samples:
        writer.writerow([seed, format_rational(theta), format_rational(slack)])
