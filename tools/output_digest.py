"""Digest every answer the package gives on a fixed set of instances.

Run it once against each of two source trees and compare the printed lines:
equal lines mean the two trees gave byte-identical outputs.

    PYTHONPATH=<tree>/src python3 tools/output_digest.py

The instances are corpus seeds 0-59 and a rational variant of each, in
which every arc's capacity and transit time is divided by its own seeded
denominator in 1..12, then the ``gen`` instances of ``WIDE`` (k = 8 and
10, where bounded profile trees cut the most branches) in both layouts,
each as generated and with two terminals of zero supply.  Each line is the
sha256 of one kind of output over all instances: every subset profile,
then one CLI command, where each call contributes its exit code, stdout
and stderr.  ``feas`` runs at theta* and
theta* - 1/2 and ``extract`` at theta*, theta* read from ``solve``.

"subset value functions" keeps of each profile only its grid scales and
each distinct length with the amount and moment prefix sums up to it, so it
stays equal where tied paths split or route differently but every value
function is the same.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import tempfile
from fractions import Fraction

from transship.bench import corpus_params
from transship.cli import main
from transship.core import format_rational, parse_rational
from transship.instances import dump_document, generate_instance, parse_instance
from transship.ssp import ProfileCache

SEEDS = range(60)
# k = 8 and 10 in both layouts: more sources than sinks is laid out reversed.
WIDE = (dict(n=12, m=24, k=8, seed=1), dict(n=12, m=24, k=8, seed=2),
        dict(n=14, m=30, k=10, seed=10), dict(n=14, m=30, k=10, seed=4))


def rational_variant(doc: dict, seed: int) -> dict:
    rng = random.Random("output-digest-rational-%d" % seed)
    arcs = [dict(arc, capacity=format_rational(Fraction(arc["capacity"])
                                               / rng.randint(1, 12)),
                 transit=format_rational(Fraction(arc["transit"])
                                         / rng.randint(1, 12)))
            for arc in doc["arcs"]]
    return dict(doc, arcs=arcs)


def zero_supplies(doc: dict) -> dict:
    """The first source's supply moved onto the last source, and the first
    sink's demand onto the last sink."""
    sources = [dict(entry) for entry in doc["sources"]]
    sinks = [dict(entry) for entry in doc["sinks"]]
    sources[-1]["supply"] += sources[0]["supply"]
    sinks[-1]["demand"] += sinks[0]["demand"]
    sources[0]["supply"] = sinks[0]["demand"] = 0
    return dict(doc, sources=sources, sinks=sinks)


def documents(seeds, wide=()):
    for seed in seeds:
        doc = generate_instance(**corpus_params(seed))
        yield doc
        yield rational_variant(doc, seed)
    for params in wide:
        doc = generate_instance(max_u=10, max_tau=10, max_b=30, **params)
        yield doc
        yield zero_supplies(doc)


def value_function(profile) -> tuple:
    """The profile's scales, and each distinct grid length with the amount
    and moment prefix sums over the segments up to it."""
    sums = {}
    for j, length in enumerate(profile.lengths):
        sums[length] = (profile.amount_sums[j + 1], profile.moment_sums[j + 1])
    return (profile.time_scale, profile.rate_scale,
            [(length, *prefix) for length, prefix in sums.items()])


def run_cli(*argv: str) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def digests(seeds, wide=()) -> dict[str, str]:
    """One sha256 hex digest per output kind, over both variants of every
    corpus seed and of every ``gen`` recipe in ``wide``."""
    hashes = {}
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "instance.json")
        for doc in documents(seeds, wide):
            cache = ProfileCache(parse_instance(doc)[0])
            each = list(map(cache.profile, cache.subsets()))
            profiles = [(p.segments, p.lengths, p.amount_sums, p.moment_sums)
                        for p in each]
            with open(path, "w") as handle:
                handle.write(dump_document(doc))
            solve = run_cli("solve", "--algo", "both", "--json", "--input", path)
            theta = parse_rational(json.loads(solve[1])["theta_star"])
            at, before = str(theta), str(theta - Fraction(1, 2))
            outputs = {
                "subset profiles": profiles,
                "subset value functions": list(map(value_function, each)),
                "solve --algo both --json": solve,
                "trace --json": run_cli("trace", "--json", "--input", path),
                "trace --algo simple --json": run_cli(
                    "trace", "--algo", "simple", "--json", "--input", path),
                "oracle --json": run_cli("oracle", "--json", "--input", path),
                "feas --json at theta* and theta* - 1/2": [
                    run_cli("feas", "--json", "--theta", deadline, "--input", path)
                    for deadline in (at, before)],
                "extract at theta*": run_cli("extract", "--theta", at,
                                             "--input", path),
            }
            for name, output in outputs.items():
                hashes.setdefault(name, hashlib.sha256()).update(
                    repr(output).encode())
    return {name: h.hexdigest() for name, h in hashes.items()}


if __name__ == "__main__":
    for name, digest in digests(SEEDS, WIDE).items():
        print("%s  %s" % (digest, name))
