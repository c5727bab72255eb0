"""Spans around the program's public functions, recorded from outside it.

The package imports with ``from .x import y``, so each function is replaced
in the module that calls it (``solver.minimize_slack``, ``sfm.value_at``, ...)
rather than where it is defined.  A span is (name, start, end, parent span,
operation id); spans live in flat arrays while the run lasts and are written
out once at the end.  A layer's self time is its span minus the part its
direct child spans cover.
"""

from __future__ import annotations

import json
import time
from array import array
from collections import Counter, defaultdict

from transship import cli, expansion, sfm, solver, ssp


# Counter hooks run after the wrapped call returns, with the tracer, the
# result and the call's arguments; they add to ``tracer.current``.

def _profile_counts(tracer, profile, args, kwargs):
    counts = tracer.current
    counts["ssp.segments"] += len(profile.segments)
    for seg in profile.segments:
        bits = max(seg.length.denominator.bit_length(),
                   seg.amount.denominator.bit_length())
        if bits > counts["ssp.max_den_bits"]:
            counts["ssp.max_den_bits"] = bits


def _subset_counts(tracer, profile, args, kwargs):
    """Count the distinct subsets each envelope looks up, however often it
    looks one up."""
    envelope = tracer.parent_span()
    if envelope < 0 or tracer.names[tracer.name[envelope]] != "sfm.minimize_slack":
        return
    if envelope != tracer.envelope:
        tracer.envelope, tracer.subsets = envelope, set()
    subset = args[1] if len(args) > 1 else kwargs["subset"]
    bits = getattr(subset, "bits", subset)
    if bits not in tracer.subsets:
        tracer.subsets.add(bits)
        tracer.current["sfm.subsets"] += 1


def _solve_counts(tracer, result, args, kwargs):
    tracer.current["solver.iterations"] += len(result.trace)


def _expansion_counts(tracer, xnet, args, kwargs):
    tracer.current["expansion.nodes"] += xnet.node_count
    tracer.current["expansion.arcs"] += len(xnet.arcs)


def _scale_counts(tracer, scaled, args, kwargs):
    tracer.current["expansion.scale_q"] += scaled[2]


# (module or class, attribute, span name, counter hook)
PATCHES = (
    (cli, "main", "cli.main", None),
    (cli, "parse_instance", "instances.parse_instance", None),
    (cli, "validate_instance", "core.validate_instance", None),
    (cli, "solve_newton_jumps", "solver.solve_newton_jumps", _solve_counts),
    (cli, "extract_transshipment", "expansion.extract_transshipment", None),
    (solver, "minimize_slack", "sfm.minimize_slack", None),
    (solver, "crossing_time", "horizon.crossing_time", None),
    (solver, "slope_left", "horizon.slope_left", None),
    (sfm, "value_at", "horizon.value_at", None),
    (ssp.ProfileCache, "profile", "ssp.ProfileCache.profile", _subset_counts),
    (ssp, "compute_profile", "ssp.compute_profile", _profile_counts),
    (expansion, "scale_to_integral", "expansion.scale_to_integral", _scale_counts),
    (expansion, "build_time_expanded", "expansion.build_time_expanded",
     _expansion_counts),
)


class Tracer:
    """Install with ``with tracer:``; set ``tracer.op`` before each operation."""

    def __init__(self):
        self.names = [p[2] for p in PATCHES]
        self.name = array("i")
        self.parent = array("i")
        self.op_of = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts = defaultdict(Counter)     # operation id -> counters
        self.op = -1
        self.envelope = -1                     # envelope span of ``subsets``
        self.subsets = set()
        self._stack = [-1]
        self._saved = []

    @property
    def current(self) -> Counter:
        """The counters of the operation being traced."""
        return self.counts[self.op]

    def parent_span(self) -> int:
        """Index of the innermost open span, -1 outside every span."""
        return self._stack[-1]

    def _wrap(self, name_id, fn, hook):
        name, parent, op_of = self.name, self.parent, self.op_of
        start, end, stack, clock = self.start, self.end, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            idx = len(name)
            name.append(name_id)
            parent.append(stack[-1])
            op_of.append(self.op)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if hook is not None:
                hook(self, result, args, kwargs)
            return result
        return traced

    def __enter__(self):
        for name_id, (owner, attr, _, hook) in enumerate(PATCHES):
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name_id, original, hook))
        return self

    def __exit__(self, *exc):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
        return False

    def spans(self):
        """Yield (name, parent name or None, op, duration, self time) per span."""
        covered = [0.0] * len(self.name)
        for idx, up in enumerate(self.parent):
            if up >= 0:
                covered[up] += self.end[idx] - self.start[idx]
        for idx, name_id in enumerate(self.name):
            up = self.parent[idx]
            duration = self.end[idx] - self.start[idx]
            yield (self.names[name_id],
                   self.names[self.name[up]] if up >= 0 else None,
                   self.op_of[idx], duration, duration - covered[idx])

    def write(self, path, header: dict):
        """Write one JSON header line, then one tab-separated line per span."""
        origin = self.start[0] if self.start else 0.0
        with open(path, "w") as out:
            out.write(json.dumps(header, sort_keys=True) + "\n")
            out.write("id\tparent\top\tname\tstart_s\tend_s\n")
            for idx, name_id in enumerate(self.name):
                out.write("%d\t%d\t%d\t%s\t%.9f\t%.9f\n"
                          % (idx, self.parent[idx], self.op_of[idx],
                             self.names[name_id], self.start[idx] - origin,
                             self.end[idx] - origin))


# Per-layer metrics: name -> (unit, better).  Counts come from the first
# pass over the pool, so they repeat exactly for one seed; times are means
# over every traced operation.
LAYER_METRICS = {
    "instances.parse_s": ("s/op", "lower"),
    "core.validate_s": ("s/op", "lower"),
    "ssp.profiles_built": ("count/op", "lower"),
    "ssp.cache_lookups": ("count/op", "lower"),
    "ssp.cache_hit_ratio": ("ratio", "higher"),
    "ssp.segments": ("count/op", "lower"),
    "ssp.build_s": ("s/op", "lower"),
    "ssp.build_ms_per_profile": ("ms", "lower"),
    "ssp.max_den_bits": ("bits", "lower"),
    "horizon.value_at_calls": ("count/op", "lower"),
    "horizon.value_at_s": ("s/op", "lower"),
    "horizon.crossing_calls": ("count/op", "lower"),
    "horizon.slope_calls": ("count/op", "lower"),
    "sfm.envelope_calls": ("count/op", "lower"),
    "sfm.subsets_per_envelope": ("count", "lower"),
    "sfm.self_s": ("s/op", "lower"),
    "solver.iterations": ("count/op", "lower"),
    "solver.envelope_calls_per_iter": ("count", "lower"),
    "solver.self_s": ("s/op", "lower"),
    "expansion.nodes": ("count/op", "lower"),
    "expansion.arcs": ("count/op", "lower"),
    "expansion.scale_q": ("count/op", "lower"),
    "expansion.build_s": ("s/op", "lower"),
    "expansion.maxflow_s": ("s/op", "lower"),
    "cli.self_s": ("s/op", "lower"),
    "trace.overhead_frac": ("frac", "lower"),
}

# The counts above that must repeat exactly across runs of one seed.
DETERMINISTIC = tuple(name for name, (unit, _) in LAYER_METRICS.items()
                      if unit in ("count/op", "count", "ratio", "bits"))


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, first_pass: int, ops: int) -> dict:
    """Per-layer metrics from a traced run of ``ops`` operations.

    Operations ``0 .. first_pass - 1`` are the first pass over the pool.
    """
    calls = Counter()       # span name -> calls in the first pass
    every = Counter()       # span name -> calls, all operations
    total = Counter()       # span name -> summed duration, all operations
    own = Counter()         # span name -> summed self time, all operations
    for name, _, op, duration, self_time in tracer.spans():
        every[name] += 1
        total[name] += duration
        own[name] += self_time
        if op < first_pass:
            calls[name] += 1
    counts = Counter()
    max_bits = 0
    for op in range(first_pass):
        for key, value in tracer.counts[op].items():
            if key == "ssp.max_den_bits":
                max_bits = max(max_bits, value)
            else:
                counts[key] += value

    def per_pass(value):
        return value / first_pass

    def per_op(value):
        return value / ops

    built = calls["ssp.compute_profile"]
    lookups = calls["ssp.ProfileCache.profile"]
    envelopes = calls["sfm.minimize_slack"]
    return {
        "instances.parse_s": per_op(total["instances.parse_instance"]),
        "core.validate_s": per_op(total["core.validate_instance"]),
        "ssp.profiles_built": per_pass(built),
        "ssp.cache_lookups": per_pass(lookups),
        "ssp.cache_hit_ratio": _ratio(lookups - built, lookups),
        "ssp.segments": per_pass(counts["ssp.segments"]),
        "ssp.build_s": per_op(total["ssp.compute_profile"]),
        "ssp.build_ms_per_profile": 1000 * _ratio(total["ssp.compute_profile"],
                                                  every["ssp.compute_profile"]),
        "ssp.max_den_bits": max_bits,
        "horizon.value_at_calls": per_pass(calls["horizon.value_at"]),
        "horizon.value_at_s": per_op(total["horizon.value_at"]),
        "horizon.crossing_calls": per_pass(calls["horizon.crossing_time"]),
        "horizon.slope_calls": per_pass(calls["horizon.slope_left"]),
        "sfm.envelope_calls": per_pass(envelopes),
        "sfm.subsets_per_envelope": _ratio(counts["sfm.subsets"], envelopes),
        "sfm.self_s": per_op(own["sfm.minimize_slack"]),
        "solver.iterations": per_pass(counts["solver.iterations"]),
        "solver.envelope_calls_per_iter": _ratio(envelopes,
                                                 counts["solver.iterations"]),
        "solver.self_s": per_op(own["solver.solve_newton_jumps"]),
        "expansion.nodes": per_pass(counts["expansion.nodes"]),
        "expansion.arcs": per_pass(counts["expansion.arcs"]),
        "expansion.scale_q": per_pass(counts["expansion.scale_q"]),
        "expansion.build_s": per_op(total["expansion.build_time_expanded"]),
        "expansion.maxflow_s": per_op(own["expansion.extract_transshipment"]),
        "cli.self_s": per_op(own["cli.main"]),
    }
