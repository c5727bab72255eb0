"""Base model for flow-over-time instances.

An instance is a directed network whose arcs have a capacity (maximum inflow
rate) and a transit time (delay between entering the tail and leaving the
head), together with two disjoint terminal groups: sources, which hold a
supply to ship, and sinks, which hold a demand to absorb.  The solver asks
for the smallest deadline by which all supply can reach the sinks.

Conventions used throughout the package:

* All quantities (capacities, transit times, supplies, deadlines) are exact
  rationals, represented by ``fractions.Fraction``.  Nothing on the solve
  path ever touches floating point.
* Terminals are ordered sources first, then sinks, in the order the instance
  lists them.  Subsets of terminals are bit sets over that fixed order.
* Supplies are nonnegative on sources, demands nonpositive on sinks, and the
  whole vector sums to zero.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Iterator, Mapping

from .errors import ResourceCapExceeded

__all__ = [
    "Rat",
    "parse_rational",
    "format_rational",
    "Arc",
    "FlowNetwork",
    "TerminalSet",
    "SupplyVector",
    "net_supply",
    "validate_instance",
]

# Exact rational scalar used for every numeric quantity in the package.
Rat = Fraction

# Terminal-count ceiling for bit-set subsets. Past this, masks no longer fit
# comfortably in machine words and brute-force enumeration is hopeless anyway.
MAX_TERMINALS = 62

# Node-count ceiling, checked by parse_instance before any per-node allocation:
# a solve at this size stays near 25 MB, one at 10^9 nodes runs out of memory.
MAX_NODES = 100_000

# Arc-count ceiling, checked beside MAX_NODES before any per-arc allocation:
# generating 10^6 arcs took 11 s and 1.1 GB, so 10^8 would run out of memory.
MAX_ARCS = 1_000_000

# Ceiling on the bits of an lcm that scales an instance onto integers, checked
# as each denominator joins it: distinct prime denominators on 8,000 arcs made
# a 127k-bit scale that took 1.7 s to build on a 2-vCPU host, and that cost
# grows with the square of the arc count.
MAX_SCALE_BITS = 4096


def scale_lcm(denominators: Iterable[int]) -> int:
    """The lcm of ``denominators`` (1 for none); raises ResourceCapExceeded
    as soon as it passes ``MAX_SCALE_BITS`` bits."""
    q = 1
    for d in denominators:
        q = math.lcm(q, d)
        if q.bit_length() > MAX_SCALE_BITS:
            raise ResourceCapExceeded(q.bit_length(), MAX_SCALE_BITS, "scale bits")
    return q


def parse_rational(text) -> Rat:
    """Parse ``"p/q"``, a bare integer, or an int into a normalized rational.

    Floats are rejected on purpose: a float literal in an instance document
    is almost always an accident, and silently converting it would smuggle
    binary rounding into an exact computation.
    """
    if isinstance(text, bool):
        raise ValueError("expected a rational, got a boolean")
    if isinstance(text, int):
        return Fraction(text)
    if isinstance(text, Fraction):
        return text
    if not isinstance(text, str):
        raise ValueError("expected a rational as 'p/q' string or integer, got %r" % (text,))
    body = text.strip()
    if not re.fullmatch(r"-?\d+(/-?\d+)?", body):
        raise ValueError("malformed rational %r: use an integer or 'p/q'" % (text,))
    try:
        return Fraction(body)
    except ZeroDivisionError:
        raise ValueError("malformed rational %r: zero denominator" % (text,)) from None


def format_rational(value: Rat):
    """Render a rational for JSON: bare int when integral, else ``"p/q"``."""
    if value.denominator == 1:
        return int(value)
    return "%d/%d" % (value.numerator, value.denominator)


@dataclass(frozen=True)
class Arc:
    """A directed arc with an inflow-rate capacity and a transit time."""

    tail: int
    head: int
    capacity: Rat
    transit: Rat


@dataclass(frozen=True)
class FlowNetwork:
    """Immutable instance topology: digraph plus terminal designations.

    ``sources`` and ``sinks`` are tuples of node ids; they must be disjoint
    and duplicate-free (checked by ``validate_instance``).  Parallel arcs are
    allowed, self-loops are not.
    """

    node_count: int
    arcs: tuple[Arc, ...]
    sources: tuple[int, ...]
    sinks: tuple[int, ...]

    @cached_property
    def terminals(self) -> tuple[int, ...]:
        """All terminal node ids, sources first, in declaration order."""
        return self.sources + self.sinks

    @property
    def k(self) -> int:
        return len(self.sources) + len(self.sinks)

    @cached_property
    def terminal_index(self) -> Mapping[int, int]:
        """Node id -> position in ``terminals``."""
        return {v: i for i, v in enumerate(self.terminals)}

    @cached_property
    def capacity_bound(self) -> Rat:
        """Sum of all arc capacities.

        Any flow between the two terminal sides must cross at least one
        original arc, so this finite value can stand in for an unbounded
        capacity on auxiliary arcs without ever binding.
        """
        return sum((a.capacity for a in self.arcs), Fraction(0))


@dataclass(frozen=True)
class TerminalSet:
    """A subset of the instance's terminals, stored as a bit set.

    Bit ``i`` refers to ``network.terminals[i]``; the width pins the terminal
    count so sets from different instances cannot be mixed up silently.
    """

    bits: int
    width: int

    def __post_init__(self):
        if not 0 <= self.width <= MAX_TERMINALS:
            raise ValueError("terminal set width %d out of range" % self.width)
        if not 0 <= self.bits < (1 << self.width):
            raise ValueError("bit set %#x does not fit %d terminals" % (self.bits, self.width))

    @classmethod
    def of_nodes(cls, network: FlowNetwork, nodes: Iterable[int]) -> "TerminalSet":
        """Build a set from node ids; every node must be a terminal."""
        bits = 0
        index = network.terminal_index
        for v in nodes:
            if v not in index:
                raise ValueError("node %d is not a terminal" % v)
            bits |= 1 << index[v]
        return cls(bits, network.k)

    def members(self) -> Iterator[int]:
        """Yield member positions (terminal indices), ascending."""
        bits = self.bits
        i = 0
        while bits:
            if bits & 1:
                yield i
            bits >>= 1
            i += 1

    def nodes(self, network: FlowNetwork) -> tuple[int, ...]:
        """Member node ids, in terminal order."""
        terms = network.terminals
        return tuple(terms[i] for i in self.members())

    def __contains__(self, index: int) -> bool:
        return 0 <= index < self.width and bool(self.bits >> index & 1)

    def __len__(self) -> int:
        return bin(self.bits).count("1")

    def label(self, network: FlowNetwork) -> str:
        """Human-readable form, e.g. ``{0,3}`` (node ids)."""
        return "{%s}" % ",".join(str(v) for v in self.nodes(network))


@dataclass(frozen=True)
class SupplyVector:
    """Supply/demand per terminal, aligned with ``network.terminals``.

    Sources carry their supply (>= 0), sinks their demand as a nonpositive
    number; the vector must sum to zero for the instance to make sense.
    """

    values: tuple[Rat, ...]

    @classmethod
    def for_network(cls, network: FlowNetwork, by_node: Mapping[int, Rat]) -> "SupplyVector":
        missing = [v for v in network.terminals if v not in by_node]
        if missing:
            raise ValueError("no supply value for terminal nodes %s" % missing)
        extra = [v for v in by_node if v not in network.terminal_index]
        if extra:
            raise ValueError("supply values for non-terminal nodes %s" % sorted(extra))
        return cls(tuple(Fraction(by_node[v]) for v in network.terminals))

    def by_node(self, network: FlowNetwork) -> dict[int, Rat]:
        return dict(zip(network.terminals, self.values))

    def total_supply(self) -> Rat:
        """Sum of the positive entries (what the sources must ship)."""
        return sum((x for x in self.values if x > 0), Fraction(0))


def net_supply(b: SupplyVector, subset: TerminalSet) -> Rat:
    """Net supply of a terminal subset: sum of its entries in ``b``.

    Positive means the subset holds more supply than its own sinks can
    absorb, so the surplus must leave the subset before the deadline.
    """
    values = b.values
    if subset.width != len(values):
        raise ValueError("terminal set width %d does not match supply vector length %d"
                         % (subset.width, len(values)))
    return sum((values[i] for i in subset.members()), Fraction(0))


def validate_instance(network: FlowNetwork, b: SupplyVector | None = None) -> list[str]:
    """Check an instance for structural problems.

    Returns a list of human-readable violations; an empty list means the
    instance is well formed.  When ``b`` is given, supply-side rules are
    checked as well.
    """
    problems = []
    n = network.node_count
    if n < 0:
        problems.append("negative node count")
    for i, a in enumerate(network.arcs):
        if not (0 <= a.tail < n and 0 <= a.head < n):
            problems.append("arc %d endpoints (%d,%d) out of range" % (i, a.tail, a.head))
        if a.tail == a.head:
            problems.append("arc %d is a self-loop at node %d" % (i, a.tail))
        if a.capacity < 0:
            problems.append("arc %d has negative capacity %s" % (i, a.capacity))
        if a.transit < 0:
            problems.append("arc %d has negative transit time %s" % (i, a.transit))
    for side, nodes in (("source", network.sources), ("sink", network.sinks)):
        seen = set()
        for v in nodes:
            if not 0 <= v < n:
                problems.append("%s node %d out of range" % (side, v))
            if v in seen:
                problems.append("duplicate %s node %d" % (side, v))
            seen.add(v)
    overlap = set(network.sources) & set(network.sinks)
    if overlap:
        problems.append("terminal sets overlap: nodes %s are both source and sink"
                        % sorted(overlap))
    if network.k > MAX_TERMINALS:
        problems.append("instance has %d terminals, over the bit-set limit of %d"
                        % (network.k, MAX_TERMINALS))
    if b is not None:
        if len(b.values) != network.k:
            problems.append("supply vector has %d entries for %d terminals"
                            % (len(b.values), network.k))
        else:
            n_src = len(network.sources)
            for i, value in enumerate(b.values):
                v = network.terminals[i]
                if i < n_src and value < 0:
                    problems.append("source node %d has negative supply %s" % (v, value))
                if i >= n_src and value > 0:
                    problems.append("sink node %d has positive demand %s" % (v, value))
            if sum(b.values) != 0:
                problems.append("supplies do not sum to zero (total %s)" % sum(b.values))
    return problems
