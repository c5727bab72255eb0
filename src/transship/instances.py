"""Instance documents: JSON parsing, serialization, random generation.

The on-disk format is a single JSON object:

    {
      "nodes": 3,
      "arcs": [{"tail": 0, "head": 2, "capacity": 2, "transit": "1/2"}, ...],
      "sources": [{"node": 0, "supply": 5}, ...],
      "sinks": [{"node": 2, "demand": -5}, ...]
    }

Rationals are written as bare integers when integral and as "p/q" strings
otherwise; demands are the nonpositive supply values of the sinks.  Parsing
rejects missing and unknown fields, naming the offending field's path, so
malformed documents are easy to fix.  Serialization is canonical (sorted
keys, fixed separators), so equal instances produce byte-identical
documents.
"""

from __future__ import annotations

import json
import random

from .core import (MAX_ARCS, MAX_NODES, MAX_TERMINALS, Arc, FlowNetwork, Rat,
                   SupplyVector, format_rational, parse_rational)
from .errors import InstanceFormatError, ResourceCapExceeded

__all__ = [
    "parse_instance",
    "serialize_instance",
    "dump_document",
    "generate_instance",
    "sources_reach_sinks",
    "reject_duplicate_keys",
]


def _field(doc: dict, key: str, where: str):
    if key not in doc:
        raise InstanceFormatError("missing field %s.%s" % (where, key) if where
                                  else "missing field %s" % key)
    return doc[key]


def _known_fields(doc: dict, known, prefix: str):
    for key in doc:
        if key not in known:
            raise InstanceFormatError("unknown field %s%s" % (prefix, key))


def _as_int(value, where: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise InstanceFormatError("%s must be an integer, got %r" % (where, value))
    return value


def _as_rational(value, where: str) -> Rat:
    try:
        return parse_rational(value)
    except ValueError as exc:
        raise InstanceFormatError("%s: %s" % (where, exc)) from None


def reject_duplicate_keys(pairs) -> dict:
    """``object_pairs_hook`` for ``json``: a repeated key is an error, not a
    silent last-one-wins."""
    doc = {}
    for key, value in pairs:
        if key in doc:
            raise InstanceFormatError("duplicate key %r in a JSON object" % key)
        doc[key] = value
    return doc


def parse_instance(doc) -> tuple[FlowNetwork, SupplyVector]:
    """Build an instance from a parsed JSON object (or a JSON string)."""
    if isinstance(doc, (str, bytes)):
        try:
            doc = json.loads(doc, object_pairs_hook=reject_duplicate_keys)
        except json.JSONDecodeError as exc:
            raise InstanceFormatError("not valid JSON: %s" % exc) from None
    if not isinstance(doc, dict):
        raise InstanceFormatError("instance document must be a JSON object")
    _known_fields(doc, ("nodes", "arcs", "sources", "sinks"), "")
    n = _as_int(_field(doc, "nodes", ""), "nodes")
    if n > MAX_NODES:
        raise ResourceCapExceeded(n, MAX_NODES, "nodes")
    arcs = []
    raw_arcs = _field(doc, "arcs", "")
    if not isinstance(raw_arcs, list):
        raise InstanceFormatError("arcs must be a list")
    if len(raw_arcs) > MAX_ARCS:
        raise ResourceCapExceeded(len(raw_arcs), MAX_ARCS, "arcs")
    for i, raw in enumerate(raw_arcs):
        where = "arcs[%d]" % i
        if not isinstance(raw, dict):
            raise InstanceFormatError("%s must be an object" % where)
        _known_fields(raw, ("tail", "head", "capacity", "transit"), where + ".")
        arcs.append(Arc(
            tail=_as_int(_field(raw, "tail", where), where + ".tail"),
            head=_as_int(_field(raw, "head", where), where + ".head"),
            capacity=_as_rational(_field(raw, "capacity", where), where + ".capacity"),
            transit=_as_rational(_field(raw, "transit", where), where + ".transit"),
        ))
    by_node = {}

    def read_terminals(key: str, value_key: str, sign: int):
        nodes = []
        raw_list = _field(doc, key, "")
        if not isinstance(raw_list, list):
            raise InstanceFormatError("%s must be a list" % key)
        for i, raw in enumerate(raw_list):
            where = "%s[%d]" % (key, i)
            if not isinstance(raw, dict):
                raise InstanceFormatError("%s must be an object" % where)
            _known_fields(raw, ("node", value_key), where + ".")
            node = _as_int(_field(raw, "node", where), where + ".node")
            if node in by_node:
                raise InstanceFormatError("%s.node: node %d listed twice" % (where, node))
            value = _as_rational(_field(raw, value_key, where),
                                 "%s.%s" % (where, value_key))
            if sign * value < 0:
                raise InstanceFormatError(
                    "%s.%s must be %s, got %s"
                    % (where, value_key,
                       "nonnegative" if sign > 0 else "nonpositive", value))
            by_node[node] = value
            nodes.append(node)
        return tuple(nodes)

    sources = read_terminals("sources", "supply", 1)
    sinks = read_terminals("sinks", "demand", -1)
    network = FlowNetwork(node_count=n, arcs=tuple(arcs),
                          sources=sources, sinks=sinks)
    return network, SupplyVector(tuple(by_node[v] for v in network.terminals))


def serialize_instance(network: FlowNetwork, b: SupplyVector) -> dict:
    """Inverse of parse_instance; values come out JSON-ready."""
    values = b.by_node(network)
    return {
        "nodes": network.node_count,
        "arcs": [{"tail": a.tail, "head": a.head,
                  "capacity": format_rational(a.capacity),
                  "transit": format_rational(a.transit)} for a in network.arcs],
        "sources": [{"node": v, "supply": format_rational(values[v])}
                    for v in network.sources],
        "sinks": [{"node": v, "demand": format_rational(values[v])}
                  for v in network.sinks],
    }


def dump_document(doc) -> str:
    """Canonical JSON rendering used everywhere output must be reproducible."""
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def sources_reach_sinks(network: FlowNetwork) -> bool:
    """True when every source reaches every sink along positive-capacity arcs.

    Sufficient for a finite answer to exist: any terminal group with surplus
    then has an escape route to some sink outside the group.
    """
    adjacency = [[] for _ in range(network.node_count)]
    for a in network.arcs:
        if a.capacity > 0:
            adjacency[a.tail].append(a.head)
    wanted = set(network.sinks)
    for s in network.sources:
        seen = {s}
        frontier = [s]
        while frontier:
            nxt = []
            for u in frontier:
                for v in adjacency[u]:
                    if v not in seen:
                        seen.add(v)
                        nxt.append(v)
            frontier = nxt
        if not wanted <= seen:
            return False
    return True


def generate_instance(n: int, m: int, k: int, max_u: int, max_tau: int,
                      max_b: int, seed) -> dict:
    """Deterministically generate a solvable random instance document.

    The digraph is a random chain over all nodes plus random extra arcs, so
    it is weakly connected.  Terminals are placed on the chain with every
    source ahead of every sink, which guarantees each source reaches each
    sink through positive-capacity arcs; a finite answer therefore always
    exists.  Supplies and demands are balanced integers within ``max_b``.
    More than ``MAX_NODES`` nodes or ``MAX_ARCS`` arcs raise
    ResourceCapExceeded, as parsing does, and more than ``MAX_TERMINALS``
    terminals raise ValueError, as ``validate_instance`` words it.
    """
    if n < 2:
        raise ValueError("need at least 2 nodes, got %d" % n)
    if n > MAX_NODES:
        raise ResourceCapExceeded(n, MAX_NODES, "nodes")
    if m > MAX_ARCS:
        raise ResourceCapExceeded(m, MAX_ARCS, "arcs")
    if not 2 <= k <= n:
        raise ValueError("need 2 <= k <= n terminals, got k=%d, n=%d" % (k, n))
    if k > MAX_TERMINALS:
        raise ValueError("instance has %d terminals, over the bit-set limit of %d"
                         % (k, MAX_TERMINALS))
    if m < n - 1:
        raise ValueError("need at least n-1 arcs for connectivity, got %d" % m)
    if max_u < 1 or max_b < 1 or max_tau < 0:
        raise ValueError("bounds must be positive (max_tau may be zero)")
    rng = random.Random(seed)
    chain = rng.sample(range(n), n)
    positions = sorted(rng.sample(range(n), k))
    n_src = rng.randint(1, k - 1)
    # Keep the split balanceable: total supply of n_src sources at >= 1 each
    # must fit into (k - n_src) demands of at most max_b each.
    while n_src > (k - n_src) * max_b:
        n_src -= 1
    sources = [chain[p] for p in positions[:n_src]]
    sinks = [chain[p] for p in positions[n_src:]]
    arcs = []
    for i in range(n - 1):
        arcs.append({"tail": chain[i], "head": chain[i + 1],
                     "capacity": rng.randint(1, max_u),
                     "transit": rng.randint(0, max_tau)})
    for _ in range(m - (n - 1)):
        tail = rng.randrange(n)
        head = rng.randrange(n - 1)
        if head >= tail:
            head += 1
        arcs.append({"tail": tail, "head": head,
                     "capacity": rng.randint(1, max_u),
                     "transit": rng.randint(0, max_tau)})
    supply_cap = max(1, min(max_b, (len(sinks) * max_b) // n_src))
    supplies = [rng.randint(1, supply_cap) for _ in sources]
    remaining = sum(supplies)
    demands = []
    for j in range(len(sinks)):
        left = len(sinks) - j - 1
        lo = max(0, remaining - left * max_b)
        hi = min(max_b, remaining)
        part = rng.randint(lo, hi) if left else remaining
        demands.append(part)
        remaining -= part
    return {
        "nodes": n,
        "arcs": arcs,
        "sources": [{"node": v, "supply": s} for v, s in zip(sources, supplies)],
        "sinks": [{"node": v, "demand": -d} for v, d in zip(sinks, demands)],
    }
