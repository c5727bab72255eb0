"""Exact solver for the quickest transshipment problem.

Given a network whose arcs have capacities (rate bounds) and transit
times, plus balanced supplies at source and sink terminals, find the
smallest deadline by which all supply can be routed, and a flow over
time achieving it.  All arithmetic is exact (rationals), so results
are reproducible bit for bit.
"""

from .core import (MAX_NODES, MAX_TERMINALS, Arc, FlowNetwork, Rat,
                   SupplyVector, TerminalSet, format_rational, net_supply,
                   parse_rational, validate_instance)
from .errors import (InfeasibleDeadline, InfeasibleForever,
                     InstanceFormatError, InvariantViolation,
                     ResourceCapExceeded, TransshipError)
from .expansion import (FlowOverTime, TimeExpandedNetwork,
                        build_time_expanded, extract_transshipment,
                        feasible_by_expansion, scale_to_integral,
                        value_by_expansion, verify_flow)
from .horizon import breakpoints, crossing_time, slope_left, value_at
from .instances import (dump_document, generate_instance, parse_instance,
                        serialize_instance, sources_reach_sinks)
from .sfm import SlackMinimum, is_feasible, min_slack, minimize_slack
from .solver import (IterationRecord, SolveResult, classify_iterations,
                     halving_violations, jump_set, solve_newton_jumps,
                     solve_newton_simple, theta_star_bruteforce)
from .ssp import FlowProfile, ProfileCache, Segment, compute_profile

__all__ = [
    "Arc", "FlowNetwork", "FlowOverTime", "FlowProfile",
    "InfeasibleDeadline", "InfeasibleForever", "InstanceFormatError",
    "InvariantViolation", "IterationRecord", "MAX_NODES", "MAX_TERMINALS",
    "ProfileCache", "Rat", "ResourceCapExceeded", "Segment", "SlackMinimum",
    "SolveResult", "SupplyVector", "TerminalSet", "TimeExpandedNetwork", "TransshipError",
    "breakpoints", "build_time_expanded", "classify_iterations",
    "compute_profile", "crossing_time", "dump_document",
    "extract_transshipment", "feasible_by_expansion", "format_rational",
    "generate_instance", "halving_violations", "is_feasible", "jump_set",
    "min_slack", "minimize_slack", "net_supply", "parse_instance",
    "parse_rational", "scale_to_integral", "serialize_instance",
    "slope_left", "solve_newton_jumps", "solve_newton_simple",
    "sources_reach_sinks", "theta_star_bruteforce", "validate_instance",
    "value_at", "value_by_expansion", "verify_flow",
]

__version__ = "0.1.0"
