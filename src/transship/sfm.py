"""Minimizing slack over all terminal subsets.

Feasibility of a deadline comes down to: every terminal subset must be able
to push its net supply out before time runs out.  The slack of a subset is
deliverable-amount minus net supply, and the deadline is feasible exactly
when the minimum slack over all subsets is nonnegative.  The slack is a
submodular function of the subset, so its minimizers are closed under union
and intersection; we always report the unique minimal minimizer (the
intersection of all of them) to keep results canonical.

The minimizer scans one group per leaf of the trees bounded by the supply
vector (``ProfileCache.groups``), not 2^k subsets: a leaf's subsets share its
profile wherever their slacks can be negative, so its largest need decides
and the empty set at slack 0 stands for the rest; the subset cap guards against blowups.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from fractions import Fraction

from .core import FlowNetwork, Rat, SupplyVector, TerminalSet, net_supply
from .errors import InvariantViolation
from .horizon import value_at
from .ssp import ProfileCache, cache_for

__all__ = [
    "SlackMinimum",
    "minimize_slack",
    "min_slack",
    "is_feasible",
]


@dataclass(frozen=True)
class SlackMinimum:
    """Minimal minimizer of the subset slack at one deadline."""

    subset: TerminalSet
    value: Rat


def minimize_slack(network: FlowNetwork, b: SupplyVector, theta: Rat, *,
                   cache: ProfileCache | None = None) -> SlackMinimum:
    """Find the minimal subset attaining the minimum slack at ``theta``.

    Slacks are compared as integers over one shared denominator: with
    ``theta = p/q``, a group's value is read off its profile's prefix sums
    on the cache's grid, up to the last segment no longer than ``theta``.
    Only the minimum becomes a rational again.
    """
    cache = cache_for(network, cache)
    supply_scale, groups = cache.groups(b)
    q = theta.denominator
    scaled = theta.numerator * cache.time_scale     # theta * time_scale * q
    cut = scaled // q
    gain, cost = supply_scale * scaled, supply_scale * q
    best = best_and = 0         # the empty set, at slack 0
    for prof, need, bits in groups:
        j = bisect.bisect_right(prof.lengths, cut)
        slack = gain * prof.amount_sums[j] - cost * prof.moment_sums[j] - q * need
        if slack < best:
            best = slack
            best_and = bits
        elif slack == best:
            best_and &= bits
    value = Fraction(best, q * cache.rate_scale * cache.time_scale * supply_scale)
    subset = TerminalSet(best_and, network.k)
    # Minimizers of a submodular function form a lattice, so the
    # intersection of all of them is itself a minimizer.  Recomputing its
    # slack in rationals also checks the integer arithmetic above.
    if value_at(cache.profile(best_and, b), theta) - net_supply(b, subset) != value:
        raise InvariantViolation("subset %s does not attain the minimum slack %s "
                                 "at %s" % (subset.label(network), value, theta))
    return SlackMinimum(subset, value)


def min_slack(network: FlowNetwork, b: SupplyVector, theta: Rat, **kwargs) -> Rat:
    """Minimum slack over all terminal subsets (the feasibility margin)."""
    return minimize_slack(network, b, theta, **kwargs).value


def is_feasible(network: FlowNetwork, b: SupplyVector, theta: Rat, **kwargs) -> bool:
    """True when every subset can clear its net supply by ``theta``."""
    return min_slack(network, b, theta, **kwargs) >= 0
