"""Deadline-side evaluation of flow profiles.

A profile fixes a piecewise-linear convex function of the deadline: the
maximum amount a terminal subset can push out by that deadline.  This module
evaluates the function, its left-hand slope, and the earliest deadline at
which the subset's net supply is covered.  Slopes change exactly at the
segment lengths; the solver needs the left-hand one because it extrapolates
from a crossing point, which may land on a breakpoint.

``slope_left``, ``crossing_time`` and ``breakpoints`` read the profile's
grid ints and build one Fraction per answer.  ``value_at`` sums the
rational segments, so ``minimize_slack``'s re-check of its integer minimum
stays independent of the grid arithmetic.
"""

from __future__ import annotations

import bisect
from fractions import Fraction

from .core import Rat
from .errors import InfeasibleForever
from .ssp import FlowProfile, ProfileCache

__all__ = ["value_at", "slope_left", "crossing_time", "breakpoints", "all_breakpoints"]


def value_at(profile: FlowProfile, theta: Rat) -> Rat:
    """Maximum amount deliverable by ``theta``: sum of amount * (theta - length)."""
    if theta < 0:
        raise ValueError("deadline must be nonnegative, got %s" % theta)
    total = Fraction(0)
    for seg in profile.segments:
        if seg.length > theta:
            break
        total += seg.amount * (theta - seg.length)
    return total


def slope_left(profile: FlowProfile, theta: Rat) -> Rat:
    """Left-hand derivative of the value function at ``theta`` (> 0 only)."""
    if theta <= 0:
        raise ValueError("left slope needs a positive deadline, got %s" % theta)
    # lengths below theta * time_scale are those below its ceiling
    cut = -(-theta.numerator * profile.time_scale // theta.denominator)
    return Fraction(profile.amount_sums[bisect.bisect_left(profile.lengths, cut)],
                    profile.rate_scale)


def crossing_time(profile: FlowProfile, need: Rat, nodes=()) -> Rat:
    """Earliest deadline at which the profile delivers at least ``need``.

    Zero when nothing is required.  When the profile is empty but something
    is required, no deadline ever works and InfeasibleForever is raised;
    ``nodes`` only decorates that error message.

    On the grid the first j segments deliver ``amount_sums[j] * x -
    moment_sums[j]`` by time x, in units of 1 / (rate_scale * time_scale),
    until x reaches ``lengths[j]``; j is the first count that covers need
    by then, or all of them.
    """
    if need <= 0:
        return Fraction(0)
    lengths, amounts, moments = profile.lengths, profile.amount_sums, profile.moment_sums
    if not lengths:
        raise InfeasibleForever(nodes, need)
    q = need.denominator
    target = need.numerator * profile.rate_scale * profile.time_scale
    j = 1
    while j < len(lengths) and q * (amounts[j] * lengths[j] - moments[j]) < target:
        j += 1
    return Fraction(target + q * moments[j], q * amounts[j] * profile.time_scale)


def breakpoints(profile: FlowProfile) -> tuple[Rat, ...]:
    """Distinct segment lengths, ascending: where the value function bends."""
    return tuple(Fraction(x, profile.time_scale) for x in dict.fromkeys(profile.lengths))


def all_breakpoints(cache: ProfileCache) -> set[Rat]:
    """Breakpoints of every terminal subset's value function, pooled: one
    read per tree leaf, whose profile the subsets ending there share."""
    bends = set()
    for *_, profile in cache.leaves():
        bends.update(breakpoints(profile))
    return bends
