"""Deadline-side evaluation of flow profiles.

A profile fixes a piecewise-linear convex function of the deadline: the
maximum amount a terminal subset can push out by that deadline.  This module
evaluates the function, its left-hand slope, and the earliest deadline at
which the subset's net supply is covered.  Slopes change exactly at the
segment lengths; the solver needs the left-hand one because it extrapolates
from a crossing point, which may land on a breakpoint.
"""

from __future__ import annotations

from fractions import Fraction

from .core import Rat
from .errors import InfeasibleForever
from .ssp import FlowProfile, ProfileCache

__all__ = [
    "value_at",
    "slope_left",
    "crossing_time",
    "breakpoints",
    "all_breakpoints",
]


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
    total = Fraction(0)
    for seg in profile.segments:
        if seg.length >= theta:
            break
        total += seg.amount
    return total


def crossing_time(profile: FlowProfile, need: Rat, nodes=()) -> Rat:
    """Earliest deadline at which the profile delivers at least ``need``.

    Zero when nothing is required.  When the profile is empty but something
    is required, no deadline ever works and InfeasibleForever is raised;
    ``nodes`` only decorates that error message.
    """
    if need <= 0:
        return Fraction(0)
    value = Fraction(0)
    slope = Fraction(0)
    position = None
    for seg in profile.segments:
        if position is not None and seg.length > position:
            ahead = value + slope * (seg.length - position)
            if ahead >= need:
                return position + (need - value) / slope
            value = ahead
        slope += seg.amount
        position = seg.length
    if slope == 0:
        raise InfeasibleForever(nodes, need)
    return position + (need - value) / slope


def breakpoints(profile: FlowProfile) -> tuple[Rat, ...]:
    """Distinct segment lengths, ascending: where the value function bends."""
    out = []
    for seg in profile.segments:
        if not out or seg.length != out[-1]:
            out.append(seg.length)
    return tuple(out)


def all_breakpoints(cache: ProfileCache) -> set[Rat]:
    """Breakpoints of every terminal subset's value function, pooled."""
    bends = set()
    for bits in cache.subsets():
        bends.update(breakpoints(cache.profile(bits)))
    return bends
