"""Discrete Newton solvers for the minimum feasible deadline.

The smallest feasible deadline is the first zero of the envelope
``theta -> min over subsets of slack(theta)``, a piecewise-linear,
nondecreasing function.  Both solvers run the same outer loop: while the
envelope is negative at the current deadline, pick a subset attaining the
minimum, advance to the deadline where that subset's own slack reaches zero,
and repeat.  Each iteration picks a distinct subset, so the loop terminates.

The accelerated variant additionally tries to jump past the crossing point:
from the crossing deadline it extrapolates the violated envelope linearly
(using the left-hand slope of the chosen subset's value function) and probes
geometrically spaced multiples of that Newton step, keeping the largest
probe whose envelope is still negative.  The envelope is nondecreasing, so
the probes can be binary-searched.  The jump multipliers are consecutive
powers of two up to 2**ceil(log2(k*k/4)) for k terminals; an iteration that
uses the largest multiplier is classified I1, one whose step spans a
breakpoint of some subset's value function is I2, and the rest - where the
envelope is simply linear all the way - are I3.  Outside the I1 class, every
step is guaranteed to cover at least half of the remaining distance to the
answer; ``halving_violations`` checks that guarantee on a finished trace.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from fractions import Fraction

from .core import FlowNetwork, Rat, SupplyVector, TerminalSet, net_supply
from .errors import InvariantViolation, SubsetCapExceeded
from .horizon import all_breakpoints, crossing_time, slope_left
from .sfm import DEFAULT_SUBSET_CAP, minimize_slack
from .ssp import ProfileCache

__all__ = [
    "jump_set",
    "IterationRecord",
    "SolveResult",
    "solve_newton_simple",
    "solve_newton_jumps",
    "theta_star_bruteforce",
    "classify_iterations",
    "halving_violations",
]


def jump_set(k: int) -> tuple[int, ...]:
    """Jump multipliers for ``k`` terminals: 1, 2, 4, ... up to 2**ceil(log2(k*k/4)).

    Computed in integer arithmetic: the exponent is the smallest e >= 0 with
    2**(e+2) >= k*k.
    """
    if k < 2:
        raise ValueError("jump multipliers need at least 2 terminals, got %d" % k)
    exponent = max((k * k - 1).bit_length() - 2, 0)
    return tuple(1 << j for j in range(exponent + 1))


@dataclass(frozen=True)
class IterationRecord:
    """One outer iteration: where it stood, what it chose, where it went."""

    index: int
    theta: Rat              # deadline at the start of the iteration
    subset: TerminalSet     # minimal subset attaining the envelope minimum
    slack: Rat              # envelope value there (negative while looping)
    theta_prime: Rat        # where the chosen subset's slack reaches zero
    jump: int               # multiplier used, 0 when no probe was kept
    theta_next: Rat         # deadline handed to the next iteration


@dataclass(frozen=True)
class SolveResult:
    theta_star: Rat
    trace: tuple[IterationRecord, ...]
    algorithm: str          # "simple" | "jumps"
    k: int


def _solve(network: FlowNetwork, b: SupplyVector, *, jumps: bool,
           cache: ProfileCache | None, subset_cap: int) -> SolveResult:
    if cache is None:
        cache = ProfileCache(network)
    k = network.k
    multipliers = jump_set(k) if jumps and k >= 2 else ()

    # theta_next is prime or the kept probe, both already evaluated.
    envelopes = {}

    def envelope(theta):
        if theta not in envelopes:
            envelopes[theta] = minimize_slack(network, b, theta, cache=cache,
                                              subset_cap=subset_cap)
        return envelopes[theta]

    theta = Fraction(0)
    trace = []
    seen = set()
    while True:
        minimum = envelope(theta)
        if minimum.value >= 0:
            break
        subset = minimum.subset
        if subset.bits in seen:
            raise InvariantViolation("subset %s repeated; envelope is not advancing"
                                     % subset.label(network))
        seen.add(subset.bits)
        profile = cache.profile(subset)
        prime = crossing_time(profile, net_supply(b, subset),
                              nodes=subset.nodes(network))
        theta_next, jump = prime, 0
        if multipliers:
            slack_prime = envelope(prime).value
            if slack_prime < 0:
                # The chosen subset rose to zero at prime, so its value
                # function has positive slope just below it.
                slope = slope_left(profile, prime)
                if slope <= 0:
                    raise InvariantViolation(
                        "subset %s has slope %s below its crossing %s"
                        % (subset.label(network), slope, prime))
                step = -slack_prime / slope
                jump = _largest_negative_probe(
                    lambda j: envelope(prime + j * step).value < 0,
                    multipliers)
                if jump:
                    theta_next = prime + jump * step
        trace.append(IterationRecord(len(trace), theta, subset, minimum.value,
                                     prime, jump, theta_next))
        theta = theta_next
    return SolveResult(theta_star=theta, trace=tuple(trace),
                       algorithm="jumps" if jumps else "simple", k=k)


def _largest_negative_probe(still_violated, multipliers) -> int:
    """Largest multiplier whose probe leaves the envelope negative, else 0.

    The envelope is nondecreasing, so the predicate is true on a prefix of
    the multiplier list, which binary search finds.
    """
    lo, hi = 0, len(multipliers) - 1
    best = 0
    while lo <= hi:
        mid = (lo + hi) // 2
        if still_violated(multipliers[mid]):
            best = multipliers[mid]
            lo = mid + 1
        else:
            hi = mid - 1
    return best


def solve_newton_simple(network: FlowNetwork, b: SupplyVector, *,
                        cache: ProfileCache | None = None,
                        subset_cap: int = DEFAULT_SUBSET_CAP) -> SolveResult:
    """Plain discrete Newton: always advance to the chosen subset's crossing."""
    return _solve(network, b, jumps=False, cache=cache, subset_cap=subset_cap)


def solve_newton_jumps(network: FlowNetwork, b: SupplyVector, *,
                       cache: ProfileCache | None = None,
                       subset_cap: int = DEFAULT_SUBSET_CAP) -> SolveResult:
    """Accelerated discrete Newton with geometric jump probes."""
    return _solve(network, b, jumps=True, cache=cache, subset_cap=subset_cap)


def theta_star_bruteforce(network: FlowNetwork, b: SupplyVector, *,
                          cache: ProfileCache | None = None,
                          subset_cap: int = DEFAULT_SUBSET_CAP) -> Rat:
    """Reference answer: the latest crossing time over all terminal subsets.

    Each subset's slack is nondecreasing in the deadline, so the first
    deadline where all of them are nonnegative is the maximum of the
    per-subset crossings.  Exponential, but independent of the Newton
    machinery, which makes it a trustworthy oracle.
    """
    k = network.k
    if k > subset_cap:
        raise SubsetCapExceeded(k, subset_cap)
    if cache is None:
        cache = ProfileCache(network)
    best = Fraction(0)
    for bits in range(1 << k):
        subset = TerminalSet(bits, k)
        need = net_supply(b, subset)
        if need <= 0:
            continue
        crossing = crossing_time(cache.profile(bits), need,
                                 nodes=subset.nodes(network))
        if crossing > best:
            best = crossing
    return best


def classify_iterations(result: SolveResult, network: FlowNetwork, *,
                        cache: ProfileCache | None = None,
                        subset_cap: int = DEFAULT_SUBSET_CAP) -> tuple[str, ...]:
    """Label each iteration I1 (largest multiplier), I2 (step spans a
    breakpoint of some subset's value function), or I3 (neither)."""
    if network.k > subset_cap:
        raise SubsetCapExceeded(network.k, subset_cap)
    if cache is None:
        cache = ProfileCache(network)
    bends = sorted(all_breakpoints(cache))
    top = 0
    if result.algorithm == "jumps" and result.k >= 2:
        top = jump_set(result.k)[-1]
    labels = []
    for record in result.trace:
        if top and record.jump == top:
            labels.append("I1")
            continue
        at = bisect.bisect_left(bends, record.theta)
        if at < len(bends) and bends[at] <= record.theta_next:
            labels.append("I2")
        else:
            labels.append("I3")
    return tuple(labels)


def halving_violations(result: SolveResult) -> list[str]:
    """Check the guaranteed progress rate on a finished trace.

    Every non-final iteration that did not use the largest multiplier must
    cover at least half the remaining distance to the answer, measured from
    the iteration's start; when a jump was kept, the same must hold measured
    from the crossing point.  Returns one message per violated inequality.

    Only the jump-accelerated solver promises this rate.  Plain crossing
    steps can fall short of it, so auditing a "simple" trace may report
    violations that are not bugs.
    """
    star = result.theta_star
    top = 0
    if result.algorithm == "jumps" and result.k >= 2:
        top = jump_set(result.k)[-1]
    problems = []
    for record in result.trace[:-1]:
        if top and record.jump == top:
            continue
        if 2 * (record.theta_next - record.theta) < star - record.theta:
            problems.append(
                "iteration %d advanced %s from %s, less than half the %s remaining"
                % (record.index, record.theta_next - record.theta, record.theta,
                   star - record.theta))
        if record.jump > 0 and 2 * (record.theta_next - record.theta_prime) < star - record.theta_prime:
            problems.append(
                "iteration %d jumped %s past its crossing %s, less than half the %s remaining"
                % (record.index, record.theta_next - record.theta_prime,
                   record.theta_prime, star - record.theta_prime))
    return problems
