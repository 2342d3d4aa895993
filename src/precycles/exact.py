"""Exact class-counting statistics in S_n and A_n.

Every function here returns plain ``fractions.Fraction`` values (always
checked to lie in [0, 1] when they are proportions).  The production
route is a coefficient recurrence for cycle-length avoidance, kept on
one fixed scale A_m = n! * q_m so every term is an integer.  The window
statistics are sums of recurrence terms over window-prime subsets S
with sum(S) <= n: by the exponential formula, one p-cycle for each p in
S next to m = n - sum(S) points that avoid a set of lengths has
proportion (prod_{p in S} 1/p) * q_m, which is A_m // prod(S) on the
scale n!.

The subsets are walked depth first, and each continues its parent's
sequence from the first length it newly forbids (p, or 2p when p was
already a forbidden single), so no subset reruns the recurrence from
index 0.  A subset forbids every multiple of its primes; a step
removes them by inclusion-exclusion over running sums on the residue
classes of the squarefree products of those primes, one term per
product instead of one per multiple.  Other forbidden lengths cost one
term each.

Proportions over A_n weight each even class by 2/|C(lambda)|, through
a signed companion sequence that runs the same recurrence.

Degrees above ``ENUMERATION_BOUND`` are refused by the window functions
with :class:`EnumerationCapacityError`; Monte Carlo estimation
(:mod:`precycles.montecarlo`) is the fallback at that scale.
"""
from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .perm import DEGREE_CAP
from .primes import is_prime_trial, sieve_interval

# Largest degree the window functions accept.  The prime-subset sums
# reach further (the paper's window at n = 700 takes about a second);
# the bound stays at the old partition sweep's reach until a benchmark
# sets a new one.
ENUMERATION_BOUND = 60


class EnumerationCapacityError(ValueError):
    """Degree above ``ENUMERATION_BOUND`` for an exact window function."""

    def __init__(self, n: int, bound: int):
        super().__init__(
            f"degree {n} exceeds the exact enumeration bound {bound}; "
            "use precycles.montecarlo.estimate_event for estimates at this scale"
        )
        self.n = n
        self.bound = bound


def _check_group(group: str, n: int) -> None:
    if group not in ("sym", "alt"):
        raise ValueError(f"group must be 'sym' or 'alt', got {group!r}")
    if group == "alt" and n < 2:
        raise ValueError("group='alt' requires n >= 2")


def _check_unit_interval(q: Fraction) -> Fraction:
    if not 0 <= q <= 1:
        raise AssertionError(f"proportion {q} outside [0, 1]")
    return q


@dataclass(frozen=True)
class ForbiddenSet:
    """A set of forbidden cycle lengths inside {1..n}."""

    n: int
    members: frozenset[int]

    def __post_init__(self) -> None:
        object.__setattr__(self, "members", frozenset(self.members))
        if self.n < 0:
            raise ValueError(f"degree must be >= 0, got {self.n}")
        for a in self.members:
            if not isinstance(a, int) or not 1 <= a <= self.n:
                raise ValueError(f"forbidden length {a!r} outside 1..{self.n}")

    @cached_property
    def mu(self) -> Fraction:
        """sum of 1/a over the forbidden lengths."""
        return sum((Fraction(1, a) for a in self.members), Fraction(0))


@dataclass(frozen=True)
class PrimeWindow:
    """The primes in a half-open interval (lo, hi].

    ``primes`` is not an argument: construction sieves the interval
    with :func:`~precycles.primes.sieve_interval`, so the tuple is
    complete and ascending.  The endpoints must satisfy
    lo <= hi <= lo + ``DEGREE_CAP``, which no infinity or NaN does, and
    floor(hi) <= ``DEGREE_CAP**2`` (10**14), so the base primes come
    from a sieve no larger than 10**7.
    """

    lo: float
    hi: float
    primes: tuple[int, ...] = field(init=False)

    def __post_init__(self) -> None:
        if not 0 <= self.hi - self.lo <= DEGREE_CAP:
            raise ValueError(f"window ({self.lo}, {self.hi}] needs "
                             f"lo <= hi <= lo + {DEGREE_CAP}")
        if math.floor(self.hi) > DEGREE_CAP**2:
            raise ValueError(f"window ({self.lo}, {self.hi}] needs "
                             f"floor(hi) <= {DEGREE_CAP**2}")
        start = math.floor(self.lo) + 1
        found = np.flatnonzero(sieve_interval(start, math.floor(self.hi)))
        object.__setattr__(self, "primes", tuple((found + start).tolist()))


def prime_window(lo: float, hi: float) -> PrimeWindow:
    """The window of the primes in (lo, hi], endpoints taken as floats."""
    return PrimeWindow(float(lo), float(hi))


# ---------------------------------------------------------------------------
# Cycle-length avoidance.

# A class sum (d, subtract, r): r[j] = sum over t >= 1 of s[j - t*d], the
# running sum of the sequence s over one residue class mod d, kept as
# r[j] = s[j - d] + r[j - d].  It enters a step with its
# inclusion-exclusion sign: subtracted when ``subtract``, else added.
_ClassSum = tuple[int, bool, list[int]]
# One sequence of a subset with its class sums.  S_n needs one lane;
# A_n adds the signed companion's.
_Lane = tuple[list[int], list[_ClassSum]]


def _extend(
    s: list[int], stop: int, classes: list[_ClassSum],
    singles: list[int], sign: int,
) -> None:
    """Run the avoidance recurrence on ``s`` in place up to index stop - 1.

    s[0] = n! and s[j] = n! q_j, where q_j is the S_j proportion with no
    cycle length in a forbidden set F.  Differentiating the exponential
    generating function gives j q_j = sum_{k<=j, k not in F} q_{j-k},
    so each step takes the running sum of the earlier s[i], removes
    sum_{k in F, k<=j} s[j-k] and divides exactly by j.

    F is the union of the multiples of the ``classes``' primes and the
    ascending ``singles``.  The multiples are removed by
    inclusion-exclusion over the class sums of squarefree products d of
    those primes: one term per d <= j instead of one per multiple.  The
    class lists ``r`` must already hold every index below len(s); the
    steps fill the rest.  ``singles`` are removed one term each.

    With ``sign`` = -1 the same steps give c_j = (-1)**j b_j for the
    signed companion b_j = n! * sum over the classes of S_j avoiding F
    of sign/|C|: its generating function exp(sum_{k not in F}
    (-1)**(k-1) x**k / k) at -x is exp(-sum_{k not in F} x**k / k), so
    only the division changes sign.
    """
    run = sum(s)
    for j in range(len(s), stop):
        total = run
        for d, subtract, r in classes:
            if d > j:
                break
            r[j] = v = s[j - d] + r[j - d]
            if subtract:
                total -= v
            else:
                total += v
        for k in singles:
            if k > j:
                break
            total -= s[j - k]
        v = total // (sign * j)
        s.append(v)
        run += v


def _lane_signs(group: str) -> tuple[int, ...]:
    """The recurrence signs a group needs: S_n's count, and for A_n its
    signed companion too."""
    return (1, -1) if group == "alt" else (1,)


def _root_lanes(n: int, group: str, singles: list[int]) -> list[_Lane]:
    """The lanes of S empty, with no class sums, run to index n."""
    lanes: list[_Lane] = []
    for sign in _lane_signs(group):
        s = [math.factorial(n)]
        _extend(s, n + 1, [], singles, sign)
        lanes.append((s, []))
    return lanes


def _in_group(values: list[int], m: int, parity: int) -> int:
    """n! times the group proportion from the lanes' values at index m.

    In A_n a class counts at twice its S_n weight when even and not at
    all when odd, so the proportion is q + parity * b on the scale n!,
    with b = (-1)**m c_m read from the signed lane and ``parity`` the
    sign of the cycles placed outside the m points.
    """
    if len(values) == 1:
        return values[0]
    return values[0] + parity * (-1) ** m * values[1]


def avoid_proportion(fs: ForbiddenSet, group: str = "sym") -> Fraction:
    """Proportion of the group with no cycle length in ``fs.members``.

    For A_n this is q_n + q~_n: even classes counted at twice their S_n
    weight via the signed companion recurrence.
    """
    _check_group(group, fs.n)
    n = fs.n
    lanes = _root_lanes(n, group, sorted(fs.members))
    count = _in_group([s[n] for s, _ in lanes], n, 1)
    return _check_unit_interval(Fraction(count, math.factorial(n)))


# ---------------------------------------------------------------------------
# Pre-p-cycle densities.


def coprime_order_density(m: int, p: int) -> Fraction:
    """Proportion of S_m whose order is coprime to the prime p.

    Equals prod_{i=1..floor(m/p)} (1 - 1/(i*p)); in particular 1 when
    m < p.
    """
    if not is_prime_trial(p):
        raise ValueError(f"p must be prime, got {p}")
    if m < 0:
        raise ValueError(f"m must be >= 0, got {m}")
    out = Fraction(1)
    for i in range(1, m // p + 1):
        out *= 1 - Fraction(1, i * p)
    return _check_unit_interval(out)


def pre_cycle_density(n: int, p: int) -> Fraction:
    """Exact S_n proportion of permutations some power of which is a p-cycle.

    Requires p prime with p <= n; the value is (1/p) times the density
    of order-coprime-to-p permutations on the remaining n - p points.
    """
    if not is_prime_trial(p):
        raise ValueError(f"p must be prime, got {p}")
    if p > n:
        raise ValueError(f"need p <= n, got p={p}, n={n}")
    return _check_unit_interval(Fraction(1, p) * coprime_order_density(n - p, p))


def _check_window_args(
    n: int, group: str, window: PrimeWindow | None = None
) -> None:
    """The argument check shared by the window functions, in the order
    group, window, bound."""
    _check_group(group, n)
    if window is not None:
        _check_window(n, window)
    if n > ENUMERATION_BOUND:
        raise EnumerationCapacityError(n, ENUMERATION_BOUND)


def _check_window(n: int, window: PrimeWindow) -> None:
    i = bisect.bisect_right(window.primes, n)
    if i < len(window.primes):
        raise ValueError(f"window prime {window.primes[i]} exceeds degree {n}")


def _child_lane(
    s: list[int], classes: list[_ClassSum], p: int, cut: int, stop: int,
    singles: list[int], sign: int,
) -> _Lane:
    """The sequence and class sums of S + {p} from those of S.

    Both forbid the same lengths below ``cut``, so the child shares the
    parent's prefix there and runs only the steps cut..stop-1.  Class
    sums of S with d < stop are copied below the cut; the new ones are
    p * d for d = 1 and each d of S (sign flipped), filled below the cut
    from the shared prefix.
    """
    pad = [0] * (stop - cut)
    kept = [(d, sub, r[:cut] + pad) for d, sub, r in classes if d < stop]
    new = []
    for d, sub in [(1, False)] + [(d, sub) for d, sub, _ in kept]:
        d *= p
        if d >= stop:
            break
        r = [0] * stop
        for j in range(d, cut):
            r[j] = s[j - d] + r[j - d]
        new.append((d, not sub, r))
    classes = sorted(kept + new)
    s = s[:cut]
    _extend(s, stop, classes, singles, sign)
    return s, classes


def _subset_sums(
    n: int, primes: tuple[int, ...], group: str, others_absent: bool
) -> tuple[int, list[int]]:
    """Walk the nonempty subsets S of ``primes`` with sum(S) <= n.

    Each S places one p-cycle for each p in S, and the other m = n -
    sum(S) points avoid the multiples of S's primes, plus, when
    ``others_absent``, the primes outside S.  By the exponential formula
    that set has proportion (prod_{p in S} 1/p) * q_m, so its term on
    the scale n! is A_m // prod(S), an exact division.

    Returns A_n for S empty and [sum over even |S|, sum over odd |S|],
    all on the scale n! and in the group's weighting.
    """
    singles = list(primes) if others_absent else []
    root = _root_lanes(n, group, singles)
    sums = [0, 0]
    _visit(primes, 2 if others_absent else 1, _lane_signs(group), sums,
           0, n, 1, 1, 1, root, singles)
    return _in_group([s[n] for s, _ in root], n, 1), sums


def _visit(
    primes: tuple[int, ...], factor: int, signs: tuple[int, ...],
    sums: list[int], start: int, m: int, prod: int, parity: int,
    size: int, lanes: list[_Lane], singles: list[int],
) -> None:
    """Add the terms of S + {p} and its descendants for each p in
    primes[start:] that fits in the m points left by S.

    ``prod``, ``parity`` and ``size`` are S's product, sign and size;
    ``singles`` are the lengths S forbids one at a time.  The walk is
    depth first over ascending primes and stops at the first prime that
    does not fit.  S + {p} forbids no new length below the cut
    ``factor`` * p (2p when the other primes are forbidden singles,
    since p itself already was), so it continues S's ``lanes`` from
    there up to its own m - p.  If m - p is below the cut, its value is
    S's and no step runs; its descendants are then below their cuts too
    and read the same sequences.
    """
    for i in range(start, len(primes)):
        p = primes[i]
        if p > m:
            return
        top, cut = m - p, factor * p
        rest = [k for k in singles if k != p]
        child = lanes if top < cut else [
            _child_lane(s, classes, p, cut, top + 1, rest, sign)
            for (s, classes), sign in zip(lanes, signs)]
        sign_p = -parity if p == 2 else parity
        value = _in_group([s[top] for s, _ in child], top, sign_p)
        sums[size % 2] += value // (prod * p)
        if i + 1 < len(primes) and primes[i + 1] <= top:
            _visit(primes, factor, signs, sums, i + 1, top, prod * p,
                   sign_p, size + 1, child, rest)


def window_proportion(n: int, window: PrimeWindow, group: str = "sym") -> Fraction:
    """Exact proportion of pre-p-cycles for some prime p in the window.

    A class qualifies when some window prime p has multiplicity exactly
    1 and no multiple of p appears as another cycle length.  Computed by
    inclusion-exclusion over window-prime subsets S: the classes that
    are pre-p for every p in S have proportion
    (prod_{p in S} 1/p) * q_m(no length divisible by a prime of S),
    with m = n - sum(S).
    """
    _check_window_args(n, group, window)
    _, (even, odd) = _subset_sums(n, window.primes, group, others_absent=False)
    return _check_unit_interval(Fraction(odd - even, math.factorial(n)))


class WindowHitStats(NamedTuple):
    """Class proportions of window-prime hits and of repeated hits."""

    hit: Fraction
    repeat: Fraction


def window_hit_proportions(
    n: int, window: PrimeWindow, group: str = "sym"
) -> WindowHitStats:
    """Proportions (hit, repeat) for a prime window.

    ``hit``: some window prime occurs as a cycle length.  ``repeat``:
    some window prime p occurs and the total count of p-divisible cycle
    lengths is at least 2.  hit - repeat is a lower bound for
    :func:`window_proportion` (the difference set consists only of
    pre-p-cycles), and window_proportion <= hit.

    hit is 1 minus the avoidance of the window primes.  hit - repeat is
    a disjoint sum over the set S of window primes that occur: each
    p in S is a single p-cycle with no other multiple of p, and the
    primes of the window outside S are absent.
    """
    _check_window_args(n, group, window)
    avoiders, sums = _subset_sums(n, window.primes, group, others_absent=True)
    nf = math.factorial(n)
    hit = 1 - Fraction(avoiders, nf)
    return WindowHitStats(
        _check_unit_interval(hit),
        _check_unit_interval(hit - Fraction(sum(sums), nf)),
    )


def pre_prime_cycle_proportion(n: int, group: str = "sym") -> Fraction:
    """Exact proportion of pre-p-cycles over all primes 2 <= p <= n - 3."""
    _check_window_args(n, group)
    return window_proportion(n, prime_window(1, max(n - 3, 1)), group)


def cycle_proportion(n: int) -> Fraction:
    """Proportion of S_n that is a single cycle of length >= 2 (n >= 2).

    Equals sum_{k=2..n} 1/(k * (n-k)!); n times this tends to e.
    """
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    total = sum(
        (Fraction(1, k * math.factorial(n - k)) for k in range(2, n + 1)),
        Fraction(0),
    )
    return _check_unit_interval(total)
