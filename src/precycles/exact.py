"""Exact class-counting statistics in S_n and A_n.

Every function here returns plain ``fractions.Fraction`` values (always
checked to lie in [0, 1] when they are proportions).  The production
route is a coefficient recurrence for cycle-length avoidance, kept on
one fixed scale A_m = n! * q_m so every term is an integer and each
step costs one subtraction per forbidden length: O(n * |forbidden|)
bigint additions per call.  The window statistics are sums of
recurrence terms over window-prime subsets S with sum(S) <= n: by the
exponential formula, one p-cycle for each p in S next to
m = n - sum(S) points that avoid a set of lengths has proportion
(prod_{p in S} 1/p) * q_m.

Proportions over A_n weight each even class by 2/|C(lambda)|, through
a signed companion sequence of the recurrence.

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
from typing import Iterable, Iterator, NamedTuple

import numpy as np

from .perm import DEGREE_CAP
from .primes import is_prime_trial, sieve_interval

# Largest degree the window functions accept.  The prime-subset sums
# reach further (n = 100 takes under a second); the bound stays at
# the old partition sweep's reach until a benchmark sets a new one.
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


def _avoidance_counts(n: int, forbidden: frozenset[int], signed: bool) -> int:
    """A_n = n! q_n for length avoidance, or its signed companion.

    q_m is the S_m proportion with no cycle length in ``forbidden``.
    Differentiating the exponential generating function gives
    m q_m = sum_{j<=m, j allowed} q_{m-j}.  On the fixed scale
    A_m = n! q_m every term is an integer, so each step takes one
    running sum of the earlier A_i, subtracts A_{m-j} for each
    forbidden j <= m and divides exactly by m: O(n * |forbidden|)
    integer additions per call.  The signed variant carries an extra
    (-1)**(j-1) per term, so its running sum alternates, and yields
    n! * sum_over_even_classes 1/C - n! * sum_over_odd_classes 1/C.
    """
    sign = -1 if signed else 1
    lengths = sorted(forbidden)
    a = [math.factorial(n)]
    run = 0
    for m in range(1, n + 1):
        run = a[-1] + sign * run  # sum_{i<m} sign**(m-1-i) * a[i]
        total = run
        for j in lengths:
            if j > m:
                break
            total -= a[m - j] if j % 2 or not signed else -a[m - j]
        a.append(total // m)
    return a[n]


def avoid_proportion(fs: ForbiddenSet, group: str = "sym") -> Fraction:
    """Proportion of the group with no cycle length in ``fs.members``.

    For A_n this is q_n + q~_n: even classes counted at twice their S_n
    weight via the signed companion recurrence.
    """
    _check_group(group, fs.n)
    count = _Avoiders(group).count(fs.n, fs.members)
    return _check_unit_interval(Fraction(count, math.factorial(fs.n)))


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


def _prime_subsets(
    n: int, primes: tuple[int, ...]
) -> Iterator[tuple[tuple[int, ...], int, int]]:
    """Yield (S, m, ways) for every nonempty S of ``primes`` with sum <= n.

    m = n - sum(S) points remain, and ways = n! / (m! * prod(S)) is the
    number of ways to place one p-cycle for each p in S.  ``primes``
    must ascend, so the walk stops at the first prime that does not fit.
    """
    chosen: list[int] = []

    def walk(start: int, m: int, ways: int):
        for i in range(start, len(primes)):
            p = primes[i]
            if p > m:
                return
            chosen.append(p)
            w = ways * (math.perm(m, p) // p)
            yield tuple(chosen), m - p, w
            yield from walk(i + 1, m - p, w)
            chosen.pop()

    return walk(0, n, 1)


class _Avoiders:
    """Avoidance class counts for one call, memoised on (m, forbidden).

    ``count(m, forbidden, sign)`` is A_m on the scale m!: m! times the
    proportion of S_m with no cycle length in ``forbidden`` (lengths
    above m are ignored, so they do not split the memo).  For A_n the
    signed companion, on the same scale, enters with ``sign``, the
    parity of the cycles placed outside the m points.  A term
    ``ways * count(...)`` summed over prime subsets and divided by n!
    is then a group proportion.
    """

    def __init__(self, group: str):
        self.signed = group == "alt"
        self.memo: dict[tuple[int, frozenset[int]], tuple[int, int]] = {}

    def count(self, m: int, forbidden: Iterable[int], sign: int = 1) -> int:
        key = (m, frozenset(a for a in forbidden if a <= m))
        if key not in self.memo:
            self.memo[key] = (
                _avoidance_counts(*key, False),
                _avoidance_counts(*key, True) if self.signed else 0,
            )
        total, signed_total = self.memo[key]
        return total + sign * signed_total


def _multiples(chosen: tuple[int, ...], m: int) -> set[int]:
    return {k for p in chosen for k in range(p, m + 1, p)}


def _parity(chosen: tuple[int, ...]) -> int:
    """prod (-1)**(p-1) over the chosen primes: -1 exactly when 2 is one."""
    return -1 if 2 in chosen else 1


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
    avoiders = _Avoiders(group)
    total = 0
    for chosen, m, ways in _prime_subsets(n, window.primes):
        term = ways * avoiders.count(m, _multiples(chosen, m), _parity(chosen))
        total += term if len(chosen) % 2 else -term
    return _check_unit_interval(Fraction(total, math.factorial(n)))


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
    avoiders = _Avoiders(group)
    primes = window.primes
    nf = math.factorial(n)
    hit = 1 - Fraction(avoiders.count(n, primes), nf)
    single = 0
    for chosen, m, ways in _prime_subsets(n, primes):
        forbidden = _multiples(chosen, m)
        forbidden.update(p for p in primes if p not in chosen)
        single += ways * avoiders.count(m, forbidden, _parity(chosen))
    return WindowHitStats(
        _check_unit_interval(hit),
        _check_unit_interval(hit - Fraction(single, nf)),
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
