"""Reference values for the benchmark's output checks.

Nothing here imports ``precycles``: every value the benchmark compares
against is recomputed by this module's own code, so a check that passes
means two separate routes agree.

The exact route counts avoiders of a set of cycle lengths with the
exponential-generating-function recurrence m q_m = sum_j eps_j q_{m-j}
(eps_j = 1, or (-1)**(j-1) for the signed companion that turns S_n
proportions into A_n ones), kept in integers as N_m = m! q_m.  Events
about window primes are then sums over prime subsets S: one p-cycle for
each p in S (weight 1/p each) times the avoidance proportion of the
remaining m = n - sum(S) points.
"""
from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable, Iterable, Iterator

import numpy as np


def is_prime(k: int) -> bool:
    """Primality by trial division."""
    if k < 2:
        return False
    return all(k % d for d in range(2, math.isqrt(k) + 1))


def primes_upto(n: int) -> list[int]:
    """All primes <= n, by a byte-array sieve."""
    if n < 2:
        return []
    flags = bytearray([1]) * (n + 1)
    flags[0] = flags[1] = 0
    for p in range(2, math.isqrt(n) + 1):
        if flags[p]:
            flags[p * p :: p] = bytes(len(range(p * p, n + 1, p)))
    return [k for k in range(n + 1) if flags[k]]


def paper_window(n: int) -> tuple[float, float]:
    """The paper's prime window (log n, (log n)**(log log n)]."""
    log_n = math.log(n)
    return log_n, log_n ** math.log(log_n)


def window_primes(lo: float, hi: float) -> tuple[int, ...]:
    """Primes p with lo < p <= hi."""
    return tuple(p for p in range(math.floor(lo) + 1, math.floor(hi) + 1) if is_prime(p))


# ---------------------------------------------------------------------------
# Avoidance of cycle lengths.


def avoid_counts(n: int, forbidden: frozenset[int], signed: bool) -> int:
    """N_n = n! * q_n, where q_n is the proportion of S_n with no cycle
    length in ``forbidden`` (``signed``: each permutation weighted by
    its sign)."""
    counts = [1]
    for m in range(1, n + 1):
        total = 0
        ratio = 1  # (m-1)! / (m-j)!
        for j in range(1, m + 1):
            if j > 1:
                ratio *= m - j + 1
            if j in forbidden:
                continue
            term = counts[m - j] * ratio
            total += -term if signed and j % 2 == 0 else term
        counts.append(total)
    return counts[n]


class ExactAvoider:
    """Memoised exact pairs (q_m, signed q_m) as Fractions."""

    one = Fraction(1)

    def __init__(self) -> None:
        self._memo: dict[tuple[int, frozenset[int]], tuple[Fraction, Fraction]] = {}

    def pair(self, m: int, forbidden: frozenset[int]) -> tuple[Fraction, Fraction]:
        key = (m, frozenset(a for a in forbidden if a <= m))
        if key not in self._memo:
            mf = math.factorial(m)
            self._memo[key] = (
                Fraction(avoid_counts(m, key[1], False), mf),
                Fraction(avoid_counts(m, key[1], True), mf),
            )
        return self._memo[key]


class FloatAvoider:
    """The same pairs in float64, for degrees where integers get slow.

    One pass of the recurrence gives q_k for every k <= m, so a table is
    kept per forbidden set (taken up to ``n``).
    """

    one = 1.0

    def __init__(self, n: int) -> None:
        self.n = n
        self._tables: dict[frozenset[int], tuple[np.ndarray, np.ndarray]] = {}

    def _table(self, forbidden: frozenset[int]) -> tuple[np.ndarray, np.ndarray]:
        if forbidden not in self._tables:
            n = self.n
            allowed = np.ones(n + 1)
            allowed[0] = 0.0
            for a in forbidden:
                allowed[a] = 0.0
            signs = np.where(np.arange(n + 1) % 2 == 0, -1.0, 1.0)
            out = []
            for weights in (allowed, allowed * signs):
                q = np.zeros(n + 1)
                q[0] = 1.0
                for m in range(1, n + 1):
                    q[m] = np.dot(weights[1 : m + 1], q[m - 1 :: -1]) / m
                out.append(q)
            self._tables[forbidden] = (out[0], out[1])
        return self._tables[forbidden]

    def pair(self, m: int, forbidden: frozenset[int]) -> tuple[float, float]:
        q, signed = self._table(frozenset(a for a in forbidden if a <= self.n))
        return float(q[m]), float(signed[m])


def _in_group(q, signed, sign: int, group: str):
    """Proportion in S_n, or in A_n: (|X| + sum of signs over X) / n!."""
    return q if group == "sym" else q + sign * signed


def avoid_proportion(n: int, forbidden: Iterable[int], group: str, avoider) -> Fraction | float:
    q, signed = avoider.pair(n, frozenset(forbidden))
    return _in_group(q, signed, 1, group)


# ---------------------------------------------------------------------------
# Prime-window events.


def _subsets(primes: tuple[int, ...], n: int) -> Iterator[tuple[int, ...]]:
    """Non-empty subsets of ``primes`` whose sum is at most n."""
    stack: list[int] = []

    def walk(start: int, room: int) -> Iterator[tuple[int, ...]]:
        for i in range(start, len(primes)):
            p = primes[i]
            if p > room:
                continue
            stack.append(p)
            yield tuple(stack)
            yield from walk(i + 1, room - p)
            stack.pop()

    yield from walk(0, n)


def _subset_term(n: int, chosen: tuple[int, ...], forbidden: set[int], group: str, avoider):
    """Proportion with exactly one p-cycle for each p in ``chosen`` and
    the remaining points avoiding ``forbidden``."""
    m = n - sum(chosen)
    q, signed = avoider.pair(m, frozenset(a for a in forbidden if a <= m))
    sign = 1
    for p in chosen:
        if p % 2 == 0:
            sign = -sign
    return avoider.one / math.prod(chosen) * _in_group(q, signed, sign, group)


def _multiples(chosen: tuple[int, ...], m: int) -> set[int]:
    return {k for p in chosen for k in range(p, m + 1, p)}


def pre_cycle_union(n: int, primes: tuple[int, ...], group: str, avoider):
    """Proportion of elements some power of which is a p-cycle for some
    p in ``primes`` (inclusion-exclusion over prime subsets)."""
    total = 0 * avoider.one
    for chosen in _subsets(primes, n):
        term = _subset_term(n, chosen, _multiples(chosen, n), group, avoider)
        total += term if len(chosen) % 2 else -term
    return total


def hit_repeat(n: int, primes: tuple[int, ...], group: str, avoider):
    """(hit, repeat): some window prime is a cycle length; and some such
    p has at least two cycles with length divisible by p.

    hit - repeat is a disjoint sum over the set S of window primes that
    occur: exactly one p-cycle and no other multiple of p for p in S,
    and no q-cycle for q in the window outside S.
    """
    hit = avoider.one - avoid_proportion(n, primes, group, avoider)
    single = 0 * avoider.one
    for chosen in _subsets(primes, n):
        forbidden = _multiples(chosen, n) | (set(primes) - set(chosen))
        single += _subset_term(n, chosen, forbidden, group, avoider)
    return hit, hit - single


def large_prime_floor(n: int) -> Fraction:
    """sum of 1/p over n/2 < p <= n - 3."""
    return sum((Fraction(1, p) for p in window_primes(n / 2, n - 3)), Fraction(0))


# ---------------------------------------------------------------------------
# Permutations (0-based image lists).


def cycles(images: list[int]) -> list[list[int]]:
    seen = bytearray(len(images))
    out = []
    for start in range(len(images)):
        if seen[start]:
            continue
        cyc = []
        j = start
        while not seen[j]:
            seen[j] = 1
            cyc.append(j)
            j = images[j]
        out.append(cyc)
    return out


def power(images: list[int], e: int) -> list[int]:
    """Images of g**e, by rotating each cycle of g by e."""
    out = [0] * len(images)
    for cyc in cycles(images):
        shift = e % len(cyc)
        for i, point in enumerate(cyc):
            out[point] = cyc[(i + shift) % len(cyc)]
    return out


def is_even(images: list[int]) -> bool:
    return (len(images) - len(cycles(images))) % 2 == 0


def draw_budget(epsilon: Fraction, c0: Fraction) -> int:
    """Smallest m with (1 - c0)**m <= epsilon, in exact arithmetic."""
    m, miss = 0, Fraction(1)
    while miss > epsilon:
        m += 1
        miss *= 1 - c0
    return m


# ---------------------------------------------------------------------------
# Prime sums for the density floor.

_FIXED_BITS = 128


def floor_exceptions(n_max: int, threshold: Fraction) -> tuple[list[int], Callable[[int, Fraction], bool]]:
    """Degrees 5 <= n <= n_max with sum_{n/2 < p <= n-3} 1/p < threshold.

    Float prefix sums decide every degree whose sum is further than
    1e-9 from the threshold; the rest are decided with fixed-point
    integer sums floor(2**128 / p), whose total error is below the
    number of terms.  Also returns a predicate that checks a claimed
    exact sum against the same fixed-point bracket.
    """
    ps = primes_upto(n_max)
    scale = 1 << _FIXED_BITS
    fixed = [0]
    for p in ps:
        fixed.append(fixed[-1] + scale // p)
    parr = np.array(ps)
    prefix = np.concatenate(([0.0], np.cumsum(1.0 / parr)))
    ns = np.arange(5, n_max + 1)
    hi_idx = np.searchsorted(parr, ns - 3, side="right")
    lo_idx = np.searchsorted(parr, ns // 2, side="right")
    vals = prefix[hi_idx] - prefix[lo_idx]
    thr = float(threshold)

    def bracket(n: int) -> tuple[int, int]:
        i = int(hi_idx[n - 5])
        j = int(lo_idx[n - 5])
        return fixed[i] - fixed[j], i - j

    below = set(ns[vals < thr - 1e-9].tolist())
    for n in ns[np.abs(vals - thr) <= 1e-9].tolist():
        s, count = bracket(n)
        if (s + count) * threshold.denominator < scale * threshold.numerator:
            below.add(n)
        elif s * threshold.denominator < scale * threshold.numerator:
            raise ArithmeticError(f"floor sum at n={n} too close to the threshold")

    def matches(n: int, exact: Fraction) -> bool:
        s, count = bracket(n)
        return s <= exact * scale <= s + count

    return sorted(below), matches
