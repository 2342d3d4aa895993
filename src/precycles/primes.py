"""One interval sieve, and a prime table with fixed-point prefix sums.

:func:`sieve_interval` lists every prime window and builds every table.
The table backs every inequality sweep in this package: reciprocal prime
sums over half-open intervals (a, b], the prime-counting bounds
x/log x <= pi(x) <= (x/log x)(1 + 3/(2 log x)), and the density-floor
sweep.  Their closed forms and verdicts live in :mod:`precycles.bounds`:
floats where the margin is wide, and otherwise the exact sums from here
against the closed form in outward-rounded intervals.

A table holds only its primes and two prefix sums over them, 24 bytes
per prime.  pi(x) is the position of x in the ascending prime list: a
bisection for one x, and for a run of consecutive integers one
bisection, then the run's primes marked and summed.

The prefix sums are integers, running sums of floor(2**60 / p) and
floor(2**60 / p**2) over the primes.  Each floor loses less than one
unit, so where two entries differ by S over count primes the true sum
lies in [S, S + count] / 2**60: a certified bracket from integers alone.
"""
from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

# Prefix sums count in units of 2**-FIXED_BITS; the sum of 1/p stays
# below 8 (the int64 range) far beyond any sieve that fits in memory.
FIXED_BITS = 60
FIXED_UNIT = 2.0**-FIXED_BITS

# The largest sieve limit build_sieve accepts: about 140 MB held (24
# bytes for each of the 5.76 million primes below 10**8), which is also
# about the peak of the build.
SIEVE_CAP = 10**8


# build_sieve sieves _SIEVE_SEGMENT integers at a time, so its bool
# arrays take 2 MB whatever the limit.  Freeing one bool array over the
# whole range would also raise glibc's dynamic mmap threshold to its
# size, and later arrays below that size would then fragment the heap.
_SIEVE_SEGMENT = 1 << 21


@dataclass(frozen=True)
class PrimeTable:
    """The primes up to ``limit`` and their fixed-point prefix sums.

    ``primes`` lists the primes up to ``limit`` ascending, so pi(x) is
    the number of entries <= x and the primes of (a, b] are the slice
    ``primes[pi(a):pi(b)]``.  It is int64, the type the prefix sums are
    built in: their terms take p * p, which passes 2**31 from p = 46349
    on.  ``s1_prefix[j]`` and ``s2_prefix[j]`` sum floor(2**60 / p) and
    floor(2**60 / p**2) over the first j primes.  All arrays are
    read-only; a table can be shared freely between threads, and it
    pickles and copies as these four fields.

    ``is_prime`` and the int32 prime count per index are derived from
    ``primes`` on first read and cached, at 5 bytes per integer up to
    ``limit``; nothing in this package reads them.
    """

    limit: int
    primes: np.ndarray
    s1_prefix: np.ndarray
    s2_prefix: np.ndarray

    def __post_init__(self) -> None:
        for arr in (self.primes, self.s1_prefix, self.s2_prefix):
            arr.setflags(write=False)

    def __reduce__(self):
        # Through the constructor, so a copy is read-only again and drops
        # the derived arrays.
        return type(self), (self.limit, self.primes, self.s1_prefix, self.s2_prefix)

    def pi(self, x: float) -> int:
        """pi(x): the number of primes <= x, for 0 <= x < limit + 1."""
        return self._count(_floor_index(x, self.limit))

    def primes_between(self, a: float, b: float) -> np.ndarray:
        """All primes p with a < p <= b, ascending: a read-only view of
        ``primes``."""
        ka, kb = self._count_range(a, b)
        return self.primes[ka:kb]

    def pi_run(self, lo: int, hi: int) -> np.ndarray:
        """pi(x) for the integers lo <= x < hi, as int64: pi(lo - 1) by
        bisection, plus a running count of the primes of [lo, hi)."""
        if not 0 <= lo <= hi <= self.limit + 1:
            raise ValueError(f"need 0 <= lo <= hi <= limit + 1, got {lo}, {hi}")
        k0, k1 = self._count(lo - 1), self._count(hi - 1)
        out = np.zeros(hi - lo, dtype=np.int64)
        out[self.primes[k0:k1] - lo] = 1
        if hi > lo:
            out[0] += k0
        return np.cumsum(out, out=out)

    @cached_property
    def is_prime(self) -> np.ndarray:
        """Read-only bool array over 0..limit, True at the primes."""
        out = np.zeros(self.limit + 1, dtype=bool)
        out[self.primes] = True
        out.setflags(write=False)
        return out

    @cached_property
    def pi_prefix(self) -> np.ndarray:
        """Read-only int32 array of pi(x) for 0 <= x <= limit: pi stays
        below 2**31 up to x = 5 * 10**10, far past ``SIEVE_CAP``."""
        out = np.cumsum(self.is_prime, dtype=np.int32)
        out.setflags(write=False)
        return out

    def _count(self, ix: int) -> int:
        """pi(ix) for an int ix, unchecked: a bisection of ``primes``."""
        return bisect.bisect_right(self.primes.data, ix)

    def _count_range(self, a: float, b: float) -> tuple[int, int]:
        """(pi(a), pi(b)), after the checks of an interval (a, b]."""
        ia, ib = _interval_indices(a, b, self.limit)
        return self._count(ia), self._count(ib)


def sieve_interval(lo: int, hi: int) -> np.ndarray:
    """Sieve of Eratosthenes on the integers lo..hi: entry k - lo is True
    exactly when k is prime (an empty array when hi < lo).

    The base primes up to isqrt(hi) come from this function on
    0..isqrt(hi); each strikes its multiples from max(p*p, lo) on.  A
    base prime above the span hi - lo has at most one multiple in the
    window, so all of those strike in one vectorised pass and only the
    primes up to the span loop in Python.
    """
    out = np.ones(max(hi - lo + 1, 0), dtype=bool)
    out[: max(2 - lo, 0)] = False
    if out.size and hi >= 4:
        base = np.flatnonzero(sieve_interval(0, math.isqrt(hi)))
        k = int(np.searchsorted(base, hi - lo, side="right"))
        for p in base[:k].tolist():
            out[max(p * p, -(-lo // p) * p) - lo :: p] = False
        if k < base.size:
            wide = base[k:]
            first = np.maximum(wide * wide, -(-lo // wide) * wide)
            out[first[first <= hi] - lo] = False
    return out


def build_sieve(limit: int) -> PrimeTable:
    """Sieve [0, limit] and build the prefix arrays.

    Raises ValueError, before allocating anything, for limit < 2 and
    for limit > SIEVE_CAP.
    """
    if limit < 2:
        raise ValueError(f"sieve limit must be >= 2, got {limit}")
    if limit > SIEVE_CAP:
        raise ValueError(f"sieve limit {limit} exceeds SIEVE_CAP = {SIEVE_CAP}")
    parts = []
    for lo in range(0, limit + 1, _SIEVE_SEGMENT):
        part = np.flatnonzero(sieve_interval(lo, min(lo + _SIEVE_SEGMENT - 1, limit)))
        part += lo
        parts.append(part)
    # flatnonzero returns intp, which is int64 on 64-bit platforms: no copy
    primes = np.concatenate(parts).astype(np.int64, copy=False)
    del parts  # before the prefix sums are allocated
    # Each prefix sum is built in its own array, with no temporaries.
    one = np.int64(1 << FIXED_BITS)
    s1_prefix = np.zeros(len(primes) + 1, dtype=np.int64)
    s2_prefix = np.zeros(len(primes) + 1, dtype=np.int64)
    np.floor_divide(one, primes, out=s1_prefix[1:])
    np.multiply(primes, primes, out=s2_prefix[1:])
    np.floor_divide(one, s2_prefix[1:], out=s2_prefix[1:])
    for prefix in (s1_prefix, s2_prefix):
        np.cumsum(prefix, out=prefix)
    return PrimeTable(limit=limit, primes=primes, s1_prefix=s1_prefix, s2_prefix=s2_prefix)


def is_prime_trial(k: int) -> bool:
    """Primality by trial division; independent of the sieve."""
    if k < 2:
        return False
    if k < 4:
        return True
    if k % 2 == 0:
        return False
    d = 3
    while d * d <= k:
        if k % d == 0:
            return False
        d += 2
    return True


def _floor_index(x: float, limit: int) -> int:
    # Written so that NaN fails the first test and +inf the second.
    if not x >= 0:
        raise ValueError(f"index must be >= 0, got {x}")
    if not x < limit + 1:
        raise ValueError(f"index {x} exceeds sieve limit {limit}")
    return math.floor(x)


def _interval_indices(a: float, b: float, limit: int) -> tuple[int, int]:
    # Interval endpoints are floored: for integer p, a < p <= b is
    # equivalent to floor(a) < p <= floor(b).
    ia, ib = _floor_index(a, limit), _floor_index(b, limit)
    if a > b:
        raise ValueError(f"need a <= b, got a={a}, b={b}")
    return ia, ib


def _fixed_sum(table: PrimeTable, prefix: np.ndarray, a: float, b: float) -> int:
    ka, kb = table._count_range(a, b)
    return int(prefix[kb] - prefix[ka])


def sum_recip(table: PrimeTable, a: float, b: float) -> float:
    """sum of 1/p over primes a < p <= b as S / 2**60, below the true
    sum by less than 2**-60 per prime."""
    return _fixed_sum(table, table.s1_prefix, a, b) * FIXED_UNIT


def sum_recip_sq(table: PrimeTable, a: float, b: float) -> float:
    """sum of 1/p**2 over primes a < p <= b."""
    return _fixed_sum(table, table.s2_prefix, a, b) * FIXED_UNIT


# Fraction(num, den) without its gcd, for coprime num and den with
# den > 0: Python 3.12 added Fraction._from_coprime_ints and dropped the
# _normalize flag that 3.10 and 3.11 take.
if hasattr(Fraction, "_from_coprime_ints"):
    _coprime_fraction = Fraction._from_coprime_ints
else:
    def _coprime_fraction(num: int, den: int) -> Fraction:
        return Fraction(num, den, _normalize=False)


def _coprime_recip_sum(vals: list[int]) -> Fraction:
    """Exact sum of 1/v over pairwise-coprime positive ints vals, by a
    bottom-up pairwise product tree with no gcd.

    Each level adds neighbouring pairs a/c + b/d as (ad + bc)/(cd), so
    the root is N/P with P the product of the vals and N the sum of P/v.
    That root is in lowest terms.  A prime q dividing P divides exactly
    one v, and every other term P/w has v as a factor, so
    N = P/v (mod v), hence (mod q).  P/v is a product of values coprime
    to v, so q does not divide it, nor N.  Distinct primes qualify as
    vals, and so do their squares.
    """
    nums, dens = [1] * len(vals), vals
    while len(dens) > 1:
        # zip drops an odd last term; it moves up a level unpaired
        rest = len(dens) - len(dens) % 2
        nums = [a * d + b * c for a, b, c, d in
                zip(nums[0::2], nums[1::2], dens[0::2], dens[1::2])] + nums[rest:]
        dens = [c * d for c, d in zip(dens[0::2], dens[1::2])] + dens[rest:]
    if not dens:
        return Fraction(0)
    return _coprime_fraction(nums[0], dens[0])


def sum_recip_exact(table: PrimeTable, a: float, b: float) -> Fraction:
    """Exact rational sum of 1/p over primes a < p <= b."""
    return _coprime_recip_sum(table.primes_between(a, b).tolist())


class RecipSumWalk:
    """Exact sums of 1/p over primes a < p <= b for a run of intervals,
    each carried from the one before.

    A call adds Fraction(1, p) for every prime that enters the previous
    interval and subtracts it for every prime that leaves.  ``Fraction``
    then takes a gcd only against the small p, and a sum of 1/p over
    distinct primes stays in lowest terms, so a run of overlapping
    intervals costs one gcd-free product tree in all.  When more primes
    move than stay (disjoint intervals included), the sum is taken
    afresh with one such tree, as in :func:`sum_recip_exact`.  Every
    call returns the exact sum, whatever the order of the intervals.
    """

    def __init__(self, table: PrimeTable) -> None:
        self.table = table
        # pi of the previous interval's ends
        self._ka = self._kb = 0
        self._sum = Fraction(0)

    def __call__(self, a: float, b: float) -> Fraction:
        primes = self.table.primes
        ka, kb = self.table._count_range(a, b)
        stay = min(kb, self._kb) - max(ka, self._ka)
        moved = abs(ka - self._ka) + abs(kb - self._kb)
        if moved > max(stay, 0):
            self._sum = _coprime_recip_sum(primes[ka:kb].tolist())
        else:
            # Primes at indices [ka, old ka) enter at the low end and
            # those at [old kb, kb) at the high end; reversed ranges leave.
            for lo, hi in ((ka, self._ka), (self._kb, kb)):
                sign = 1 if lo <= hi else -1
                for p in primes[min(lo, hi) : max(lo, hi)].tolist():
                    self._sum += Fraction(sign, p)
        self._ka, self._kb = ka, kb
        return self._sum


def sum_recip_sq_exact(table: PrimeTable, a: float, b: float) -> Fraction:
    """Exact rational sum of 1/p**2 over primes a < p <= b."""
    ps = table.primes_between(a, b).tolist()
    return _coprime_recip_sum([p * p for p in ps])


def fraction_str(q: Fraction) -> str:
    """q as "num/den" in lowest terms, both written by :func:`decimal_str`."""
    return f"{decimal_str(q.numerator)}/{decimal_str(q.denominator)}"


# Ints up to this many bits go straight to str(): about 2,500 digits,
# below the interpreter's default 4,300-digit cap on int-to-str.
_DECIMAL_STR_BITS = 1 << 13


def decimal_str(n: int) -> str:
    """str(n), by divide and conquer for big ints.

    CPython's int-to-decimal conversion is quadratic.  Here n is split
    in binary halves, hi * 2**w + lo, each half is converted to a
    ``decimal.Decimal`` and the halves are joined with the cached
    Decimal power 2**w, all exact at ``MAX_PREC``: libmpdec multiplies
    big Decimals in subquadratic time.  The same scheme as CPython
    3.12's ``_pylong.int_to_decimal``.  A Decimal prints without the
    interpreter's cap on int-to-str digits.
    """
    if n.bit_length() <= _DECIMAL_STR_BITS:
        return str(n)
    import decimal

    powers: dict[int, decimal.Decimal] = {}

    def pow2(w: int) -> decimal.Decimal:
        if w not in powers:
            if w <= 128:
                powers[w] = decimal.Decimal(1 << w)
            elif w - 1 in powers:
                powers[w] = powers[w - 1] * 2
            else:
                half = w >> 1
                powers[w] = pow2(half) * pow2(w - half)
        return powers[w]

    def convert(m: int, w: int) -> decimal.Decimal:
        if w <= 128:
            return decimal.Decimal(m)
        half = w >> 1
        hi = m >> half
        return convert(m - (hi << half), half) + convert(hi, w - half) * pow2(half)

    with decimal.localcontext() as ctx:
        ctx.prec = decimal.MAX_PREC
        ctx.Emax = decimal.MAX_EMAX
        ctx.Emin = decimal.MIN_EMIN
        ctx.traps[decimal.Inexact] = True
        text = str(convert(abs(n), n.bit_length()))
    return "-" + text if n < 0 else text
