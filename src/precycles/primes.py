"""One interval sieve, and a prime table with fixed-point prefix sums.

:func:`sieve_interval` lists every prime window and builds every table.
The table backs every inequality sweep in this package: reciprocal prime
sums over half-open intervals (a, b], the prime-counting bounds
x/log x <= pi(x) <= (x/log x)(1 + 3/(2 log x)), and the density-floor
sweep.  Their closed forms and verdicts live in :mod:`precycles.bounds`:
floats where the margin is wide, and otherwise the exact sums from here
against the closed form at 50, then 200 digits.

The prefix sums are integers, running sums of floor(2**60 / p) and
floor(2**60 / p**2) over the primes.  Each floor loses less than one
unit, so where two entries differ by S over count primes the true sum
lies in [S, S + count] / 2**60: a certified bracket from integers alone.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

# Prefix sums count in units of 2**-FIXED_BITS; the sum of 1/p stays
# below 8 (the int64 range) far beyond any sieve that fits in memory.
FIXED_BITS = 60
FIXED_UNIT = 2.0**-FIXED_BITS


@dataclass(frozen=True)
class PrimeTable:
    """Sieve of Eratosthenes up to ``limit`` plus prefix-sum arrays.

    ``is_prime`` and ``pi_prefix`` are indexed by x: ``pi_prefix[x]``
    counts primes <= x, in int32: pi(x) stays below 2**31 up to
    x = 5 * 10**10, where ``pi_prefix`` alone would take 200 GB, so no
    sieve that fits in memory overflows it.  ``primes`` lists the primes
    up to ``limit`` ascending, so the primes of (a, b] are the slice
    ``primes[pi(a):pi(b)]``.  It is int64, the type the prefix sums
    are built in: their terms take p * p, which passes 2**31 from
    p = 46349 on.  ``s1_prefix[j]`` and ``s2_prefix[j]`` sum
    floor(2**60 / p) and floor(2**60 / p**2) over the first j primes.
    All arrays are read-only; a table can be shared freely between
    threads.
    """

    limit: int
    is_prime: np.ndarray
    pi_prefix: np.ndarray
    primes: np.ndarray
    s1_prefix: np.ndarray
    s2_prefix: np.ndarray

    def __post_init__(self) -> None:
        for arr in (self.is_prime, self.pi_prefix, self.primes,
                    self.s1_prefix, self.s2_prefix):
            arr.setflags(write=False)

    def pi(self, x: float) -> int:
        """pi(x): the number of primes <= x, for 0 <= x <= limit."""
        ix = _floor_index(x, self.limit)
        return int(self.pi_prefix[ix])

    def primes_between(self, a: float, b: float) -> np.ndarray:
        """All primes p with a < p <= b, ascending: a read-only view of
        ``primes``."""
        ia, ib = _interval_indices(a, b, self.limit)
        return self.primes[self.pi_prefix[ia] : self.pi_prefix[ib]]


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

    Raises ValueError for limit < 2.
    """
    if limit < 2:
        raise ValueError(f"sieve limit must be >= 2, got {limit}")
    sieve = sieve_interval(0, limit)
    primes = np.flatnonzero(sieve).astype(np.int64)
    one = np.int64(1 << FIXED_BITS)
    # Summed in place: cumsum(sieve, dtype=int32) would hold a second
    # copy of the whole range while it runs.
    pi_prefix = sieve.astype(np.int32)
    np.cumsum(pi_prefix, dtype=np.int32, out=pi_prefix)
    return PrimeTable(
        limit=limit,
        is_prime=sieve,
        pi_prefix=pi_prefix,
        primes=primes,
        s1_prefix=np.concatenate(([0], np.cumsum(one // primes))),
        s2_prefix=np.concatenate(([0], np.cumsum(one // (primes * primes)))),
    )


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
    ix = math.floor(x)
    if ix < 0:
        raise ValueError(f"index must be >= 0, got {x}")
    if ix > limit:
        raise ValueError(f"index {x} exceeds sieve limit {limit}")
    return ix


def _interval_indices(a: float, b: float, limit: int) -> tuple[int, int]:
    # Interval endpoints are floored: for integer p, a < p <= b is
    # equivalent to floor(a) < p <= floor(b).
    if a > b:
        raise ValueError(f"need a <= b, got a={a}, b={b}")
    return _floor_index(a, limit), _floor_index(b, limit)


def _fixed_sum(table: PrimeTable, prefix: np.ndarray, a: float, b: float) -> int:
    ia, ib = _interval_indices(a, b, table.limit)
    return int(prefix[table.pi_prefix[ib]] - prefix[table.pi_prefix[ia]])


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
    afresh with :func:`sum_recip_exact`.  Every call returns the exact
    sum, whatever the order of the intervals.
    """

    def __init__(self, table: PrimeTable) -> None:
        self.table = table
        self._ia = self._ib = 0
        self._sum = Fraction(0)

    def __call__(self, a: float, b: float) -> Fraction:
        table = self.table
        ia, ib = _interval_indices(a, b, table.limit)
        pi = table.pi_prefix
        stay = int(pi[min(ib, self._ib)]) - int(pi[max(ia, self._ia)])
        moved = (abs(int(pi[ia]) - int(pi[self._ia]))
                 + abs(int(pi[ib]) - int(pi[self._ib])))
        if moved > max(stay, 0):
            self._sum = sum_recip_exact(table, ia, ib)
        else:
            # Primes in (ia, old ia] enter at the low end and those in
            # (old ib, ib] at the high end; reversed ranges leave.
            for lo, hi in ((ia, self._ia), (self._ib, ib)):
                sign = 1 if lo <= hi else -1
                for p in table.primes_between(min(lo, hi), max(lo, hi)).tolist():
                    self._sum += Fraction(sign, p)
        self._ia, self._ib = ia, ib
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
