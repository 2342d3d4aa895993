"""Prime sieve with certified prefix sums of 1/p and 1/p**2.

The sieve backs every inequality sweep in this package: reciprocal prime
sums over half-open intervals (a, b], the prime-counting bounds
x/log x <= pi(x) <= (x/log x)(1 + 3/(2 log x)), and the density-floor
sweep in :mod:`precycles.bounds`.

Float prefix sums are built with Kahan compensation, so the accumulated
error is a few ulp of the running total (far below the documented budget
of 1e-12 * pi(x) per entry).  Comparisons that land within ``MARGIN`` of
an inequality boundary are re-run either with exact rationals (both
sides rational) or with 50-digit arithmetic (transcendental sides), so
no check is ever certified on rounding noise.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import mpmath
import numpy as np

# Float comparisons closer to the boundary than this are escalated.
MARGIN = 1e-9


@dataclass(frozen=True)
class PrimeTable:
    """Sieve of Eratosthenes up to ``limit`` plus prefix-sum arrays.

    ``pi_prefix[x]`` counts primes <= x.  ``s1_prefix[x]`` and
    ``s2_prefix[x]`` hold compensated sums of 1/p and 1/p**2 over
    p <= x.  All arrays are read-only; a table can be shared freely
    between threads.
    """

    limit: int
    is_prime: np.ndarray
    pi_prefix: np.ndarray
    s1_prefix: np.ndarray
    s2_prefix: np.ndarray

    def __post_init__(self) -> None:
        for arr in (self.is_prime, self.pi_prefix, self.s1_prefix, self.s2_prefix):
            arr.setflags(write=False)

    def pi(self, x: float) -> int:
        """pi(x): the number of primes <= x, for 0 <= x <= limit."""
        ix = _floor_index(x, self.limit)
        return int(self.pi_prefix[ix])

    def primes_between(self, a: float, b: float) -> np.ndarray:
        """All primes p with a < p <= b, ascending."""
        ia, ib = _interval_indices(a, b, self.limit)
        return np.flatnonzero(self.is_prime[: ib + 1][ia + 1 :]) + ia + 1


def build_sieve(limit: int) -> PrimeTable:
    """Sieve [0, limit] and build the three prefix arrays.

    Raises ValueError for limit < 2.
    """
    if limit < 2:
        raise ValueError(f"sieve limit must be >= 2, got {limit}")
    sieve = np.ones(limit + 1, dtype=bool)
    sieve[:2] = False
    for p in range(2, math.isqrt(limit) + 1):
        if sieve[p]:
            sieve[p * p :: p] = False
    pi_prefix = np.cumsum(sieve, dtype=np.int64)
    primes = np.flatnonzero(sieve)

    # Kahan-compensated running sums, one entry per prime; the full
    # x-indexed arrays are then a gather through pi_prefix.
    s1_at = np.empty(len(primes) + 1)
    s2_at = np.empty(len(primes) + 1)
    s1_at[0] = s2_at[0] = 0.0
    t1 = c1 = t2 = c2 = 0.0
    for j, p in enumerate(primes.tolist(), start=1):
        y = 1.0 / p - c1
        s = t1 + y
        c1 = (s - t1) - y
        t1 = s
        s1_at[j] = t1
        y = 1.0 / (p * p) - c2
        s = t2 + y
        c2 = (s - t2) - y
        t2 = s
        s2_at[j] = t2
    return PrimeTable(
        limit=limit,
        is_prime=sieve,
        pi_prefix=pi_prefix,
        s1_prefix=s1_at[pi_prefix],
        s2_prefix=s2_at[pi_prefix],
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


def sum_recip(table: PrimeTable, a: float, b: float) -> float:
    """sum of 1/p over primes a < p <= b, from the compensated prefix."""
    ia, ib = _interval_indices(a, b, table.limit)
    return float(table.s1_prefix[ib] - table.s1_prefix[ia])


def sum_recip_sq(table: PrimeTable, a: float, b: float) -> float:
    """sum of 1/p**2 over primes a < p <= b."""
    ia, ib = _interval_indices(a, b, table.limit)
    return float(table.s2_prefix[ib] - table.s2_prefix[ia])


def _balanced_recip_sum(vals: list[int]) -> tuple[int, int]:
    """Exact sum of 1/v over vals as an unreduced (num, den) pair.

    Divide-and-conquer product tree; no per-step gcd, so summing tens of
    thousands of terms stays fast even though the denominator is huge.
    """
    if not vals:
        return 0, 1
    if len(vals) == 1:
        return 1, vals[0]
    mid = len(vals) // 2
    n1, d1 = _balanced_recip_sum(vals[:mid])
    n2, d2 = _balanced_recip_sum(vals[mid:])
    return n1 * d2 + n2 * d1, d1 * d2


def sum_recip_exact(table: PrimeTable, a: float, b: float) -> Fraction:
    """Exact rational sum of 1/p over primes a < p <= b."""
    num, den = _balanced_recip_sum(table.primes_between(a, b).tolist())
    return Fraction(num, den)


def sum_recip_sq_exact(table: PrimeTable, a: float, b: float) -> Fraction:
    """Exact rational sum of 1/p**2 over primes a < p <= b."""
    ps = table.primes_between(a, b).tolist()
    num, den = _balanced_recip_sum([p * p for p in ps])
    return Fraction(num, den)


def verify_pi_bounds(table: PrimeTable, x: int) -> bool:
    """Check x/log x <= pi(x) <= (x/log x)(1 + 3/(2 log x)).

    Valid for integers 11 <= x <= table.limit; smaller x raise
    ValueError.  Near-boundary comparisons are re-run at 50 digits.
    """
    if x < 11:
        raise ValueError(f"prime-count bounds require x >= 11, got {x}")
    if x > table.limit:
        raise ValueError(f"x={x} exceeds sieve limit {table.limit}")
    pi_x = int(table.pi_prefix[x])
    logx = math.log(x)
    lo = x / logx
    hi = lo * (1.0 + 3.0 / (2.0 * logx))
    if pi_x - lo > MARGIN and hi - pi_x > MARGIN:
        return True
    if pi_x - lo < -MARGIN or hi - pi_x < -MARGIN:
        return False
    with mpmath.workdps(50):
        mlog = mpmath.log(x)
        mlo = x / mlog
        mhi = mlo * (1 + 3 / (2 * mlog))
        return bool(mlo <= pi_x <= mhi)
