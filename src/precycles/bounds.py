"""Closed-form bounds, inequality verifiers, and certified sweeps.

Comparisons against closed forms are float-first: one that lands within
``MARGIN`` (1e-9) of its boundary is re-run with exact rational prime
sums and 50-to-200-digit arithmetic.  The density floor against a
rational threshold is decided in integers, from the fixed-point bracket
of :mod:`precycles.primes`.  Decimal constants are stored to 30
significant digits and bracketed, so each inequality can pick the
rounding direction that makes its own check conservative.

The verifiers cover:

* the prime-counting bounds x/log x <= pi(x) <= (x/log x)(1 + 3/(2 log x)),
* upper bounds on sum 1/p**2 and two-sided bounds on sum 1/p over
  half-open prime intervals (a, b],
* harmonic-number control 0 < H_n - log n - gamma < 1/(2n),
* the density floor sum_{n/2 < p <= n-3} 1/p >= 1/19 swept over n, and
* the closed-form lower bounds for the pre-p-cycle proportion, both the
  window form and the two headline shapes.  The window form and the
  simple headline 1 - c/loglog n are negative at every degree that can
  be enumerated or sampled.  The refined headline is not: for S_n
  (delta = 1) it is 0.016 at e**12, where it is first asserted, and
  0.31 at 10**9.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, NamedTuple

import mpmath
import numpy as np

from .primes import (
    FIXED_BITS,
    FIXED_UNIT,
    PrimeTable,
    RecipSumWalk,
    decimal_str,
    sum_recip,
    sum_recip_exact,
    sum_recip_sq,
    sum_recip_sq_exact,
    verify_pi_bounds,
)

# Float comparisons closer to the boundary than this are escalated.
MARGIN = 1e-9

# Truncated (rounded toward zero) 30-significant-digit decimals; the
# true constants lie strictly between value and value + 1e-30.
EULER_MASCHERONI = "0.577215664901532860606512090082"
MEISSEL_MERTENS = "0.261497212847642783755426838608"

_ULP30 = Fraction(1, 10**30)

# Smallest integer n with n >= e**12; the headline bounds are asserted
# from here on and merely evaluated below it.
ASSERTED_FROM = 162755


def gamma_bounds() -> tuple[Fraction, Fraction]:
    """Rational bracket [lo, hi] around the Euler-Mascheroni constant."""
    lo = Fraction(EULER_MASCHERONI)
    return lo, lo + _ULP30


def meissel_mertens_bounds() -> tuple[Fraction, Fraction]:
    """Rational bracket around the Meissel-Mertens constant."""
    lo = Fraction(MEISSEL_MERTENS)
    return lo, lo + _ULP30


def _to_mpf(x) -> mpmath.mpf:
    if isinstance(x, Fraction):
        return mpmath.mpf(x.numerator) / mpmath.mpf(x.denominator)
    return mpmath.mpf(x)


def _certified_less(lhs: Callable[[], mpmath.mpf], rhs: Callable[[], mpmath.mpf]):
    """True/False when lhs() < rhs() is decidable at 50 or 200 digits,
    None when the two sides stay inseparable."""
    for dps in (50, 200):
        with mpmath.workdps(dps):
            a, b = lhs(), rhs()
            sep = mpmath.mpf(10) ** (8 - dps) * (1 + abs(a) + abs(b))
            if b - a > sep:
                return True
            if a - b > sep:
                return False
    return None


# ---------------------------------------------------------------------------
# Report records.


@dataclass(frozen=True)
class BoundReport:
    """One checked inequality: lhs <op> rhs with its signed margin."""

    name: str
    inputs: dict
    lhs: float
    rhs: float
    holds: bool
    margin: float

    def to_json_dict(self) -> dict:
        return {
            "name": self.name,
            "inputs": dict(self.inputs),
            "lhs": self.lhs,
            "rhs": self.rhs,
            "holds": self.holds,
            "margin": self.margin,
        }


@dataclass(frozen=True)
class SweepReport:
    """Summary of a bulk inequality sweep."""

    name: str
    checked: int
    failures: tuple[BoundReport, ...]
    min_margin: float
    argmin: dict
    escalations: int = 0

    @property
    def holds(self) -> bool:
        return not self.failures


# ---------------------------------------------------------------------------
# Avoidance bounds.


class AvoidanceBounds(NamedTuple):
    """The three upper bounds for an avoidance proportion with
    reciprocal weight mu."""

    mu_inverse: float
    e_one_minus_mu: float
    e_gamma_minus_mu: float


def avoidance_bounds(mu) -> AvoidanceBounds:
    """Evaluate 1/mu, e**(1-mu), and e**(gamma-mu) at mu >= 0."""
    m = float(mu)
    if m < 0:
        raise ValueError(f"mu must be >= 0, got {mu}")
    inv = math.inf if m == 0 else 1.0 / m
    gamma = float(Fraction(EULER_MASCHERONI))
    return AvoidanceBounds(inv, math.exp(1.0 - m), math.exp(gamma - m))


def certify_avoidance_bound(q: Fraction, mu, factor: int = 1) -> bool:
    """Certify q < factor * e**(gamma - mu) against the true constant.

    Uses the bracketed gamma: below the lower evaluation certifies
    True, above the upper evaluation certifies False, and the 1e-30
    sliver in between raises ArithmeticError rather than guessing.
    """
    glo, ghi = gamma_bounds()
    mu_f = mu if isinstance(mu, Fraction) else Fraction(mu)
    against_lo = _certified_less(
        lambda: _to_mpf(q),
        lambda: factor * mpmath.exp(_to_mpf(glo) - _to_mpf(mu_f)),
    )
    if against_lo:
        return True
    against_hi = _certified_less(
        lambda: _to_mpf(q),
        lambda: factor * mpmath.exp(_to_mpf(ghi) - _to_mpf(mu_f)),
    )
    if against_hi is False:
        return False
    raise ArithmeticError(
        f"q = {q} is inseparable from {factor}*e**(gamma - {mu}) at 200 digits"
    )


def verify_gamma_dominance(mu) -> bool:
    """Certify e**(gamma-mu) < e**(1-mu), and < 2/(3 mu) when mu >= 1.

    Conservative direction: the left side uses the upper gamma bracket.
    """
    _, ghi = gamma_bounds()
    if not ghi < 1:
        return False
    mu_f = mu if isinstance(mu, Fraction) else Fraction(mu)
    if mu_f < 1:
        return True
    res = _certified_less(
        lambda: mpmath.exp(_to_mpf(ghi) - _to_mpf(mu_f)),
        lambda: mpmath.mpf(2) / (3 * _to_mpf(mu_f)),
    )
    return bool(res)


# ---------------------------------------------------------------------------
# Reciprocal prime-sum bounds over (a, b].


@dataclass(frozen=True)
class PrimeSumBounds:
    """Closed-form bounds for reciprocal prime sums over (a, b].

    ``recip_sq_upper`` bounds sum 1/p**2 and needs a >= 12;
    ``recip_lower``/``recip_upper`` bracket sum 1/p and need a >= 2.
    Fields are None where the precondition fails.
    """

    a: float
    b: float
    recip_sq_upper: float | None
    recip_lower: float | None
    recip_upper: float | None


def prime_sum_bounds(a: float, b: float) -> PrimeSumBounds:
    if a > b:
        raise ValueError(f"need a <= b, got a={a}, b={b}")
    sq = None
    if a >= 12:
        fa, fb = math.floor(a), math.floor(b)
        sq = 2.22 / (fa * math.log(fa)) - 1.61 / (fb * math.log(fb))
    lo = hi = None
    if a >= 2:
        la, lb = math.log(a), math.log(b)
        core = math.log(lb / la)
        lo = core - 0.5 / (lb * lb) - 1.0 / (la * la)
        hi = core + 1.0 / (lb * lb) + 0.5 / (la * la)
    return PrimeSumBounds(float(a), float(b), sq, lo, hi)


def check_recip_sq_upper(table: PrimeTable, a: float, b: float) -> BoundReport:
    """sum 1/p**2 over (a, b] against its closed-form upper bound."""
    if a < 12:
        raise ValueError(f"the square-sum bound needs a >= 12, got a={a}")
    lhs = sum_recip_sq(table, a, b)
    rhs = prime_sum_bounds(a, b).recip_sq_upper
    margin = rhs - lhs
    holds = margin >= 0
    if abs(margin) <= MARGIN:
        holds = _escalate_sq(table, a, b)
    return BoundReport(
        "recip_sq_upper", {"a": a, "b": b}, lhs, rhs, holds, margin
    )


def check_recip_bounds(
    table: PrimeTable, a: float, b: float
) -> tuple[BoundReport, BoundReport]:
    """sum 1/p over (a, b] against its two-sided closed-form bracket."""
    if a < 2:
        raise ValueError(f"the reciprocal-sum bracket needs a >= 2, got a={a}")
    s = sum_recip(table, a, b)
    pb = prime_sum_bounds(a, b)
    lo_margin = s - pb.recip_lower
    hi_margin = pb.recip_upper - s
    lo_holds = lo_margin > 0
    hi_holds = hi_margin > 0
    if abs(lo_margin) <= MARGIN:
        lo_holds = _escalate_recip(table, a, b, lower=True)
    if abs(hi_margin) <= MARGIN:
        hi_holds = _escalate_recip(table, a, b, lower=False)
    return (
        BoundReport("recip_lower", {"a": a, "b": b}, pb.recip_lower, s, lo_holds, lo_margin),
        BoundReport("recip_upper", {"a": a, "b": b}, s, pb.recip_upper, hi_holds, hi_margin),
    )


def _escalate_sq(table: PrimeTable, a: float, b: float) -> bool:
    exact = sum_recip_sq_exact(table, a, b)
    fa, fb = math.floor(a), math.floor(b)
    res = _certified_less(
        lambda: _to_mpf(exact),
        lambda: mpmath.mpf("2.22") / (fa * mpmath.log(fa))
        - mpmath.mpf("1.61") / (fb * mpmath.log(fb)),
    )
    # The bound is non-strict; inseparable-from-equal counts as holding
    # only if a 200-digit evaluation refused to call it False.
    return res is not False


def _escalate_recip(table: PrimeTable, a: float, b: float, lower: bool) -> bool:
    exact = sum_recip_exact(table, a, b)

    def closed(sign_lo: bool):
        la, lb = mpmath.log(a), mpmath.log(b)
        core = mpmath.log(lb / la)
        if sign_lo:
            return core - 1 / (2 * lb * lb) - 1 / (la * la)
        return core + 1 / (lb * lb) + 1 / (2 * la * la)

    if lower:
        return _certified_less(lambda: closed(True), lambda: _to_mpf(exact)) is True
    return _certified_less(lambda: _to_mpf(exact), lambda: closed(False)) is True


def _step_ends(table: PrimeTable, lo: int, hi: int) -> np.ndarray:
    """lo, hi, and p - 1 and p for every prime lo < p <= hi, ascending
    and without repeats: both ends of every step of [lo, hi] on which
    the prime prefix sums are constant."""
    ps = table.primes_between(lo, hi)
    xs = np.concatenate(([lo], np.stack((ps - 1, ps), axis=1).ravel(), [hi]))
    return xs[np.diff(xs, prepend=lo - 1) > 0]


def _suffix_extreme(values: np.ndarray, use_max: bool) -> np.ndarray:
    rev = values[::-1]
    acc = np.maximum.accumulate(rev) if use_max else np.minimum.accumulate(rev)
    return acc[::-1]


def verify_recip_sq_upper_all(
    table: PrimeTable, a_lo: int = 12, b_hi: int | None = None
) -> SweepReport:
    """Check the square-sum upper bound for every pair a <= b in range.

    Rearranged so one suffix-max pass covers all (b_hi - a_lo + 1)
    choose-2 pairs: f(b) = s2[b] + 1.61/(b log b) must never exceed
    g(a) = s2[a] + 2.22/(a log a) for b >= a.  On a step of constant s2
    both f and g decrease, so the suffix max of f is reached at a step
    start or at a itself, and the margin g(a) - max_{b >= a} f(b), a
    minimum of two decreasing functions of a, is least at a step end.
    Only the step ends are evaluated.
    """
    b_hi = table.limit if b_hi is None else b_hi
    if not 12 <= a_lo <= b_hi <= table.limit:
        raise ValueError(f"need 12 <= a_lo <= b_hi <= limit, got {a_lo}, {b_hi}")
    xs = _step_ends(table, a_lo, b_hi)
    xlogx = xs * np.log(xs)
    s2 = table.s2_prefix[table.pi_prefix[xs]] * FIXED_UNIT
    f = s2 + 1.61 / xlogx
    margins = s2 + 2.22 / xlogx - _suffix_extreme(f, use_max=True)
    return _finish_pair_sweep(
        "recip_sq_upper_all", xs, margins, b_hi - a_lo + 1,
        lambda a, b: check_recip_sq_upper(table, a, b),
        lambda i: int(xs[i + np.argmax(f[i:])]),
    )


def verify_recip_bounds_all(
    table: PrimeTable, a_lo: int = 2, b_hi: int | None = None
) -> SweepReport:
    """Check the two-sided reciprocal-sum bracket for every pair a <= b.

    Same suffix-extremum rearrangement as the square-sum sweep, one
    pass per side, over the same step ends.  On a step of constant s1,
    plus = s1 - loglog x + 1/(2 log**2 x) always decreases, and
    minus = s1 - loglog x - 1/log**2 x decreases for log**2 x > 2, that
    is for x >= 5.  Lower side: the suffix min of plus is reached at a
    step end and is constant along a step, so its margin
    min_{b >= a} plus(b) - minus(a) grows along the step and is least
    at a step start.  Upper side: the margin
    plus(a) - max_{b >= a} minus(b) is least at a step end, as in the
    square-sum sweep.  Below 5, where minus need not decrease, every
    point (2, 3 and 4) is a step end.
    """
    b_hi = table.limit if b_hi is None else b_hi
    if not 2 <= a_lo <= b_hi <= table.limit:
        raise ValueError(f"need 2 <= a_lo <= b_hi <= limit, got {a_lo}, {b_hi}")
    xs = _step_ends(table, a_lo, b_hi)
    logs = np.log(xs)
    loglogs = np.log(logs)
    inv2 = 1.0 / logs**2
    s1 = table.s1_prefix[table.pi_prefix[xs]] * FIXED_UNIT
    # lower side: s1[b] - (loglog b - inv2[b]/2) > s1[a] - (loglog a + inv2[a])
    # upper side: s1[b] - (loglog b + inv2[b]) < s1[a] - (loglog a - inv2[a]/2)
    plus = s1 - loglogs + 0.5 * inv2
    minus = s1 - loglogs - inv2
    n_vals = b_hi - a_lo + 1
    low = _finish_pair_sweep(
        "recip_lower_all", xs, _suffix_extreme(plus, use_max=False) - minus, n_vals,
        lambda a, b: check_recip_bounds(table, a, b)[0],
        lambda i: int(xs[i + np.argmin(plus[i:])]),
    )
    high = _finish_pair_sweep(
        "recip_upper_all", xs, plus - _suffix_extreme(minus, use_max=True), n_vals,
        lambda a, b: check_recip_bounds(table, a, b)[1],
        lambda i: int(xs[i + np.argmax(minus[i:])]),
    )
    return SweepReport(
        name="recip_bounds_all",
        checked=low.checked + high.checked,
        failures=low.failures + high.failures,
        min_margin=min(low.min_margin, high.min_margin),
        argmin=low.argmin if low.min_margin <= high.min_margin else high.argmin,
        escalations=low.escalations + high.escalations,
    )


def _finish_pair_sweep(
    name: str,
    xs: np.ndarray,
    margins: np.ndarray,
    n_vals: int,
    recheck: Callable[[int, int], BoundReport],
    witness_b: Callable[[int], int],
) -> SweepReport:
    """Common tail: escalate near-margin a values via their witness b,
    found from the position of a in xs; count all pairs over n_vals
    values."""
    near = np.flatnonzero(margins <= MARGIN).tolist()
    reports = [recheck(int(xs[i]), witness_b(i)) for i in near]
    k = int(np.argmin(margins))
    return SweepReport(
        name=name,
        checked=n_vals * (n_vals + 1) // 2,
        failures=tuple(r for r in reports if not r.holds),
        min_margin=float(margins[k]),
        argmin={"a": int(xs[k]), "b": witness_b(k)},
        escalations=len(near),
    )


def verify_pi_bounds_range(
    table: PrimeTable, lo: int = 11, hi: int | None = None
) -> SweepReport:
    """Check the prime-counting bounds for every integer in [lo, hi].

    pi is constant from one prime to the next and both bounds increase
    for x >= 11, so each margin is least at an end of such a step; only
    the step ends are evaluated.
    """
    hi = table.limit if hi is None else hi
    if not 11 <= lo <= hi <= table.limit:
        raise ValueError(f"need 11 <= lo <= hi <= limit, got {lo}, {hi}")
    xs = _step_ends(table, lo, hi)
    logs = np.log(xs)
    base = xs / logs
    pis = table.pi_prefix[xs].astype(float)
    low_margin = pis - base
    high_margin = base * (1.0 + 1.5 / logs) - pis
    margins = np.minimum(low_margin, high_margin)
    near = np.flatnonzero(margins <= MARGIN).tolist()
    failures = [
        BoundReport("pi_bounds", {"x": int(xs[i])}, float(pis[i]),
                    float(base[i]), False, float(margins[i]))
        for i in near if not verify_pi_bounds(table, int(xs[i]))
    ]
    k = int(np.argmin(margins))
    return SweepReport(
        name="pi_bounds_range",
        checked=hi - lo + 1,
        failures=tuple(failures),
        min_margin=float(margins[k]),
        argmin={"x": int(xs[k])},
        escalations=len(near),
    )


# ---------------------------------------------------------------------------
# Harmonic-number control.

# H_n is the integer prefix S_n of floor(2**90 / i), kept as two limbs:
# floor(2**58 / i) and floor((2**58 mod i) * 2**32 / i).  Each term loses
# less than one unit, so 2**90 H_n lies in [S_n, S_n + n].  The sweep runs
# in blocks of _HARMONIC_BLOCK degrees and carries both integer totals
# across them, so memory stays bounded; every product fits in int64 for
# n < 2**31 and every total while H_n < 32.
_HARMONIC_BLOCK = 1 << 16

# Certified float error for the gap H_n - log n - gamma: rounding the
# prefix to a float costs half an ulp of H_n (plus below 2**-80 for the
# float tail), the truncation n * 2**-90, log n one ulp, and gamma half
# an ulp of 0.577.  The two subtractions are exact (Sterbenz: H_n,
# log n + gamma and the gap's pieces lie within a factor 2 of each
# other for n >= 3), and so is 1/(2n) - gap.  With H_n and log n below
# 32 that is at most 2**-49 + 2**-48 + 2**-54 + 2**31 * 2**-90 ~ 5.4e-15;
# 8e-15 covers it.  The tightest true margin in range is
# 1/(12 n**2) ~ 8.3e-14 at n = 1e6.
_HARMONIC_BUDGET = 8e-15


def _harmonic_blocks(n_max: int):
    """Yield (ns, hs) for consecutive blocks of degrees 1 <= n <= n_max,
    with hs[k] the float H_{ns[k]} from the fixed-point prefix."""
    if not 1 <= n_max < 2**31:
        raise ValueError(f"need 1 <= n < 2**31, got {n_max}")
    one = np.int64(1 << 58)
    carry_hi = carry_lo = 0
    for start in range(1, n_max + 1, _HARMONIC_BLOCK):
        ns = np.arange(start, min(start + _HARMONIC_BLOCK, n_max + 1), dtype=np.int64)
        hi, rem = np.divmod(one, ns)
        lo = (rem << 32) // ns
        np.cumsum(hi, out=hi)
        np.cumsum(lo, out=lo)
        hi += carry_hi
        lo += carry_lo
        carry_hi, carry_lo = int(hi[-1]), int(lo[-1])
        # hi + lo / 2**32 rounded once: the float of hi plus a tail that
        # holds what that float dropped and the low limb.
        hi_f = hi.astype(float)
        tail = (hi - hi_f.astype(np.int64)).astype(float) + lo.astype(float) * 2.0**-32
        yield ns, (hi_f + tail) * 2.0**-58


def harmonic_number(n: int) -> float:
    """H_n from the fixed-point prefix, within half an ulp plus
    n * 2**-90."""
    for _, hs in _harmonic_blocks(n):
        pass
    return float(hs[-1])


def harmonic_gap(n: int) -> float:
    """H_n - log n - gamma, which lies strictly in (0, 1/(2n))."""
    return harmonic_number(n) - math.log(n) - float(Fraction(EULER_MASCHERONI))


def _harmonic_gap_holds_mp(n: int) -> bool:
    with mpmath.workdps(40):
        gap = mpmath.harmonic(n) - mpmath.log(n) - mpmath.euler
        return bool(0 < gap < mpmath.mpf(1) / (2 * n))


def verify_harmonic_gap(n_max: int) -> SweepReport:
    """Check 0 < H_n - log n - gamma < 1/(2n) for all 1 <= n <= n_max.

    Margins above _HARMONIC_BUDGET hold in floats; the rest are decided
    at 40 digits.
    """
    gamma = float(Fraction(EULER_MASCHERONI))
    failures = []
    escalations = 0
    min_margin = math.inf
    argmin = 0
    for ns, hs in _harmonic_blocks(n_max):
        gaps = hs - np.log(ns) - gamma
        caps = 0.5 / ns
        margins = np.minimum(gaps, caps - gaps)
        k = int(np.argmin(margins))
        if margins[k] < min_margin:
            min_margin, argmin = float(margins[k]), int(ns[k])
        for i in np.flatnonzero(margins <= _HARMONIC_BUDGET).tolist():
            escalations += 1
            n = int(ns[i])
            if not _harmonic_gap_holds_mp(n):
                failures.append(BoundReport(
                    "harmonic_gap", {"n": n}, float(gaps[i]), float(caps[i]),
                    False, float(margins[i])))
    return SweepReport(
        name="harmonic_gap",
        checked=n_max,
        failures=tuple(failures),
        min_margin=min_margin,
        argmin={"n": argmin},
        escalations=escalations,
    )


# ---------------------------------------------------------------------------
# Density floor sweep: sum of 1/p over n/2 < p <= n-3 against 1/19.


@dataclass(frozen=True)
class FloorRecord:
    """One degree whose density floor fell below the threshold."""

    n: int
    value: float
    exact: Fraction

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "value": self.value,
            "exact": f"{decimal_str(self.exact.numerator)}/"
                     f"{decimal_str(self.exact.denominator)}",
        }


@dataclass(frozen=True)
class FloorSweep:
    """Result of sweeping the large-prime density floor over [5, n_max].

    ``exceptions`` lists the first FLOOR_EXACT_EXCEPTIONS failing degrees
    only; ``below_count`` and ``holds_from_11`` cover all of them.
    """

    n_max: int
    threshold: Fraction
    exceptions: tuple[FloorRecord, ...]
    below_count: int
    holds_from_11: bool
    min_value: float
    argmin_n: int
    escalations: int = 0


# Near n = 10**6 the first exact sum of a sweep costs about 0.8 s (a
# fresh product tree and gcd); the others, carried from it, about a
# millisecond each.  Ten covers the nine degrees below 1/19 up to 720000.
FLOOR_EXACT_EXCEPTIONS = 10


def density_floor_sweep(
    table: PrimeTable,
    n_max: int,
    threshold: Fraction = Fraction(1, 19),
) -> FloorSweep:
    """Sweep sum_{n/2 < p <= n-3} 1/p >= threshold for n in [5, n_max].

    Every permutation with a cycle of prime length p in (n/2, n-3]
    powers to a p-cycle, and for such large p the density of that event
    is exactly 1/p, so this sum is a certified floor for the
    pre-p-cycle proportion.  Each degree is decided in integers: with S
    the fixed-point sum over its count primes and T = 2**60 * threshold,
    S + count < T certifies a failure and S >= T a pass; only degrees in
    between get an exact rational sum, as do the reported exceptions.
    The exact sums are carried from degree to degree in one ascending
    :class:`~precycles.primes.RecipSumWalk`, so a sweep pays for one
    fresh sum and a few primes per later degree.  ``escalations``
    counts the degrees summed exactly.
    """
    if n_max < 5:
        raise ValueError(f"need n_max >= 5, got {n_max}")
    if n_max > table.limit:
        raise ValueError(f"n_max {n_max} exceeds sieve limit {table.limit}")
    t = Fraction(threshold)
    target = -((-t.numerator << FIXED_BITS) // t.denominator)  # ceil(2**60 t)
    ns = np.arange(5, n_max + 1)
    hi_idx = table.pi_prefix[ns - 3]
    lo_idx = table.pi_prefix[ns // 2]
    sums = table.s1_prefix[hi_idx] - table.s1_prefix[lo_idx]
    below = sums + (hi_idx - lo_idx) < target
    undecided = ~below & (sums < target)
    # One ascending walk over the degrees that need exact sums: each
    # undecided degree, and the first FLOOR_EXACT_EXCEPTIONS failures,
    # which lie among the undecided and the first that many certified.
    floor_sum = RecipSumWalk(table)
    exceptions = []
    escalations = 0
    candidates = np.union1d(np.flatnonzero(undecided),
                            np.flatnonzero(below)[:FLOOR_EXACT_EXCEPTIONS])
    for i in candidates.tolist():
        if not undecided[i] and len(exceptions) == FLOOR_EXACT_EXCEPTIONS:
            continue
        n = i + 5
        exact = floor_sum(n // 2, n - 3)
        escalations += 1
        if undecided[i]:
            below[i] = exact < t
        if below[i] and len(exceptions) < FLOOR_EXACT_EXCEPTIONS:
            exceptions.append(FloorRecord(n, float(sums[i]) * FIXED_UNIT, exact))
    # Report the minimum over the asserted range n >= 11 (or the whole
    # sweep when it stops earlier).
    lo = min(11 - 5, len(sums) - 1)
    k = lo + int(np.argmin(sums[lo:]))
    return FloorSweep(
        n_max=n_max,
        threshold=threshold,
        exceptions=tuple(exceptions),
        below_count=int(below.sum()),
        holds_from_11=not below[11 - 5 :].any(),
        min_value=float(sums[k]) * FIXED_UNIT,
        argmin_n=k + 5,
        escalations=escalations,
    )


# ---------------------------------------------------------------------------
# Closed-form lower bounds for the pre-p-cycle proportion.


def window_density_lower_bound(n: int, a: float, d: float, delta: int) -> float:
    """Lower bound for the pre-p-cycle proportion over primes in
    (a, a**d], for S_n (delta=1) or A_n (delta=2).

    Requires a >= 12, d > 1, and a**d <= n.  The value is
    1 - 2.287 delta / d
      - 2.22 (log n - 1) / (floor(a) log floor(a))
      - 4.4 delta log n / (a log(a) n)
    and is negative for every degree small enough to enumerate.
    """
    if delta not in (1, 2):
        raise ValueError(f"delta must be 1 or 2, got {delta}")
    if a < 12:
        raise ValueError(f"need a >= 12, got a={a}")
    if d <= 1:
        raise ValueError(f"need d > 1, got d={d}")
    logn = math.log(n)
    if d * math.log(a) > logn * (1 + 1e-12) + 1e-12:
        raise ValueError(f"need a**d <= n, got a={a}, d={d}, n={n}")
    fa = math.floor(a)
    return (
        1.0
        - 2.287 * delta / d
        - 2.22 * (logn - 1.0) / (fa * math.log(fa))
        - 4.4 * delta * logn / (a * math.log(a) * n)
    )


@dataclass(frozen=True)
class HeadlineBounds:
    """The two closed-form lower bounds at degree n.

    ``simple`` is 1 - c/loglog n; ``refined`` is
    1 - (4.58 delta + 0.17) loglog n / log(n - 3).  Both are asserted
    to hold only for n >= ASSERTED_FROM; below that they are evaluated
    anyway.  ``simple`` is below zero at every degree that can be
    sampled; ``refined`` with delta = 1 is 0.016 at e**12 and 0.31 at
    10**9.
    """

    n: int
    delta: int
    c: float
    simple: float
    refined: float
    asserted: bool


_SIMPLE_C = {"stated": {1: 5.0, 2: 7.0}, "proof": {1: 4.6, 2: 6.9}}


def headline_bounds(n: int, delta: int = 1, variant: str = "stated") -> HeadlineBounds:
    """Evaluate both headline lower bounds at degree n >= 16.

    ``variant`` picks the constant c in 1 - c/loglog n: the stated
    values (5 and 7) or the slightly sharper ones the derivation
    actually yields (4.6 and 6.9).
    """
    if delta not in (1, 2):
        raise ValueError(f"delta must be 1 or 2, got {delta}")
    if variant not in _SIMPLE_C:
        raise ValueError(f"variant must be one of {sorted(_SIMPLE_C)}, got {variant!r}")
    if n < 16:
        raise ValueError(f"headline bounds are evaluated for n >= 16, got {n}")
    loglog = math.log(math.log(n))
    c = _SIMPLE_C[variant][delta]
    simple = 1.0 - c / loglog
    refined = 1.0 - (4.58 * delta + 0.17) * loglog / math.log(n - 3)
    return HeadlineBounds(
        n=n,
        delta=delta,
        c=c,
        simple=simple,
        refined=refined,
        asserted=n >= ASSERTED_FROM,
    )


# ---------------------------------------------------------------------------
# Sampling budget.


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (int, float)):
        return Fraction(x)
    raise TypeError(f"expected a number, got {x!r}")


def sample_count(epsilon, c0) -> int:
    """Smallest m with (1 - c0)**m <= epsilon (0 when epsilon = 1).

    Drawing m independent elements, each a pre-p-cycle with probability
    at least c0, fails to find one with probability at most epsilon.
    Computed at 60 digits with an exact rational fix-up near integer
    boundaries, so the count is never off by one.
    """
    eps = _as_fraction(epsilon)
    c = _as_fraction(c0)
    if not 0 < eps <= 1:
        raise ValueError(f"epsilon must be in (0, 1], got {epsilon}")
    if not 0 < c < 1:
        raise ValueError(f"c0 must be in (0, 1), got {c0}")
    if eps == 1:
        return 0
    base = 1 - c
    with mpmath.workdps(60):
        ratio = mpmath.log(_to_mpf(eps)) / mpmath.log(_to_mpf(base))
        floor_r = int(mpmath.floor(ratio))
        near_integer = ratio - floor_r < mpmath.mpf("1e-40")
    m = floor_r if near_integer else floor_r + 1
    m = max(m, 1)
    # Exact adjustment when the bigint powers stay affordable.
    cost = m * (base.numerator.bit_length() + base.denominator.bit_length())
    if cost <= 4_000_000:
        while m > 0 and base ** (m - 1) <= eps:
            m -= 1
        while base**m > eps:
            m += 1
    return m
