"""Closed-form bounds, inequality verifiers, and certified sweeps.

Each closed form is written once, as terms at one endpoint, for floats,
numpy and mpmath intervals alike.  A float margin beyond its error budget
(``MARGIN``, 1e-9, or for the square-sum bound ``_SQ_BUDGET``, 6e-12,
its derived float error) decides a verdict by its sign; a narrower one
goes to :func:`_certified_less`, the exact side (a rational prime sum,
pi(x), or H_n from its integer prefix) against the same closed form in
outward-rounded intervals at 64, 256, then 1024 bits; still overlapping
at 1024 bits, it is undecided and fails strict and non-strict alike.
The density floor against a rational threshold is decided in integers,
from the fixed-point bracket of :mod:`precycles.primes`.

The verifiers cover:

* the prime-counting bounds x/log x <= pi(x) <= (x/log x)(1 + 3/(2 log x)),
* upper bounds on sum 1/p**2 and two-sided bounds on sum 1/p over
  half-open prime intervals (a, b],
* harmonic-number control 0 < H_n - log n - gamma < 1/(2n), swept up
  to ``HARMONIC_CAP`` (2 * 10**6),
* the density floor sum_{n/2 < p <= n-3} 1/p >= 1/19 swept over n, and
* the closed-form lower bounds for the pre-p-cycle proportion, both the
  window form and the two headline shapes.  The window form and the
  simple headline 1 - c/loglog n are negative at every degree that can
  be enumerated or sampled.  The refined headline is not: for S_n
  (delta = 1) it is 0.016 at e**12, where it is first asserted, and
  0.31 at 10**9.

:func:`verify_battery` runs the prime-count sweep, both prime-sum pair
grids and the harmonic-gap sweep over one whole table as one battery,
for the command line and the acceptance criteria alike.

:func:`sample_count`, the recognizer's draw budget, is the least m with
(1 - c0)**m <= epsilon: a float estimate corrected with exact rational
powers while they stay affordable, and past that the ceiling of an
interval around the ratio of logs, at a precision doubled until both
ends have one ceiling, so it is never off by one.  mpmath is imported
only where a value is evaluated in intervals: an escalated verdict, the
avoidance and gamma certificates, and counts past the exact powers.
"""
from __future__ import annotations

import math
import sys
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Callable, NamedTuple

import numpy as np

from .primes import (
    FIXED_BITS,
    FIXED_UNIT,
    PrimeTable,
    RecipSumWalk,
    _coprime_recip_sum,
    fraction_str,
    sum_recip,
    sum_recip_exact,
    sum_recip_sq,
    sum_recip_sq_exact,
)

# Float comparisons closer to the boundary than this are escalated.
MARGIN = 1e-9

# Certified float error for the square-sum bound over (a, b]: the
# fixed-point prefix truncates each of the pi(b) - pi(a) terms by less
# than 2**-60, at most 5.0e-12 in all below SIEVE_CAP (5,761,455 primes),
# and the floats of the two prefix entries, of the two closed-form terms
# (below 0.1, a few operations each) and of the sums and difference cost
# a few ulps of 0.5 more, under 1e-15.  6e-12 covers both.  The float
# margin is about 0.61/(a log a): over every pair up to SIEVE_CAP it is
# least at a = 99,999,988, 3.3e-10, 55 times the budget, so no pair
# escalates.  MARGIN (1e-9) would escalate nearly every a past
# 3.3 * 10**7, each to an exact sum over (a, b].
_SQ_BUDGET = 6e-12

# Truncated (rounded toward zero) 30-significant-digit decimal; the
# true constant lies strictly between value and value + 1e-30.
EULER_MASCHERONI = "0.577215664901532860606512090082"

# Smallest integer n with n >= e**12; the headline bounds are asserted
# from here on and merely evaluated below it.
ASSERTED_FROM = 162755


def gamma_bounds() -> tuple[Fraction, Fraction]:
    """Rational bracket [lo, hi] around the Euler-Mascheroni constant."""
    lo = Fraction(EULER_MASCHERONI)
    return lo, lo + Fraction(1, 10**30)


def _iv():
    """mpmath.iv, imported on the first interval evaluation: a process whose
    verdicts all stand in floats or integers never loads mpmath."""
    from mpmath import iv

    return iv


@contextmanager
def _precision(bits: int):
    """mpmath.iv at ``bits`` of precision, restored on exit (iv has no workprec)."""
    iv = _iv()
    saved = iv.prec
    iv.prec = bits
    try:
        yield iv
    finally:
        iv.prec = saved


def _mp_arith() -> tuple:
    """(log, num) for the closed forms in interval arithmetic: iv.log and
    iv.mpf, which encloses "2.22" itself, never the float 2.22."""
    iv = _iv()
    return iv.log, iv.mpf


def _enclose(x):
    """x as an interval: an int or float rounded outward, a Fraction as num / den."""
    if isinstance(x, Fraction):
        return _iv().mpf(x.numerator) / x.denominator
    return _iv().mpf(x)


# The gamma interval by (decimal, precision), each built once.
_GAMMA = {}


def _gamma():
    """The Euler-Mascheroni constant as the interval :func:`gamma_bounds`."""
    key = (EULER_MASCHERONI, _iv().prec)
    if key not in _GAMMA:
        _GAMMA[key] = _iv().mpf([_enclose(g) for g in gamma_bounds()])
    return _GAMMA[key]


# The precisions, in bits, at which _certified_less encloses both sides
# of a comparison until they separate.
_PRECISIONS = (64, 256, 1024)


def _certified_less(sides: Callable[[], tuple], strict: bool) -> bool | None:
    """Whether lhs < rhs (strict) or lhs <= rhs, for (lhs, rhs) = sides():
    exactly for two ints or Fractions, else on intervals around both,
    evaluated afresh at each precision of _PRECISIONS until decided.
    None, undecided, when the intervals still overlap at the last."""
    for bits in _PRECISIONS:
        with _precision(bits):
            lhs, rhs = sides()
            if not all(isinstance(side, (int, Fraction)) for side in (lhs, rhs)):
                lhs, rhs = _enclose(lhs), _enclose(rhs)
            verdict = lhs < rhs if strict else lhs <= rhs
        if verdict is not None:
            return verdict
    return None


def _report(name: str, inputs: dict, lhs: float, rhs: float, strict: bool,
            sides: Callable[[], tuple], budget: float) -> BoundReport:
    """lhs < rhs (strict) or lhs <= rhs, from floats: the sign of the
    margin rhs - lhs beyond ``budget``, :func:`_certified_less` within it,
    where an undecided verdict fails."""
    margin = rhs - lhs
    holds = margin > 0 if abs(margin) > budget else _certified_less(sides, strict) is True
    return BoundReport(name, inputs, lhs, rhs, holds, margin)


# ---------------------------------------------------------------------------
# The closed forms as terms at one endpoint x.  ``log`` and ``num`` (a
# constructor for decimal constants) are math.log and float for scalars,
# np.log and float for sweeps, and iv.log and iv.mpf (``_mp_arith()``) to
# escalate, so mpmath encloses "2.22" itself, never the float 2.22, which
# is larger.


def _pi_terms(x, log, num):
    """x/log x <= pi(x) <= (x/log x)(1 + 3/(2 log x)) for x >= 11."""
    lx = log(x)
    base = x / lx
    return base, base * (1 + num("1.5") / lx)


def _sq_terms(x, log, num):
    """(2.22, 1.61)/(x log x): sum 1/p**2 over (a, b] is at most the
    first at floor(a) minus the second at floor(b), for a >= 12."""
    xlogx = x * log(x)
    return num("2.22") / xlogx, num("1.61") / xlogx


def _recip_terms(x, log, num):
    """ll = loglog x, half = 1/(2 log**2 x), inv2 = 1/log**2 x.  For
    2 <= a <= b, sum 1/p over (a, b] lies strictly between
    ll(b) - ll(a) - half(b) - inv2(a) and ll(b) - ll(a) + inv2(b) + half(a)."""
    lx = log(x)
    inv2 = 1 / lx**2
    return log(lx), num("0.5") * inv2, inv2


def _harmonic_terms(h, n, gamma, log, num):
    """0 < h - log n - gamma < 1/(2n) for h = H_n, n >= 1."""
    return h - log(n) - gamma, num("0.5") / n


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
        return asdict(self)


@dataclass(frozen=True)
class SweepReport:
    """Summary of a bulk inequality sweep; ``failures`` are ordered by
    position."""

    name: str
    checked: int
    failures: tuple[BoundReport, ...]
    min_margin: float
    argmin: dict
    escalations: int = 0

    @property
    def holds(self) -> bool:
        return not self.failures

    def to_json_dict(self) -> dict:
        return {**asdict(self), "holds": self.holds}


def _finite_float(name: str, x) -> float:
    """float(x), or a ValueError naming x where that is not finite."""
    try:
        f = float(x)
    except OverflowError:
        f = math.inf
    if not math.isfinite(f):
        raise ValueError(f"{name} must be a finite float, got {x}")
    return f


# ---------------------------------------------------------------------------
# Avoidance bounds.


class AvoidanceBounds(NamedTuple):
    """The three upper bounds for an avoidance proportion with
    reciprocal weight mu; ``mu_inverse`` is None where 1/mu is not a
    finite float."""

    mu_inverse: float | None
    e_one_minus_mu: float
    e_gamma_minus_mu: float


def avoidance_bounds(mu) -> AvoidanceBounds:
    """Evaluate 1/mu, e**(1-mu), and e**(gamma-mu) at mu >= 0, for mu a
    finite float."""
    m = _finite_float("mu", mu)
    if mu < 0:
        raise ValueError(f"mu must be >= 0, got {mu}")
    inv = 1.0 / m if m else math.inf
    gamma = float(EULER_MASCHERONI)
    return AvoidanceBounds(inv if math.isfinite(inv) else None,
                           math.exp(1.0 - m), math.exp(gamma - m))


def certify_avoidance_bound(q: Fraction, mu, factor: int = 1) -> bool:
    """Certify q < factor * e**(gamma - mu) against the true constant, in
    one interval comparison; a q that no precision separates from the
    bound raises ArithmeticError rather than guessing."""
    verdict = _certified_less(
        lambda: (q, factor * _iv().exp(_gamma() - _enclose(mu))), strict=True)
    if verdict is None:
        raise ArithmeticError(f"q = {q} is inseparable from {factor}*e**(gamma - {mu})")
    return verdict


def verify_gamma_dominance(mu) -> bool:
    """Certify e**(gamma-mu) < e**(1-mu), and < 2/(3 mu) when mu >= 1, in
    one interval comparison against the lesser bound; undecided fails.
    mu must be a finite float."""
    _finite_float("mu", mu)

    def sides():
        iv, m = _iv(), _enclose(mu)
        caps = [iv.exp(1 - m)] + ([2 / (3 * m)] if mu >= 1 else [])
        lesser = iv.mpf([min(c.a for c in caps), min(c.b for c in caps)])
        return iv.exp(_gamma() - m), lesser

    return _certified_less(sides, strict=True) is True


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
    """The closed forms over (a, b] from their endpoint terms."""
    for end, x in (("a", a), ("b", b)):
        if not math.isfinite(x):
            raise ValueError(f"{end} must be finite, got {x}")
    if a > b:
        raise ValueError(f"need a <= b, got a={a}, b={b}")
    sq = _sq_upper(a, b, math.log, float) if a >= 12 else None
    lo, hi = _recip_bracket(a, b, math.log, float) if a >= 2 else (None, None)
    return PrimeSumBounds(float(a), float(b), sq, lo, hi)


def _sq_upper(a, b, log, num):
    """The square-sum upper bound over (a, b], for a >= 12."""
    return _sq_terms(math.floor(a), log, num)[0] - _sq_terms(math.floor(b), log, num)[1]


def _recip_bracket(a, b, log, num):
    """The lower and upper reciprocal-sum bounds over (a, b], for a >= 2."""
    ll_a, half_a, inv2_a = _recip_terms(a, log, num)
    ll_b, half_b, inv2_b = _recip_terms(b, log, num)
    return ll_b - ll_a - half_b - inv2_a, ll_b - ll_a + inv2_b + half_a


def check_recip_sq_upper(table: PrimeTable, a: float, b: float) -> BoundReport:
    """sum 1/p**2 over (a, b] against its closed-form upper bound."""
    if a < 12:
        raise ValueError(f"the square-sum bound needs a >= 12, got a={a}")
    return _report(
        "recip_sq_upper", {"a": a, "b": b}, sum_recip_sq(table, a, b),
        _sq_upper(a, b, math.log, float), strict=False, sides=lambda: (
            sum_recip_sq_exact(table, a, b), _sq_upper(a, b, *_mp_arith())),
        budget=_SQ_BUDGET,
    )


def check_recip_bounds(
    table: PrimeTable, a: float, b: float
) -> tuple[BoundReport, BoundReport]:
    """sum 1/p over (a, b] against its two-sided closed-form bracket."""
    if a < 2:
        raise ValueError(f"the reciprocal-sum bracket needs a >= 2, got a={a}")
    s = sum_recip(table, a, b)
    lower, upper = _recip_bracket(a, b, math.log, float)
    return (
        _report("recip_lower", {"a": a, "b": b}, lower, s, strict=True,
                sides=lambda: (_recip_bracket(a, b, *_mp_arith())[0],
                               sum_recip_exact(table, a, b)), budget=MARGIN),
        _report("recip_upper", {"a": a, "b": b}, s, upper, strict=True,
                sides=lambda: (sum_recip_exact(table, a, b),
                               _recip_bracket(a, b, *_mp_arith())[1]), budget=MARGIN),
    )


# The π sweep and both pair grids split the primes of their range into
# outer blocks of _STEP_BLOCK primes, and those into sub-blocks of
# _SUB_BLOCK primes.  A first pass bounds each sub-block's margins from
# its two ends and keeps one summary per outer block; a second evaluates
# the step ends of the few sub-blocks whose bound can reach the least
# margin or the escalation budget.  Temporaries stay within one outer
# block, whatever the table's limit.
_STEP_BLOCK = 1 << 15
_SUB_BLOCK = 8

# A sub-block's bound is its margin's closed form at the sub-block's
# worst ends, in floats.  Rounding moves that bound, and each margin
# evaluated inside, by a few ulps of the sweep's largest term: below x
# for the π sweep, 1 for the square-sum grid (s2 < 0.46) and 4 for the
# reciprocal grid (s1 and loglog x stay below 3.2 up to SIEVE_CAP, and
# 1/log**2 x below 2.1 from x = 2 on).  _BOUND_SLACK times that term,
# 2**8 ulps of it, covers both.
_BOUND_SLACK = 2.0**-44


def _step_ends(ps: np.ndarray, k_lo: int, lo: int, hi: int, j0: int, j1: int):
    """(xs, pis) for the step ends of [lo, hi] that the primes ps[j0:j1]
    hold, ascending, with pis[i] = pi(xs[i]).

    ``ps`` lists the primes lo < p <= hi, the first at index k_lo of the
    table.  The step ends are lo, hi, and p - 1 and p for every such p,
    without repeats: both ends of every step on which the prime prefix
    sums are constant.  The primes ps[j0:j1] hold the step ends in
    (base, top], with base the prime below them (lo - 1 for j0 = 0) and
    top their own last prime (hi for j1 = len(ps)), so any split of ps
    into runs covers the integers of [lo, hi] once each.  pi comes from
    the prime indices: the prime at index k of ``table.primes`` has
    pi(p - 1) = k and pi(p) = k + 1.
    """
    base = int(ps[j0 - 1]) if j0 else lo - 1
    top = int(ps[j1 - 1]) if j1 < len(ps) else hi
    ends = np.repeat(ps[j0:j1], 2)
    ends[::2] -= 1
    counts = np.repeat(np.arange(k_lo + j0, k_lo + j1, dtype=np.int64), 2)
    counts[1::2] += 1
    # base leads only for the comparison, which drops each repeated end,
    # and the end 3 - 1 when 2 ends the run below; pi is k_lo + j0 at
    # base (lo - 1 aside) and at lo, k_lo + j1 at top
    head = [base] if j0 else [base, lo]
    xs = np.concatenate((head, ends, [top]))
    pis = np.concatenate(([k_lo + j0] * len(head), counts, [k_lo + j1]))
    keep = xs[1:] > xs[:-1]
    return xs[1:][keep], pis[1:][keep]


def _sub_block_ends(ps: np.ndarray, k_lo: int, lo: int, hi: int, j0: int, j1: int):
    """(xs, ks) for the sub-blocks of the primes ps[j0:j1] (as in
    :func:`_step_ends`): sub-block i holds its step ends in
    [xs[i], xs[i + 1]], and pi lies between ks[i] and ks[i + 1] there.

    xs[i + 1] is the sub-block's top, so xs[i] is the top of the one
    below it, one short of its lowest step end, or lo for the lowest;
    the closed forms are thus evaluated once at each end.
    """
    if j0 == j1:  # no prime in (lo, hi]: one sub-block, lo and hi
        return np.array([lo, hi]), np.array([k_lo, k_lo])
    stops = np.minimum(np.arange(j0, j1, _SUB_BLOCK) + _SUB_BLOCK, j1)
    xs = np.concatenate(([ps[j0 - 1] if j0 else lo], ps[stops - 1]))
    if j1 == len(ps):
        xs[-1] = hi
    return xs, np.concatenate(([j0], stops)) + k_lo


def _suffix_max(xs: np.ndarray, values: np.ndarray, carry: tuple):
    """Suffix maxima of one block of values at step ends xs, joined with
    ``carry`` = (value, b): the greatest value above the block and the
    x of its first occurrence ((-inf, None) when nothing lies above).

    Returns the maxima and a function giving for position i the pair
    {"a": xs[i], "b": the x of the first greatest value at or above
    xs[i]}.  Maxima are exact, so the blocks give the same floats as one
    pass over all step ends.
    """
    best, best_b = carry
    acc = np.maximum.accumulate(values[::-1])[::-1]
    np.maximum(acc, best, out=acc)

    def pair(i: int) -> dict:
        j = i + int(np.argmax(values[i:]))
        return {"a": int(xs[i]), "b": int(xs[j]) if values[j] >= best else best_b}

    return acc, pair


def _first_greatest(best: tuple, other: tuple) -> tuple:
    """The greater of two (value, x) pairs, the one at the lower x on a tie."""
    if other[0] > best[0] or other[0] == best[0] and other[1] < best[1]:
        return other
    return best


def _pruned_sweep(table: PrimeTable, lo: int, hi: int, name: str, checked: int,
                  terms: Callable, bounds: Callable, recheck: Callable,
                  budget: float, scale: float, least: float = math.inf) -> SweepReport:
    """One inequality's float sweep over the step ends of [lo, hi], by
    branch and bound over sub-blocks.

    ``terms(xs, pis)`` gives (g, f) at step ends, and the margin at a is
    g(a) - max_{b >= a} f(b), or g(a) when f is None.
    ``bounds(xs, ks)`` gives, for the sub-blocks of
    :func:`_sub_block_ends`, whose step ends lie in [xs[i], xs[i + 1]]
    with pi between ks[i] and ks[i + 1], a lower bound on g and an
    upper bound on f over each (or None), from the monotone pieces of
    the closed forms.  The lower bound on g less the greatest upper
    bound on f at or above a sub-block bounds its margins.

    Sub-blocks are evaluated, in ascending order of that bound, while it
    is within the slack of max(least margin so far, ``budget``), with
    ``scale`` the sweep's largest term.  So every step end within the
    budget is rechecked by ``recheck``, and every step end at the least
    margin is evaluated, its first one reported; every other step end
    holds in floats with a margin beyond the budget.  A sweep merged
    after another passes that one's least margin as ``least``: its own
    is then reported only where it is lower, as the merged report
    needs.  The greatest f above an evaluated sub-block, with its first
    x, comes from a second branch and bound over the upper bounds on f,
    the greatest first, which evaluates f on a sub-block only while its
    bound can reach the greatest value found.
    """
    k_lo = table.pi(lo)
    ps = table.primes[k_lo : table.pi(hi)]
    outer = [(j0, min(j0 + _STEP_BLOCK, len(ps)))
             for j0 in range(0, len(ps), _STEP_BLOCK)] or [(0, 0)]
    slack = _BOUND_SLACK * scale

    def step_ends(o: int, u: int):
        j0, j1 = outer[o]
        s0 = j0 + u * _SUB_BLOCK
        return _step_ends(ps, k_lo, lo, hi, s0, min(s0 + _SUB_BLOCK, j1))

    def block_bounds(o: int):
        """The margin bound and the bound on f of each sub-block of outer
        block o."""
        g_lb, f_ub = bounds(*_sub_block_ends(ps, k_lo, lo, hi, *outer[o]))
        if f_ub is None:
            return g_lb, None
        reach = np.maximum.accumulate(f_ub[::-1])[::-1]
        return g_lb - np.maximum(reach, above[o]), f_ub

    # One summary per outer block, the highest first: the greatest bound
    # on f above it, then its least margin bound and its greatest bound
    # on f (-inf when f is None).
    lows = np.empty(len(outer))
    highs = np.full(len(outer), -math.inf)
    above = np.full(len(outer), -math.inf)
    for o in range(len(outer) - 1, -1, -1):
        if o + 1 < len(outer):
            above[o] = max(above[o + 1], highs[o + 1])
        bound, f_ub = block_bounds(o)
        lows[o] = bound.min()
        highs[o] = -math.inf if f_ub is None else f_ub.max()
    del bound, f_ub  # so that pass-2 temporaries do not stack on them
    by_high = np.argsort(-highs, kind="stable").tolist()

    def greatest(o: int, f_ub: np.ndarray, found: tuple, start: int, best: tuple) -> tuple:
        """best joined with the first greatest f over the sub-blocks
        start, start + 1, ... of outer block o, whose bounds on f are f_ub.
        ``found`` holds the greatest f of each sub-block evaluated so
        far, NaN for the others, and the x of its first occurrence."""
        values, at = found
        cand = np.arange(start, len(f_ub))
        while True:
            done = ~np.isnan(values[cand])
            if done.any():
                u = int(cand[done][np.argmax(values[cand[done]])])
                best = _first_greatest(best, (float(values[u]), int(at[u])))
                cand = cand[~done]
            cand = cand[f_ub[cand] + slack >= best[0]]
            if not cand.size:
                return best
            u = int(cand[np.argmax(f_ub[cand])])
            xs, pis = step_ends(o, u)
            note(found, u, xs, terms(xs, pis)[1])

    def note(found: tuple, u: int, xs: np.ndarray, f: np.ndarray) -> None:
        k = int(np.argmax(f))
        found[0][u], found[1][u] = f[k], xs[k]

    def nothing_found(n: int) -> tuple:
        return np.full(n, np.nan), np.zeros(n, dtype=np.int64)

    def max_above(o: int) -> tuple:
        """The greatest f over the outer blocks above o, and its first x."""
        best = (-math.inf, None)
        for o2 in by_high:
            if o2 <= o:
                continue
            if highs[o2] + slack < best[0]:
                break
            f_ub = block_bounds(o2)[1]
            best = greatest(o2, f_ub, nothing_found(len(f_ub)), 0, best)
        return best

    # A tie keeps the first step end; a ``least`` passed in ranks first.
    least_at, argmin = (-1,), None
    escalations, failures = 0, []
    for o in np.argsort(lows, kind="stable").tolist():
        if lows[o] > max(least, budget) + slack:
            break
        # above o first, so that no other block's bounds are held with o's
        best_above = max_above(o) if highs[o] > -math.inf else None
        bound, f_ub = block_bounds(o)
        found = None if f_ub is None else nothing_found(len(f_ub))
        for u in np.argsort(bound, kind="stable").tolist():
            if bound[u] > max(least, budget) + slack:
                break
            xs, pis = step_ends(o, u)
            g, f = terms(xs, pis)
            if f is None:
                margins, point = g, lambda i: {"x": int(xs[i])}
            else:
                note(found, u, xs, f)
                f_max, point = _suffix_max(
                    xs, f, greatest(o, f_ub, found, u + 1, best_above))
                margins = g - f_max
            part = _finish_sweep(name, margins, budget, 0, point, recheck)
            escalations += part.escalations
            if part.failures:
                failures.append(((o, u), part.failures))
            if (part.min_margin, (o, u)) < (least, least_at):
                least, least_at, argmin = part.min_margin, (o, u), part.argmin
    failures.sort(key=lambda item: item[0])
    return SweepReport(
        name=name,
        checked=checked,
        failures=sum((reports for _, reports in failures), ()),
        min_margin=least,
        argmin=argmin,
        escalations=escalations,
    )


def _pairs(lo: int, hi: int) -> int:
    """The number of pairs lo <= a <= b <= hi."""
    return (hi - lo + 1) * (hi - lo + 2) // 2


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
    Only the step ends can matter, and only those of the sub-blocks
    whose bound, g from s2 at the lower end and 2.22/(x log x) at the
    upper, less f from the other ends, can reach the least margin or
    the budget _SQ_BUDGET are evaluated.
    """
    b_hi = table.limit if b_hi is None else b_hi
    if not 12 <= a_lo <= b_hi <= table.limit:
        raise ValueError(f"need 12 <= a_lo <= b_hi <= limit, got {a_lo}, {b_hi}")
    s2 = table.s2_prefix

    def terms(xs, pis):
        g, f = _sq_terms(xs, np.log, float)
        sums = s2[pis] * FIXED_UNIT
        return g + sums, f + sums

    def bounds(xs, ks):
        g, f = _sq_terms(xs, np.log, float)
        sums = s2[ks] * FIXED_UNIT
        return g[1:] + sums[:-1], f[:-1] + sums[1:]

    return _pruned_sweep(
        table, a_lo, b_hi, "recip_sq_upper_all", _pairs(a_lo, b_hi), terms, bounds,
        lambda a, b: check_recip_sq_upper(table, a, b), _SQ_BUDGET, 1.0)


def verify_recip_bounds_all(
    table: PrimeTable, a_lo: int = 2, b_hi: int | None = None
) -> SweepReport:
    """Check the two-sided reciprocal-sum bracket for every pair a <= b.

    Same suffix-extremum rearrangement as the square-sum sweep, one
    pass per side, over the same sub-blocks.  On a step of constant s1,
    plus = s1 - loglog x + 1/(2 log**2 x) always decreases, and
    minus = s1 - loglog x - 1/log**2 x decreases for log**2 x > 2, that
    is for x >= 5.  Lower side: the suffix min of plus is reached at a
    step end and is constant along a step, so its margin
    min_{b >= a} plus(b) - minus(a) grows along the step and is least
    at a step start.  Upper side: the margin
    plus(a) - max_{b >= a} minus(b) is least at a step end, as in the
    square-sum sweep.  Below 5, where minus need not decrease, every
    point (2, 3 and 4) is a step end.  The suffix min of plus is carried
    as the suffix max of -plus, which negation keeps exact.  A
    sub-block's bounds take s1, loglog x and 1/log**2 x (which do not
    decrease, increase and decrease) each at its worse end.
    """
    b_hi = table.limit if b_hi is None else b_hi
    if not 2 <= a_lo <= b_hi <= table.limit:
        raise ValueError(f"need 2 <= a_lo <= b_hi <= limit, got {a_lo}, {b_hi}")
    s1 = table.s1_prefix

    def plus_minus(xs, pis):
        loglogs, halves, inv2 = _recip_terms(xs, np.log, float)
        sums = s1[pis] * FIXED_UNIT
        return sums - loglogs + halves, sums - loglogs - inv2

    def ends(xs, ks):
        loglogs, halves, inv2 = _recip_terms(xs, np.log, float)
        sums = s1[ks] * FIXED_UNIT
        return loglogs[:-1], loglogs[1:], halves[1:], inv2[1:], sums[:-1], sums[1:]

    def lower_terms(xs, pis):
        plus, minus = plus_minus(xs, pis)
        return -minus, -plus

    def lower_bounds(xs, ks):
        ll_a, ll_b, half_b, inv2_b, s_a, s_b = ends(xs, ks)
        return ll_a + inv2_b - s_b, ll_b - half_b - s_a

    def upper_bounds(xs, ks):
        ll_a, ll_b, half_b, inv2_b, s_a, s_b = ends(xs, ks)
        return s_a - ll_b + half_b, s_b - ll_a - inv2_b

    pairs = _pairs(a_lo, b_hi)
    low = _pruned_sweep(
        table, a_lo, b_hi, "recip_lower_all", pairs, lower_terms, lower_bounds,
        lambda a, b: check_recip_bounds(table, a, b)[0], MARGIN, 4.0)
    high = _pruned_sweep(
        table, a_lo, b_hi, "recip_upper_all", pairs, plus_minus, upper_bounds,
        lambda a, b: check_recip_bounds(table, a, b)[1], MARGIN, 4.0, low.min_margin)
    return _merged("recip_bounds_all", [low, high])


def _finish_sweep(name: str, margins: np.ndarray, budget: float, checked: int,
                  point: Callable[[int], dict], recheck: Callable) -> SweepReport:
    """Common tail of every float sweep: each position i whose margin is
    within ``budget`` is rechecked at ``point(i)`` by the scalar check
    of the same inequality; the least margin is reported at its point."""
    near = np.flatnonzero(margins <= budget).tolist()
    reports = [recheck(**point(i)) for i in near]
    k = int(np.argmin(margins))
    return SweepReport(
        name=name,
        checked=checked,
        failures=tuple(r for r in reports if not r.holds),
        min_margin=float(margins[k]),
        argmin=point(k),
        escalations=len(near),
    )


def _merged(name: str, parts: list[SweepReport]) -> SweepReport:
    """One report over ``parts``, at the first least margin among them."""
    least = min(parts, key=lambda r: r.min_margin)
    return SweepReport(
        name=name,
        checked=sum(r.checked for r in parts),
        failures=sum((r.failures for r in parts), ()),
        min_margin=least.min_margin,
        argmin=least.argmin,
        escalations=sum(r.escalations for r in parts),
    )


def _check_pi_bounds(table: PrimeTable, x: int) -> BoundReport:
    """The prime-counting bounds at x, reported on a failing side if
    there is one, else on the tighter side."""
    if x < 11:
        raise ValueError(f"prime-count bounds require x >= 11, got {x}")
    if x > table.limit:
        raise ValueError(f"x={x} exceeds sieve limit {table.limit}")
    pi_x = table.pi(x)
    lo, hi = _pi_terms(x, math.log, float)
    reports = (
        _report("pi_lower", {"x": x}, lo, float(pi_x), strict=False,
                sides=lambda: (_pi_terms(x, *_mp_arith())[0], pi_x), budget=MARGIN),
        _report("pi_upper", {"x": x}, float(pi_x), hi, strict=False,
                sides=lambda: (pi_x, _pi_terms(x, *_mp_arith())[1]), budget=MARGIN),
    )
    return min(reports, key=lambda r: (r.holds, r.margin))


def verify_pi_bounds(table: PrimeTable, x: int) -> bool:
    """Check x/log x <= pi(x) <= (x/log x)(1 + 3/(2 log x)) at an
    integer 11 <= x <= table.limit; other x raise ValueError."""
    return _check_pi_bounds(table, x).holds


def verify_pi_bounds_range(
    table: PrimeTable, lo: int = 11, hi: int | None = None
) -> SweepReport:
    """Check the prime-counting bounds for every integer in [lo, hi].

    pi is constant from one prime to the next and both bounds increase
    for x >= 11, so each margin is least at an end of such a step.  Of
    the step ends, only those of the grids' sub-blocks whose bound,
    pi at one end against a bound at the other, can reach the least
    margin or MARGIN are evaluated.
    """
    hi = table.limit if hi is None else hi
    if not 11 <= lo <= hi <= table.limit:
        raise ValueError(f"need 11 <= lo <= hi <= limit, got {lo}, {hi}")

    def terms(xs, pis):
        lower, upper = _pi_terms(xs, np.log, float)
        pis = pis.astype(float)
        return np.minimum(pis - lower, upper - pis), None

    def bounds(xs, ks):
        lower, upper = _pi_terms(xs, np.log, float)
        return np.minimum(ks[:-1] - lower[1:], upper[:-1] - ks[1:]), None

    return _pruned_sweep(
        table, lo, hi, "pi_bounds_range", hi - lo + 1, terms, bounds,
        lambda x: _check_pi_bounds(table, x), MARGIN, float(hi))


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
# 8e-15 covers it.  The true margin is about 1/(12 n**2), 2.1e-14 at
# HARMONIC_CAP, 2.6 times the budget: the sweep to the cap escalates no
# degree.  The float margin first falls within the budget at
# n = 2,923,015, where each escalated degree would cost about 30 ms.
_HARMONIC_BUDGET = 8e-15

# The largest n_max verify_harmonic_gap accepts; a sweep to it takes
# under 0.1 s.
HARMONIC_CAP = 2 * 10**6


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
    gamma = float(EULER_MASCHERONI)
    return _harmonic_terms(harmonic_number(n), n, gamma, math.log, float)[0]


def _check_harmonic_gap(n: int) -> BoundReport:
    """The harmonic gap at degree n on intervals: gamma as one, and H_n in
    [S_n, S_n + n] * 2**-90, with S_n the sweep's integer prefix summed
    afresh in its blocks, about 10 ms per million degrees."""
    s_n = 0
    for start in range(1, n + 1, _HARMONIC_BLOCK):
        ns = np.arange(start, min(start + _HARMONIC_BLOCK, n + 1), dtype=np.int64)
        hi, rem = np.divmod(np.int64(1 << 58), ns)
        s_n += (int(hi.sum()) << 32) + int(((rem << 32) // ns).sum())

    def sides():
        iv = _iv()
        h = iv.ldexp(iv.mpf([s_n, s_n + n]), -90)
        return _harmonic_terms(h, n, _gamma(), *_mp_arith())

    holds = (_certified_less(lambda: (0, sides()[0]), strict=True) is True
             and _certified_less(sides, strict=True) is True)
    gap, cap = _harmonic_terms(s_n / 2**90, n, float(EULER_MASCHERONI), math.log, float)
    return BoundReport("harmonic_gap", {"n": n}, gap, cap, holds,
                       min(gap, cap - gap))


def verify_harmonic_gap(n_max: int) -> SweepReport:
    """Check 0 < H_n - log n - gamma < 1/(2n) for all 1 <= n <= n_max.

    Margins above _HARMONIC_BUDGET hold in floats; the rest are decided
    one degree at a time by :func:`_certified_less`, with H_n enclosed
    by its integer prefix.  Raises ValueError,
    before any block is built, for n_max > HARMONIC_CAP.
    """
    if n_max > HARMONIC_CAP:
        raise ValueError(
            f"harmonic sweep to {n_max} exceeds HARMONIC_CAP = {HARMONIC_CAP}")
    gamma = float(EULER_MASCHERONI)
    blocks = []
    for ns, hs in _harmonic_blocks(n_max):
        gaps, caps = _harmonic_terms(hs, ns, gamma, np.log, float)
        blocks.append(_finish_sweep(
            "harmonic_gap", np.minimum(gaps, caps - gaps), _HARMONIC_BUDGET,
            len(ns), lambda i: {"n": int(ns[i])}, _check_harmonic_gap,
        ))
    return _merged("harmonic_gap", blocks)


# ---------------------------------------------------------------------------
# The certified battery.


def verify_battery(table: PrimeTable) -> list[SweepReport]:
    """Run the prime-count, prime-sum and harmonic-gap checks on one table.

    Four sweeps, each over the whole table: the prime-counting bounds
    over [11, limit], the square-sum grid over every pair
    12 <= a <= b <= limit, the reciprocal bracket grid over every pair
    2 <= a <= b <= limit and the harmonic gap over
    [1, min(limit, HARMONIC_CAP)].  Returns the four sweep reports.
    """
    return [
        verify_pi_bounds_range(table),
        verify_recip_sq_upper_all(table),
        verify_recip_bounds_all(table),
        verify_harmonic_gap(min(table.limit, HARMONIC_CAP)),
    ]


# ---------------------------------------------------------------------------
# Density floor sweep: sum of 1/p over n/2 < p <= n-3 against 1/19.


@dataclass(frozen=True)
class FloorRecord:
    """One degree whose density floor fell below the threshold, with the
    integer bracket that decided it: the sum over its count primes lies
    in [lo, hi] = [S, S + count] * 2**-60, S their fixed-point sum."""

    n: int
    value: float
    lo: Fraction
    hi: Fraction
    # the primes n/2 < p <= n - 3, a view of the table's read-only array
    primes: np.ndarray = field(repr=False, compare=False)

    @cached_property
    def exact(self) -> Fraction:
        """The exact sum, by one gcd-free product tree on first read: only
        perfbench's certify check reads it, until it reads the bracket."""
        return _coprime_recip_sum(self.primes.tolist())

    def to_json_dict(self) -> dict:
        return {"n": self.n, "value": self.value,
                "lo": fraction_str(self.lo), "hi": fraction_str(self.hi)}


@dataclass(frozen=True)
class FloorSweep:
    """Result of sweeping the large-prime density floor over [5, n_max].

    ``exceptions`` lists the first FLOOR_EXCEPTIONS failing degrees
    only, each by its integer bracket; ``below_count`` and
    ``holds_from_11`` cover all of them.  ``escalations`` counts the
    undecided degrees, whose bracket straddles the threshold and which
    an exact sum decides.
    """

    n_max: int
    threshold: Fraction
    exceptions: tuple[FloorRecord, ...]
    below_count: int
    holds_from_11: bool
    min_value: float
    argmin_n: int
    escalations: int = 0


# The sweep reports the first FLOOR_EXCEPTIONS failing degrees.  Ten
# covers the nine degrees below 1/19 up to 720000.
FLOOR_EXCEPTIONS = 10

# The floor sweep decides _FLOOR_BLOCK degrees at a time, lowest first,
# so its temporaries stay a few MB whatever n_max.
_FLOOR_BLOCK = 1 << 16


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
    S + count < T certifies a failure and S >= T a pass.  Only the
    undecided degrees in between get an exact rational sum, each
    carried from the one before in one ascending
    :class:`~precycles.primes.RecipSumWalk`; ``escalations`` counts
    them.  The degrees are decided in ascending blocks of _FLOOR_BLOCK,
    which carry the counts, the exceptions and the minimum, and each
    exception is reported by the bracket [S, S + count] * 2**-60.
    """
    if n_max < 5:
        raise ValueError(f"need n_max >= 5, got {n_max}")
    if n_max > table.limit:
        raise ValueError(f"n_max {n_max} exceeds sieve limit {table.limit}")
    t = Fraction(threshold)
    target = -((-t.numerator << FIXED_BITS) // t.denominator)  # ceil(2**60 t)
    # The minimum is reported over the asserted range n >= 11, or at
    # n_max alone when the sweep stops earlier.
    min_from = min(11, n_max)
    min_sum = argmin_n = None
    floor_sum = RecipSumWalk(table)
    exceptions = []
    escalations = below_count = 0
    holds_from_11 = True
    for a in range(5, n_max + 1, _FLOOR_BLOCK):
        b = min(a + _FLOOR_BLOCK, n_max + 1)  # the degrees a..b-1
        # pi(n - 3) and pi(n // 2) as runs; n // 2 takes each value twice
        hi_idx = table.pi_run(a - 3, b - 3)
        lo_idx = table.pi_run(a // 2, (b - 1) // 2 + 1).repeat(2)[a % 2 :][: b - a]
        sums = table.s1_prefix[hi_idx] - table.s1_prefix[lo_idx]
        below = sums + (hi_idx - lo_idx) < target
        for i in np.flatnonzero(~below & (sums < target)).tolist():
            n = a + i
            below[i] = floor_sum(n // 2, n - 3) < t
            escalations += 1
        for i in np.flatnonzero(below)[: FLOOR_EXCEPTIONS - len(exceptions)].tolist():
            s, k, m = int(sums[i]), int(lo_idx[i]), int(hi_idx[i])
            lo, hi = (Fraction(x, 1 << FIXED_BITS) for x in (s, s + m - k))
            exceptions.append(FloorRecord(a + i, s * FIXED_UNIT, lo, hi, table.primes[k:m]))
        below_count += int(np.count_nonzero(below))
        holds_from_11 = holds_from_11 and not below[max(11 - a, 0) :].any()
        if b > min_from:
            k = max(min_from - a, 0)
            k += int(np.argmin(sums[k:]))
            if min_sum is None or sums[k] < min_sum:
                min_sum, argmin_n = int(sums[k]), a + k
    return FloorSweep(
        n_max=n_max,
        threshold=threshold,
        exceptions=tuple(exceptions),
        below_count=below_count,
        holds_from_11=holds_from_11,
        min_value=float(min_sum) * FIXED_UNIT,
        argmin_n=argmin_n,
        escalations=escalations,
    )


# ---------------------------------------------------------------------------
# Closed-form lower bounds for the pre-p-cycle proportion.


def window_density_lower_bound(n: int, a: float, d: float, delta: int) -> float:
    """Lower bound for the pre-p-cycle proportion over primes in
    (a, a**d], for S_n (delta=1) or A_n (delta=2).

    Requires n, a and d finite as floats, a >= 12, d > 1, and
    a**d <= n.  The value is
    1 - 2.287 delta / d
      - 2.22 (log n - 1) / (floor(a) log floor(a))
      - 4.4 delta log n / (a log(a) n)
    and is negative for every degree small enough to enumerate.
    """
    if delta not in (1, 2):
        raise ValueError(f"delta must be 1 or 2, got {delta}")
    fn, a, d = (_finite_float(k, x) for k, x in (("n", n), ("a", a), ("d", d)))
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
        - 4.4 * delta * logn / (a * math.log(a) * fn)
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


# sample_count corrects its float estimate with exact rational powers of
# 1 - c0 while m times the bits of 1 - c0 stays within this many bits.
_POWER_BITS = 4_000_000

# The precision, in bits, at which _mp_count first encloses its ratio.
_COUNT_PREC = 20


def sample_count(epsilon, c0) -> int:
    """Smallest m with (1 - c0)**m <= epsilon (0 when epsilon = 1).

    Drawing m independent elements, each a pre-p-cycle with probability
    at least c0, fails to find one with probability at most epsilon.
    The estimate ceil(log epsilon / log(1 - c0)) comes from float logs
    and is corrected with exact rational powers of 1 - c0 while m times
    the bits of 1 - c0 is at most 4,000,000.  Past that, or where
    1 - epsilon or c0 is too small for a float, the ratio is enclosed in
    an interval, each log that of the enclosed q at a precision raised
    by the bits of 1 - q.  The precision starts 20 bits past those of
    the float estimate (at 20 bits where there is none) and doubles
    until both ends of the interval have one ceiling; ends that straddle
    an integer k are decided by (1 - c0)**k against epsilon when that
    power is no larger than epsilon itself.  So the count is never off
    by one.
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
    m = _float_count(eps, base)
    bits = base.numerator.bit_length() + base.denominator.bit_length()
    if m is None or m * bits > _POWER_BITS:
        return _mp_count(eps, base, m)
    while m > 1 and base ** (m - 1) <= eps:
        m -= 1
    while base**m > eps:
        m += 1
    return m


def _float_log(q: Fraction) -> float | None:
    """log q for 0 < q < 1 in floats: log1p of the exact q - 1 from 1/2
    on, None where that is below the least normal float; below 1/2 the
    log of the numerator less that of the denominator, which takes ints
    of any size."""
    num, den = q.numerator, q.denominator
    if 2 * num >= den:
        x = (den - num) / den
        return math.log1p(-x) if x >= sys.float_info.min else None
    return math.log(num) - math.log(den)


def _float_count(eps: Fraction, base: Fraction) -> int | None:
    """ceil(log eps / log base), at least 1, in floats; None where a log
    or the ratio leaves the floats."""
    num, den = _float_log(eps), _float_log(base)
    if num is None or den is None:
        return None
    ratio = num / den
    return max(math.ceil(ratio), 1) if math.isfinite(ratio) else None


def _mp_count(eps: Fraction, base: Fraction, estimate: int | None) -> int:
    """The least m with base**m <= eps < 1: the ceiling of an interval
    around log eps / log base, its precision doubled until both ends have
    one, from _COUNT_PREC bits past those of the float ``estimate`` of m
    (from _COUNT_PREC where there is none).  Ends with ceilings k and
    k + 1 are decided by base**k against eps when base**k has the bits of
    eps's denominator (so the power costs about what eps does); otherwise
    eps != base**k, and a higher precision in the end separates the ratio
    from k."""
    from mpmath.libmp import to_int

    def log(q: Fraction, bits: int):
        # q enclosed with the bits of 1/(1 - q) to spare: near 1 its interval
        # stays far narrower than 1 - q, and log q keeps ``bits`` relative
        gap = q.denominator - q.numerator
        with _precision(bits + q.denominator.bit_length() - gap.bit_length() + 4) as iv:
            return iv.log(_enclose(q))

    prec = _COUNT_PREC + (estimate or 0).bit_length()
    while True:
        with _precision(prec):
            ratio = log(eps, prec) / log(base, prec)
        lo, hi = (to_int(end, "c") for end in ratio._mpi_)
        if lo == hi:
            return lo
        d = base.denominator.bit_length()
        if hi == lo + 1 and lo * (d - 1) < eps.denominator.bit_length() <= lo * d:
            return lo if base**lo <= eps else hi
        prec *= 2
