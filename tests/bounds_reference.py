"""The π sweep and both pair grids with every step end evaluated.

A reference for the branch and bound in ``precycles.bounds``: the step
ends of [lo, hi] are walked from the top down, _STEP_BLOCK primes at a
time, and each block carries the suffix extremum and its first position
to the block below.  Margins and escalations come from the library's own
closed forms, budgets and scalar checks, so a report here equals the
library's field by field.
"""
import math

import numpy as np

from precycles import bounds
from precycles.primes import FIXED_UNIT


def step_blocks(table, lo, hi):
    """Yield (xs, pis, base, top) for blocks of the step ends of [lo, hi],
    the highest block first: ``bounds._step_ends`` on runs of
    ``bounds._STEP_BLOCK`` primes aligned at the top, each holding the
    step ends in (base, top]."""
    k_lo = table.pi(lo)
    ps = table.primes[k_lo : table.pi(hi)]
    for j1 in range(len(ps), 0, -bounds._STEP_BLOCK) or (0,):
        j0 = max(j1 - bounds._STEP_BLOCK, 0)
        base = int(ps[j0 - 1]) if j0 else lo - 1
        top = int(ps[j1 - 1]) if j1 < len(ps) else hi
        yield (*bounds._step_ends(ps, k_lo, lo, hi, j0, j1), base, top)


def _suffix_max(xs, values, carry):
    """``bounds._suffix_max`` of one block, and the carry for the block
    below: the greatest value at or above the block and its first x."""
    acc, pair = bounds._suffix_max(xs, values, carry)
    k = int(np.argmax(values))
    return acc, pair, (float(values[k]), int(xs[k])) if values[k] >= carry[0] else carry


def _pairs(base, top, b_hi):
    """The number of pairs a <= b <= b_hi with base < a <= top."""
    return ((b_hi - base) * (b_hi - base + 1) - (b_hi - top) * (b_hi - top + 1)) // 2


def verify_pi_bounds_range(table, lo=11, hi=None):
    hi = table.limit if hi is None else hi
    parts = []
    for xs, pis, base, top in step_blocks(table, lo, hi):
        lower, upper = bounds._pi_terms(xs, np.log, float)
        pis = pis.astype(float)
        parts.append(bounds._finish_sweep(
            "pi_bounds_range", np.minimum(pis - lower, upper - pis), bounds.MARGIN,
            top - base, lambda i: {"x": int(xs[i])},
            lambda x: bounds._check_pi_bounds(table, x),
        ))
    return bounds._merged("pi_bounds_range", parts[::-1])


def verify_recip_sq_upper_all(table, a_lo=12, b_hi=None):
    b_hi = table.limit if b_hi is None else b_hi
    carry, parts = (-math.inf, None), []
    for xs, pis, base, top in step_blocks(table, a_lo, b_hi):
        g, f = bounds._sq_terms(xs, np.log, float)
        s2 = table.s2_prefix[pis] * FIXED_UNIT
        f += s2
        g += s2
        f_max, pair, carry = _suffix_max(xs, f, carry)
        parts.append(bounds._finish_sweep(
            "recip_sq_upper_all", g - f_max, bounds._SQ_BUDGET, _pairs(base, top, b_hi),
            pair, lambda a, b: bounds.check_recip_sq_upper(table, a, b),
        ))
    return bounds._merged("recip_sq_upper_all", parts[::-1])


def verify_recip_bounds_all(table, a_lo=2, b_hi=None):
    b_hi = table.limit if b_hi is None else b_hi
    low_carry = high_carry = (-math.inf, None)
    lows, highs = [], []
    for xs, pis, base, top in step_blocks(table, a_lo, b_hi):
        loglogs, halves, inv2 = bounds._recip_terms(xs, np.log, float)
        s1 = table.s1_prefix[pis] * FIXED_UNIT
        plus = s1 - loglogs + halves
        minus = s1 - loglogs - inv2
        neg_min, low_pair, low_carry = _suffix_max(xs, -plus, low_carry)
        minus_max, high_pair, high_carry = _suffix_max(xs, minus, high_carry)
        checked = _pairs(base, top, b_hi)
        lows.append(bounds._finish_sweep(
            "recip_lower_all", -neg_min - minus, bounds.MARGIN, checked, low_pair,
            lambda a, b: bounds.check_recip_bounds(table, a, b)[0],
        ))
        highs.append(bounds._finish_sweep(
            "recip_upper_all", plus - minus_max, bounds.MARGIN, checked, high_pair,
            lambda a, b: bounds.check_recip_bounds(table, a, b)[1],
        ))
    return bounds._merged("recip_bounds_all", [
        bounds._merged("recip_lower_all", lows[::-1]),
        bounds._merged("recip_upper_all", highs[::-1])])
