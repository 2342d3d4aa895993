import copy
import math
import pickle
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from precycles import bounds, primes

# Textbook values, independent of the sieve.
PI_VALUES = {10: 4, 100: 25, 1000: 168, 10_000: 1229,
             100_000: 9592, 1_000_000: 78498}


def _trial_division(k: int) -> bool:
    if k < 2:
        return False
    d = 2
    while d * d <= k:
        if k % d == 0:
            return False
        d += 1
    return True


def test_sieve_matches_trial_division(table_small):
    listed = set(table_small.primes.tolist())
    for k in range(10_001):
        assert (k in listed) == _trial_division(k), k
    # every small limit, so the last base prime falls at each position
    for limit in range(2, 301):
        got = primes.build_sieve(limit).primes.tolist()
        assert got == [k for k in range(limit + 1) if _trial_division(k)], limit


@pytest.mark.parametrize("segment", [1, 2, 7, 64])
def test_sieve_segments_join(segment, table_small, monkeypatch):
    # segment edges at every integer, and on both sides of primes
    monkeypatch.setattr(primes, "_SIEVE_SEGMENT", segment)
    for limit in (2, 3, 10, 63, 64, 65, 10_000):
        got = primes.build_sieve(limit)
        k = table_small.pi(limit)
        assert got.primes.tolist() == table_small.primes[:k].tolist(), limit
        assert got.s1_prefix.tolist() == table_small.s1_prefix[: k + 1].tolist()
        assert got.s2_prefix.tolist() == table_small.s2_prefix[: k + 1].tolist()


def test_pi_known_values(table_large):
    for x, want in PI_VALUES.items():
        assert table_large.pi(x) == want


@given(st.integers(min_value=2, max_value=10_000))
def test_pi_prefix_consistent(table_small, x):
    step = table_small.pi(x) - table_small.pi(x - 1)
    assert step == int(primes.sieve_interval(x, x)[0])


def test_primes_between_floor_semantics(table_small):
    assert table_small.primes_between(2.5, 11.0).tolist() == [3, 5, 7, 11]
    assert table_small.primes_between(2.9, 3.1).tolist() == [3]
    assert table_small.primes_between(7, 7).tolist() == []
    assert table_small.primes_between(6.99, 7.0).tolist() == [7]


@given(st.floats(min_value=0.0, max_value=10_000.0),
       st.floats(min_value=0.0, max_value=10_000.0))
@example(0.0, 0.0)
@example(0.0, 10_000.0)
@example(2.0, 3.0)
@example(9_972.5, 10_000.0)
def test_primes_between_is_a_slice_of_the_sieve(table_small, x, y):
    a, b = min(x, y), max(x, y)
    got = table_small.primes_between(a, b)
    ia, ib = math.floor(a), math.floor(b)
    want = np.flatnonzero(primes.sieve_interval(ia + 1, ib)) + ia + 1
    assert got.tolist() == want.tolist()
    assert not got.flags.writeable
    with pytest.raises(ValueError):
        got[:1] = 4


@given(st.integers(min_value=2, max_value=9000),
       st.integers(min_value=0, max_value=900))
def test_exact_and_float_sums_agree(table_small, a, width):
    b = a + width
    exact = primes.sum_recip_exact(table_small, a, b)
    approx = primes.sum_recip(table_small, a, b)
    assert abs(float(exact) - approx) < 1e-12
    exact_sq = primes.sum_recip_sq_exact(table_small, a, b)
    approx_sq = primes.sum_recip_sq(table_small, a, b)
    assert abs(float(exact_sq) - approx_sq) < 1e-12
    # the fixed-point prefixes bracket both exact sums:
    # S <= 2**60 * sum <= S + count
    i, j = np.searchsorted(table_small.primes, (a, b), "right")
    count = int(j - i)
    for prefix, value in ((table_small.s1_prefix, exact),
                          (table_small.s2_prefix, exact_sq)):
        s = int(prefix[j] - prefix[i])
        assert s <= value * 2**60 <= s + count


def test_exact_sum_small_window(table_small):
    # primes in (2, 10] are 3, 5, 7
    assert primes.sum_recip_exact(table_small, 2, 10) == \
        Fraction(1, 3) + Fraction(1, 5) + Fraction(1, 7)
    assert primes.sum_recip_sq_exact(table_small, 2, 10) == \
        Fraction(1, 9) + Fraction(1, 25) + Fraction(1, 49)
    assert primes.sum_recip_exact(table_small, 13, 13) == 0


@pytest.mark.parametrize("num, den", [
    (0, 1), (1, 1), (1, 7), (22, 7), (-3, 10),
    (3**200 + 2, 5**150), (2**521 - 1, 3 * 5 * 7 * 11 * 13),
])
def test_coprime_fraction_matches_normalised(num, den):
    got, want = primes._coprime_fraction(num, den), Fraction(num, den)
    assert type(got) is Fraction
    assert got == want and hash(got) == hash(want)
    assert (got.numerator, got.denominator) == (want.numerator, want.denominator)


@given(st.lists(st.integers(0, 1228), unique=True, max_size=300), st.booleans())
@example([], False)
@example([], True)
@example([0], False)
@example([1228], True)
def test_coprime_recip_sum_matches_fraction_sum(table_small, picks, squared):
    # distinct primes <= 10_000 (pi(10_000) = 1229), in drawn order, or
    # their squares: field by field against term-by-term Fraction sums
    ps = table_small.primes_between(0, 10_000)
    vals = [int(ps[i]) ** (2 if squared else 1) for i in picks]
    got = primes._coprime_recip_sum(vals)
    want = sum((Fraction(1, v) for v in vals), Fraction(0))
    assert (got.numerator, got.denominator) == (want.numerator, want.denominator)
    assert math.gcd(got.numerator, got.denominator) == 1


@st.composite
def _interval_runs(draw):
    """A list of intervals (a, b] within [0, 10_000], ascending by
    midpoint: repeats, empty intervals, disjoint jumps, and steps that
    grow or shrink either end."""
    a = draw(st.integers(0, 2000))
    b = a + draw(st.integers(0, 300))
    run = [(a, b)]
    for _ in range(draw(st.integers(1, 30))):
        kind = draw(st.sampled_from(["repeat", "empty", "jump", "step"]))
        if kind == "empty":
            a = b = min(a + draw(st.integers(0, 40)), 10_000)
        elif kind == "jump":
            a = min(b + draw(st.integers(1, 3000)), 10_000)
            b = min(a + draw(st.integers(0, 300)), 10_000)
        elif kind == "step":
            da = draw(st.integers(-40, 40))
            db = draw(st.integers(-da, 80 - da))
            a = min(max(a + da, 0), 10_000)
            b = min(max(b + db, a), 10_000)
        run.append((a, b))
    return sorted(run, key=lambda iv: iv[0] + iv[1])


@given(_interval_runs())
def test_recip_sum_walk_matches_fresh_sums(table_small, run):
    # ascending, as the floor sweep walks, and descending: every call
    # must give the fresh sum field by field
    for order in (run, run[::-1]):
        walk = primes.RecipSumWalk(table_small)
        for a, b in order:
            got = walk(a, b)
            want = primes.sum_recip_exact(table_small, a, b)
            assert (got.numerator, got.denominator) == \
                (want.numerator, want.denominator), (a, b)


def test_float_prefix_accuracy(table_large):
    """The integer 2^-60 prefix sums should track the exact rationals to
    well below the verification margin even at the full sieve limit."""
    exact = primes.sum_recip_exact(table_large, 2, 1_000_000)
    approx = primes.sum_recip(table_large, 2, 1_000_000)
    assert abs(float(exact) - approx) < 1e-12


def test_verify_pi_bounds(table_large):
    for x in (11, 12, 100, 1229, 78498, 500_000, 1_000_000):
        assert bounds.verify_pi_bounds(table_large, x)
    with pytest.raises(ValueError):
        bounds.verify_pi_bounds(table_large, 10)
    with pytest.raises(ValueError):
        bounds.verify_pi_bounds(table_large, 1_000_001)


def test_is_prime_trial():
    want = {k for k in range(200) if _trial_division(k)}
    got = {k for k in range(200) if primes.is_prime_trial(k)}
    assert got == want


def test_build_sieve_rejects_tiny_limit():
    with pytest.raises(ValueError):
        primes.build_sieve(1)


def test_decimal_str_matches_str():
    import random
    import sys

    # str() itself needs the interpreter's digit cap lifted for big ints
    old = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None
    if old is not None:
        sys.set_int_max_str_digits(0)
    rng = random.Random(20261018)
    try:
        cases = [0, 1, (1 << 8192) - 1, 1 << 8192, 10**5000]
        cases += [rng.getrandbits(rng.randrange(0, 600_001)) for _ in range(6)]
        cases += [rng.getrandbits(bits) for bits in (129, 8193, 600_000)]
        for n in cases:
            text = str(n)
            assert primes.decimal_str(n) == text
            assert primes.decimal_str(-n) == ("-" + text if n else "0")
    finally:
        if old is not None:
            sys.set_int_max_str_digits(old)


def test_pi_and_primes_between_match_trial_division(table_small):
    # every integer x <= 10**4, and each prime p at p - 0.5 and p + 0.5
    count = 0
    for x in range(10_001):
        count += _trial_division(x)
        assert table_small.pi(x) == count, x
    for p in table_small.primes.tolist():
        assert table_small.pi(p - 0.5) == table_small.pi(p) - 1, p
        assert table_small.pi(p + 0.5) == table_small.pi(p), p
        assert table_small.primes_between(p - 0.5, p + 0.5).tolist() == [p]
        assert table_small.primes_between(p - 1, p - 0.5).size == 0
    want = [k for k in range(10_001) if _trial_division(k)]
    for a in range(0, 10_001, 97):
        for b in (a, a + 0.5, min(a + 200, 10_000), 10_000):
            got = table_small.primes_between(a, b).tolist()
            assert got == [k for k in want if a < k <= b], (a, b)


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_non_finite_endpoints_are_out_of_range(table_small, bad):
    out_of_range = "must be >= 0|exceeds sieve limit"
    with pytest.raises(ValueError, match=out_of_range):
        table_small.pi(bad)
    sums = (primes.sum_recip, primes.sum_recip_sq, primes.sum_recip_exact,
            primes.sum_recip_sq_exact)
    for interval, args in [(table_small.primes_between, ())] + [(f, (table_small,)) for f in sums]:
        for a, b in ((2, bad), (bad, 10_000)):
            with pytest.raises(ValueError, match=out_of_range):
                interval(*args, a, b)


def test_sieve_cap_refuses_before_allocating():
    tracemalloc.start()
    try:
        for limit in (primes.SIEVE_CAP + 1, 10**12):
            with pytest.raises(ValueError, match="SIEVE_CAP"):
                primes.build_sieve(limit)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, peak


def test_table_holds_24_bytes_per_prime():
    # and the build peaks at one 2 MB segment above what it returns
    tracemalloc.start()
    try:
        table = primes.build_sieve(4 * 10**6)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(table.primes) == 283_146
    assert held <= 25 * len(table.primes), held
    assert peak <= held + (3 << 20), (held, peak)


def test_derived_arrays_match_the_primes():
    table = primes.build_sieve(30_000)
    assert "is_prime" not in vars(table) and "pi_prefix" not in vars(table)
    want = [_trial_division(k) for k in range(30_001)]
    assert table.is_prime.tolist() == want
    assert table.pi_prefix.dtype == np.int32
    assert table.pi_prefix.tolist() == np.cumsum(want).tolist()
    for arr in (table.is_prime, table.pi_prefix):
        assert not arr.flags.writeable
    assert table.is_prime is table.is_prime  # cached


def test_pi_run_matches_bisection(table_small):
    rng = np.random.default_rng(7)
    runs = [(0, 0), (0, 1), (0, 10_001), (2, 3), (10_000, 10_001), (10_001, 10_001)]
    runs += [tuple(sorted(rng.integers(0, 10_002, size=2).tolist())) for _ in range(50)]
    for lo, hi in runs:
        got = table_small.pi_run(lo, hi)
        want = np.searchsorted(table_small.primes, np.arange(lo, hi), "right")
        assert got.dtype == np.int64 and got.tolist() == want.tolist(), (lo, hi)
    for lo, hi in ((-1, 5), (5, 4), (0, 10_002)):
        with pytest.raises(ValueError):
            table_small.pi_run(lo, hi)


@pytest.mark.parametrize("clone", [lambda t: pickle.loads(pickle.dumps(t)), copy.deepcopy],
                         ids=["pickle", "deepcopy"])
def test_table_survives_pickle_and_deepcopy(clone):
    table = primes.build_sieve(10_000)
    table.pi_prefix  # a derived array is not carried over
    got = clone(table)
    assert got is not table and got.limit == table.limit
    for name in ("primes", "s1_prefix", "s2_prefix"):
        assert getattr(got, name).tolist() == getattr(table, name).tolist()
        assert not getattr(got, name).flags.writeable
    assert "pi_prefix" not in vars(got)
    assert got.pi(10_000) == 1229
    assert primes.sum_recip_exact(got, 2, 100) == primes.sum_recip_exact(table, 2, 100)


def test_package_never_derives_the_index_arrays():
    table = primes.build_sieve(100_000)
    bounds.verify_pi_bounds_range(table)
    bounds.verify_recip_sq_upper_all(table, 12, 5000)
    bounds.verify_recip_bounds_all(table, 2, 5000)
    for a, b in ((12, 99_000), (5000, 5001), (40_000, 100_000)):
        bounds.check_recip_sq_upper(table, a, b)
        bounds.check_recip_bounds(table, a, b)
    bounds.density_floor_sweep(table, 100_000)
    walk = primes.RecipSumWalk(table)
    for a, b in ((10, 50), (20, 70), (1000, 2000)):
        walk(a, b)
        primes.sum_recip(table, a, b)
        primes.sum_recip_sq(table, a, b)
        primes.sum_recip_exact(table, a, b)
        primes.sum_recip_sq_exact(table, a, b)
    assert table.pi(99_999.5) == 9592
    assert table.primes_between(99_000, 100_000).size == 87
    assert "is_prime" not in vars(table) and "pi_prefix" not in vars(table)
