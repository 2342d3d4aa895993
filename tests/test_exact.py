import math
from fractions import Fraction
from math import factorial

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cycle_types import cycle_types
from precycles import acceptance, exact, montecarlo, primes


def _window_slice(n, data):
    """A window of consecutive primes <= n, drawn as a slice (maybe empty)."""
    ps = [p for p in range(2, n + 1) if all(p % q for q in range(2, p))]
    i = data.draw(st.integers(min_value=0, max_value=len(ps)))
    j = data.draw(st.integers(min_value=i, max_value=len(ps)))
    sub = ps[i:j]
    if sub:
        return exact.prime_window(sub[0] - 1, sub[-1])
    return exact.prime_window(1, 1)


def test_avoid_worked_examples():
    # permutations of S_4 with no fixed point: 9 of 24
    assert exact.avoid_proportion(exact.ForbiddenSet(4, {1}), "sym") == \
        Fraction(3, 8)
    # A_3 = {id, two 3-cycles}; none has a 2-cycle
    assert exact.avoid_proportion(exact.ForbiddenSet(3, {2}), "alt") == 1
    # forbidding everything leaves nothing
    assert exact.avoid_proportion(
        exact.ForbiddenSet(5, set(range(1, 6))), "sym") == 0
    # forbidding nothing leaves everything
    assert exact.avoid_proportion(exact.ForbiddenSet(5, set()), "sym") == 1
    assert exact.avoid_proportion(exact.ForbiddenSet(5, set()), "alt") == 1


def test_window_worked_example():
    w = exact.prime_window(1, 2)
    assert exact.window_proportion(5, w, "sym") == Fraction(1, 4)
    stats = exact.window_hit_proportions(5, w, "sym")
    assert stats.hit == Fraction(3, 8)
    assert stats.repeat == Fraction(1, 8)


def test_density_worked_examples():
    assert exact.pre_cycle_density(5, 2) == Fraction(1, 4)
    assert exact.coprime_order_density(3, 2) == Fraction(1, 2)
    assert exact.coprime_order_density(0, 5) == 1
    assert exact.coprime_order_density(6, 3) == \
        (1 - Fraction(1, 3)) * (1 - Fraction(1, 6))
    # a p-cycle is the only way to be pre-p at degree p
    for p in (2, 3, 5, 7):
        assert exact.pre_cycle_density(p, p) == Fraction(1, p)


def test_cycle_proportion_small():
    assert exact.cycle_proportion(2) == Fraction(1, 2)
    assert exact.cycle_proportion(3) == Fraction(5, 6)
    assert exact.cycle_proportion(4) == Fraction(5, 6)


def _class_counts(n, group):
    """(parts, count in the group) for every cycle type of degree n: an
    even type counts its S_n class size twice in A_n, an odd one 0."""
    for parts, size in cycle_types(n):
        if group == "sym":
            yield parts, size
        else:
            yield parts, 2 * size if (n - len(parts)) % 2 == 0 else 0


def test_cycle_types_match_brute_force():
    for n in range(9):
        total, _ = acceptance._brute_tables(n)
        assert dict(cycle_types(n)) == dict(total)


def test_centralizer_and_completeness():
    # class sizes sum to the group order
    for n in (1, 5, 12, 25, 40):
        assert sum(size for _, size in cycle_types(n)) == factorial(n)


def test_class_probability_sums_to_one():
    for n in (8, 20):
        for group in ("sym", "alt"):
            total = sum(count for _, count in _class_counts(n, group))
            assert Fraction(total, factorial(n)) == 1


@given(st.integers(min_value=1, max_value=25), st.data())
def test_recurrence_matches_partition_sweep(n, data):
    members = data.draw(st.sets(st.integers(min_value=1, max_value=n)))
    fs = exact.ForbiddenSet(n, members)
    for group in ("sym",) + (("alt",) if n >= 2 else ()):
        kept = sum(count for parts, count in _class_counts(n, group)
                   if members.isdisjoint(parts))
        assert exact.avoid_proportion(fs, group) == \
            Fraction(kept, factorial(n))


def test_derangements_in_both_groups_beyond_the_sweep():
    # D_n = (n-1)(D_{n-1} + D_{n-2}); even minus odd derangements of n
    # points is (-1)**(n-1) * (n-1), so A_n's derangement proportion is
    # (D_n + (-1)**(n-1) * (n-1)) / n!
    n = 400
    d_prev, d = 1, 0  # D_0, D_1
    for k in range(2, n + 1):
        d_prev, d = d, (k - 1) * (d + d_prev)
    fs = exact.ForbiddenSet(n, {1})
    assert exact.avoid_proportion(fs, "sym") == Fraction(d, factorial(n))
    assert exact.avoid_proportion(fs, "alt") == \
        Fraction(d + (-1) ** (n - 1) * (n - 1), factorial(n))


@given(st.integers(min_value=2, max_value=25), st.data())
def test_alt_proportion_within_double(n, data):
    members = data.draw(st.sets(st.integers(min_value=1, max_value=n)))
    fs = exact.ForbiddenSet(n, members)
    q_sym = exact.avoid_proportion(fs, "sym")
    q_alt = exact.avoid_proportion(fs, "alt")
    assert 0 <= q_alt <= 1
    assert q_alt <= 2 * q_sym


def test_forbidden_set_validation():
    with pytest.raises(ValueError):
        exact.ForbiddenSet(4, {0})
    with pytest.raises(ValueError):
        exact.ForbiddenSet(4, {5})
    assert exact.ForbiddenSet(6, {2, 3}).mu == Fraction(1, 2) + Fraction(1, 3)


def test_prime_window_validation():
    w = exact.prime_window(2.5, 11)
    assert w.primes == (3, 5, 7, 11)
    assert exact.prime_window(1, 1).primes == ()
    assert exact.PrimeWindow(1, 10) == exact.prime_window(1, 10)
    with pytest.raises(ValueError, match="needs lo <= hi"):
        exact.PrimeWindow(11, 2)
    # the primes are sieved from the interval, never supplied
    with pytest.raises(TypeError):
        exact.PrimeWindow(1, 10, (2, 3))
    assert exact.window_proportion(10, exact.prime_window(1, 10), "sym") == \
        Fraction(468911, 1209600)
    inf, nan = math.inf, math.nan
    for lo, hi in ((1, inf), (-inf, 5), (inf, inf), (nan, 5), (1, nan)):
        with pytest.raises(ValueError, match="needs lo <= hi"):
            exact.PrimeWindow(lo, hi)
    # refused before anything is allocated; a span of exactly the cap is sieved
    with pytest.raises(ValueError, match="hi <= lo [+] 10000000"):
        exact.prime_window(1, 3e8)
    assert len(exact.prime_window(0, 10**7).primes) == 664579


# lower ends from p**2 - 3p to p**2: the spans straddle the square where
# the base prime p starts striking
_NEAR_SQUARES = st.sampled_from((2, 3, 5, 7, 11, 13, 17, 19, 23, 29)).flatmap(
    lambda p: st.integers(p * p - 3 * p, p * p))


@given(lo=st.one_of(st.integers(-5, 3000), st.floats(-5.0, 3000.0),
                    _NEAR_SQUARES),
       width=st.one_of(st.integers(0, 400), st.floats(0.0, 400.0)))
@example(lo=1, width=0)
@example(lo=-3.5, width=6)
@example(lo=2.5, width=0.5)
@example(lo=48, width=1)
def test_prime_window_against_trial_division(lo, width):
    hi = lo + width
    want = tuple(k for k in range(math.floor(lo) + 1, math.floor(hi) + 1)
                 if primes.is_prime_trial(k))
    assert exact.prime_window(lo, hi).primes == want


@given(lo=st.integers(10**10 - 10**4, 10**10 + 10**4), width=st.integers(0, 120))
@settings(max_examples=15)
@example(lo=10**10 - 1, width=120)
@example(lo=10**10 + 18, width=1)
def test_prime_window_near_1e10_against_trial_division(lo, width):
    # every base prime above the span strikes in the vectorised pass
    hi = lo + width
    want = tuple(k for k in range(lo + 1, hi + 1) if primes.is_prime_trial(k))
    assert exact.prime_window(lo, hi).primes == want


def test_prime_window_cap():
    # hi up to 10**14 is sieved (the primes below are from trial
    # division); past it the window is refused before anything is
    # allocated
    assert exact.prime_window(10**14 - 100, 10**14).primes == (
        99999999999923, 99999999999929, 99999999999931,
        99999999999959, 99999999999971, 99999999999973)
    for lo, hi in ((10**14, 10**14 + 1), (1e16, 1e16 + 100)):
        with pytest.raises(ValueError, match="floor[(]hi[)] <= 100000000000000"):
            exact.prime_window(lo, hi)


def test_prime_window_with_table(table_small, table_large):
    # the window's own sieve against the table's
    for lo, hi in ((1, 2), (2.5, 29), (100, 200), (1, 10_000)):
        assert exact.prime_window(lo, hi).primes == \
            tuple(table_small.primes_between(lo, hi).tolist())
    for lo, hi in ((9_999.5, 10_007), (12_345.5, 234_567.9),
                   (999_000, 10**6), (1, 10**6)):
        assert exact.prime_window(lo, hi).primes == \
            tuple(table_large.primes_between(lo, hi).tolist())


def test_large_prime_window_density():
    # a single prime above n/2 cannot repeat or share a factor, so the
    # window proportion collapses to the classical 1/p
    w = exact.prime_window(10, 11)
    assert exact.window_proportion(20, w, "sym") == Fraction(1, 11)
    stats = exact.window_hit_proportions(20, w, "sym")
    assert stats.hit == Fraction(1, 11)
    assert stats.repeat == 0


@given(st.integers(min_value=2, max_value=30), st.data())
def test_hit_repeat_sandwich(n, data):
    w = _window_slice(n, data)
    for group in ("sym", "alt"):
        value = exact.window_proportion(n, w, group)
        stats = exact.window_hit_proportions(n, w, group)
        assert stats.hit - stats.repeat <= value <= stats.hit


def _enumerated_sample(n, group):
    """Every cycle type of degree n as one row of a (rows, lengths)
    sample, with its class count in the group (0 for odd types in A_n)."""
    rows, lengths, counts = [], [], []
    for row, (parts, count) in enumerate(_class_counts(n, group)):
        rows.extend([row] * len(parts))
        lengths.extend(parts)
        counts.append(count)
    return np.array(rows), np.array(lengths), np.array(counts, dtype=object)


@given(st.integers(min_value=2, max_value=24), st.data())
def test_window_statistics_match_shared_event_predicates(n, data):
    """Each exact statistic equals the total class proportion of the
    enumerated cycle types that the Monte Carlo event's ``accepts``
    keeps, so an event has one definition for both layers."""
    w = _window_slice(n, data)
    forbidden = data.draw(st.frozensets(
        st.integers(min_value=1, max_value=n), max_size=4))
    for group in ("sym", "alt"):
        rows, lengths, counts = _enumerated_sample(n, group)
        stats = exact.window_hit_proportions(n, w, group)
        for event, value in (
            (montecarlo.PreCycleInWindow(w), exact.window_proportion(n, w, group)),
            (montecarlo.InT(w), stats.hit),
            (montecarlo.InU(w), stats.repeat),
            (montecarlo.Avoids(forbidden),
             exact.avoid_proportion(exact.ForbiddenSet(n, forbidden), group)),
        ):
            kept = event.accepts(n, rows, lengths, len(counts))
            swept = Fraction(int(counts[kept].sum()), factorial(n))
            assert value == swept, (event, group)


def test_sandwich_is_strict_for_multi_prime_windows():
    """Type (3, 5, 10) at n = 18 is pre-3 but carries a repeated factor
    of 5, so it counts toward the window proportion yet is excluded
    from hit minus repeat; the lower sandwich bound is strict here."""
    w = exact.prime_window(2, 5)
    assert w.primes == (3, 5)
    value = exact.window_proportion(18, w, "sym")
    stats = exact.window_hit_proportions(18, w, "sym")
    assert stats.hit - stats.repeat < value


def test_pre_prime_cycle_proportion_matches_window():
    for n in (7, 12, 20):
        w = exact.prime_window(1, n - 3)
        for group in ("sym", "alt"):
            assert exact.pre_prime_cycle_proportion(n, group) == \
                exact.window_proportion(n, w, group)


def test_small_degree_proportions_all_below_third():
    """The first degrees sit at or below 1/3, a fact worth pinning."""
    assert exact.pre_prime_cycle_proportion(5, "sym") == Fraction(1, 4)
    assert exact.pre_prime_cycle_proportion(6, "sym") == Fraction(175, 720)
    assert exact.pre_prime_cycle_proportion(7, "sym") == Fraction(1645, 5040)
    for n in (5, 6, 7):
        assert exact.pre_prime_cycle_proportion(n, "sym") <= Fraction(1, 3)
    assert exact.pre_prime_cycle_proportion(8, "sym") > Fraction(1, 3)


def test_capacity_error():
    w = exact.prime_window(1, 40)
    with pytest.raises(exact.EnumerationCapacityError) as info:
        exact.window_proportion(61, w, "sym")
    assert "montecarlo" in str(info.value)


def test_window_functions_check_group_then_window_then_bound():
    empty = exact.prime_window(1, 1)
    too_wide = exact.prime_window(1, 67)
    for call in (exact.window_proportion, exact.window_hit_proportions):
        with pytest.raises(exact.EnumerationCapacityError):
            call(61, empty, "sym")
        with pytest.raises(ValueError, match="^group must be"):
            call(61, too_wide, "cyclic")
        with pytest.raises(ValueError, match="^window prime 67 exceeds"):
            call(61, too_wide, "sym")
    with pytest.raises(ValueError, match="^group must be"):
        exact.pre_prime_cycle_proportion(61, "cyclic")
    with pytest.raises(exact.EnumerationCapacityError):
        exact.pre_prime_cycle_proportion(61, "alt")


def test_group_validation():
    fs = exact.ForbiddenSet(4, {1})
    with pytest.raises(ValueError):
        exact.avoid_proportion(fs, "cyclic")
    with pytest.raises(ValueError):
        exact.avoid_proportion(exact.ForbiddenSet(1, set()), "alt")


def test_window_primes_above_degree_rejected():
    w = exact.prime_window(1, 11)
    with pytest.raises(ValueError):
        exact.window_proportion(7, w, "sym")
