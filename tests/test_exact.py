import hashlib
import math
from fractions import Fraction
from math import factorial

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import exact_reference
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


@given(st.integers(min_value=31, max_value=60), st.data())
@settings(max_examples=20)
@example(n=18, data=None)
def test_shared_prefix_walk_matches_per_subset_reference(n, data):
    """The walk that continues each subset's recurrence from its
    parent's prefix gives the Fractions of one recurrence per subset.
    The example is the window (7, 11) at n = 18, where {7} lies below
    its cut 14 in the hit walk yet still has the child {7, 11}."""
    if data is None:
        w = exact.prime_window(6, 11)
    else:
        # lower ends in the bottom half and upper ends in the top half,
        # so each window holds primes that fit only a few at a time
        lo = data.draw(st.integers(min_value=0, max_value=n // 2))
        w = exact.prime_window(lo, data.draw(st.integers(n // 2, n)))
    for group in ("sym", "alt"):
        assert exact.window_proportion(n, w, group) == \
            exact_reference.window_proportion(n, w.primes, group)
        assert tuple(exact.window_hit_proportions(n, w, group)) == \
            exact_reference.window_hit_proportions(n, w.primes, group)


@given(st.integers(min_value=1, max_value=80), st.data())
@settings(max_examples=30)
def test_avoidance_matches_per_subset_reference(n, data):
    members = data.draw(st.sets(st.integers(min_value=1, max_value=n)))
    fs = exact.ForbiddenSet(n, members)
    for group in ("sym",) + (("alt",) if n >= 2 else ()):
        assert exact.avoid_proportion(fs, group) == Fraction(
            exact_reference.in_group(n, members, group), factorial(n))


def _paper_window(n):
    """The paper's prime window (log n, (log n)**(log log n)]."""
    log_n = math.log(n)
    return log_n, log_n ** math.log(log_n)


# sha256 of the fraction_str lines of window_proportion, hit and repeat
# (and pre_prime_cycle_proportion for the 2..n-3 window), recorded from
# one avoidance recurrence per prime subset
@pytest.mark.parametrize("n, group, kind, digest", [
    (52, "sym", "paper", "2cacfad217c9b6abdb4933b172cba11e7bfb641cb5fd9c5b1bcf4df7f9466a6e"),
    (52, "sym", "full", "2dbf20ace9a096f5913cc23af12c1902e5e055ca04a9fca81e7c75e1eeceb1bd"),
    (52, "alt", "paper", "2cacfad217c9b6abdb4933b172cba11e7bfb641cb5fd9c5b1bcf4df7f9466a6e"),
    (52, "alt", "full", "beb855ed996983ce8dd1a357280a8553ca5c2b7077924f141e3beeaa12d1477a"),
    (56, "sym", "paper", "08fcc08153a13126f2bb226e8d5bb46c427f78b16703950aa8998343f657644c"),
    (56, "sym", "full", "a643e617c53e7f367906c5227befd12dbac59230ac7c05bb38ff27569a7cc07b"),
    (56, "alt", "paper", "32a64684cab738bfbbfa5fe50a8af44c96eeff276c0c18379f6e32e86768d5da"),
    (56, "alt", "full", "254e77ecd8e70058cd4618ba115889481146e4f81758a955066f0389d78661f2"),
    (60, "sym", "paper", "1413f95baf8efe71d4095f60ce205021086f40f2736d327ecb20fde8ff1095a6"),
    (60, "sym", "full", "8b656a44209aaa441944f0491aa02a27fb9ca67de10f9b428c4f67c0999ad316"),
    (60, "alt", "paper", "8db05f0ba23fca32478bd4e88912b4a5961c266f6af8d9a8fe460879f64cc4b4"),
    (60, "alt", "full", "fe92512d73e480c7d5c252b9403ccb8ad6f5d6630e11eac2f866ae93fe1cac6f"),
])
def test_window_statistics_pinned_past_enumeration(n, group, kind, digest):
    lo, hi = _paper_window(n) if kind == "paper" else (1, n - 3)
    w = exact.prime_window(lo, hi)
    values = [exact.window_proportion(n, w, group)]
    values += exact.window_hit_proportions(n, w, group)
    if kind == "full":
        values.append(exact.pre_prime_cycle_proportion(n, group))
    text = "\n".join(primes.fraction_str(v) for v in values)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


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
