import collections
import dataclasses
import json
import math
import time
import tracemalloc
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bounds_reference
from precycles import bounds, cli, exact, primes


def test_constant_brackets():
    lo, hi = bounds.gamma_bounds()
    assert hi - lo == Fraction(1, 10 ** 30)
    with mp.workdps(50):
        gamma = mp.euler
        assert mp.mpf(lo.numerator) / lo.denominator < gamma
        assert mp.mpf(hi.numerator) / hi.denominator > gamma


def test_avoidance_bounds_values():
    ab = bounds.avoidance_bounds(1.0)
    assert ab.mu_inverse == 1.0
    assert ab.e_one_minus_mu == 1.0
    assert abs(ab.e_gamma_minus_mu - 0.65521992581610357) < 1e-12
    ab0 = bounds.avoidance_bounds(0.0)
    assert ab0.mu_inverse is None  # 1/0 is no finite float
    assert abs(ab0.e_one_minus_mu - math.e) < 1e-12


def test_avoidance_bounds_need_a_finite_mu():
    huge = Fraction(10**400)
    for check in (bounds.avoidance_bounds, bounds.verify_gamma_dominance):
        with pytest.raises(ValueError, match="mu must be a finite float"):
            check(huge)
    # mu below the least float: its 1/mu is no finite float either
    assert bounds.avoidance_bounds(Fraction(1, 10**400)).mu_inverse is None
    assert bounds.avoidance_bounds(5e-324).mu_inverse is None
    with pytest.raises(ValueError, match="mu must be >= 0"):
        bounds.avoidance_bounds(Fraction(-1, 10**400))


def test_certify_avoidance_bound():
    # exactly at mu = 1 the bound value is e^(gamma-1) ~ 0.65522
    assert bounds.certify_avoidance_bound(Fraction(13, 20), 1)
    assert not bounds.certify_avoidance_bound(Fraction(2, 3), 1)
    assert bounds.certify_avoidance_bound(Fraction(13, 10), 1, factor=2)
    # q may be Fraction or float
    assert bounds.certify_avoidance_bound(0.5, Fraction(1, 1))


@given(st.floats(min_value=0.01, max_value=30))
def test_gamma_dominance(mu):
    assert bounds.verify_gamma_dominance(mu)


def test_gamma_interval_encloses_euler():
    with bounds._precision(1024) as iv:
        gamma, euler = bounds._gamma(), +iv.euler
        assert gamma.a <= euler.a and euler.b <= gamma.b


def test_an_undecided_verdict_fails(table_small, monkeypatch):
    # at one precision of 2 bits no escalated comparison separates its
    # sides: true spot checks, strict and not, fail; the avoidance
    # certificate 7e-8 from its bound raises; gamma dominance fails
    def spots():
        return [bounds.check_recip_sq_upper(table_small, 12, 100),
                *bounds.check_recip_bounds(table_small, 100, 101)]

    q = Fraction(65522, 100_000)  # e**(gamma - 1) = 0.6552199...
    assert not bounds.certify_avoidance_bound(q, 1)
    assert bounds.verify_gamma_dominance(1)
    monkeypatch.setattr(bounds, "MARGIN", math.inf)
    monkeypatch.setattr(bounds, "_SQ_BUDGET", math.inf)
    assert all(r.holds for r in spots())
    monkeypatch.setattr(bounds, "_PRECISIONS", (2,))
    assert not any(r.holds for r in spots())
    with pytest.raises(ArithmeticError):
        bounds.certify_avoidance_bound(q, 1)
    assert not bounds.verify_gamma_dominance(1)


def test_prime_sum_bounds_values():
    psb = bounds.prime_sum_bounds(12, 12)
    want = (2.22 - 1.61) / (12 * math.log(12))
    assert abs(psb.recip_sq_upper - want) < 1e-12
    assert abs(psb.recip_sq_upper - 0.0204573) < 1e-6

    psb2 = bounds.prime_sum_bounds(2, 4)
    assert psb2.recip_sq_upper is None
    assert psb2.recip_lower < 0 < psb2.recip_upper
    assert abs(psb2.recip_upper - 2.2540) < 1e-3

    psb3 = bounds.prime_sum_bounds(11.9, 100)
    assert psb3.recip_sq_upper is None
    assert psb3.recip_lower is not None


@pytest.mark.parametrize("a, b, end", [
    (12, math.inf, "b"), (math.nan, 20, "a"), (-math.inf, 20, "a"),
    (12, math.nan, "b")])
def test_prime_sum_bounds_refuse_non_finite_ends(a, b, end):
    with pytest.raises(ValueError, match=f"^{end} must be finite"):
        bounds.prime_sum_bounds(a, b)


SQ_PAIRS = ((12, 12), (12, 100), (50, 9000), (500, 501))
RECIP_PAIRS = ((2, 4), (2, 10_000), (12, 500), (100, 101))


def test_check_recip_sq_upper(table_small):
    for a, b in SQ_PAIRS:
        rep = bounds.check_recip_sq_upper(table_small, a, b)
        assert rep.holds, (a, b)
        assert rep.margin >= 0
        assert rep.lhs <= rep.rhs


def test_check_recip_bounds(table_small):
    for a, b in RECIP_PAIRS:
        lo_rep, hi_rep = bounds.check_recip_bounds(table_small, a, b)
        assert lo_rep.holds and hi_rep.holds, (a, b)
        true_sum = float(primes.sum_recip_exact(table_small, a, b))
        assert lo_rep.lhs <= true_sum + 1e-12
        assert true_sum <= hi_rep.rhs + 1e-12


def test_forced_escalations_keep_every_verdict(
        table_small, table_large, monkeypatch):
    # with no float margin wide enough, every verdict is escalated and
    # must agree with the float one
    sweeps = [
        (lambda: bounds.verify_pi_bounds_range(table_large, 11, 20_000), 4516),
        (lambda: bounds.verify_recip_sq_upper_all(table_large, 12, 300), 115),
        (lambda: bounds.verify_recip_bounds_all(table_large, 2, 300), 246),
        (lambda: bounds.verify_harmonic_gap(3000), 3000),
    ]
    spots = [lambda a=a, b=b: (bounds.check_recip_sq_upper(table_small, a, b),)
             for a, b in SQ_PAIRS]
    spots += [lambda a=a, b=b: bounds.check_recip_bounds(table_small, a, b)
              for a, b in RECIP_PAIRS]
    sweep_reports = [run() for run, _ in sweeps]
    spot_reports = [run() for run in spots]
    assert all(r.holds and r.escalations == 0 for r in sweep_reports)
    calls = 0
    certified_less = bounds._certified_less

    def counting(sides, strict):
        nonlocal calls
        calls += 1
        return certified_less(sides, strict)

    monkeypatch.setattr(bounds, "_certified_less", counting)
    monkeypatch.setattr(bounds, "MARGIN", math.inf)
    monkeypatch.setattr(bounds, "_SQ_BUDGET", math.inf)
    monkeypatch.setattr(bounds, "_HARMONIC_BUDGET", math.inf)
    for (run, count), unforced in zip(sweeps, sweep_reports):
        before = calls
        forced = run()
        assert forced.escalations == count
        assert calls - before >= count
        assert dataclasses.replace(forced, escalations=0) == unforced
    for run, unforced in zip(spots, spot_reports):
        before = calls
        assert run() == unforced
        assert calls - before == len(unforced)


def test_pair_sweeps_hold(table_small):
    rep = bounds.verify_recip_sq_upper_all(table_small, 12, 400)
    assert rep.holds
    assert rep.checked == (400 - 12 + 1) * (400 - 12 + 2) // 2
    rep2 = bounds.verify_recip_bounds_all(table_small, 2, 400)
    assert rep2.holds
    assert rep2.checked == 2 * (400 - 2 + 1) * (400 - 2 + 2) // 2


def test_pi_bounds_range(table_small):
    rep = bounds.verify_pi_bounds_range(table_small, 11, 10_000)
    assert rep.holds
    assert rep.checked == 10_000 - 11 + 1
    with pytest.raises(ValueError):
        bounds.verify_pi_bounds_range(table_small, 10, 100)


def test_pi_bounds_range_matches_every_x():
    # the sweep evaluates step ends only; compare with every integer x
    table = primes.build_sieve(100_000)
    for lo, hi in ((11, 100_000), (12, 12), (13, 16), (14, 17),
                   (1000, 50_000), (99_990, 100_000)):
        rep = bounds.verify_pi_bounds_range(table, lo, hi)
        xs = np.arange(lo, hi + 1)
        logs = np.log(xs)
        base = xs / logs
        pis = np.searchsorted(table.primes, xs, "right").astype(float)
        margins = np.minimum(pis - base, base * (1.0 + 1.5 / logs) - pis)
        k = int(np.argmin(margins))
        assert rep.min_margin == float(margins[k]), (lo, hi)
        assert rep.argmin == {"x": int(xs[k])}, (lo, hi)
        assert rep.holds == bool((margins > 0).all()), (lo, hi)
        assert rep.checked == hi - lo + 1


def _every_pair_report(name, xs, margins, budget, recheck, witness_b):
    # reference tail: every integer a, each with its witness b
    near = [int(a) for a in xs[margins <= budget]]
    reports = [recheck(a, witness_b(a)) for a in near]
    k = int(np.argmin(margins))
    return bounds.SweepReport(
        name=name,
        checked=len(xs) * (len(xs) + 1) // 2,
        failures=tuple(r for r in reports if not r.holds),
        min_margin=float(margins[k]),
        argmin={"a": int(xs[k]), "b": witness_b(int(xs[k]))},
        escalations=len(near),
    )


def _sq_every_pair(table, a_lo, b_hi):
    xs = np.arange(a_lo, b_hi + 1)
    logs = np.log(xs)
    s2 = (table.s2_prefix * primes.FIXED_UNIT)[np.searchsorted(table.primes, xs, "right")]
    f = s2 + 1.61 / (xs * logs)
    g = s2 + 2.22 / (xs * logs)
    margins = g - np.maximum.accumulate(f[::-1])[::-1]
    return _every_pair_report(
        "recip_sq_upper_all", xs, margins, bounds._SQ_BUDGET,
        lambda a, b: bounds.check_recip_sq_upper(table, a, b),
        lambda a: int(xs[np.argmax(f[a - a_lo :]) + (a - a_lo)]))


def _recip_every_pair(table, a_lo, b_hi):
    xs = np.arange(a_lo, b_hi + 1)
    loglogs = np.log(np.log(xs))
    inv2 = 1.0 / np.log(xs) ** 2
    s1 = (table.s1_prefix * primes.FIXED_UNIT)[np.searchsorted(table.primes, xs, "right")]
    plus = s1 - loglogs + 0.5 * inv2
    minus = s1 - loglogs - inv2
    low = _every_pair_report(
        "recip_lower_all", xs,
        np.minimum.accumulate(plus[::-1])[::-1] - minus, bounds.MARGIN,
        lambda a, b: bounds.check_recip_bounds(table, a, b)[0],
        lambda a: int(xs[np.argmin(plus[a - a_lo :]) + (a - a_lo)]))
    high = _every_pair_report(
        "recip_upper_all", xs,
        plus - np.maximum.accumulate(minus[::-1])[::-1], bounds.MARGIN,
        lambda a, b: bounds.check_recip_bounds(table, a, b)[1],
        lambda a: int(xs[np.argmax(minus[a - a_lo :]) + (a - a_lo)]))
    return bounds.SweepReport(
        name="recip_bounds_all",
        checked=low.checked + high.checked,
        failures=low.failures + high.failures,
        min_margin=min(low.min_margin, high.min_margin),
        argmin=low.argmin if low.min_margin <= high.min_margin else high.argmin,
        escalations=low.escalations + high.escalations,
    )


def test_pair_sweeps_match_every_pair():
    # the grids evaluate step ends only; compare with every integer a
    lim = 100_000
    table = primes.build_sieve(lim)
    for lo, hi in ((12, lim), (2, lim), (2, 2), (2, 3), (3, 4), (12, 12),
                   (13, 17), (1000, 1013), (99_990, lim)):
        if lo >= 12:
            assert bounds.verify_recip_sq_upper_all(table, lo, hi) == \
                _sq_every_pair(table, lo, hi), (lo, hi)
        assert bounds.verify_recip_bounds_all(table, lo, hi) == \
            _recip_every_pair(table, lo, hi), (lo, hi)


@pytest.mark.parametrize("block", [1, 2, 3])
def test_step_blocks_match_every_x_and_pair(block, monkeypatch):
    # blocks of 1, 2 and 3 primes put a block edge at every step end,
    # the lo and hi repeats and the 2 -> 3 step among them; the two
    # tests above run at the default size
    monkeypatch.setattr(bounds, "_STEP_BLOCK", block)
    test_pi_bounds_range_matches_every_x()
    test_pair_sweeps_match_every_pair()


@pytest.mark.parametrize("block", [1, 2, 3])
def test_sub_blocks_match_every_x_and_pair(block, monkeypatch):
    # sub-blocks of 1, 2 and 3 primes put a sub-block edge at every step
    # end, the lo and hi repeats and the 2 -> 3 step among them
    monkeypatch.setattr(bounds, "_SUB_BLOCK", block)
    test_pi_bounds_range_matches_every_x()
    test_pair_sweeps_match_every_pair()


@pytest.mark.parametrize("step_block", [bounds._STEP_BLOCK, 1 << 10])
def test_sweeps_match_the_full_reference(step_block, table_large, monkeypatch):
    # the branch and bound against every step end evaluated, at 10**6:
    # three outer blocks at the default size, 77 at 2**10
    monkeypatch.setattr(bounds, "_STEP_BLOCK", step_block)
    lim = table_large.limit
    ranges = [(2, lim), (13, lim - 1), (1000, 500_000), (123_457, 987_654),
              (999_000, lim), (400_000, 400_000)]
    for sweep, lowest in ((bounds.verify_pi_bounds_range, 11),
                          (bounds.verify_recip_sq_upper_all, 12),
                          (bounds.verify_recip_bounds_all, 2)):
        reference = getattr(bounds_reference, sweep.__name__)
        for lo, hi in ranges:
            lo = max(lo, lowest)
            assert sweep(table_large, lo, hi) == reference(table_large, lo, hi), \
                (sweep.__name__, lo, hi)


def _perturbed(terms, old, new):
    """The closed form ``terms`` with its decimal constant ``old`` read
    as ``new``, in floats, numpy and mpmath alike."""
    def perturbed(*args):
        *head, log, num = args
        return terms(*head, log, lambda text: num(new if text == old else text))
    return perturbed


def _scaled_lower(terms, factor):
    """The closed form ``terms`` with its lower term multiplied by the
    decimal ``factor``, in floats, numpy and mpmath alike."""
    def scaled(x, log, num):
        lower, upper = terms(x, log, num)
        return lower * num(factor), upper
    return scaled


# Negative controls on the 10**5 table: (closed form, its perturbation
# and that one's arguments, sweep, lowest a or x, failures by name,
# first failing inputs).  The π upper constant 1.25 fails 9 x in
# [1307, 2861]; the π lower term times 1.105 fails 1773 x, five below 37
# and the rest from 85,816 on (1.12 fails 14,194, too many to recheck
# within the test's 0.3 s); the square-sum 1.62 fails 85 pairs, from
# (16, 17); the reciprocal half term -0.2 fails the lower side alone, at
# (19, 1422), and -0.4 three pairs on the upper side and two on the lower.
NEGATIVE_CONTROLS = {
    "pi": ("_pi_terms", _perturbed, ("1.5", "1.25"), "verify_pi_bounds_range", 11,
           {"pi_upper": 9}, {"x": 1307}),
    "pi_lower": ("_pi_terms", _scaled_lower, ("1.105",), "verify_pi_bounds_range", 11,
                 {"pi_lower": 1773}, {"x": 11}),
    "square_sum": ("_sq_terms", _perturbed, ("2.22", "1.62"), "verify_recip_sq_upper_all",
                   12, {"recip_sq_upper": 85}, {"a": 16, "b": 17}),
    "recip_lower": ("_recip_terms", _perturbed, ("0.5", "-0.2"), "verify_recip_bounds_all",
                    2, {"recip_lower": 1}, {"a": 19, "b": 1422}),
    "recip_upper": ("_recip_terms", _perturbed, ("0.5", "-0.4"), "verify_recip_bounds_all",
                    2, {"recip_lower": 2, "recip_upper": 3}, {"a": 19, "b": 222}),
}


@pytest.mark.parametrize("blocks", [
    {}, {"_SUB_BLOCK": 1}, {"_SUB_BLOCK": 2}, {"_SUB_BLOCK": 3}, {"_STEP_BLOCK": 64},
], ids=["default", "sub1", "sub2", "sub3", "step64"])
@pytest.mark.parametrize("side", sorted(NEGATIVE_CONTROLS))
def test_perturbed_sweeps_fail_as_the_full_reference_does(
        side, blocks, table_medium, monkeypatch):
    # the branch and bound must find every failure that evaluating every
    # step end finds, not only agree where every inequality holds
    form, perturb, args, sweep, lowest, counts, first = NEGATIVE_CONTROLS[side]
    for name, value in blocks.items():
        monkeypatch.setattr(bounds, name, value)
    monkeypatch.setattr(bounds, form, perturb(getattr(bounds, form), *args))
    lo, hi = lowest, table_medium.limit
    got = getattr(bounds, sweep)(table_medium, lo, hi)
    want = getattr(bounds_reference, sweep)(table_medium, lo, hi)
    for field in dataclasses.fields(bounds.SweepReport):
        assert getattr(got, field.name) == getattr(want, field.name), field.name
    assert collections.Counter(r.name for r in got.failures) == counts
    assert got.failures[0].inputs == first
    assert got.escalations == len(got.failures)
    assert all(r.margin < 0 for r in got.failures)


@pytest.mark.parametrize("block", [bounds._HARMONIC_BLOCK, 7])
def test_perturbed_harmonic_gap_fails_where_it_should(block, monkeypatch):
    # H_n - log n - gamma is 1/(2n) - 1/(12 n**2) + ..., so a cap of
    # 0.49/n fails from n = 9 on, and gamma read as 0.58, 0.0028 too
    # high, puts the gap below 0 from n = 180 on
    monkeypatch.setattr(bounds, "_HARMONIC_BLOCK", block)
    with monkeypatch.context() as m:
        m.setattr(bounds, "_harmonic_terms", _perturbed(bounds._harmonic_terms, "0.5", "0.49"))
        rep = bounds.verify_harmonic_gap(100)
    assert [r.inputs["n"] for r in rep.failures] == list(range(9, 101))
    assert rep.escalations == 92 and rep.checked == 100
    monkeypatch.setattr(bounds, "EULER_MASCHERONI", "0.58")
    rep = bounds.verify_harmonic_gap(300)
    assert [r.inputs["n"] for r in rep.failures] == list(range(180, 301))
    assert all(r.lhs < 0 for r in rep.failures)


def test_verify_primes_exits_1_under_a_perturbed_form(monkeypatch, capsys):
    monkeypatch.setattr(bounds, "_pi_terms", _perturbed(bounds._pi_terms, "1.5", "1.25"))
    argv = ["verify-primes", "--sieve-limit", "10000", "--format", "json"]
    assert cli.main(argv) == 1
    blob = json.loads(capsys.readouterr().out)
    assert blob["ok"] is False
    assert {r["name"]: r["holds"] for r in blob["sweeps"]} == {
        "pi_bounds_range": False, "recip_sq_upper_all": True,
        "recip_bounds_all": True, "harmonic_gap": True}
    # the text names points x, not pairs
    assert cli.main(argv[:-2]) == 1
    assert capsys.readouterr().out.startswith(
        "pi_bounds_range: FAILED (9 failures, first at {'x': 1307}), 9990 checks, ")


def test_verify_primes_finds_a_square_sum_failure_near_the_top(monkeypatch, capsys):
    # the upper term 2.22/(a log a) lowered by 5.3e-7 keeps its monotone
    # pieces and reaches the rechecks through ``num``; it fails only for
    # a >= 99,960 of a 10^5 table, where the true margin, about
    # 0.61/(a log a), is below 5.3e-7: far above any grid of b <= 2000
    sq_terms = bounds._sq_terms

    def lowered(x, log, num):
        upper, lower = sq_terms(x, log, num)
        return upper - num("5.3e-7"), lower

    monkeypatch.setattr(bounds, "_sq_terms", lowered)
    assert cli.main(["verify-primes", "--sieve-limit", "100000", "--format", "json"]) == 1
    blob = json.loads(capsys.readouterr().out)
    assert blob["ok"] is False
    sweeps = {r["name"]: r for r in blob["sweeps"]}
    assert {name: r["holds"] for name, r in sweeps.items()} == {
        "pi_bounds_range": True, "recip_sq_upper_all": False,
        "recip_bounds_all": True, "harmonic_gap": True}
    assert sweeps["recip_sq_upper_all"]["argmin"] == {"a": 99_988, "b": 99_991}
    rep = bounds.verify_recip_sq_upper_all(primes.build_sieve(100_000))
    assert [(r.inputs["a"], r.inputs["b"]) for r in rep.failures] == [
        (99_960, 99_961), (99_970, 99_971), (99_988, 99_991), (99_989, 99_991),
        (99_990, 99_991), (99_991, 99_991), (100_000, 100_000)]
    assert rep.escalations == 7
    # the JSON lists those failures as BoundReport dicts, and no others
    failures = {name: r["failures"] for name, r in sweeps.items()}
    assert failures.pop("recip_sq_upper_all") == json.loads(json.dumps(
        cli._jsonable([r.to_json_dict() for r in rep.failures])))
    assert failures == {"pi_bounds_range": [], "recip_bounds_all": [], "harmonic_gap": []}


def _count_evaluated_sub_blocks(monkeypatch):
    """Per call of the branch and bound: the number of its sub-blocks,
    and the set of those whose step ends it built."""
    calls = []
    step_ends, pruned_sweep = bounds._step_ends, bounds._pruned_sweep

    def counting_ends(ps, k_lo, lo, hi, j0, j1):
        calls[-1][1].add(j0)
        return step_ends(ps, k_lo, lo, hi, j0, j1)

    def counting_sweep(table, lo, hi, *args, **kwargs):
        primes_in_range = table.pi(hi) - table.pi(lo)
        calls.append((max(-(-primes_in_range // bounds._SUB_BLOCK), 1), set()))
        return pruned_sweep(table, lo, hi, *args, **kwargs)

    monkeypatch.setattr(bounds, "_step_ends", counting_ends)
    monkeypatch.setattr(bounds, "_pruned_sweep", counting_sweep)
    return calls


def test_sweeps_evaluate_few_sub_blocks(table_large, monkeypatch):
    # at 10**6 each sweep, and each side of the reciprocal grid, builds
    # the step ends of at most 2% of its sub-blocks
    calls = _count_evaluated_sub_blocks(monkeypatch)
    for sweep in (bounds.verify_pi_bounds_range, bounds.verify_recip_sq_upper_all,
                  bounds.verify_recip_bounds_all):
        assert sweep(table_large).holds
    # 78,493 primes in (11, 10**6] and (12, 10**6], 78,497 in (2, 10**6]
    k = bounds._SUB_BLOCK
    assert [total for total, _ in calls] == \
        [-(-78_493 // k)] * 2 + [-(-78_497 // k)] * 2
    for total, evaluated in calls:
        assert len(evaluated) <= 0.02 * total, [(t, len(e)) for t, e in calls]


def test_forced_sweeps_evaluate_every_sub_block(table_large, monkeypatch):
    # with no float margin wide enough, every sub-block is evaluated; small
    # outer blocks and sub-blocks give several of each below 1000
    monkeypatch.setattr(bounds, "_STEP_BLOCK", 16)
    monkeypatch.setattr(bounds, "_SUB_BLOCK", 4)
    unforced = [bounds.verify_pi_bounds_range(table_large, 11, 1000),
                bounds.verify_recip_sq_upper_all(table_large, 12, 1000),
                bounds.verify_recip_bounds_all(table_large, 2, 1000)]
    calls = _count_evaluated_sub_blocks(monkeypatch)
    monkeypatch.setattr(bounds, "MARGIN", math.inf)
    monkeypatch.setattr(bounds, "_SQ_BUDGET", math.inf)
    forced = [bounds.verify_pi_bounds_range(table_large, 11, 1000),
              bounds.verify_recip_sq_upper_all(table_large, 12, 1000),
              bounds.verify_recip_bounds_all(table_large, 2, 1000)]
    assert [total for total, _ in calls] == [41, 41, 42, 42]
    assert all(len(evaluated) == total for total, evaluated in calls)
    for f, u in zip(forced, unforced):
        assert f.escalations > 0 and dataclasses.replace(f, escalations=0) == u


def test_spot_checks_evaluate_only_their_bound(table_small, monkeypatch):
    # the square-sum check evaluates no reciprocal terms, and the
    # reciprocal check no square-sum terms
    want_sq = bounds.check_recip_sq_upper(table_small, 12, 5000)
    want_recip = bounds.check_recip_bounds(table_small, 2, 5000)

    def refuse(*args):
        raise AssertionError("a term of the other bound was evaluated")

    with monkeypatch.context() as m:
        m.setattr(bounds, "_recip_terms", refuse)
        assert bounds.check_recip_sq_upper(table_small, 12, 5000) == want_sq
    monkeypatch.setattr(bounds, "_sq_terms", refuse)
    assert bounds.check_recip_bounds(table_small, 2, 5000) == want_recip


def test_square_sum_budget_covers_its_float_error():
    # below SIEVE_CAP the fixed-point prefix loses less than 2**-60 on
    # each of at most pi(10**8) = 5,761,455 primes, plus a few ulps; the
    # float margin, about 0.61/(a log a), stays far beyond the budget
    cap = primes.SIEVE_CAP
    assert 5_761_455 * 2.0**-60 + 1e-15 < bounds._SQ_BUDGET
    assert 10 * bounds._SQ_BUDGET < 0.61 / (cap * math.log(cap))


def test_square_sum_check_decides_in_floats_near_the_cap(monkeypatch):
    # past a = 3.3 * 10**7 the float margin falls below MARGIN, but not
    # below the square-sum budget: no pair escalates to an exact sum.  A
    # table of the primes in [5 * 10**7, 5.1 * 10**7] alone gives the
    # right sums over intervals inside it
    lo, hi = 5 * 10**7, 51 * 10**6
    ps = lo + np.flatnonzero(primes.sieve_interval(lo, hi))
    one = 1 << primes.FIXED_BITS
    s1, s2 = (np.concatenate(([0], np.cumsum(one // d))) for d in (ps, ps * ps))
    table = primes.PrimeTable(hi, ps, s1, s2)

    def refuse(sides, strict):
        raise AssertionError("escalated")

    monkeypatch.setattr(bounds, "_certified_less", refuse)
    for a, b in ((lo, lo), (lo, lo + 10), (lo, hi), (lo + 123_456, hi - 7)):
        rep = bounds.check_recip_sq_upper(table, a, b)
        assert rep.holds and 0 < rep.margin < bounds.MARGIN, (a, b)


def _check_step_blocks(table, ranges):
    """pi at the step ends comes from prime indices, not from a lookup,
    and the blocks of each range cover it once."""
    lim = table.limit
    for lo, hi in ranges:
        covered = 0
        for xs, pis, base, top in bounds_reference.step_blocks(table, lo, hi):
            assert pis.tolist() == np.searchsorted(table.primes, xs, "right").tolist()
            assert xs[0] > base and xs[-1] == top
            covered += top - base
        assert covered == hi - lo + 1, (lim, lo, hi)


def _edge_ranges(lim):
    return [(3, 3), (4, 4), (12, 100), (lim - 5, lim)]


@pytest.mark.parametrize("block", [1, 2, 3, 7])
def test_step_block_pi_matches_searchsorted(block, table_small, table_large, monkeypatch):
    # every range of the 10**4 table, and the edge ranges of the 10**6
    # table, at block sizes that put a block edge at every step end
    monkeypatch.setattr(bounds, "_STEP_BLOCK", block)
    lim = table_small.limit
    _check_step_blocks(table_small, [(2, lim), (11, lim), *_edge_ranges(lim)])
    _check_step_blocks(table_large, _edge_ranges(table_large.limit))


def test_default_step_block_pi_matches_searchsorted(table_large):
    # every range of the 10**6 table, in three blocks of 2**15 primes
    lim = table_large.limit
    _check_step_blocks(table_large, [(2, lim), (11, lim), *_edge_ranges(lim)])


def test_step_sweeps_memory_does_not_grow_with_the_table():
    # the sweeps hold one block of step ends at a time, so a table with
    # four times the primes leaves each traced peak where it was
    peaks = []
    for limit in (10**6, 4 * 10**6):
        table = primes.build_sieve(limit)
        row = []
        for sweep in (bounds.verify_pi_bounds_range,
                      bounds.verify_recip_sq_upper_all,
                      bounds.verify_recip_bounds_all):
            tracemalloc.start()
            try:
                assert sweep(table).holds
                row.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        peaks.append(row)
        del table
    for small, large in zip(*peaks):
        assert abs(large - small) <= 0.1 * small, peaks


def test_report_shapes(table_small):
    rep = bounds.check_recip_sq_upper(table_small, 12, 40)
    d = rep.to_json_dict()
    assert set(d) >= {"name", "inputs", "lhs", "rhs", "holds", "margin"}


def test_harmonic_gap():
    assert bounds.harmonic_number(5) == pytest.approx(137 / 60, abs=1e-12)
    for n in (1, 2, 10, 1000, 10 ** 6):
        gap = bounds.harmonic_gap(n)
        assert 0 < gap < 1 / (2 * n)
    rep = bounds.verify_harmonic_gap(20_000)
    assert rep.holds
    assert rep.checked == 20_000


def test_harmonic_number_within_derived_bound():
    # half an ulp plus the truncation n * 2**-90, on both sides of the
    # block boundaries and at random degrees in between
    block = bounds._HARMONIC_BLOCK
    n_max = 2 * block + 1
    hs = np.concatenate([h for _, h in bounds._harmonic_blocks(n_max)])
    edges = [1, 2, block - 1, block, block + 1, 2 * block, n_max]
    rng = np.random.default_rng(11)
    for n in edges + rng.integers(1, n_max + 1, 400).tolist():
        h = float(hs[n - 1])
        with mp.workdps(40):
            err = abs(mp.mpf(h) - mp.harmonic(n))
        assert err <= math.ulp(h) / 2 + n * 2.0**-90, n
    for n in edges:
        assert bounds.harmonic_number(n) == hs[n - 1]
    with pytest.raises(ValueError):
        bounds.harmonic_number(0)
    with pytest.raises(ValueError):
        bounds.verify_harmonic_gap(2**31)


def test_harmonic_sweep_refuses_past_its_cap(monkeypatch):
    def blocks(n_max):
        raise AssertionError("a block was built past the cap")

    monkeypatch.setattr(bounds, "_harmonic_blocks", blocks)
    t0 = time.perf_counter()
    with pytest.raises(ValueError, match="HARMONIC_CAP"):
        bounds.verify_harmonic_gap(bounds.HARMONIC_CAP + 1)
    assert time.perf_counter() - t0 < 0.05


def test_harmonic_blocks_carry_exactly(monkeypatch):
    # integer totals carried across blocks: the same report as one block
    n_max = 3 * bounds._HARMONIC_BLOCK + 123
    blocks = bounds.verify_harmonic_gap(n_max)
    monkeypatch.setattr(bounds, "_HARMONIC_BLOCK", n_max)
    assert bounds.verify_harmonic_gap(n_max) == blocks
    assert blocks.holds and blocks.checked == n_max


def test_floor_sweep_small(table_small):
    sweep = bounds.density_floor_sweep(table_small, 10)
    assert {rec.n for rec in sweep.exceptions} == {5, 6, 7}
    for rec in sweep.exceptions:
        assert rec.exact == 0  # those windows hold no primes at all
    # every degree is decided by its integer bracket
    assert sweep.escalations == 0
    assert sweep.below_count == 3
    sweep2 = bounds.density_floor_sweep(table_small, 10_000)
    assert sweep2.holds_from_11
    assert sweep2.below_count == 3
    # spot values: (5, 7] holds only 7, (4, 5] holds only 5
    ns = {rec.n for rec in sweep2.exceptions}
    assert ns == {5, 6, 7}
    assert primes.sum_recip_exact(table_small, 5, 7) == Fraction(1, 7)
    assert primes.sum_recip_exact(table_small, 4, 5) == Fraction(1, 5)


def test_floor_sweep_ties_and_cap(table_small):
    # n = 10, 11, 12 sum to exactly 1/7: the integer bracket straddles
    # the threshold, the exact sum decides, and equality holds
    sweep = bounds.density_floor_sweep(table_small, 12, Fraction(1, 7))
    assert [rec.n for rec in sweep.exceptions] == [5, 6, 7]
    assert sweep.holds_from_11
    assert sweep.escalations == 3  # the ties at 10, 11 and 12
    # every degree fails a threshold of 1; only the first few are
    # reported, while the count and the verdict cover all of them
    sweep = bounds.density_floor_sweep(table_small, 10_000, Fraction(1))
    cap = bounds.FLOOR_EXCEPTIONS
    assert [rec.n for rec in sweep.exceptions] == list(range(5, 5 + cap))
    assert sweep.below_count == 10_000 - 4
    assert not sweep.holds_from_11
    assert sweep.escalations == 0
    for rec in sweep.exceptions:
        assert rec.exact == primes.sum_recip_exact(table_small, rec.n // 2, rec.n - 3)


def test_floor_sweep_reports_exceptions_without_exact_sums(table_large, monkeypatch):
    # up to 720000 no degree is undecided, so no exact sum is made: the
    # nine exceptions come from the integers that decided them
    class Refuse:
        def __init__(self, table):
            pass

        def __call__(self, a, b):
            raise AssertionError(f"an exact floor sum over ({a}, {b}] was made")

    monkeypatch.setattr(bounds, "RecipSumWalk", Refuse)
    sweep = bounds.density_floor_sweep(table_large, 720_000)
    assert [rec.n for rec in sweep.exceptions] == \
        [5, 6, 7, 719534, 719535, 719566, 719567, 719568, 719569]
    assert sweep.escalations == 0


def test_floor_exception_brackets_hold_their_exact_sums(table_large):
    # at 720000 and 10**6: the nine exceptions to 720000 come first in
    # both sweeps, and the tenth at 10**6 is 730514
    t = Fraction(1, 19)
    sweeps = [bounds.density_floor_sweep(table_large, n_max, t) for n_max in (720_000, 10**6)]
    assert [len(s.exceptions) for s in sweeps] == [9, 10]
    assert [s.escalations for s in sweeps] == [0, 0]
    assert sweeps[0].exceptions == sweeps[1].exceptions[:9]
    assert sweeps[1].exceptions[9].n == 730_514
    sums = {}  # one exact sum per interval of primes: 719534 and 719535 share one
    for rec in sweeps[1].exceptions:
        a, b = rec.n // 2, rec.n - 3
        key = (table_large.pi(a), table_large.pi(b))
        if key not in sums:
            sums[key] = primes.sum_recip_exact(table_large, a, b)
        exact_sum = sums[key]
        assert rec.lo <= exact_sum <= rec.hi, rec.n
        # decided by the bracket alone, not by an exact sum
        assert rec.hi < t, rec.n
        assert float(rec.lo) == rec.value
    assert (rec.exact.numerator, rec.exact.denominator) == \
        (exact_sum.numerator, exact_sum.denominator)


def test_floor_record_is_its_bracket(table_small):
    # the primes view stays out of the repr and of comparisons
    sweep = bounds.density_floor_sweep(table_small, 10, Fraction(1))
    rec = sweep.exceptions[-1]
    assert rec.n == 10 and list(rec.primes) == [7]
    assert repr(rec) == ("FloorRecord(n=10, value=0.14285714285714285, "
                         f"lo={rec.lo!r}, hi={rec.hi!r})")
    assert rec.lo == Fraction((1 << 60) // 7, 1 << 60) and rec.hi == rec.lo + Fraction(1, 1 << 60)
    assert not rec.primes.flags.writeable
    assert rec == bounds.FloorRecord(10, rec.value, rec.lo, rec.hi, np.array([]))


def test_floor_record_json(table_small):
    sweep = bounds.density_floor_sweep(table_small, 10)
    assert sweep.exceptions[0].to_json_dict() == \
        {"n": 5, "value": 0.0, "lo": "0/1", "hi": "0/1"}
    sweep = bounds.density_floor_sweep(table_small, 10, Fraction(1))
    unit = 1 << 60
    assert sweep.exceptions[-1].to_json_dict() == {
        "n": 10, "value": sweep.exceptions[-1].value,
        "lo": f"{unit // 7}/{unit}", "hi": f"{(unit // 7 + 1) // 2}/{unit // 2}"}


@pytest.mark.parametrize("block", [1, 2, 3])
def test_floor_blocks_match_one_block(block, table_small, monkeypatch):
    # blocks of 1, 2 and 3 degrees put a block edge at every degree,
    # among them the exceptions 5, 6, 7, the start of the asserted range
    # at 11 and the tie between 11 and 12 at threshold 1/7
    cases = [(n_max, t) for n_max in [*range(5, 13), 10**4]
             for t in (Fraction(1, 19), Fraction(1, 7))]
    whole = [bounds.density_floor_sweep(table_small, *case) for case in cases]
    monkeypatch.setattr(bounds, "_FLOOR_BLOCK", block)
    for case, want in zip(cases, whole):
        assert bounds.density_floor_sweep(table_small, *case) == want, case


@pytest.mark.parametrize("block", [239843, 190, 73, 236])
def test_floor_blocks_match_at_the_benchmark_degree(block, table_large, monkeypatch):
    # the certify benchmark sweeps to 719570..720000; these sizes start a
    # block at 719534 (the minimum and the first late exception), between
    # 719534 and 719535, at 719566 and at 719569
    whole = bounds.density_floor_sweep(table_large, 719_800)
    assert whole.argmin_n == 719534 and len(whole.exceptions) == 9
    monkeypatch.setattr(bounds, "_FLOOR_BLOCK", block)
    assert bounds.density_floor_sweep(table_large, 719_800) == whole


def test_floor_sweep_memory_does_not_grow_with_the_table():
    # the sweep holds one block of degrees at a time, so a table and a
    # sweep four times as long leave its traced peak where it was
    bounds.density_floor_sweep(primes.build_sieve(1000), 1000)  # imports
    peaks = []
    for limit in (10**6, 4 * 10**6):
        table = primes.build_sieve(limit)
        tracemalloc.start()
        try:
            bounds.density_floor_sweep(table, limit)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        del table
    assert abs(peaks[1] - peaks[0]) <= 0.1 * peaks[0], peaks


def test_window_density_lower_bound_desk_value():
    n = 10 ** 6
    v = bounds.window_density_lower_bound(
        n, math.log(n), math.log(math.log(n)), 1)
    assert v == pytest.approx(-0.7242, abs=1e-3)


def test_window_density_lower_bound_preconditions():
    with pytest.raises(ValueError):
        bounds.window_density_lower_bound(10 ** 6, 11.9, 2.0, 1)
    with pytest.raises(ValueError):
        bounds.window_density_lower_bound(10 ** 6, 20, 1.0, 1)
    with pytest.raises(ValueError):
        bounds.window_density_lower_bound(10 ** 4, 100, 3.0, 1)
    with pytest.raises(ValueError):
        bounds.window_density_lower_bound(10 ** 6, 20, 2.0, 3)


@pytest.mark.parametrize("n, a, d, name", [
    (10**400, 20, 2, "n"),
    (100, Fraction(10**400), 2, "a"),
    (100, 20, Fraction(10**400), "d"),
], ids=["n", "a", "d"])
def test_window_density_lower_bound_needs_finite_floats(n, a, d, name):
    with pytest.raises(ValueError, match=f"^{name} must be a finite float"):
        bounds.window_density_lower_bound(n, a, d, 1)


def test_headline_bounds():
    with pytest.raises(ValueError):
        bounds.headline_bounds(15)
    hb = bounds.headline_bounds(162_755, 1)
    assert hb.asserted
    assert hb.refined == pytest.approx(0.01639, abs=1e-4)
    assert not bounds.headline_bounds(162_754, 1).asserted
    assert bounds.headline_bounds(10 ** 6, 1).simple < \
        bounds.headline_bounds(10 ** 7, 1).simple
    assert bounds.headline_bounds(10 ** 6, 1, "proof").simple > \
        bounds.headline_bounds(10 ** 6, 1, "stated").simple


def test_headline_bounds_huge_degree():
    """Integer degrees far beyond float range must still evaluate."""
    n = 10 ** 500
    hb = bounds.headline_bounds(n, 1)
    loglog = math.log(math.log(n))
    assert hb.simple == pytest.approx(1 - 5 / loglog, rel=1e-12)
    assert hb.simple > 0.29
    hb2 = bounds.headline_bounds(10 ** 400, 2, "proof")
    assert hb2.c == 6.9


def test_sample_count_values():
    assert bounds.sample_count(1, Fraction(1, 19)) == 0
    assert bounds.sample_count(Fraction(1, 100), Fraction(1, 19)) == 86
    assert bounds.sample_count(Fraction(1, 100), Fraction(1, 20)) == 90
    assert bounds.sample_count(Fraction(1, 2), Fraction(999, 1000)) == 1
    # boundary sharpness at the worked pair
    assert (Fraction(18, 19) ** 86) <= Fraction(1, 100)
    assert (Fraction(18, 19) ** 85) > Fraction(1, 100)


@given(
    st.fractions(min_value=Fraction(1, 10 ** 6), max_value=Fraction(99, 100),
                 max_denominator=10 ** 6),
    st.fractions(min_value=Fraction(1, 100), max_value=Fraction(99, 100),
                 max_denominator=100),
)
def test_sample_count_is_minimal(epsilon, c0):
    m = bounds.sample_count(epsilon, c0)
    assert (1 - c0) ** m <= epsilon
    if m > 0:
        assert (1 - c0) ** (m - 1) > epsilon


@pytest.mark.parametrize("start", [bounds._COUNT_PREC, 1])
@pytest.mark.parametrize("k", [20, 40, 55, 70, 300, 400])
def test_sample_count_matches_a_high_precision_reference(k, start, monkeypatch):
    # past the exact-power rule: c0 = 10**-k, against log1p at 3k + 60
    # digits; at 60 digits log(1 - c0) lost 10**-40 (too few draws) and
    # 10**-55 (too many), and from 10**-70 on divided by zero.  A start
    # of one bit past the float estimate's bits does not separate the
    # ratio from an integer at 10**-20 and 10**-55, so the count doubles
    # its precision there until it does; 10**-400, below the least
    # normal float, has no estimate and doubles from the start alone
    monkeypatch.setattr(bounds, "_COUNT_PREC", start)
    c0 = Fraction(1, 10**k)
    with mp.workdps(3 * k + 60):
        ratio = mp.log(mp.mpf(1) / 100) / mp.log1p(-mp.mpf(c0.numerator) / c0.denominator)
        want = int(mp.ceil(ratio))
        assert abs(ratio - mp.nint(ratio)) > mp.mpf(10) ** -(2 * k)  # no boundary case
    assert bounds.sample_count(Fraction(1, 100), c0) == want


@pytest.mark.parametrize("k, rungs", [
    (70, [bounds._COUNT_PREC + 235]),
    (300, [bounds._COUNT_PREC + 999]),
    (400, [bounds._COUNT_PREC << i for i in range(8)]),
])
def test_sample_count_starts_past_the_float_estimate(k, rungs, monkeypatch):
    # c0 = 10**-70 and 10**-300 have a float estimate of the count (235
    # and 999 bits), and one interval _COUNT_PREC bits past it decides;
    # 10**-400 has none, so the precision doubles from _COUNT_PREC until
    # the ceilings agree
    seen, precision = [], bounds._precision

    def recording(bits):
        seen.append(bits)
        return precision(bits)

    monkeypatch.setattr(bounds, "_precision", recording)
    bounds.sample_count(Fraction(1, 100), Fraction(1, 10**k))
    # each rung encloses the ratio, then the two logs at their own precision
    assert seen[::3] == rungs


@pytest.mark.parametrize("eps, c0, want", [
    # epsilon = (1/2)**k exactly, past the exact-power rule (3k bits > 4e6)
    (Fraction(1, 2**2_000_000), Fraction(1, 2), 2_000_000),
    # within (1 + 2**-200) of (1/2)**k on either side, where 20 guard
    # digits cannot separate the ratio from k
    (Fraction(2**200 + 1, 2**2_000_200), Fraction(1, 2), 2_000_000),
    (Fraction(2**200 - 1, 2**2_000_200), Fraction(1, 2), 2_000_001),
    # 1 - epsilon and c0 below the least float
    (1 - Fraction(1, 10**400), Fraction(1, 10**400), 1),
    (Fraction(1, 10**400), Fraction(1, 2), 1329),
])
def test_sample_count_at_integer_boundaries_and_tiny_inputs(eps, c0, want):
    assert bounds.sample_count(eps, c0) == want
    base = 1 - c0
    if want * (base.numerator.bit_length() + base.denominator.bit_length()) <= 10**7:
        assert base**want <= eps < base ** (want - 1)


def test_sample_count_validation():
    with pytest.raises(ValueError):
        bounds.sample_count(0, Fraction(1, 19))
    with pytest.raises(ValueError):
        bounds.sample_count(Fraction(1, 10), 0)
    with pytest.raises(ValueError):
        bounds.sample_count(Fraction(1, 10), 1)


def test_exact_value_exceeds_positive_floor(table_small):
    """Degrees where the floor applies: the floor really is below the
    exact proportion."""
    for n in (30, 45, 60):
        floor = primes.sum_recip_exact(table_small, n // 2, n - 3)
        rho = exact.pre_prime_cycle_proportion(n, "sym")
        assert rho >= floor >= Fraction(1, 19)
