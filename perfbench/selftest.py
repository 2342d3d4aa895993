"""Toy-scale self-test of the benchmark's reference code and checks.

    python3 perfbench/selftest.py        (or: python3 -m pytest perfbench/selftest.py)

The oracles are compared with brute force over every element of S_6 and
A_6, and a deliberately wrong output must be reported by the same check
the benchmark runs.  Takes a few seconds.
"""
from __future__ import annotations

import itertools
import random
import sys
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

sys.path.insert(0, str(Path(__file__).resolve().parent))

import oracles  # noqa: E402
import workload  # noqa: E402

WINDOWS = ((2,), (3,), (5,), (2, 3), (3, 5), (2, 5), (2, 3, 5))


def _group(n: int, group: str) -> list[list[int]]:
    perms = [list(p) for p in itertools.permutations(range(n))]
    return perms if group == "sym" else [g for g in perms if oracles.is_even(g)]


def _lengths(g: list[int]) -> dict[int, int]:
    counts: dict[int, int] = {}
    for cyc in oracles.cycles(g):
        counts[len(cyc)] = counts.get(len(cyc), 0) + 1
    return counts


def _share(elements, pred) -> Fraction:
    return Fraction(sum(1 for g in elements if pred(_lengths(g))), len(elements))


def _pre_cycle(counts, primes) -> bool:
    return any(
        counts.get(p) == 1 and not any(counts.get(k) for k in counts if k != p and k % p == 0)
        for p in primes
    )


def _repeat(counts, primes) -> bool:
    return any(p in counts and sum(m for k, m in counts.items() if k % p == 0) >= 2 for p in primes)


def test_oracles_match_brute_force_s6_a6():
    n = 6
    for group in ("sym", "alt"):
        elements = _group(n, group)
        avoider = oracles.ExactAvoider()
        for primes in WINDOWS:
            assert oracles.pre_cycle_union(n, primes, group, avoider) == _share(
                elements, lambda c: _pre_cycle(c, primes))
            hit, repeat = oracles.hit_repeat(n, primes, group, avoider)
            assert hit == _share(elements, lambda c: any(p in c for p in primes))
            assert repeat == _share(elements, lambda c: _repeat(c, primes))
        for banned in ({1}, {2}, {1, 2}, {3, 4, 6}, {1, 5}):
            assert oracles.avoid_proportion(n, banned, group, avoider) == _share(
                elements, lambda c: not any(a in c for a in banned))


def test_float_route_matches_exact_route():
    n = 40
    exact, approx = oracles.ExactAvoider(), oracles.FloatAvoider(n)
    for group in ("sym", "alt"):
        for primes in ((5, 7), (2, 3, 5, 7, 11), (11, 13, 17, 19)):
            want = oracles.pre_cycle_union(n, primes, group, exact)
            assert abs(oracles.pre_cycle_union(n, primes, group, approx) - float(want)) < 1e-12
            want = oracles.hit_repeat(n, primes, group, exact)
            got = oracles.hit_repeat(n, primes, group, approx)
            assert all(abs(g - float(w)) < 1e-12 for g, w in zip(got, want))


def test_power_and_budget():
    rng = random.Random(5)
    for _ in range(50):
        g = list(range(9))
        rng.shuffle(g)
        e = rng.randrange(12)
        composed = list(range(9))
        for _ in range(e):
            composed = [g[x] for x in composed]
        assert oracles.power(g, e) == composed
    assert oracles.draw_budget(Fraction(1, 100), Fraction(1, 19)) == 86
    assert oracles.draw_budget(Fraction(1, 2), Fraction(1, 2)) == 1


def test_floor_exceptions_match_exact_sums():
    for threshold in (Fraction(1, 19), Fraction(1, 4)):
        below, matches = oracles.floor_exceptions(1200, threshold)
        naive = [n for n in range(5, 1201) if oracles.large_prime_floor(n) < threshold]
        assert below == naive
        assert all(matches(n, oracles.large_prime_floor(n)) for n in (5, 100, 1199))
        assert not matches(100, oracles.large_prime_floor(100) + Fraction(1, 10**6))
    assert oracles.floor_exceptions(1200, Fraction(1, 19))[0] == [5, 6, 7]


def test_library_agrees_at_toy_scale():
    sys.path.insert(0, str(workload.SRC))
    import precycles as pc

    avoider = oracles.ExactAvoider()
    for group in ("sym", "alt"):
        for n in (6, 12):
            for lo, hi in ((1, 5), (2, 9), (4, 11)):
                primes = oracles.window_primes(lo, min(hi, n))
                window = pc.prime_window(lo, min(hi, n))
                assert window.primes == primes
                assert pc.window_proportion(n, window, group) == oracles.pre_cycle_union(
                    n, primes, group, avoider)
                got = pc.window_hit_proportions(n, window, group)
                assert (got.hit, got.repeat) == oracles.hit_repeat(n, primes, group, avoider)


def test_wrong_outputs_fail_the_checks():
    rec = workload.Recorder(traced=False)
    check = workload.ExactWindow.__new__(workload.ExactWindow)
    check.avoider, check.expected = oracles.ExactAvoider(), {}
    right = oracles.pre_cycle_union(8, (2, 3, 5), "sym", check.avoider)
    check._check(rec, 0, 8, "sym", "window_proportion", (2, 3, 5), right)
    assert rec.mismatches == []
    check._check(rec, 0, 8, "sym", "window_proportion", (2, 3, 5), right + Fraction(1, 40320))
    assert len(rec.mismatches) == 1

    rec = workload.Recorder(traced=False)
    recog = workload.Recognize.__new__(workload.Recognize)
    recog.DEGREE, recog.p_range, recog.budget = 9, (1.0, 6.0), 86
    g = [1, 2, 0, 4, 3, 5, 6, 7, 8]  # (0 1 2)(3 4): its cube is a 2-cycle, its square a 3-cycle
    good = SimpleNamespace(found=True, status="found", draws_used=1, prime=3, exponent=2,
                           element=SimpleNamespace(images=tuple(v + 1 for v in g)),
                           cycle=SimpleNamespace(images=tuple(v + 1 for v in oracles.power(g, 2))))
    recog._check(rec, "uniform", "any", 0, good)
    assert rec.mismatches == []
    bad = SimpleNamespace(**{**vars(good), "exponent": 4})
    recog._check(rec, "uniform", "any", 0, bad)
    short = SimpleNamespace(found=False, status="not_found", draws_used=85)
    recog._check(rec, "list", 0, 0, short)
    assert len(rec.mismatches) == 2


def main() -> int:
    tests = [(name, fn) for name, fn in sorted(globals().items()) if name.startswith("test_")]
    failed = 0
    for name, fn in tests:
        try:
            fn()
        except AssertionError as exc:
            failed += 1
            print(f"FAIL {name}: {exc!r}")
        else:
            print(f"ok   {name}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
