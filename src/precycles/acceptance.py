"""Acceptance criteria, runnable via `precycles selftest` or pytest.

Each criterion re-derives its expected values independently of the
library code it checks (brute-force group enumeration, inclusion-
exclusion, fresh high-precision formula evaluation), so a criterion
passing means two separate routes agree.  Criteria carry wall-clock
budgets where the contract states them; exceeding a budget fails the
criterion even if every comparison agreed.
"""
from __future__ import annotations

import itertools
import math
import time
import traceback
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from math import factorial

import mpmath as mp
import numpy as np

from . import bounds as bounds_mod
from . import exact, montecarlo, primes, recognize
from .perm import Permutation


@dataclass(frozen=True)
class CriterionResult:
    index: int
    name: str
    passed: bool
    detail: str
    seconds: float

    def line(self) -> str:
        verdict = "PASS" if self.passed else "FAIL"
        return (f"{verdict} criterion {self.index} ({self.name}) "
                f"[{self.seconds:.1f}s] {self.detail}")

    def to_json_dict(self) -> dict:
        return {
            "index": self.index,
            "name": self.name,
            "passed": self.passed,
            "detail": self.detail,
            "seconds": round(self.seconds, 3),
        }


class CriterionFailure(AssertionError):
    """Raised inside a criterion body when a comparison fails."""


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise CriterionFailure(message)


# ----------------------------------------------------------- criterion 1
# Brute force over all of S_n / A_n for n <= 8: every exact proportion
# the library computes must match a tally over the full group, as an
# exact rational.


def _cycle_lengths(images: tuple[int, ...]) -> list[int]:
    n = len(images)
    seen = [False] * n
    out = []
    for start in range(n):
        if seen[start]:
            continue
        length = 0
        j = start
        while not seen[j]:
            seen[j] = True
            j = images[j]
            length += 1
        out.append(length)
    return out


def _brute_tables(n: int) -> tuple[Counter, Counter]:
    """Counts by sorted cycle-length tuple, total and even-only."""
    total: Counter = Counter()
    even: Counter = Counter()
    for images in itertools.permutations(range(n)):
        lens = _cycle_lengths(images)
        key = tuple(sorted(lens))
        total[key] += 1
        if (n - len(lens)) % 2 == 0:
            even[key] += 1
    return total, even


def _brute_prop(table: Counter, n: int, pred) -> Fraction:
    hits = sum(c for key, c in table.items() if pred(key))
    return Fraction(hits, factorial(n))


def _brute_prop_alt(even: Counter, n: int, pred) -> Fraction:
    hits = sum(c for key, c in even.items() if pred(key))
    return Fraction(hits, factorial(n) // 2)


def _key_avoids(key, banned) -> bool:
    return not any(k in banned for k in key)


def _key_pre_p(key, p: int) -> bool:
    return key.count(p) == 1 and all(k % p != 0 for k in key if k != p)


def _key_hit(key, ps) -> bool:
    return any(p in key for p in ps)


def _key_repeat(key, ps) -> bool:
    return any(
        p in key and sum(1 for k in key if k % p == 0) >= 2 for p in ps
    )


def _small_primes(n: int) -> list[int]:
    return [p for p in range(2, n + 1)
            if p >= 2 and all(p % q for q in range(2, p))]


def criterion_1() -> str:
    rng = np.random.default_rng(11083)
    checks = 0
    for n in range(1, 9):
        total, even = _brute_tables(n)
        subsets = [frozenset(), frozenset({1})]
        for _ in range(50):
            subsets.append(frozenset(
                j for j in range(1, n + 1) if rng.random() < 0.35))
        for banned in subsets:
            fs = exact.ForbiddenSet(n, banned)
            want = _brute_prop(total, n, lambda key: _key_avoids(key, banned))
            got = exact.avoid_proportion(fs, "sym")
            _require(got == want,
                     f"avoid sym n={n} A={sorted(banned)}: {got} != {want}")
            checks += 1
            if n >= 2:
                want_a = _brute_prop_alt(
                    even, n, lambda key: _key_avoids(key, banned))
                got_a = exact.avoid_proportion(fs, "alt")
                _require(
                    got_a == want_a,
                    f"avoid alt n={n} A={sorted(banned)}: {got_a} != {want_a}",
                )
                checks += 1
        for p in _small_primes(n):
            want = _brute_prop(total, n, lambda key: _key_pre_p(key, p))
            got = exact.pre_cycle_density(n, p)
            _require(got == want,
                     f"pre-cycle density n={n} p={p}: {got} != {want}")
            checks += 1
        if n >= 2:
            want = _brute_prop(
                total, n, lambda key: sum(1 for k in key if k >= 2) == 1)
            got = exact.cycle_proportion(n)
            _require(got == want, f"cycle proportion n={n}: {got} != {want}")
            checks += 1
        ps_all = _small_primes(n)
        slices = [(i, j) for i in range(len(ps_all) + 1)
                  for j in range(i, len(ps_all) + 1)]
        for i, j in slices:
            ps = ps_all[i:j]
            if ps:
                window = exact.prime_window(ps[0] - 1, ps[-1])
            else:
                window = exact.prime_window(1, 1)
            _require(list(window.primes) == ps,
                     f"window construction produced {window.primes}")
            groups = ["sym"] + (["alt"] if n >= 2 else [])
            for group in groups:
                table, prop = (total, _brute_prop) if group == "sym" \
                    else (even, _brute_prop_alt)
                want_w = prop(
                    table, n,
                    lambda key: any(_key_pre_p(key, p) for p in ps))
                got_w = exact.window_proportion(n, window, group)
                _require(got_w == want_w,
                         f"window n={n} {group} {ps}: {got_w} != {want_w}")
                stats = exact.window_hit_proportions(n, window, group)
                want_hit = prop(table, n, lambda key: _key_hit(key, ps))
                want_rep = prop(table, n, lambda key: _key_repeat(key, ps))
                _require(stats.hit == want_hit,
                         f"hit n={n} {group} {ps}: {stats.hit} != {want_hit}")
                _require(
                    stats.repeat == want_rep,
                    f"repeat n={n} {group} {ps}: {stats.repeat} != {want_rep}",
                )
                _require(
                    want_hit - want_rep <= got_w <= want_hit,
                    f"sandwich violated n={n} {group} {ps}",
                )
                checks += 4
        for group in ["sym"] + (["alt"] if n >= 2 else []):
            table, prop = (total, _brute_prop) if group == "sym" \
                else (even, _brute_prop_alt)
            ps = [p for p in ps_all if p <= n - 3]
            want = prop(table, n,
                        lambda key: any(_key_pre_p(key, p) for p in ps))
            got = exact.pre_prime_cycle_proportion(n, group)
            _require(got == want,
                     f"pre-prime proportion n={n} {group}: {got} != {want}")
            checks += 1
    return f"{checks} exact comparisons against full-group tallies"


# ----------------------------------------------------------- criterion 2
# Fixed-point avoidance must reproduce the inclusion-exclusion
# derangement series exactly for n <= 30.


def criterion_2() -> str:
    for n in range(1, 31):
        want = sum(
            (Fraction((-1) ** k, factorial(k)) for k in range(n + 1)),
            Fraction(0),
        )
        got = exact.avoid_proportion(exact.ForbiddenSet(n, {1}), "sym")
        _require(got == want, f"derangement proportion n={n}: {got} != {want}")
    return "derangement series matched exactly for n = 1..30"


# ----------------------------------------------------------- criterion 3
# Random avoidance instances against the certified upper bounds, with
# outward rounding so float noise can never mask a violation.


def criterion_3() -> str:
    rng = np.random.default_rng(59394)
    certified = 0
    for trial in range(1000):
        n = int(rng.integers(2, 201))
        density = float(rng.uniform(0.03, 0.6))
        banned = frozenset(
            j for j in range(1, n + 1) if rng.random() < density)
        fs = exact.ForbiddenSet(n, banned)
        mu = fs.mu
        q_sym = exact.avoid_proportion(fs, "sym")
        q_alt = exact.avoid_proportion(fs, "alt")
        _require(
            bounds_mod.certify_avoidance_bound(q_sym, mu, factor=1),
            f"trial {trial}: S_{n} avoidance {float(q_sym):.6g} above "
            f"e^(gamma-mu) at mu={float(mu):.6g}",
        )
        _require(
            bounds_mod.certify_avoidance_bound(q_alt, mu, factor=2),
            f"trial {trial}: A_{n} avoidance {float(q_alt):.6g} above "
            f"2 e^(gamma-mu) at mu={float(mu):.6g}",
        )
        _require(
            bounds_mod.verify_gamma_dominance(float(mu)),
            f"trial {trial}: dominance chain failed at mu={float(mu):.6g}",
        )
        if mu < 1:
            _require(float(mu) == 0 or 1 / float(mu) >= 1,
                     f"trial {trial}: 1/mu below 1 at mu < 1")
        certified += 1
    return f"{certified} random (n, A) instances certified outward-safely"


# ----------------------------------------------------------- criterion 4
# Prime counting, prime sum and harmonic gap inequalities: the certified
# battery's four sweeps over the whole table, every pair of both prime-sum
# grids among them, zero failures allowed.


def criterion_4() -> str:
    table = primes.build_sieve(1_000_000)
    _require(table.pi(1_000_000) == 78498,
             f"pi(10^6) = {table.pi(1_000_000)}, expected 78498")
    sweeps = bounds_mod.verify_battery(table)
    for rep in sweeps:
        _require(rep.holds, f"{rep.name} failed at {len(rep.failures)} points")
    margins = ", ".join(f"{r.name} {r.min_margin:.2e}" for r in sweeps)
    return (f"sweeps {sum(r.checked for r in sweeps)} checks, zero failures; "
            f"min margins: " + margins)


# ----------------------------------------------------------- criterion 5
# Density floor sweep to 400000 against 1/19; the only degrees below
# the floor must be the independently recomputed small ones, and the
# exact small-degree proportions are reported against the 1/3 mark.


def _trial_prime(p: int) -> bool:
    return p >= 2 and all(p % q for q in range(2, int(p ** 0.5) + 1))


def criterion_5() -> str:
    t0 = time.perf_counter()
    table = primes.build_sieve(400_000)
    build_s = time.perf_counter() - t0
    t1 = time.perf_counter()
    sweep = bounds_mod.density_floor_sweep(table, 400_000, Fraction(1, 19))
    floor_s = time.perf_counter() - t1
    expected = {}
    for n in range(5, 11):
        ps = [p for p in range(n // 2 + 1, n - 2) if _trial_prime(p)]
        value = sum((Fraction(1, p) for p in ps), Fraction(0))
        if value < Fraction(1, 19):
            expected[n] = value
    got = {rec.n: (rec.lo, rec.hi) for rec in sweep.exceptions}
    _require(got.keys() == expected.keys()
             and all(lo <= expected[n] <= hi for n, (lo, hi) in got.items()),
             f"exceptions {got} do not bracket recomputed {expected}")
    _require(sweep.holds_from_11,
             "floor fails somewhere at n >= 11")
    third = Fraction(1, 3)
    t2 = time.perf_counter()
    pis = [(n, exact.pre_prime_cycle_proportion(n, "sym"))
           for n in range(5, 51)]
    table_s = time.perf_counter() - t2
    below = [n for n, v in pis if v <= third]
    sweep_s = time.perf_counter() - t1
    detail = (
        f"floor >= 1/19 for 11 <= n <= 400000 "
        f"(min {sweep.min_value:.5f} at n={sweep.argmin_n}); "
        f"exceptions {sorted(got)} bracket their recomputed sums; "
        f"exact proportions for n <= 50 dip to "
        f"{min(float(v) for _, v in pis):.4f}, with {len(below)} degrees "
        f"at or below 1/3: {below}; "
        f"sieve {build_s:.2f}s, floor sweep {floor_s:.2f}s, "
        f"exact n <= 50 table {table_s:.2f}s"
    )
    _require(build_s < 2.0 and sweep_s < 10.0,
             detail + " (TIME BUDGET EXCEEDED)")
    return detail


# ----------------------------------------------------------- criterion 6
# Closed-form bound evaluators against a fresh high-precision
# recomputation, monotonicity, the worked desk value, and the vacuous
# exact-versus-bound sandwich at enumerable degrees.


def _mp_window_bound(n: int, a: float, d: float, delta: int) -> float:
    with mp.workdps(40):
        fa = mp.mpf(math.floor(a))
        val = (
            1
            - mp.mpf("2.287") * delta / mp.mpf(d)
            - mp.mpf("2.22") * (mp.log(n) - 1) / (fa * mp.log(fa))
            - mp.mpf("4.4") * delta * mp.log(n)
            / (mp.mpf(a) * mp.log(mp.mpf(a)) * n)
        )
        return float(val)


def _mp_headline(n: int, delta: int, variant: str) -> tuple[float, float]:
    c = {"stated": {1: "5", 2: "7"}, "proof": {1: "4.6", 2: "6.9"}}
    with mp.workdps(40):
        loglog = mp.log(mp.log(n))
        simple = 1 - mp.mpf(c[variant][delta]) / loglog
        refined = 1 - (mp.mpf("4.58") * delta + mp.mpf("0.17")) * loglog \
            / mp.log(n - 3)
        return float(simple), float(refined)


def _random_window_args(rng) -> tuple[int, float, float, int]:
    n = int(10 ** rng.uniform(3.5, 12))
    d_max = math.log(n) / math.log(12)
    d = float(rng.uniform(1.02, min(3.0, 0.75 * d_max)))
    a_hi = math.exp(math.log(n) / (1.25 * d))
    a = float(rng.uniform(12, max(12.000001, min(a_hi, 1e6))))
    delta = int(rng.integers(1, 3))
    return n, a, d, delta


def criterion_6() -> str:
    rng = np.random.default_rng(77245)
    for _ in range(50):
        n, a, d, delta = _random_window_args(rng)
        got = bounds_mod.window_density_lower_bound(n, a, d, delta)
        want = _mp_window_bound(n, a, d, delta)
        _require(abs(got - want) <= 1e-12 * max(1.0, abs(want)),
                 f"window bound mismatch at {(n, a, d, delta)}: "
                 f"{got} vs {want}")
    for _ in range(50):
        n = int(10 ** rng.uniform(1.3, 15))
        n = max(n, 16)
        delta = int(rng.integers(1, 3))
        variant = ["stated", "proof"][int(rng.integers(2))]
        hb = bounds_mod.headline_bounds(n, delta, variant)
        want_s, want_r = _mp_headline(n, delta, variant)
        _require(abs(hb.simple - want_s) <= 1e-12 * max(1.0, abs(want_s)),
                 f"simple headline mismatch at n={n}")
        _require(abs(hb.refined - want_r) <= 1e-12 * max(1.0, abs(want_r)),
                 f"refined headline mismatch at n={n}")
    for _ in range(30):
        n, a, d, _ = _random_window_args(rng)
        b1 = bounds_mod.window_density_lower_bound(n, a, d, 1)
        b2 = bounds_mod.window_density_lower_bound(n, a, d, 2)
        _require(b2 <= b1, f"delta monotonicity broken at {(n, a, d)}")
        d2 = 1.2 * d
        b3 = bounds_mod.window_density_lower_bound(n, a, d2, 1)
        _require(b3 >= b1, f"d monotonicity broken at {(n, a, d, d2)}")
        hb1 = bounds_mod.headline_bounds(n, 1)
        hb2 = bounds_mod.headline_bounds(n, 2)
        _require(hb2.simple <= hb1.simple and hb2.refined <= hb1.refined,
                 f"headline delta monotonicity broken at n={n}")
    n6 = 10 ** 6
    desk = bounds_mod.window_density_lower_bound(
        n6, math.log(n6), math.log(math.log(n6)), 1)
    _require(abs(desk - (-0.724)) < 1e-3,
             f"desk-scale window bound {desk:.4f}, expected about -0.724")
    with mp.workdps(40):
        e12 = int(mp.ceil(mp.e ** 12))
    _require(bounds_mod.ASSERTED_FROM == e12,
             f"asserted-from constant {bounds_mod.ASSERTED_FROM} != {e12}")
    _require(bounds_mod.headline_bounds(e12, 1).asserted
             and not bounds_mod.headline_bounds(e12 - 1, 1).asserted,
             "asserted flag misplaced")
    sandwich = 0
    for n in (20, 40, 60):
        d = 0.999 * math.log(n) / math.log(12)
        window = exact.prime_window(12, 12 ** d)
        for group, delta in (("sym", 1), ("alt", 2)):
            rho = exact.window_proportion(n, window, group)
            b = bounds_mod.window_density_lower_bound(n, 12.0, d, delta)
            _require(b < 0 or rho >= b,
                     f"window sandwich broken at n={n} {group}")
            sandwich += 1
            rho_all = exact.pre_prime_cycle_proportion(n, group)
            for variant in ("stated", "proof"):
                hb = bounds_mod.headline_bounds(n, delta, variant)
                for b in (hb.simple, hb.refined):
                    _require(b < 0 or rho_all >= b,
                             f"headline sandwich broken at n={n} {group}")
                    sandwich += 1
    return (f"130 evaluator recomputations within 1e-12, monotone in "
            f"delta and d, desk value {desk:.4f}, {sandwich} sandwich checks")


# ----------------------------------------------------------- criterion 7
# Monte Carlo calibration: estimates of enumerable events must land
# within four Wilson half-widths (level 0.999) of the exact value, with
# at most one excursion across twenty configurations.


def _random_event(rng, n: int):
    ps = _small_primes(n)
    kind = int(rng.integers(4))
    if kind == 3:
        size = int(rng.integers(1, 5))
        lengths = frozenset(
            int(rng.integers(1, n + 1)) for _ in range(size))
        return montecarlo.Avoids(lengths)
    i = int(rng.integers(0, len(ps)))
    j = int(rng.integers(i, len(ps) + 1))
    sub = ps[i:j]
    if sub:
        window = exact.prime_window(sub[0] - 1, sub[-1])
    else:
        window = exact.prime_window(1, 1)
    cls = (montecarlo.PreCycleInWindow, montecarlo.InT,
           montecarlo.InU)[kind]
    return cls(window)


def criterion_7() -> str:
    rng = np.random.default_rng(30103)
    excursions = []
    for config in range(20):
        n = int(rng.integers(5, 41))
        group = ("sym", "alt")[int(rng.integers(2))]
        event = _random_event(rng, n)
        truth = float(montecarlo.exact_event_proportion(n, event, group))
        est = montecarlo.estimate_event(
            n, event, group=group, trials=100_000,
            seed=int(rng.integers(2 ** 62)), level=0.999,
        )
        if abs(est.p_hat - truth) > 4 * est.half_width:
            excursions.append((config, n, group, truth, est.p_hat))
    _require(len(excursions) <= 1,
             f"{len(excursions)} excursions beyond 4 half-widths: "
             f"{excursions}")
    return (f"20 configs x 100000 trials, {len(excursions)} excursion(s) "
            f"beyond 4 Wilson half-widths at level 0.999")


# ----------------------------------------------------------- criterion 8
# Recognizer: success rate on uniform S_20, witnesses re-verified by an
# independent power computation, and the guaranteed-miss source runs
# its exact draw budget.


def _compose_power(g: Permutation, e: int) -> tuple[int, ...]:
    """images of g**e computed by repeated composition, 1-based."""
    n = g.degree
    cur = tuple(range(1, n + 1))
    for _ in range(e):
        cur = tuple(g.images[x - 1] for x in cur)
    return cur


def _independent_witness_check(outcome) -> None:
    g = outcome.element
    p = outcome.prime
    n = g.degree
    _require(_trial_prime(p) and 2 <= p <= n - 3,
             f"witness prime {p} out of range")
    lens = _cycle_lengths(tuple(x - 1 for x in outcome.cycle.images))
    _require(sorted(lens) == [1] * (n - p) + [p],
             f"certified cycle has type {sorted(lens)}")
    order = 1
    for length in _cycle_lengths(tuple(x - 1 for x in g.images)):
        order = math.lcm(order, length)
    e = outcome.exponent % order
    _require(_compose_power(g, e) == outcome.cycle.images,
             "certified cycle does not equal the claimed power")


def criterion_8() -> str:
    m = bounds_mod.sample_count(Fraction(1, 100), Fraction(1, 19))
    _require(m == 86, f"sample count (1/100, 1/19) = {m}, expected 86")
    reps = 1000
    found = 0
    for rep in range(reps):
        seq = np.random.SeedSequence(entropy=481216, spawn_key=(rep,))
        source = recognize.UniformSource(
            20, "any", np.random.Generator(np.random.PCG64(seq)))
        outcome = recognize.run_recognizer(source, Fraction(1, 100))
        if outcome.found:
            _independent_witness_check(outcome)
            found += 1
        else:
            _require(outcome.draws_used == m,
                     f"rep {rep}: not_found after {outcome.draws_used}")
    threshold = 0.99 - 3 * math.sqrt(0.99 * 0.01 / reps)
    rate = found / reps
    _require(rate >= threshold,
             f"success rate {rate:.4f} below {threshold:.4f}")
    powers = []
    for j in range(1, 21):
        powers.append(Permutation(
            tuple(((i - 1 + j) % 20) + 1 for i in range(1, 21))))
    for rep in range(100):
        source = recognize.ListSource(powers, rng=rep)
        outcome = recognize.run_recognizer(source, Fraction(1, 100))
        _require(outcome.status == "not_found",
                 f"power source rep {rep} claimed a find")
        _require(outcome.draws_used == 86,
                 f"power source rep {rep} used {outcome.draws_used} draws")
    return (f"uniform S_20 success {rate:.4f} >= {threshold:.4f} over "
            f"{reps} runs, all witnesses independently verified; "
            f"20-cycle power source always not_found after exactly 86 draws")


# ------------------------------------------------------------ the runner

_BUDGETS = {1: 60.0, 2: 1.0, 3: 120.0, 4: 60.0, 7: 120.0, 8: 30.0}

_CRITERIA = [
    (1, "brute-force-agreement", criterion_1),
    (2, "derangement-oracle", criterion_2),
    (3, "avoidance-bounds-random", criterion_3),
    (4, "prime-inequality-grids", criterion_4),
    (5, "density-floor", criterion_5),
    (6, "closed-form-evaluators", criterion_6),
    (7, "monte-carlo-calibration", criterion_7),
    (8, "recognizer", criterion_8),
]


def run_criterion(index: int) -> CriterionResult:
    for idx, name, fn in _CRITERIA:
        if idx == index:
            break
    else:
        raise ValueError(f"no criterion {index}")
    start = time.perf_counter()
    try:
        detail = fn()
    except CriterionFailure as exc:
        elapsed = time.perf_counter() - start
        return CriterionResult(idx, name, False, str(exc), elapsed)
    except Exception:
        elapsed = time.perf_counter() - start
        tail = traceback.format_exc().strip().splitlines()[-1]
        return CriterionResult(idx, name, False, f"error: {tail}", elapsed)
    elapsed = time.perf_counter() - start
    budget = _BUDGETS.get(idx)
    passed = budget is None or elapsed <= budget
    if not passed:
        detail += f" (exceeded {budget:.0f}s budget)"
    return CriterionResult(idx, name, passed, detail, elapsed)


def run_all(only=None, echo=print) -> list[CriterionResult]:
    """Run the criteria in ``only`` (all when None), after checking
    that each index in it is known."""
    known = [idx for idx, _, _ in _CRITERIA]
    unknown = sorted(set(only or ()).difference(known))
    if unknown:
        raise ValueError(f"no criterion {unknown}; valid indices are {known}")
    results = []
    for idx in known:
        if only is not None and idx not in only:
            continue
        result = run_criterion(idx)
        results.append(result)
        if echo is not None:
            echo(result.line())
    return results
