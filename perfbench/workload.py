"""One benchmark workload in one process: set-up, timed rounds, checks.

Started by ``run.py``; not meant to be run by hand.  ``--mode setup``
stops just before the first timed operation and reports the set-up
time; ``--mode run`` goes on to run whole rounds of the workload's
operations until ``--seconds`` have passed, checks every output against
``oracles``, and prints one JSON line.

Each operation is one public call into ``precycles``, timed from
outside.  Checks run between operations and are not timed.  A round
repeats exactly the same operations on the same inputs, so every round
attempts the same number of operations.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import math
import resource
import statistics
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

import numpy as np

import oracles

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

EPSILON = Fraction(1, 100)
C0 = Fraction(1, 19)
# Estimates must lie within this many Wilson half-widths (99% level) of
# the reference value: about 5 standard errors.
WILSON_SLACK = 2.0


# ---------------------------------------------------------------------------
# Timing, counting and tracing.


_NO_SPAN = contextlib.nullcontext()


class _Span:
    __slots__ = ("rec", "name", "index")

    def __init__(self, rec: "Recorder", name: str):
        self.rec = rec
        self.name = name

    def __enter__(self):
        rec = self.rec
        self.index = len(rec.spans)
        parent = rec.stack[-1] if rec.stack else None
        rec.spans.append([self.name, time.perf_counter(), 0.0, parent, rec.round])
        rec.stack.append(self.index)
        return self

    def __exit__(self, *exc):
        rec = self.rec
        rec.spans[self.index][2] = time.perf_counter()
        rec.stack.pop()
        return False


class Recorder:
    """Times operations, counts attempts, failures and layer work, and
    keeps spans (name, start, end, parent, round) when tracing."""

    def __init__(self, traced: bool):
        self.traced = traced
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.round = -1  # set-up
        self.attempted = 0
        self.failed = 0
        self.mismatches: list[str] = []
        # Wall and CPU seconds of each operation, one list per round.
        self.op_wall: list[list[float]] = []
        self.op_cpu: list[list[float]] = []
        self.counts: list[dict[str, float]] = []
        self.reference_ms: list[float] = []

    def span(self, name: str):
        return _Span(self, name) if self.traced else _NO_SPAN

    def op(self, name: str, fn, *args, **kwargs):
        """Run one timed public call; None when it raised."""
        self.attempted += 1
        span = self.span(name)
        c0 = time.process_time()
        t0 = time.perf_counter()
        try:
            with span:
                out = fn(*args, **kwargs)
        except Exception:  # a failed operation is counted, not fatal
            traceback.print_exc(file=sys.stderr)
            self.failed += 1
            out = None
        t1 = time.perf_counter()
        c1 = time.process_time()
        if self.round >= 0:
            self.op_wall[self.round].append(t1 - t0)
            self.op_cpu[self.round].append(c1 - c0)
        return out

    def count(self, name: str, amount: float = 1) -> None:
        if self.round >= 0:
            row = self.counts[self.round]
            row[name] = row.get(name, 0) + amount

    def check(self, ok: bool, message: str) -> None:
        if not ok:
            self.mismatches.append(message)

    def begin_round(self) -> None:
        self.round += 1
        self.counts.append({})
        self.op_wall.append([])
        self.op_cpu.append([])

    @staticmethod
    def median_round(per_op: list[list[float]]) -> float:
        """Median over rounds of the time spent in a round's operations."""
        return statistics.median(sum(times) for times in per_op)


class TracedSource:
    """Forwarding element source that records a span around each draw."""

    def __init__(self, inner, rec: Recorder, span_name: str, count_name: str):
        self.inner = inner
        self.degree = inner.degree
        self.rec = rec
        self.span_name = span_name
        self.count_name = count_name

    def draw(self):
        self.rec.count(self.count_name)
        with self.rec.span(self.span_name):
            return self.inner.draw()


# ---------------------------------------------------------------------------
# Workloads.  Each __init__ is set-up (inputs from the seed, warm-up
# calls, sieve); each round() runs the timed operations and checks them.


class ExactWindow:
    """Exact window statistics on a degree ladder through the 40s and low
    50s, where the partition sweep does nearly all the work.

    Degrees and windows are fixed because they set the amount of work;
    the seed only orders the calls within a round.
    """

    # (degree, group, call, window): the paper's window or all of 2..n-3.
    LADDER = (
        (41, "sym", "window_proportion", "paper"),
        (43, "alt", "window_proportion", "full"),
        (44, "alt", "window_hit_proportions", "paper"),
        (46, "sym", "window_hit_proportions", "full"),
        (48, "sym", "pre_prime_cycle_proportion", "full"),
        (51, "alt", "pre_prime_cycle_proportion", "full"),
    )

    def __init__(self, pc, seed: int, rec: Recorder):
        self.pc = pc
        self.cases = []
        for n, group, call, kind in self.LADDER:
            lo, hi = oracles.paper_window(n) if kind == "paper" else (1.0, float(n - 3))
            window = pc.prime_window(lo, hi)
            rec.check(window.primes == oracles.window_primes(lo, hi), f"prime_window({lo}, {hi}) = {window.primes}")
            self.cases.append((n, group, call, window, oracles.window_primes(lo, hi)))
        np.random.default_rng(seed).shuffle(self.cases)
        self.avoider = oracles.ExactAvoider()
        self.expected: dict[int, object] = {}
        small = pc.prime_window(1, 7)
        pc.window_proportion(10, small, "alt")
        pc.window_hit_proportions(10, small, "sym")
        pc.pre_prime_cycle_proportion(10, "alt")

    def round(self, rec: Recorder) -> None:
        pc = self.pc
        for i, (n, group, call, window, primes) in enumerate(self.cases):
            if call == "pre_prime_cycle_proportion":
                got = rec.op(f"exact.{call}", pc.pre_prime_cycle_proportion, n, group)
            else:
                got = rec.op(f"exact.{call}", getattr(pc, call), n, window, group)
            rec.count("exact.calls")
            if got is not None:
                self._check(rec, i, n, group, call, primes, got)

    def _check(self, rec, i, n, group, call, primes, got) -> None:
        if i not in self.expected:
            union = oracles.pre_cycle_union(n, primes, group, self.avoider)
            pair = oracles.hit_repeat(n, primes, group, self.avoider)
            self.expected[i] = (union, pair, oracles.large_prime_floor(n))
        union, (hit, repeat), floor = self.expected[i]
        where = f"{call}({n}, {primes}, {group})"
        if call == "window_hit_proportions":
            rec.check((got.hit, got.repeat) == (hit, repeat), f"{where} = {got}, expected {(hit, repeat)}")
            rec.check(got.hit - got.repeat <= union <= got.hit, f"{where}: window value outside [hit - repeat, hit]")
        else:
            rec.check(got == union, f"{where} = {got}, expected {union}")
        if call == "pre_prime_cycle_proportion":
            rec.check(got >= floor, f"{where} = {got} below the large-prime floor {floor}")


class Estimate:
    """Monte Carlo estimates of the four events at fixed trial counts:
    one degree in the 60s and two in the low thousands."""

    # (degree, trials, window): the paper's window, or at the large
    # degrees its four largest primes (which keeps the reference sums
    # small).  The seed picks the sample streams and the avoided lengths;
    # degrees and windows are fixed because they set the amount of work.
    DEGREES = ((64, 4096, "paper"), (1000, 512, "top4"), (2000, 512, "top4"))

    def __init__(self, pc, seed: int, rec: Recorder):
        self.pc = pc
        rng = np.random.default_rng(seed)
        self.cases = []
        for n, trials, kind in self.DEGREES:
            lo, hi = oracles.paper_window(n)
            if kind == "top4":
                lo = float(oracles.window_primes(lo, hi)[-5])
            window = pc.prime_window(lo, hi)
            primes = oracles.window_primes(lo, hi)
            rec.check(window.primes == primes, f"prime_window({lo}, {hi}) = {window.primes}")
            banned = frozenset(int(a) for a in rng.choice(np.arange(1, 13), size=3, replace=False))
            avoider = oracles.ExactAvoider() if n <= 100 else oracles.FloatAvoider(n)
            events = (
                (pc.PreCycleInWindow(window), "pre", primes),
                (pc.InT(window), "hit", primes),
                (pc.InU(window), "repeat", primes),
                (pc.Avoids(banned), "avoid", banned),
            )
            for event, kind_name, arg in events:
                for group in ("sym", "alt"):
                    est_seed = int(rng.integers(2**31))
                    self.cases.append((n, trials, event, group, est_seed, kind_name, arg, avoider))
        self.expected: dict[int, float] = {}
        pc.estimate_event(12, pc.InU(pc.prime_window(1, 7)), "alt", trials=64, seed=0)

    def round(self, rec: Recorder) -> None:
        pc = self.pc
        for i, (n, trials, event, group, est_seed, kind, arg, avoider) in enumerate(self.cases):
            est = rec.op("montecarlo.estimate_event", pc.estimate_event, n, event, group, trials=trials, seed=est_seed)
            rec.count("montecarlo.trials", trials)
            if est is None:
                continue
            if i not in self.expected:
                self.expected[i] = float(_event_value(n, kind, arg, group, avoider))
            want = self.expected[i]
            where = f"estimate_event({n}, {kind} {sorted(arg)}, {group}, seed={est_seed})"
            rec.check(est.trials == trials and est.seed == est_seed, f"{where}: echoed {est}")
            rec.check(
                abs(est.p_hat - want) <= WILSON_SLACK * est.half_width,
                f"{where}: p_hat {est.p_hat} +- {est.half_width} vs reference {want}",
            )


def _event_value(n, kind, arg, group, avoider):
    if kind == "pre":
        return oracles.pre_cycle_union(n, arg, group, avoider)
    if kind == "avoid":
        return oracles.avoid_proportion(n, arg, group, avoider)
    hit, repeat = oracles.hit_repeat(n, arg, group, avoider)
    return hit if kind == "hit" else repeat


class Recognize:
    """Las Vegas recognition at degree 10**4: uniform S_n and A_n sources
    that stop early, and lists of n-cycle powers that can never hit and
    so use the full draw budget."""

    DEGREE = 10_000
    UNIFORM_RUNS = 30  # per group
    LIST_RUNS = 8
    POWERS_PER_LIST = 6

    def __init__(self, pc, seed: int, rec: Recorder):
        self.pc = pc
        self.traced = rec.traced
        n = self.DEGREE
        rng = np.random.default_rng(seed)
        self.p_range = oracles.paper_window(n)
        self.budget = oracles.draw_budget(EPSILON, C0)
        rec.check(self.budget == 86, f"exact draw budget for (1/100, 1/19) is {self.budget}")
        self.runs = [("uniform", parity, int(rng.integers(2**31)))
                     for parity in ("any", "even") for _ in range(self.UNIFORM_RUNS)]
        self.lists = []
        for _ in range(self.LIST_RUNS):
            order = rng.permutation(n)
            images = np.empty(n, dtype=np.int64)
            images[order] = np.roll(order, -1)  # one n-cycle
            powers = []
            for k in rng.integers(1, n, size=self.POWERS_PER_LIST).tolist():
                powers.append(pc.Permutation(tuple(v + 1 for v in oracles.power(images.tolist(), k))))
            self.lists.append(powers)
            self.runs.append(("list", len(self.lists) - 1, int(rng.integers(2**31))))
        rng.shuffle(self.runs)
        pc.run_recognizer(pc.UniformSource(20, "even", 0), EPSILON, C0)
        pc.run_recognizer(pc.ListSource([pc.identity(8)], 0), EPSILON, C0)

    def _recognize(self, rec: Recorder, kind, arg, run_seed):
        pc = self.pc
        with rec.span("recognize.source_init"):
            if kind == "uniform":
                source = pc.UniformSource(self.DEGREE, arg, run_seed)
            else:
                source = pc.ListSource(self.lists[arg], run_seed)
        if self.traced:
            if kind == "uniform":
                source = TracedSource(source, rec, "perm.sample_uniform", "perm.draws")
            else:
                source = TracedSource(source, rec, "recognize.list_draw", "recognize.list_draws")
        with rec.span("recognize.run_recognizer"):
            return pc.run_recognizer(source, EPSILON, C0, self.p_range)

    def round(self, rec: Recorder) -> None:
        for kind, arg, run_seed in self.runs:
            out = rec.op("recognize.recognition", self._recognize, rec, kind, arg, run_seed)
            rec.count("recognize.runs")
            if out is not None:
                rec.count(f"recognize.{out.status}")
                self._check(rec, kind, arg, run_seed, out)

    def _check(self, rec, kind, arg, run_seed, out) -> None:
        n = self.DEGREE
        where = f"run_recognizer({kind} {arg}, seed={run_seed})"
        if not out.found:
            rec.check(out.status == "not_found", f"{where}: status {out.status}")
            rec.check(out.draws_used == self.budget, f"{where}: not_found after {out.draws_used} draws")
            return
        rec.check(kind == "uniform", f"{where}: found a witness in an n-cycle power list")
        rec.check(1 <= out.draws_used <= self.budget, f"{where}: found after {out.draws_used} draws")
        lo = max(2, math.ceil(self.p_range[0]))
        hi = min(n - 3, math.floor(self.p_range[1]))
        p = out.prime
        rec.check(oracles.is_prime(p) and lo <= p <= hi, f"{where}: prime {p} outside [{lo}, {hi}]")
        element = [v - 1 for v in out.element.images]
        rec.check(sorted(element) == list(range(n)), f"{where}: element is not a permutation")
        if arg == "even":
            rec.check(oracles.is_even(element), f"{where}: odd element from an A_n source")
        witness = oracles.power(element, out.exponent)
        rec.check([v - 1 for v in out.cycle.images] == witness, f"{where}: cycle is not element**{out.exponent}")
        lengths = sorted(len(c) for c in oracles.cycles(witness))
        rec.check(lengths == [1] * (n - p) + [p], f"{where}: witness is not a single {p}-cycle")


class Certify:
    """Certified sweeps: sieve to 10**7 (set-up), prime-count bounds and
    both pair grids to 10**7, spot pairs, the density floor past 719534,
    the harmonic gap to 10**6, and avoidance bounds near degree 200."""

    LIMIT = 10**7
    SPOT_PAIRS = 1000
    AVOID_SETS = 6

    def __init__(self, pc, seed: int, rec: Recorder):
        self.pc = pc
        bounds = pc.bounds
        rng = np.random.default_rng(seed)
        with rec.span("primes.build_sieve"):
            self.table = pc.build_sieve(self.LIMIT)
        self.pairs = []
        for _ in range(self.SPOT_PAIRS):
            a = int(rng.integers(12, 10**6 + 1))
            self.pairs.append((a, int(rng.integers(a, self.LIMIT + 1))))
        # Past the last floor exception (719569), short of any later one.
        self.floor_max = int(rng.integers(719_570, 720_001))
        self.harmonic_max = int(rng.integers(999_000, 10**6 + 1))
        self.avoid = []
        for _ in range(self.AVOID_SETS):
            n = int(rng.integers(150, 201))
            density = float(rng.uniform(0.03, 0.6))
            banned = frozenset(j for j in range(1, n + 1) if rng.random() < density)
            self.avoid.append(pc.ForbiddenSet(n, banned))
        self.avoider = oracles.ExactAvoider()
        self.expected: dict = {}
        small = pc.build_sieve(10**4)
        pc.verify_pi_bounds_range(small)
        pc.verify_recip_sq_upper_all(small, 12, 2000)
        pc.verify_recip_bounds_all(small, 2, 2000)
        bounds.check_recip_sq_upper(small, 12, 5000)
        bounds.check_recip_bounds(small, 2, 5000)
        pc.density_floor_sweep(small, 10**4)
        pc.verify_harmonic_gap(1000)
        q = pc.avoid_proportion(pc.ForbiddenSet(20, {2, 3}), "alt")
        pc.certify_avoidance_bound(q, Fraction(5, 6), factor=2)

    def round(self, rec: Recorder) -> None:
        pc, bounds, table = self.pc, self.pc.bounds, self.table
        rep = rec.op("bounds.verify_pi_bounds_range", pc.verify_pi_bounds_range, table)
        self._sweep(rec, rep, "pi bounds", self.LIMIT - 10)
        for grid in (pc.verify_recip_sq_upper_all, pc.verify_recip_bounds_all):
            self._sweep(rec, rec.op("bounds.pair_grids", grid, table), grid.__name__, None)
        for a, b in self.pairs:
            sq = rec.op("bounds.spot_checks", bounds.check_recip_sq_upper, table, a, b)
            both = rec.op("bounds.spot_checks", bounds.check_recip_bounds, table, a, b)
            for report in ((sq,) if sq else ()) + (tuple(both) if both else ()):
                rec.count("bounds.checks")
                rec.check(report.holds, f"spot pair ({a}, {b}): {report.name} fails")
        floor = rec.op("bounds.density_floor_sweep", pc.density_floor_sweep, table, self.floor_max)
        if floor is not None:
            self._check_floor(rec, floor)
        rep = rec.op("bounds.verify_harmonic_gap", pc.verify_harmonic_gap, self.harmonic_max)
        self._sweep(rec, rep, "harmonic gap", self.harmonic_max)
        for fs in self.avoid:
            for group, factor in (("sym", 1), ("alt", 2)):
                q = rec.op("exact.avoid_proportion", pc.avoid_proportion, fs, group)
                rec.count("exact.calls")
                if q is None:
                    continue
                key = (fs, group)
                if key not in self.expected:
                    self.expected[key] = oracles.avoid_proportion(fs.n, fs.members, group, self.avoider)
                rec.check(q == self.expected[key], f"avoid_proportion(n={fs.n}, {group}) = {q}")
                ok = rec.op("bounds.certify_avoidance_bound", pc.certify_avoidance_bound, q, fs.mu, factor=factor)
                rec.count("bounds.checks")
                rec.check(ok is True, f"avoidance bound not certified at n={fs.n}, {group}")

    def _sweep(self, rec, rep, name, checked) -> None:
        if rep is None:
            return
        rec.count("bounds.checks", rep.checked)
        rec.count("bounds.escalations", rep.escalations)
        rec.check(not rep.failures, f"{name} sweep reports {len(rep.failures)} failures")
        rec.check(checked is None or rep.checked == checked, f"{name} sweep checked {rep.checked}, expected {checked}")

    def _check_floor(self, rec, floor) -> None:
        rec.count("bounds.checks", floor.n_max - 4)
        rec.count("bounds.escalations", floor.escalations)
        rec.count("bounds.floor_exact_sums", len(floor.exceptions))
        if "floor" not in self.expected:
            self.expected["floor"] = oracles.floor_exceptions(self.floor_max, Fraction(1, 19))
        below, matches = self.expected["floor"]
        got = [r.n for r in floor.exceptions]
        rec.check(got == below, f"floor exceptions {got}, expected {below}")
        rec.check(floor.holds_from_11 is False, "holds_from_11 should be False past 719534")
        for r in floor.exceptions:
            rec.check(matches(r.n, r.exact), f"floor exception {r.n}: exact sum disagrees")
            rec.check(abs(float(r.exact) - r.value) < 1e-9, f"floor exception {r.n}: float value {r.value}")

    def final_checks(self, rec: Recorder) -> None:
        table = self.table
        rec.check(table.pi(10**6) == 78498, f"pi(10^6) = {table.pi(10**6)}")
        rec.check(table.pi(10**7) == 664579, f"pi(10^7) = {table.pi(10**7)}")


WORKLOADS = {
    "exact-window": ExactWindow,
    "estimate": Estimate,
    "recognize": Recognize,
    "certify": Certify,
}


# ---------------------------------------------------------------------------
# Per-layer figures from the spans and counts of a traced run.

_TIME_SPANS = (
    "exact.window_proportion",
    "exact.window_hit_proportions",
    "exact.pre_prime_cycle_proportion",
    "exact.avoid_proportion",
    "bounds.verify_pi_bounds_range",
    "bounds.pair_grids",
    "bounds.spot_checks",
    "bounds.density_floor_sweep",
    "bounds.verify_harmonic_gap",
    "bounds.certify_avoidance_bound",
    "montecarlo.estimate_event",
    "perm.sample_uniform",
    "recognize.list_draw",
    "recognize.source_init",
    "recognize.run_recognizer",
)
_COUNTS = (
    "exact.calls",
    "bounds.checks",
    "bounds.escalations",
    "bounds.floor_exact_sums",
    "montecarlo.trials",
    "perm.draws",
    "recognize.list_draws",
    "recognize.runs",
    "recognize.found",
    "recognize.not_found",
)


def _reference_loop_ms() -> float:
    """Milliseconds for a fixed pure-Python loop; it rises when other
    tenants of the machine slow this process down."""
    t0 = time.perf_counter()
    total = 0
    for i in range(300_000):
        total += i * i % 7
    return 1e3 * (time.perf_counter() - t0)


def _span_cost() -> float:
    """Seconds one span adds, measured on empty spans."""
    rec = Recorder(traced=True)
    reps = 20_000
    t0 = time.perf_counter()
    for _ in range(reps):
        with rec.span("x"):
            pass
    return (time.perf_counter() - t0) / reps


def layer_metrics(rec: Recorder, workload) -> dict[str, float]:
    rounds = range(len(rec.op_wall))
    per_round = {name: [0.0 for _ in rounds] for name in _TIME_SPANS}
    spans_per_round = [0 for _ in rounds]
    run_ms = []
    for name, start, end, _parent, rnd in rec.spans:
        if rnd < 0:
            continue
        spans_per_round[rnd] += 1
        if name in per_round:
            per_round[name][rnd] += end - start
        if name == "recognize.run_recognizer":
            run_ms.append(1e3 * (end - start))
    med = {name: statistics.median(vals) for name, vals in per_round.items()}
    counts = {name: statistics.median(row.get(name, 0) for row in rec.counts) for name in _COUNTS}
    wall = rec.median_round(rec.op_wall)
    draw_s = med["perm.sample_uniform"] + med["recognize.list_draw"]
    spans = statistics.median(spans_per_round)
    table = getattr(workload, "table", None)
    return {
        "primes.build_sieve_s": sum(end - start for name, start, end, _parent, rnd in rec.spans
                                    if rnd < 0 and name == "primes.build_sieve"),
        "primes.table_mb": 0.0 if table is None else sum(
            a.nbytes for a in (table.is_prime, table.pi_prefix, table.s1_prefix, table.s2_prefix)) / 1e6,
        "exact.window_proportion_s": med["exact.window_proportion"],
        "exact.window_hit_proportions_s": med["exact.window_hit_proportions"],
        "exact.pre_prime_cycle_proportion_s": med["exact.pre_prime_cycle_proportion"],
        "exact.avoid_proportion_s": med["exact.avoid_proportion"],
        "exact.calls": counts["exact.calls"],
        "bounds.verify_pi_bounds_range_s": med["bounds.verify_pi_bounds_range"],
        "bounds.pair_grids_s": med["bounds.pair_grids"],
        "bounds.spot_checks_s": med["bounds.spot_checks"],
        "bounds.density_floor_sweep_s": med["bounds.density_floor_sweep"],
        "bounds.verify_harmonic_gap_s": med["bounds.verify_harmonic_gap"],
        "bounds.certify_avoidance_bound_s": med["bounds.certify_avoidance_bound"],
        "bounds.checks": counts["bounds.checks"],
        "bounds.escalations": counts["bounds.escalations"],
        "bounds.floor_exact_sums": counts["bounds.floor_exact_sums"],
        "montecarlo.estimate_event_s": med["montecarlo.estimate_event"],
        "montecarlo.trials_per_s": (counts["montecarlo.trials"] / med["montecarlo.estimate_event"]
                                    if med["montecarlo.estimate_event"] else 0.0),
        "montecarlo.trials": counts["montecarlo.trials"],
        "perm.sample_uniform_s": med["perm.sample_uniform"],
        "perm.draws": counts["perm.draws"],
        "recognize.source_init_s": med["recognize.source_init"],
        "recognize.run_recognizer_s": med["recognize.run_recognizer"],
        "recognize.self_s": med["recognize.run_recognizer"] - draw_s if run_ms else 0.0,
        "recognize.draws": counts["perm.draws"] + counts["recognize.list_draws"],
        "recognize.runs": counts["recognize.runs"],
        "recognize.run_p50_ms": statistics.median(run_ms) if run_ms else 0.0,
        "recognize.run_p90_ms": statistics.quantiles(run_ms, n=10)[8] if len(run_ms) > 1 else 0.0,
        "recognize.found": counts["recognize.found"],
        "recognize.not_found": counts["recognize.not_found"],
        "trace.wall_s": wall,
        "trace.spans": spans,
        "trace.overhead_pct": 100.0 * spans * _span_cost() / wall,
        "host.ref_loop_ms": statistics.median(rec.reference_ms),
    }


# ---------------------------------------------------------------------------


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--mode", choices=("setup", "run"), required=True)
    parser.add_argument("--t0", type=float, required=True,
                        help="CLOCK_MONOTONIC reading taken just before this process was started")
    parser.add_argument("--trace-file", type=Path)
    args = parser.parse_args()

    sys.path.insert(0, str(SRC))
    import precycles as pc

    if Path(pc.__file__).resolve().parent != (SRC / "precycles").resolve():
        print(f"imported precycles from {pc.__file__}, not {SRC}", file=sys.stderr)
        return 2
    rec = Recorder(traced=bool(args.trace))
    workload = WORKLOADS[args.workload](pc, args.seed, rec)
    setup_s = time.clock_gettime(time.CLOCK_MONOTONIC) - args.t0
    if args.mode == "setup":
        print(json.dumps({"setup_s": setup_s}))
        return 0

    start = time.perf_counter()
    while True:
        rec.begin_round()
        workload.round(rec)
        if rec.traced:
            rec.reference_ms += [_reference_loop_ms() for _ in range(5)]
        if time.perf_counter() - start >= args.seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    if hasattr(workload, "final_checks"):
        workload.final_checks(rec)
    for message in rec.mismatches[:20]:
        print(f"MISMATCH {message}", file=sys.stderr)
    result = {
        "setup_s": setup_s,
        "wall_s": rec.median_round(rec.op_wall),
        "cpu_s": rec.median_round(rec.op_cpu),
        "peak_rss_mb": peak_rss_mb,
        "rounds": len(rec.op_wall),
        "attempted": rec.attempted,
        "failed": rec.failed,
        "correct": not rec.mismatches,
    }
    if args.trace:
        result["layers"] = layer_metrics(rec, workload)
        if args.trace_file is not None:
            with open(args.trace_file, "w") as fh:
                for name, start_s, end_s, parent, rnd in rec.spans:
                    fh.write(json.dumps({"name": name, "start": start_s, "end": end_s,
                                         "parent": parent, "round": rnd}) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
