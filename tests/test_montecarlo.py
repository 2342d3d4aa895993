import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from cycle_types import cycle_types
from precycles import exact, montecarlo

SRC = Path(__file__).resolve().parent.parent / "src"


def test_wilson_interval_frozen():
    lo, hi = montecarlo.wilson_interval(50, 100, 0.95)
    assert lo == pytest.approx(0.40383, abs=1e-4)
    assert hi == pytest.approx(0.59617, abs=1e-4)
    # degenerate tallies stay inside [0, 1]
    lo0, hi0 = montecarlo.wilson_interval(0, 100, 0.999)
    assert lo0 == 0.0 and 0 < hi0 < 0.2
    lo1, hi1 = montecarlo.wilson_interval(100, 100, 0.999)
    assert hi1 == pytest.approx(1.0, abs=1e-12) and 0.8 < lo1 < 1


def test_estimate_matches_exact_window():
    w = exact.prime_window(1, 2)
    truth = float(exact.window_proportion(5, w, "sym"))
    est = montecarlo.estimate_event(
        5, montecarlo.PreCycleInWindow(w), trials=50_000, seed=11,
        level=0.999)
    assert abs(est.p_hat - truth) <= 4 * est.half_width
    assert est.trials == 50_000


def test_estimate_matches_exact_avoids():
    truth = float(exact.avoid_proportion(exact.ForbiddenSet(6, {1}), "sym"))
    est = montecarlo.estimate_event(
        6, montecarlo.Avoids(frozenset({1})), trials=50_000, seed=3,
        level=0.999)
    assert abs(est.p_hat - truth) <= 4 * est.half_width


def test_empty_window_estimates_zero_exactly():
    w = exact.prime_window(1, 1)
    est = montecarlo.estimate_event(
        8, montecarlo.PreCycleInWindow(w), trials=5_000, seed=0)
    assert est.p_hat == 0.0


def test_parity_blocked_event_is_zero():
    # a pre-2-cycle element of degree 5 is odd, so A_5 has none
    w = exact.prime_window(1, 2)
    assert exact.window_proportion(5, w, "alt") == 0
    est = montecarlo.estimate_event(
        5, montecarlo.PreCycleInWindow(w), group="alt", trials=20_000,
        seed=5)
    assert est.p_hat == 0.0


def test_estimate_deterministic():
    w = exact.prime_window(1, 5)
    a = montecarlo.estimate_event(
        9, montecarlo.PreCycleInWindow(w), trials=30_000, seed=12345)
    b = montecarlo.estimate_event(
        9, montecarlo.PreCycleInWindow(w), trials=30_000, seed=12345)
    assert a.p_hat == b.p_hat
    c = montecarlo.estimate_event(
        9, montecarlo.PreCycleInWindow(w), trials=30_000, seed=54321)
    assert c.p_hat != a.p_hat  # astronomically unlikely to collide


def test_estimate_golden_stream():
    # pins the sampling stream (Feller coupling, A_n rejection, block
    # seeding and a partial last block): change these only on purpose
    w = exact.prime_window(1, 5)
    event = montecarlo.PreCycleInWindow(w)
    kwargs = dict(trials=2500, seed=2026, block_size=1000)
    assert montecarlo.estimate_event(9, event, "sym", **kwargs).p_hat == 0.4172
    assert montecarlo.estimate_event(9, event, "alt", **kwargs).p_hat == 0.3252


@pytest.mark.parametrize("group", ["sym", "alt"])
def test_sampler_cycle_type_law(group):
    """At n = 6 every cycle type appears at its exact class proportion,
    within 4 Wilson half-widths at level 0.999; A_n never yields an odd
    type."""
    n, count = 6, 200_000
    rng = np.random.Generator(np.random.PCG64(606))
    rows, lengths = montecarlo._sample_cycle_types(rng, n, group, count)
    assert rows.min() == 0 and rows.max() == count - 1
    # a type is coded by its multiplicities in base n + 1
    place = (n + 1) ** np.arange(n + 1)
    tally = np.zeros((count, n + 1), dtype=np.int64)
    np.add.at(tally, (rows, lengths), 1)
    assert (tally @ np.arange(n + 1) == n).all()
    seen = dict(zip(*np.unique(tally @ place, return_counts=True)))
    classes = {}
    for parts, size in cycle_types(n):
        code = sum(int(place[k]) for k in parts)
        if group == "sym":
            classes[code] = Fraction(size, math.factorial(n))
        elif (n - len(parts)) % 2 == 0:
            classes[code] = Fraction(2 * size, math.factorial(n))
    assert sum(classes.values()) == 1
    assert set(seen) <= set(classes)  # for A_n: no odd type
    for code, truth in classes.items():
        hits = int(seen.get(code, 0))
        lo, hi = montecarlo.wilson_interval(hits, count, 0.999)
        assert abs(hits / count - truth) <= 2 * (hi - lo), (code, hits, truth)


def test_million_degree_estimate_is_small_and_fast():
    # a sample holds about log n entries per trial, never a row of n.
    # The child reports VmHWM, its own peak RSS since exec: ru_maxrss
    # would carry over the peak of the (large) test process that forked it
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c",
         "from precycles import montecarlo as mc; "
         "e = mc.estimate_event(10**6, mc.Avoids(frozenset({1})), trials=4096); "
         "hwm = [l for l in open('/proc/self/status') if l.startswith('VmHWM')]; "
         "print(e.p_hat, hwm[0].split()[1])"],
        capture_output=True, text=True, env=env, timeout=30)
    assert proc.returncode == 0, proc.stderr
    p_hat, peak_kb = proc.stdout.split()
    assert abs(float(p_hat) - math.exp(-1)) < 0.03
    assert int(peak_kb) < 100_000  # a dense n-wide block needs GBs


def test_partial_last_block():
    # trials not a multiple of the block size must still count each draw
    w = exact.prime_window(1, 3)
    est = montecarlo.estimate_event(
        6, montecarlo.PreCycleInWindow(w), trials=5000, seed=2,
        block_size=4096)
    assert est.trials == 5000
    assert 0 < est.p_hat < 1


def test_window_subset_of_hit_same_seed():
    # pre-window membership implies a window prime is present, so with
    # identical draws the InT estimate can never be smaller
    w = exact.prime_window(1, 7)
    kwargs = dict(trials=20_000, seed=77)
    in_t = montecarlo.estimate_event(10, montecarlo.InT(w), **kwargs)
    base = montecarlo.estimate_event(
        10, montecarlo.PreCycleInWindow(w), **kwargs)
    in_u = montecarlo.estimate_event(10, montecarlo.InU(w), **kwargs)
    assert in_t.p_hat >= base.p_hat
    assert in_t.p_hat >= in_u.p_hat


def test_exact_event_proportion_dispatch():
    w = exact.prime_window(1, 3)
    n = 8
    assert montecarlo.exact_event_proportion(
        n, montecarlo.PreCycleInWindow(w)) == \
        exact.window_proportion(n, w, "sym")
    assert montecarlo.exact_event_proportion(
        n, montecarlo.Avoids(frozenset({2}))) == \
        exact.avoid_proportion(exact.ForbiddenSet(n, {2}), "sym")
    stats = exact.window_hit_proportions(n, w, "sym")
    assert montecarlo.exact_event_proportion(
        n, montecarlo.InT(w)) == stats.hit
    assert montecarlo.exact_event_proportion(
        n, montecarlo.InU(w)) == stats.repeat


def test_estimate_json_round_trip():
    w = exact.prime_window(1, 2)
    est = montecarlo.estimate_event(
        5, montecarlo.PreCycleInWindow(w), trials=1000, seed=4)
    blob = json.dumps(est.to_json_dict(), sort_keys=True)
    back = json.loads(blob)
    assert back["p_hat"] == est.p_hat
    assert back["trials"] == 1000
    assert back["seed"] == 4


def test_estimate_refuses_degrees_past_int64():
    # the sampler holds the points that remain as int64 and draws up to
    # remaining + 1, so 2**63 - 2 is the largest degree; larger ones are
    # refused before the event is probed
    top = montecarlo.MAX_DEGREE
    assert top == 2**63 - 2
    est = montecarlo.estimate_event(top, montecarlo.Avoids({2}), trials=64, seed=3)
    assert 0 < est.p_hat < 1

    class Unprobed(montecarlo.Avoids):
        def accepts(self, *args):
            raise AssertionError("probed before the degree was checked")

    for n in (top + 1, 2**63, 10**20):
        with pytest.raises(ValueError, match=str(top)):
            montecarlo.estimate_event(n, Unprobed({2}), trials=10)


def test_estimate_validation():
    w = exact.prime_window(1, 2)
    with pytest.raises(ValueError):
        montecarlo.estimate_event(
            5, montecarlo.PreCycleInWindow(w), trials=0)
    # A_1 is refused; A_2 is the identity alone, kept by parity rejection
    with pytest.raises(ValueError):
        montecarlo.estimate_event(
            1, montecarlo.Avoids({2}), group="alt", trials=10)
    assert montecarlo.estimate_event(
        2, montecarlo.Avoids({2}), group="alt", trials=10).p_hat == 1.0
    assert montecarlo.estimate_event(
        2, montecarlo.Avoids({1}), group="alt", trials=10).p_hat == 0.0
    with pytest.raises(ValueError):
        montecarlo.estimate_event(
            5, montecarlo.PreCycleInWindow(w), trials=10, level=1.5)


def test_level_is_checked_before_conversion(monkeypatch):
    # a level past the floats is refused as a ValueError, before sampling
    def no_sampling(*args):
        raise AssertionError("sampled")

    monkeypatch.setattr(montecarlo, "_block_successes", no_sampling)
    for level in (Fraction(10**400), Fraction(-(10**400)), Fraction(0)):
        with pytest.raises(ValueError, match="level must be in"):
            montecarlo.estimate_event(30, montecarlo.Avoids({3}), trials=100, level=level)
    monkeypatch.undo()
    est = montecarlo.estimate_event(30, montecarlo.Avoids({3}), trials=100,
                                    level=Fraction(99, 100))
    assert est.level == 0.99 and isinstance(est.level, float)
