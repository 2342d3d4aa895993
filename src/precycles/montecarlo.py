"""Monte Carlo estimation of cycle-type event probabilities.

The estimators draw uniform elements of S_n or A_n, look only at the
cycle type, and never build Permutation objects on the hot path.
Trials are partitioned into fixed-size blocks; block i gets the
generator seeded by ``SeedSequence(seed, spawn_key=(i,))``, so a result
depends only on (seed, trials, block_size).

Events deliberately mirror the exact module: each has an exact
counterpart below the enumeration bound (see
:func:`exact_event_proportion`), which is how the calibration tests
close the loop.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import NormalDist
from typing import Callable, Union

import numpy as np

from . import exact
from .exact import ForbiddenSet, PrimeWindow
from .perm import cycle_length_counts

DEFAULT_LEVEL = 0.99
DEFAULT_BLOCK_SIZE = 4096


@dataclass(frozen=True)
class PreCycleInWindow:
    """Holds for g iff some window prime p has exactly one p-cycle and
    no other cycle length divisible by p."""

    window: PrimeWindow

    def predicate(self, n: int) -> Callable[[dict[int, int]], bool]:
        exact._check_window(n, self.window)
        primes = self.window.primes
        multiples = {p: range(2 * p, n + 1, p) for p in primes}

        def pred(counts: dict[int, int]) -> bool:
            for p in primes:
                if counts.get(p) == 1 and not any(
                    counts.get(q) for q in multiples[p]
                ):
                    return True
            return False

        return pred


@dataclass(frozen=True)
class Avoids:
    """Holds for g iff no cycle length lies in ``members``."""

    members: frozenset[int]

    def predicate(self, n: int) -> Callable[[dict[int, int]], bool]:
        members = sorted(self.members)
        for a in members:
            if not 1 <= a <= n:
                raise ValueError(f"forbidden length {a} outside 1..{n}")

        def pred(counts: dict[int, int]) -> bool:
            return not any(a in counts for a in members)

        return pred


@dataclass(frozen=True)
class InT:
    """Holds for g iff some window prime occurs as a cycle length."""

    window: PrimeWindow

    def predicate(self, n: int) -> Callable[[dict[int, int]], bool]:
        exact._check_window(n, self.window)
        primes = self.window.primes

        def pred(counts: dict[int, int]) -> bool:
            return any(p in counts for p in primes)

        return pred


@dataclass(frozen=True)
class InU:
    """Holds for g iff some window prime p occurs and the cycle lengths
    divisible by p have total multiplicity at least 2."""

    window: PrimeWindow

    def predicate(self, n: int) -> Callable[[dict[int, int]], bool]:
        exact._check_window(n, self.window)
        primes = self.window.primes
        multiples = {p: range(2 * p, n + 1, p) for p in primes}

        def pred(counts: dict[int, int]) -> bool:
            for p in primes:
                if p in counts:
                    if counts[p] + sum(counts.get(q, 0) for q in multiples[p]) >= 2:
                        return True
            return False

        return pred


Event = Union[PreCycleInWindow, Avoids, InT, InU]


def exact_event_proportion(n: int, event: Event, group: str = "sym"):
    """Exact counterpart of an event, for degrees within the
    enumeration bound."""
    if isinstance(event, PreCycleInWindow):
        return exact.window_proportion(n, event.window, group)
    if isinstance(event, Avoids):
        return exact.avoid_proportion(ForbiddenSet(n, event.members), group)
    if isinstance(event, InT):
        return exact.window_hit_proportions(n, event.window, group).hit
    if isinstance(event, InU):
        return exact.window_hit_proportions(n, event.window, group).repeat
    raise TypeError(f"unknown event {event!r}")


def wilson_interval(successes: int, trials: int, level: float) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if not 0 < level < 1:
        raise ValueError(f"level must be in (0, 1), got {level}")
    z = NormalDist().inv_cdf((1.0 + level) / 2.0)
    phat = successes / trials
    denom = 1.0 + z * z / trials
    center = (phat + z * z / (2 * trials)) / denom
    spread = (
        z * math.sqrt(phat * (1.0 - phat) / trials + z * z / (4.0 * trials * trials))
        / denom
    )
    return max(0.0, center - spread), min(1.0, center + spread)


def wilson_half_width(successes: int, trials: int, level: float) -> float:
    lo, hi = wilson_interval(successes, trials, level)
    return (hi - lo) / 2.0


@dataclass(frozen=True)
class Estimate:
    """Point estimate with Wilson half-width; seed echoed for replay."""

    p_hat: float
    half_width: float
    trials: int
    seed: int
    level: float

    def to_json_dict(self) -> dict:
        return {
            "p_hat": self.p_hat,
            "half_width": self.half_width,
            "trials": self.trials,
            "seed": self.seed,
            "level": self.level,
        }


def _block_successes(
    n: int,
    group: str,
    pred: Callable[[dict[int, int]], bool],
    seed: int,
    block_index: int,
    count: int,
) -> int:
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(block_index,))
    rng = np.random.Generator(np.random.PCG64(ss))
    mat = rng.permuted(np.tile(np.arange(n), (count, 1)), axis=1)
    alt = group == "alt"
    successes = 0
    for row in mat:
        images = row.tolist()
        counts = cycle_length_counts(images)
        if alt and (n - sum(counts.values())) % 2:
            images[0], images[1] = images[1], images[0]
            counts = cycle_length_counts(images)
        if pred(counts):
            successes += 1
    return successes


def estimate_event(
    n: int,
    event: Event,
    group: str = "sym",
    trials: int = 10**5,
    seed: int = 0,
    level: float = DEFAULT_LEVEL,
    block_size: int = DEFAULT_BLOCK_SIZE,
) -> Estimate:
    """Estimate the probability of ``event`` for a uniform group element.

    The result is a deterministic function of (n, event, group, trials,
    seed, block_size).
    """
    exact._check_group(group, n)
    if n < 1:
        raise ValueError(f"degree must be >= 1, got {n}")
    if group == "alt" and n < 3:
        raise ValueError("group='alt' sampling requires n >= 3")
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if block_size < 1:
        raise ValueError(f"block_size must be >= 1, got {block_size}")
    pred = event.predicate(n)
    successes = sum(
        _block_successes(n, group, pred, seed, i, min(block_size, trials - start))
        for i, start in enumerate(range(0, trials, block_size))
    )
    return Estimate(
        p_hat=successes / trials,
        half_width=wilson_half_width(successes, trials, level),
        trials=trials,
        seed=seed,
        level=level,
    )
