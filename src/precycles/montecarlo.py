"""Monte Carlo estimation of cycle-type event probabilities.

The estimators sample cycle types only, never permutations: the Feller
coupling draws each cycle length uniformly from the points that remain,
and A_n is sampled by rejecting the odd types.  A block of samples is
held as parallel (rows, lengths) arrays with one entry per cycle, about
log n entries per sample, so memory does not grow with n.  Each event
has one definition, ``accepts(n, rows, lengths, count)``, a numpy
predicate returning one bool per row.  Trials are partitioned into
fixed-size blocks; block i gets the generator seeded by
``SeedSequence(seed, spawn_key=(i,))``, so a result depends only on
(seed, trials, block_size).

Events deliberately mirror the exact module: each has an exact
counterpart (see :func:`exact_event_proportion`), which is how the
calibration tests close the loop.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import NormalDist
from typing import Union

import numpy as np

from . import exact
from .exact import ForbiddenSet, PrimeWindow

# The largest degree the sampler takes: it holds the points that remain
# as int64 and draws from 1..remaining + 1 (exclusive), so 2**63 - 2.
MAX_DEGREE = 2**63 - 2

DEFAULT_LEVEL = 0.99
DEFAULT_BLOCK_SIZE = 4096
_NO_CYCLES = np.zeros(0, dtype=np.int64)


def _tally(rows: np.ndarray, mask: np.ndarray, count: int) -> np.ndarray:
    """Per-row number of cycles selected by ``mask``."""
    return np.bincount(rows[mask], minlength=count)


@dataclass(frozen=True)
class PreCycleInWindow:
    """Holds for g iff some window prime p has exactly one p-cycle and
    no other cycle length divisible by p."""

    window: PrimeWindow

    def accepts(self, n: int, rows: np.ndarray, lengths: np.ndarray,
                count: int) -> np.ndarray:
        exact._check_window(n, self.window)
        found = np.zeros(count, dtype=bool)
        for p in self.window.primes:
            found |= ((_tally(rows, lengths == p, count) == 1)
                      & (_tally(rows, lengths % p == 0, count) == 1))
        return found


@dataclass(frozen=True)
class Avoids:
    """Holds for g iff no cycle length lies in ``members``."""

    members: frozenset[int]

    def accepts(self, n: int, rows: np.ndarray, lengths: np.ndarray,
                count: int) -> np.ndarray:
        members = sorted(self.members)
        for a in members:
            if not 1 <= a <= n:
                raise ValueError(f"forbidden length {a} outside 1..{n}")
        return _tally(rows, np.isin(lengths, members), count) == 0


@dataclass(frozen=True)
class InT:
    """Holds for g iff some window prime occurs as a cycle length."""

    window: PrimeWindow

    def accepts(self, n: int, rows: np.ndarray, lengths: np.ndarray,
                count: int) -> np.ndarray:
        exact._check_window(n, self.window)
        return _tally(rows, np.isin(lengths, self.window.primes), count) > 0


@dataclass(frozen=True)
class InU:
    """Holds for g iff some window prime p occurs and the cycle lengths
    divisible by p have total multiplicity at least 2."""

    window: PrimeWindow

    def accepts(self, n: int, rows: np.ndarray, lengths: np.ndarray,
                count: int) -> np.ndarray:
        exact._check_window(n, self.window)
        found = np.zeros(count, dtype=bool)
        for p in self.window.primes:
            found |= ((_tally(rows, lengths == p, count) > 0)
                      & (_tally(rows, lengths % p == 0, count) >= 2))
        return found


Event = Union[PreCycleInWindow, Avoids, InT, InU]


def exact_event_proportion(n: int, event: Event, group: str = "sym"):
    """Exact counterpart of an event.  The window events raise
    :class:`~precycles.exact.EnumerationCapacityError` above the
    enumeration bound; ``Avoids`` has no degree bound."""
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


@dataclass(frozen=True)
class Estimate:
    """Point estimate with its Wilson interval [lower, upper]; seed
    echoed for replay.

    The interval is not centred on p_hat (at p_hat = 0 it is
    [0, 2 * half_width]), so a value is inside it by its ends, not by
    its distance from p_hat.
    """

    p_hat: float
    lower: float
    upper: float
    trials: int
    seed: int
    level: float

    @property
    def half_width(self) -> float:
        return (self.upper - self.lower) / 2.0

    def to_json_dict(self) -> dict:
        return {
            "p_hat": self.p_hat,
            "lower": self.lower,
            "upper": self.upper,
            "half_width": self.half_width,
            "trials": self.trials,
            "seed": self.seed,
            "level": self.level,
        }


def _feller_sample(
    rng: np.random.Generator, n: int, count: int
) -> tuple[np.ndarray, np.ndarray]:
    """Cycle types of ``count`` uniform elements of S_n, as parallel
    (rows, lengths) arrays with one entry per cycle.

    Feller coupling: the cycle through the least unplaced point of a
    uniform permutation has length uniform on 1..remaining, and the
    rest is uniform on what remains.  One draw per step covers every
    row still unfinished, and a row has about log n cycles.
    """
    remaining = np.full(count, n, dtype=np.int64)
    active = np.arange(count)
    rows, lengths = [], []
    while active.size:
        drawn = rng.integers(1, remaining[active] + 1)
        rows.append(active)
        lengths.append(drawn)
        remaining[active] -= drawn
        active = active[remaining[active] > 0]
    return np.concatenate(rows), np.concatenate(lengths)


def _sample_cycle_types(
    rng: np.random.Generator, n: int, group: str, count: int
) -> tuple[np.ndarray, np.ndarray]:
    """Cycle types of ``count`` uniform elements of S_n or A_n.

    For A_n, odd rows (n - #cycles odd) are rejected and the same
    generator draws again until ``count`` even rows are kept; the kept
    rows are uniform on A_n.  Half of all types are even, so each round
    draws twice the rows still needed and keeps the first even ones.
    """
    if group == "sym":
        return _feller_sample(rng, n, count)
    rows_kept, lengths_kept = [], []
    kept = 0
    while kept < count:
        need = count - kept
        rows, lengths = _feller_sample(rng, n, 2 * need)
        even = (n - np.bincount(rows, minlength=2 * need)) % 2 == 0
        rank = np.cumsum(even)
        keep = even & (rank <= need)
        take = keep[rows]
        rows_kept.append(kept + rank[rows[take]] - 1)
        lengths_kept.append(lengths[take])
        kept += int(np.count_nonzero(keep))
    return np.concatenate(rows_kept), np.concatenate(lengths_kept)


def _block_successes(
    n: int, group: str, event: Event, seed: int, block_index: int, count: int
) -> int:
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(block_index,))
    rng = np.random.Generator(np.random.PCG64(ss))
    rows, lengths = _sample_cycle_types(rng, n, group, count)
    return int(np.count_nonzero(event.accepts(n, rows, lengths, count)))


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
    seed, block_size).  Degrees above ``MAX_DEGREE`` (2**63 - 2), which
    the int64 sampler cannot hold, raise ValueError before any sampling,
    as does a ``level`` (of any real type) outside (0, 1).
    """
    exact._check_group(group, n)
    if not 1 <= n <= MAX_DEGREE:
        raise ValueError(f"degree must be in [1, {MAX_DEGREE}] (2**63 - 2), got {n}")
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if block_size < 1:
        raise ValueError(f"block_size must be >= 1, got {block_size}")
    if not 0 < level < 1:
        raise ValueError(f"level must be in (0, 1), got {level}")
    level = float(level)
    # an invalid event is refused before any sampling
    event.accepts(n, _NO_CYCLES, _NO_CYCLES, 0)
    successes = sum(
        _block_successes(n, group, event, seed, i, min(block_size, trials - start))
        for i, start in enumerate(range(0, trials, block_size))
    )
    lower, upper = wilson_interval(successes, trials, level)
    return Estimate(
        p_hat=successes / trials,
        lower=lower,
        upper=upper,
        trials=trials,
        seed=seed,
        level=level,
    )
