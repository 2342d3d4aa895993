"""Las Vegas recognition of elements that power to a prime cycle.

Draw up to m elements from a black-box source; the first draw whose
cycle type admits a prime target p in range yields the witness power
g**ell, re-verified from its images alone before being returned.  The
budget m comes from :func:`precycles.bounds.sample_count`, so a uniform
source with pre-p-cycle density >= c0 fails with probability at most
epsilon.  Errors are one-sided: a returned witness is always genuine.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Sequence

import numpy as np

from .bounds import sample_count
from .perm import (
    Permutation,
    check_sample_args,
    coerce_rng,
    cycle_type,
    extract_cycle_power,
    format_cycles,
    format_one_line,
    parse_permutation,
    pre_cycle_targets,
    sample_uniform,
)
from .primes import fraction_str, is_prime_trial

DEFAULT_C0 = Fraction(1, 19)


class SourceError(RuntimeError):
    """A source could not produce the requested element."""


class ElementSource:
    """Black-box supplier of group elements of one fixed degree."""

    degree: int

    def draw(self) -> Permutation:
        raise NotImplementedError

    def describe(self) -> str:
        raise NotImplementedError


class UniformSource(ElementSource):
    """Uniform elements of S_n (parity="any") or A_n (parity="even")."""

    def __init__(
        self,
        n: int,
        parity: str = "any",
        rng: np.random.Generator | int | None = None,
    ):
        # Fail fast on bad parameters rather than on the first draw.
        check_sample_args(n, parity)
        self.degree = n
        self.parity = parity
        self._rng = coerce_rng(rng)

    def draw(self) -> Permutation:
        return sample_uniform(self.degree, self.parity, self._rng)

    def describe(self) -> str:
        group = "alternating" if self.parity == "even" else "symmetric"
        return f"uniform {group} degree {self.degree}"


class ListSource(ElementSource):
    """Uniform draws (with replacement) from an explicit element list."""

    def __init__(
        self,
        elements: Sequence[Permutation],
        rng: np.random.Generator | int | None = None,
    ):
        if not elements:
            raise ValueError("element list is empty")
        degrees = {g.degree for g in elements}
        if len(degrees) != 1:
            raise ValueError(f"mixed degrees in element list: {sorted(degrees)}")
        self.degree = degrees.pop()
        self._elements = list(elements)
        self._rng = coerce_rng(rng)

    def draw(self) -> Permutation:
        return self._elements[int(self._rng.integers(len(self._elements)))]

    def describe(self) -> str:
        return f"list of {len(self._elements)} elements, degree {self.degree}"


class ReplaySource(ElementSource):
    """Sequential replay of a recorded element file.

    One permutation per line; exhausting the file raises
    :class:`SourceError`.  Replaying the same file gives bit-identical
    outcomes.
    """

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self._elements = load_element_list(self.path)
        if not self._elements:
            raise SourceError(f"{self.path}: no permutations to replay")
        self.degree = self._elements[0].degree
        self._next = 0

    def draw(self) -> Permutation:
        if self._next >= len(self._elements):
            raise SourceError(
                f"{self.path}: replay exhausted after {self._next} draws"
            )
        g = self._elements[self._next]
        self._next += 1
        return g

    def reset(self) -> None:
        self._next = 0

    def describe(self) -> str:
        return f"replay of {self.path} ({len(self._elements)} elements)"


def load_element_list(path: str | Path, n: int | None = None) -> list[Permutation]:
    """Read permutations, one per line, in either text notation."""
    out: list[Permutation] = []
    for i, line in enumerate(Path(path).read_text().splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        try:
            out.append(parse_permutation(line, n=n))
        except ValueError as exc:
            raise ValueError(f"{path}:{i}: {exc}") from exc
    degrees = {g.degree for g in out}
    if len(degrees) > 1:
        raise ValueError(f"{path}: mixed degrees {sorted(degrees)}")
    return out


def save_element_list(elements: Sequence[Permutation], path: str | Path) -> None:
    """Write permutations one per line in one-line image notation."""
    Path(path).write_text(
        "".join(format_one_line(g) + "\n" for g in elements)
    )


@dataclass(frozen=True)
class RecognitionOutcome:
    """Result of a recognition run.

    For status "found": ``prime`` p, the drawn ``element`` g, the
    ``exponent`` ell, and the certified p-cycle ``cycle`` = g**ell.
    ``draws_used`` counts source draws in both cases.
    """

    status: str
    degree: int
    draws_used: int
    epsilon: Fraction
    c0: Fraction
    prime: int | None = None
    element: Permutation | None = None
    exponent: int | None = None
    cycle: Permutation | None = None

    @property
    def found(self) -> bool:
        return self.status == "found"

    def to_json_dict(self) -> dict:
        out = {
            "status": self.status,
            "degree": self.degree,
            "draws_used": self.draws_used,
            "epsilon": fraction_str(self.epsilon),
            "c0": fraction_str(self.c0),
        }
        if self.found:
            out["prime"] = self.prime
            out["element"] = format_cycles(self.element)
            out["exponent"] = self.exponent
            out["cycle"] = format_cycles(self.cycle)
        return out


def run_recognizer(
    source: ElementSource,
    epsilon,
    c0=DEFAULT_C0,
    p_range: tuple[float, float] | None = None,
) -> RecognitionOutcome:
    """Search the source for an element powering to a p-cycle.

    Primes are accepted from 2 <= p <= n - 3, further intersected with
    the inclusive ``p_range`` when given.  Stops at the first hit or
    after sample_count(epsilon, c0) draws.
    """
    n = source.degree
    if n < 7:
        raise ValueError(f"recognition needs degree >= 7, got {n}")
    eps = epsilon if isinstance(epsilon, Fraction) else Fraction(epsilon)
    c = c0 if isinstance(c0, Fraction) else Fraction(c0)
    lo, hi = 2, n - 3
    if p_range is not None:
        for end, x in zip(("lo", "hi"), p_range):
            if not math.isfinite(x):
                raise ValueError(f"p_range {end} must be finite, got {x}")
        lo = max(lo, math.ceil(p_range[0]))
        hi = min(hi, math.floor(p_range[1]))
    budget = sample_count(eps, c)
    for i in range(1, budget + 1):
        g = source.draw()
        t = cycle_type(g)
        for k in sorted(pre_cycle_targets(t)):
            if lo <= k <= hi and is_prime_trial(k):
                ell, cyc = extract_cycle_power(g, k)
                _verify_witness(cyc, k, n)
                return RecognitionOutcome(
                    status="found",
                    degree=n,
                    draws_used=i,
                    epsilon=eps,
                    c0=c,
                    prime=k,
                    element=g,
                    exponent=ell,
                    cycle=cyc,
                )
    return RecognitionOutcome(
        status="not_found", degree=n, draws_used=budget, epsilon=eps, c0=c
    )


def _verify_witness(cyc: Permutation, p: int, n: int) -> None:
    """Raise AssertionError unless cyc is a single p-cycle of degree n.

    Checked from the image array alone, in O(n) and without the
    labelling that found the cycle: exactly n - p points are fixed, and
    the orbit of the first moved point first returns to it after exactly
    p steps, each step range-checked before it is followed.  Then that
    orbit is the p moved points, so the images are a bijection and one
    p-cycle; the check covers witnesses built without the construction
    checks.
    """
    f = cyc.array
    if len(f) != n:
        raise AssertionError(
            f"witness verification failed: degree {len(f)}, expected {n}"
        )
    moved = np.flatnonzero(f != np.arange(n))
    if len(moved) != p:
        raise AssertionError(
            f"witness verification failed: {len(moved)} points moved, expected {p}"
        )
    start = x = int(moved[0])
    for step in range(1, p + 1):
        x = f.item(x)
        if x == start or not 0 <= x < n:
            break
    if x != start or step != p:
        raise AssertionError(
            f"witness verification failed: the orbit of {start + 1} does not "
            f"return to it after exactly {p} steps"
        )
