"""Permutations, cycle types, and cycle-power witnesses.

A permutation g of degree n "powers to a k-cycle" when some power g**e
is a single k-cycle fixing everything else.  That holds exactly when g
has one cycle of length k and every other cycle length is coprime to k;
this module finds those target lengths and constructs the witness power
from the cycle decomposition.

A permutation holds its images as one read-only ``np.intp`` array of
0-based images, 8 bytes per point; the tuple of 1-based Python ints
(about 36 bytes per point) is built only when ``images`` is read.
Public construction converts the images once, and that array is both
checked and kept; a uniform draw keeps the generator's array, and a
witness is one scatter into a fresh one.  Cycle types and A_n parity
come from whole-array numpy passes: pointer doubling labels every point
with the smallest point of its cycle.  Each permutation labels its
cycles at most once and caches only what that gives in a few ints: the
cycle type and, for each cycle length, the smallest point of one cycle
of that length (its leader), from which the witness walks.  Sampling
A_n rejects odd draws from their raw images, before any permutation is
built, and the accepted draw's labelling fills the cache.  Cycle lists
and cycle notation walk each cycle once in Python from its smallest
point, taking start points in ascending order: every point for
``cycles()``, only the moved points for the notation.

Points are 1-based everywhere in the public API, matching the two text
notations: disjoint cycles ``(1,2,3)(4,5)`` and one-line images
``2 3 1 5 4``.
"""
from __future__ import annotations

import math
import re
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

# Dense image arrays above this degree are refused; cycle-type-only
# code paths carry no such bound.
DEGREE_CAP = 10**7


def coerce_rng(rng: np.random.Generator | int | None) -> np.random.Generator:
    """Accept a Generator, an int seed, or None (fresh OS entropy)."""
    if isinstance(rng, np.random.Generator):
        return rng
    return np.random.default_rng(rng)


@dataclass(frozen=True)
class CycleType:
    """Cycle type of a degree-n permutation as (length, multiplicity) pairs.

    ``parts`` is ascending by length, multiplicities >= 1, and the
    lengths (with multiplicity) sum to n.  Fixed points appear as
    length-1 parts.
    """

    n: int
    parts: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        total = 0
        prev = 0
        for length, mult in self.parts:
            if length <= prev:
                raise ValueError("parts must be strictly ascending by length")
            if mult < 1:
                raise ValueError(f"multiplicity for length {length} must be >= 1")
            total += length * mult
            prev = length
        if total != self.n:
            raise ValueError(f"parts sum to {total}, expected n={self.n}")

    def multiplicity(self, k: int) -> int:
        for length, mult in self.parts:
            if length == k:
                return mult
        return 0

    @property
    def counts(self) -> dict[int, int]:
        return dict(self.parts)

    @property
    def num_cycles(self) -> int:
        return sum(m for _, m in self.parts)

    @property
    def sign(self) -> int:
        """+1 for even permutations, -1 for odd."""
        return -1 if (self.n - self.num_cycles) % 2 else 1


class Permutation:
    """A permutation of {1..n}, stored as ``array``: the read-only
    ``np.intp`` array of its 0-based images, 8 bytes per point.

    ``images`` is the tuple of the 1-based images of 1..n as Python
    ints, built on first access and then cached.  Equality and hashing
    compare the images.  Instances are immutable.
    """

    def __init__(self, images: Sequence[int]) -> None:
        n = len(images)
        if n > DEGREE_CAP:
            raise ValueError(f"degree {n} exceeds cap {DEGREE_CAP}")
        f = _image_array(images)
        if f is None:
            _raise_first_fault(images)
        f.flags.writeable = False
        object.__setattr__(self, "array", f)

    @classmethod
    def _trusted(cls, f: np.ndarray) -> Permutation:
        """Wrap 0-based images f that are a bijection onto 0..n-1 by
        construction, skipping every check of public construction; f is
        kept, not copied, and made read-only."""
        g = object.__new__(cls)
        f = np.asarray(f, np.intp)
        f.flags.writeable = False
        object.__setattr__(g, "array", f)
        return g

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of a Permutation")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of a Permutation")

    def __reduce__(self):
        return Permutation._trusted, (self.array,)

    def __eq__(self, other):
        if not isinstance(other, Permutation):
            return NotImplemented
        return np.array_equal(self.array, other.array)

    def __hash__(self) -> int:
        return hash(self.array.tobytes())

    def __repr__(self) -> str:
        return f"Permutation(images={self.images!r})"

    @cached_property
    def images(self) -> tuple[int, ...]:
        """The images of 1..n as Python ints, built once on first access."""
        return tuple((self.array + 1).tolist())

    @property
    def degree(self) -> int:
        return len(self.array)

    def __call__(self, point: int) -> int:
        return self.array.item(point - 1) + 1

    def cycles(self) -> list[list[int]]:
        """Disjoint cycles (fixed points included), each starting at its
        smallest point, ordered by that point."""
        return _cycle_lists(self.array, range(self.degree))

    @cached_property
    def _labelling(self) -> tuple[CycleType, dict[int, int]]:
        """The cycle type and the leader of each cycle length, from one
        labelling of the cycles per instance."""
        return _summarise(self.degree, _cycle_sizes(self.array))

    @property
    def cycle_type(self) -> CycleType:
        return self._labelling[0]


def _image_array(images: Sequence) -> np.ndarray | None:
    """The 0-based images as a new intp array when the images are ints
    forming a bijection onto 1..n, else None, by whole-array passes."""
    n = len(images)
    if not all(issubclass(t, int) for t in set(map(type, images))):
        return None
    try:
        f = np.fromiter(images, np.intp, n)
    except OverflowError:
        return None
    f -= 1
    if n and not (f.min() >= 0 and f.max() < n and np.count_nonzero(np.bincount(f)) == n):
        return None
    return f


def _raise_first_fault(images: Sequence) -> None:
    """Raise ValueError naming the first image that is not an int in
    1..n or that repeats an earlier one."""
    n = len(images)
    seen = bytearray(n)
    for v in images:
        if not isinstance(v, int) or not 1 <= v <= n:
            raise ValueError(f"image {v!r} outside 1..{n}")
        if seen[v - 1]:
            raise ValueError(f"image {v} repeated; not a bijection")
        seen[v - 1] = 1


def _labels(f: np.ndarray) -> np.ndarray:
    """The smallest point of each point's cycle, for 0-based images f.

    Pointer doubling: m[i] starts as the smaller of i and f(i), and each
    round squares f and takes m = min(m, m o f), doubling the stretch of
    i's cycle that m[i] covers.  After ceil(log2 n) rounds every point
    is labelled with the smallest point of its cycle.
    """
    n = len(f)
    m = np.minimum(np.arange(n), f)
    for _ in range(1, (n - 1).bit_length()):
        f = f[f]
        np.minimum(m, m[f], out=m)
    return m


def _cycle_sizes(f: np.ndarray) -> np.ndarray:
    """Length of each cycle of the 0-based images f, stored at the
    cycle's smallest point; every other entry is 0, and the array ends
    at the last such point."""
    return np.bincount(_labels(f))


def _cycle_lists(f: np.ndarray, starts: Sequence[int]) -> list[list[int]]:
    """The cycles of the 0-based images f through the points starts, as
    1-based lists, each from its smallest point, ordered by that point;
    starts must ascend and hold every point of each cycle they meet.

    Each start not yet seen opens its cycle, walked once and marked seen.
    """
    seen = bytearray(len(f))
    item = f.item
    out = []
    for s in starts:
        if not seen[s]:
            cyc = []
            j = s
            while not seen[j]:
                seen[j] = 1
                cyc.append(j + 1)
                j = item(j)
            out.append(cyc)
    return out


def _summarise(n: int, sizes: np.ndarray) -> tuple[CycleType, dict[int, int]]:
    """The cycle type and, for each cycle length, the smallest 1-based
    point of the first cycle of that length, from :func:`_cycle_sizes`.

    One pass over the cycles' smallest points; reversed, so that the
    first cycle of each length is the one the dict keeps.
    """
    roots = np.flatnonzero(sizes)
    lengths = sizes[roots].tolist()
    t = CycleType(n, tuple(sorted(Counter(lengths).items())))
    return t, dict(zip(reversed(lengths), reversed((roots + 1).tolist())))


def identity(n: int) -> Permutation:
    return Permutation._trusted(np.arange(n))


def cycle_type(g: Permutation) -> CycleType:
    return g.cycle_type


def check_sample_args(n: int, parity: str) -> None:
    """The argument rule of :func:`sample_uniform`."""
    if parity not in ("any", "even"):
        raise ValueError(f"parity must be 'any' or 'even', got {parity!r}")
    if n < 1:
        raise ValueError(f"degree must be >= 1, got {n}")
    if n > DEGREE_CAP:
        raise ValueError(f"degree {n} exceeds cap {DEGREE_CAP}")


def sample_uniform(
    n: int,
    parity: str = "any",
    rng: np.random.Generator | int | None = None,
) -> Permutation:
    """Uniform draw from S_n (parity="any") or A_n (parity="even").

    Fisher-Yates via the generator's permutation method; for A_n, draws
    are repeated until one is even (half of S_n for n >= 2, so two
    draws on average).  Each draw's cycles are labelled once, from the
    raw array: that labelling gives the parity and, for the returned
    draw, the cached cycle type and leaders.  The returned permutation
    holds the raw array and skips the construction checks, since a
    shuffle of 0..n-1 is a bijection.
    """
    check_sample_args(n, parity)
    gen = coerce_rng(rng)
    while True:
        f = gen.permutation(n)
        sizes = _cycle_sizes(f)
        if parity == "any" or (n - np.count_nonzero(sizes)) % 2 == 0:
            # f is a bijection: Generator.permutation shuffles arange(n)
            g = Permutation._trusted(f)
            g.__dict__["_labelling"] = _summarise(n, sizes)  # fills the cache
            return g


def _not_target(t: CycleType, k: int) -> str | None:
    """Why no power of a permutation of type t is a k-cycle, or None
    when one is: k >= 2 must have multiplicity exactly 1 and every other
    cycle length must be coprime to k."""
    mult = t.multiplicity(k)
    if k < 2 or mult == 0:
        return f"no usable cycle of length {k} in type {t.parts}"
    if mult > 1:
        return f"{mult} cycles of length {k}; need exactly one"
    for j, _ in t.parts:
        d = math.gcd(j, k)
        if j != k and d > 1:
            return f"cycle length {j} shares factor {d} with {k}"
    return None


def pre_cycle_targets(t: CycleType) -> frozenset[int]:
    """All k such that some power of a permutation of type t is a k-cycle."""
    return frozenset(k for k, _ in t.parts if _not_target(t, k) is None)


def extract_cycle_power(g: Permutation, k: int) -> tuple[int, Permutation]:
    """Exponent ell and witness g**ell, a single k-cycle.

    ell is the lcm of the cycle lengths other than k; it is coprime to
    k whenever k is a valid target, so the witness really is a k-cycle.
    Raises ValueError naming the failed condition otherwise.
    """
    t, leaders = g._labelling
    reason = _not_target(t, k)
    if reason is not None:
        raise ValueError(reason)
    ell = math.lcm(*(j for j, _ in t.parts if j != k))
    # walk the one k-cycle from its smallest point
    f = g.array
    cyc = [leaders[k] - 1]
    while len(cyc) < k:
        cyc.append(f.item(cyc[-1]))
    points = np.array(cyc)
    out = np.arange(g.degree)
    out[points] = np.roll(points, -(ell % k))
    # a permutation of the points of one cycle of g, identity elsewhere
    return ell, Permutation._trusted(out)


# ---------------------------------------------------------------------------
# Text notations.

_CYCLE_RE = re.compile(r"\(([^()]*)\)")


def format_one_line(g: Permutation) -> str:
    return " ".join(map(str, (g.array + 1).tolist()))


def parse_one_line(text: str) -> Permutation:
    tokens = text.split()
    if not tokens:
        raise ValueError("empty one-line permutation")
    try:
        images = tuple(int(tok) for tok in tokens)
    except ValueError as exc:
        raise ValueError(f"bad one-line permutation {text!r}") from exc
    return Permutation(images)


def format_cycles(g: Permutation) -> str:
    moved = np.flatnonzero(g.array != np.arange(g.degree)).tolist()
    parts = ["(" + ",".join(map(str, c)) + ")" for c in _cycle_lists(g.array, moved)]
    return "".join(parts) if parts else "()"


def parse_cycles(text: str, n: int | None = None) -> Permutation:
    """Parse disjoint-cycle notation; omitted points are fixed.

    The degree defaults to the largest point mentioned; pass ``n`` to
    embed into a larger symmetric group.
    """
    stripped = text.replace(" ", "")
    if not stripped:
        raise ValueError("empty cycle notation")
    if _CYCLE_RE.sub("", stripped):
        raise ValueError(f"malformed cycle notation {text!r}")
    cycles: list[list[int]] = []
    for body in _CYCLE_RE.findall(stripped):
        if not body:
            continue
        try:
            points = [int(tok) for tok in body.split(",")]
        except ValueError as exc:
            raise ValueError(f"bad cycle {body!r}") from exc
        if any(p < 1 for p in points):
            raise ValueError(f"points must be >= 1 in cycle {body!r}")
        cycles.append(points)
    top = max((max(c) for c in cycles), default=0)
    degree = top if n is None else n
    if degree < top:
        raise ValueError(f"degree {n} smaller than largest point {top}")
    images = list(range(1, degree + 1))
    used: set[int] = set()
    for cyc in cycles:
        for p in cyc:
            if p in used:
                raise ValueError(f"point {p} appears in two cycles")
            used.add(p)
        for i, p in enumerate(cyc):
            images[p - 1] = cyc[(i + 1) % len(cyc)]
    return Permutation(tuple(images))


def parse_permutation(text: str, n: int | None = None) -> Permutation:
    """Parse either notation, dispatching on a leading parenthesis."""
    if text.lstrip().startswith("("):
        return parse_cycles(text, n=n)
    g = parse_one_line(text)
    if n is not None and n != g.degree:
        raise ValueError(f"one-line permutation has degree {g.degree}, expected {n}")
    return g
