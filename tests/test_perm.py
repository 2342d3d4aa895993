import copy
import hashlib
import itertools
import math
import pickle
import re
import tracemalloc
from collections import Counter
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cycle_types import cycle_types
from precycles import perm

perms = st.integers(min_value=1, max_value=30).flatmap(
    lambda n: st.permutations(list(range(1, n + 1)))
).map(lambda images: perm.Permutation(tuple(images)))


def _compose(g: perm.Permutation, h: perm.Permutation) -> perm.Permutation:
    return perm.Permutation(tuple(g.images[x - 1] for x in h.images))


def _power(g: perm.Permutation, e: int) -> perm.Permutation:
    out = perm.identity(g.degree)
    for _ in range(e):
        out = _compose(g, out)
    return out


def _inversions(images) -> int:
    count = 0
    for i in range(len(images)):
        for j in range(i + 1, len(images)):
            if images[i] > images[j]:
                count += 1
    return count


def test_permutation_validates():
    with pytest.raises(ValueError):
        perm.Permutation((1, 1))
    with pytest.raises(ValueError):
        perm.Permutation((0, 1))
    with pytest.raises(ValueError):
        perm.Permutation((2, 3))


@pytest.mark.parametrize("images, bad", [
    ((1.0,), 1.0),
    (("1",), "1"),
    ((None,), None),
    ((np.int64(1),), np.int64(1)),
    ((2, np.int64(1)), np.int64(1)),
    ((2**70, 1), 2**70),
    ((1, -1), -1),
    ((2, 1, 2), 2),
])
def test_permutation_rejects_bad_images(images, bad):
    with pytest.raises(ValueError, match=re.escape(repr(bad))):
        perm.Permutation(images)


def test_permutation_accepts_bool_images():
    # True is an int, as isinstance sees it
    assert perm.Permutation((True,)) == perm.identity(1)
    g = perm.Permutation((2, True))
    assert perm.cycle_type(g).counts == {2: 1}


@settings(max_examples=60)
@given(st.integers(min_value=1, max_value=300),
       st.sampled_from(["any", "even"]),
       st.integers(min_value=0, max_value=2**32))
def test_trusted_and_public_construction_agree(n, parity, seed):
    """A draw and its witnesses skip the checks; each equals, and hashes
    like, the same images built publicly, and differs from others."""
    g = perm.sample_uniform(n, parity, seed)
    trusted = [g] + [perm.extract_cycle_power(g, k)[1]
                     for k in perm.pre_cycle_targets(g.cycle_type)]
    for h in trusted:
        public = perm.Permutation(tuple((h.array + 1).tolist()))
        assert h == public and public == h
        assert hash(h) == hash(public)
        assert h.images == public.images
    shifted = perm.Permutation(g.images[1:] + g.images[:1])
    assert (g == shifted) == (n == 1)
    assert g != g.images


def test_images_and_calls_are_python_ints():
    for g in (perm.Permutation((2, True, 3)), perm.sample_uniform(50, "even", 1),
              perm.extract_cycle_power(perm.parse_cycles("(1,2,3)(4,5)", 6), 3)[1]):
        assert type(g.images) is tuple
        assert all(type(v) is int for v in g.images)
        assert all(type(g(p)) is int and g(p) == v
                   for p, v in enumerate(g.images, 1))
        assert type(g.degree) is int
    assert perm.Permutation((2, True, 3)).images == (2, 1, 3)


def test_permutation_is_immutable():
    g = perm.parse_cycles("(1,2,3)(4,5)", 6)
    before = g.images
    with pytest.raises(AttributeError):
        g.images = (1, 2, 3, 4, 5, 6)
    with pytest.raises(AttributeError):
        g.array = np.arange(6)
    with pytest.raises(AttributeError):
        g.other = 1
    with pytest.raises(AttributeError):
        del g.array
    for h in (g, perm.sample_uniform(6, "any", 0), perm.identity(6)):
        with pytest.raises(ValueError):
            h.array[0] = 5
        with pytest.raises(ValueError):
            h.array[:] = h.array[::-1]
    assert g.images == before and g(1) == 2


@pytest.mark.parametrize("g", [
    perm.parse_cycles("(1,2,3)(4,5)", 6),
    perm.sample_uniform(1000, "even", 3),
    perm.identity(0),
])
def test_copy_and_pickle_round_trip(g):
    g.cycle_type  # fills the cache, which a copy need not carry
    for h in (copy.copy(g), copy.deepcopy(g), pickle.loads(pickle.dumps(g))):
        assert type(h) is perm.Permutation
        assert h == g and hash(h) == hash(g) and repr(h) == repr(g)
        assert not h.array.flags.writeable
        assert h.cycle_type == g.cycle_type


def test_permutations_hold_one_intp_per_point():
    n = 10**5
    rng = np.random.default_rng(12)
    perm.sample_uniform(8, "even", rng)  # warm-up outside the trace
    tracemalloc.start()
    try:
        held = [perm.sample_uniform(n, parity, rng) for parity in ("any", "even") * 3]
        held += [perm.Permutation(tuple((rng.permutation(n) + 1).tolist()))
                 for _ in range(4)]
        current = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(held) == 10
    assert current < 10 * len(held) * n, current / (len(held) * n)


def test_cycles_ordered_by_smallest_point():
    g = perm.parse_cycles("(4,5)(1,2,3)", 6)
    assert g.cycles() == [[1, 2, 3], [4, 5], [6]]
    assert perm.format_cycles(g) == "(1,2,3)(4,5)"
    assert perm.format_cycles(perm.identity(4)) == "()"


def test_cycle_type_example():
    g = perm.parse_cycles("(1,2,3)(4,5)", 6)
    t = perm.cycle_type(g)
    assert t.counts == {3: 1, 2: 1, 1: 1}
    assert t.num_cycles == 3
    assert t.sign == -1
    assert t.multiplicity(3) == 1 and t.multiplicity(4) == 0


@given(perms)
def test_one_line_round_trip(g):
    assert perm.parse_one_line(perm.format_one_line(g)) == g


@given(perms)
def test_cycle_notation_round_trip(g):
    assert perm.parse_cycles(perm.format_cycles(g), g.degree) == g
    assert perm.parse_permutation(perm.format_cycles(g), g.degree) == g


def test_parse_cycles_degree_inference():
    g = perm.parse_cycles("(1,3)(2,5)")
    assert g.degree == 5
    assert g.images == (3, 5, 1, 4, 2)


def test_parse_errors():
    with pytest.raises(ValueError):
        perm.parse_one_line("")
    with pytest.raises(ValueError):
        perm.parse_one_line("1 2 2")
    with pytest.raises(ValueError):
        perm.parse_cycles("(1,2)(2,3)")
    with pytest.raises(ValueError):
        perm.parse_cycles("no parens here")
    with pytest.raises(ValueError):
        perm.parse_cycles("(1,2)", 1)


@given(perms)
def test_sign_matches_inversion_parity(g):
    t = perm.cycle_type(g)
    want = -1 if _inversions(g.images) % 2 else 1
    assert t.sign == want


# sha256 of the repr of 25 consecutive draws from default_rng(n + 7),
# recorded from the pure-Python cycle walk, so that the numpy parity
# provably rejects the same A_n draws
@pytest.mark.parametrize("n, parity, digest", [
    (20, "any",
     "639cf99b130b8a4227ec1709df2c2b731f8b7690c290403630d9b55b0aab05a9"),
    (20, "even",
     "7976da2237bfd756daf42cb0f6e9c587186d8791900d002b092276926e22ab7b"),
    (1000, "any",
     "ac430c6417b6b877272082fa55ea869c754b7e1a205a53ab55adfd8c3676411b"),
    (1000, "even",
     "1699b943469913035b006af65ebf2bafda62aa085442cecd3290e8fa58257904"),
])
def test_sample_uniform_stream_is_pinned(n, parity, digest):
    rng = np.random.default_rng(n + 7)
    draws = [perm.sample_uniform(n, parity, rng).images for _ in range(25)]
    assert hashlib.sha256(repr(draws).encode()).hexdigest() == digest


def test_sample_uniform_derangement_rate():
    rng = np.random.default_rng(4021)
    m = 20_000
    hits = 0
    for _ in range(m):
        g = perm.sample_uniform(5, "any", rng)
        if all(g(i) != i for i in range(1, 6)):
            hits += 1
    p = 44 / 120
    sigma = math.sqrt(p * (1 - p) / m)
    assert abs(hits / m - p) < 4 * sigma


def test_sample_uniform_even_parity():
    """Every class of A_4 at its share of the 12 elements."""
    rng = np.random.default_rng(88)
    m = 20_000
    seen = Counter()
    for _ in range(m):
        t = perm.cycle_type(perm.sample_uniform(4, "even", rng))
        assert t.sign == 1
        seen[t.parts] += 1
    shares = {((1, 4),): 1 / 12, ((1, 1), (3, 1)): 8 / 12, ((2, 2),): 3 / 12}
    assert set(seen) == set(shares)
    for parts, p in shares.items():
        sigma = math.sqrt(p * (1 - p) / m)
        assert abs(seen[parts] / m - p) < 4 * sigma, parts


def test_sample_uniform_small_even_is_identity():
    rng = np.random.default_rng(0)
    for n in (1, 2):
        for _ in range(20):
            assert perm.sample_uniform(n, "even", rng) == perm.identity(n)


def test_cycle_type_is_cached():
    g = perm.parse_cycles("(1,2,3)(4,5)", 7)
    assert perm.cycle_type(g) is perm.cycle_type(g)


def test_sample_uniform_type_distribution_chi_square():
    """Goodness of fit over all 11 cycle types of S_6 at significance
    1e-3; deterministic via the fixed seed."""
    n, m = 6, 30_000
    expected = {
        parts: m * size / math.factorial(n) for parts, size in cycle_types(n)}
    assert len(expected) == 11
    rng = np.random.default_rng(1729)
    observed = Counter()
    for _ in range(m):
        g = perm.sample_uniform(n, "any", rng)
        lens = sorted(
            k for k, mult in perm.cycle_type(g).counts.items()
            for _ in range(mult))
        observed[tuple(lens)] += 1
    chi2 = sum(
        (observed[key] - exp) ** 2 / exp for key, exp in expected.items())
    df = len(expected) - 1
    p_value = float(mp.gammainc(df / 2, chi2 / 2, mp.inf, regularized=True))
    assert p_value > 1e-3, (chi2, p_value)


def test_pre_cycle_targets_examples():
    t = perm.cycle_type(perm.parse_cycles("(1,2,3)(4,5)", 6))
    assert perm.pre_cycle_targets(t) == {2, 3}
    t = perm.cycle_type(perm.parse_cycles("(1,2)(3,4,5,6)", 6))
    assert perm.pre_cycle_targets(t) == frozenset()
    t = perm.cycle_type(perm.parse_cycles("(1,2,3,4,5)", 10))
    assert perm.pre_cycle_targets(t) == {5}
    assert perm.pre_cycle_targets(perm.cycle_type(perm.identity(4))) == \
        frozenset()


def _brute_power_targets(g: perm.Permutation) -> set[int]:
    """All k >= 2 such that some power of g is a single k-cycle."""
    order = 1
    for c in g.cycles():
        order = math.lcm(order, len(c))
    out = set()
    h = g
    for _ in range(1, order + 1):
        lens = sorted(len(c) for c in h.cycles() if len(c) >= 2)
        if len(lens) == 1:
            out.add(lens[0])
        h = _compose(g, h)
    return out


@pytest.mark.parametrize("n", range(1, 8))
def test_targets_match_brute_force_powering(n):
    for images in itertools.permutations(range(1, n + 1)):
        g = perm.Permutation(images)
        want = _brute_power_targets(g)
        got = set(perm.pre_cycle_targets(perm.cycle_type(g)))
        assert got == want, perm.format_cycles(g)


def test_targets_match_powering_random_n8():
    rng = np.random.default_rng(505)
    for _ in range(2000):
        g = perm.sample_uniform(8, "any", rng)
        assert set(perm.pre_cycle_targets(perm.cycle_type(g))) == \
            _brute_power_targets(g)


def test_extract_cycle_power_example():
    g = perm.parse_cycles("(1,2,3)(4,5)", 6)
    ell, witness = perm.extract_cycle_power(g, 3)
    assert ell == 2
    assert witness == _power(g, 2)
    assert perm.format_cycles(witness) == "(1,3,2)"


@given(perms)
def test_extract_cycle_power_is_genuine(g):
    for k in perm.pre_cycle_targets(perm.cycle_type(g)):
        ell, witness = perm.extract_cycle_power(g, k)
        assert ell >= 1
        counts = perm.cycle_type(witness).counts
        assert counts.get(k) == 1
        assert set(counts) <= {1, k}
        order = math.lcm(*(len(c) for c in g.cycles()))
        assert witness == _power(g, ell % order or order)


def test_extract_cycle_power_errors():
    g = perm.parse_cycles("(1,2,3)(4,5)", 6)
    with pytest.raises(ValueError, match="no usable cycle"):
        perm.extract_cycle_power(g, 4)
    h = perm.parse_cycles("(1,2)(3,4)", 4)
    with pytest.raises(ValueError, match="need exactly one"):
        perm.extract_cycle_power(h, 2)
    f = perm.parse_cycles("(1,2)(3,4,5,6)", 6)
    with pytest.raises(ValueError, match="shares factor"):
        perm.extract_cycle_power(f, 4)


def _walk_cycles(images) -> list[list[int]]:
    """Cycles of 1-based images by a plain walk, each from its smallest
    point, ordered by that point."""
    seen = set()
    out = []
    for i in range(1, len(images) + 1):
        if i not in seen:
            cyc = [i]
            seen.add(i)
            while images[cyc[-1] - 1] not in seen:
                cyc.append(images[cyc[-1] - 1])
                seen.add(cyc[-1])
            out.append(cyc)
    return out


def _walk_extract(g: perm.Permutation, k: int):
    """Reference (ell, g**ell) for a valid target k, from the walk."""
    cycles = _walk_cycles(g.images)
    ell = math.lcm(*(len(c) for c in cycles if len(c) != k))
    images = list(range(1, g.degree + 1))
    cyc = next(c for c in cycles if len(c) == k)
    for i, point in enumerate(cyc):
        images[point - 1] = cyc[(i + ell) % k]
    return ell, perm.Permutation(tuple(images))


def _walk_format(images) -> str:
    """Cycle notation written from the plain walk."""
    return "".join(
        "(" + ",".join(str(p) for p in c) + ")"
        for c in _walk_cycles(images) if len(c) > 1) or "()"


def _check_labelling(g: perm.Permutation) -> None:
    walk = _walk_cycles(g.images)
    assert g.cycles() == walk
    assert perm.format_cycles(g) == _walk_format(g.images)
    t = perm.cycle_type(g)
    assert t.counts == Counter(len(c) for c in walk)
    for k in perm.pre_cycle_targets(t):
        assert perm.extract_cycle_power(g, k) == _walk_extract(g, k)


def _n_cycle(n: int) -> perm.Permutation:
    return perm.Permutation(tuple(range(2, n + 1)) + (1,))


@given(perms)
def test_labelling_matches_cycle_walk(g):
    _check_labelling(g)


@pytest.mark.parametrize("g", [
    perm.identity(0),
    perm.identity(1),
    perm.identity(64),
    *(_n_cycle(2**k + d) for k in range(1, 11) for d in (0, 1)),
    # the 1024-cycle i -> i - 1, running against the order of its points
    perm.Permutation((1024,) + tuple(range(1, 1024))),
    perm.parse_cycles("(2,3)", 4096),
    perm.parse_cycles("(1000,1)(7,8,9)(4000,3000,2000,1024,1025)", 5000),
    perm.parse_cycles("(5,4,3,2,1)(90,80)(60,70,100)", 100),
    perm.sample_uniform(4097, "any", 17),
    perm.sample_uniform(5000, "even", 18),
])
def test_labelling_edge_cases(g):
    _check_labelling(g)


def _all_transpositions(n: int) -> perm.Permutation:
    """(1,2)(3,4)...(n-1,n) for even n."""
    return perm.Permutation(tuple(((np.arange(n) ^ 1) + 1).tolist()))


def _near_identity_witness(n: int) -> perm.Permutation:
    """The witness for the longest target of the first seeded uniform
    draw of degree n that has one: a single cycle, every other point
    fixed."""
    for seed in itertools.count():
        g = perm.sample_uniform(n, "any", seed)
        targets = perm.pre_cycle_targets(perm.cycle_type(g))
        if targets:
            return perm.extract_cycle_power(g, max(targets))[1]


@pytest.mark.parametrize("build, n", [
    (_all_transpositions, 2),
    (_all_transpositions, 10**4),
    (_near_identity_witness, 10**5),
    (lambda n: perm.parse_cycles("()", n), 0),
    (lambda n: perm.parse_cycles("()", n), 1),
], ids=["transpositions-2", "transpositions-10000", "witness-100000",
        "degree-0", "degree-1"])
def test_cycle_lists_match_the_walk(build, n):
    g = build(n)
    assert g.degree == n
    assert g.cycles() == _walk_cycles(g.images)
    assert perm.format_cycles(g) == _walk_format(g.images)


@settings(max_examples=60)
@given(st.integers(min_value=1, max_value=300),
       st.sampled_from(["any", "even"]),
       st.integers(min_value=0, max_value=2**32))
def test_sample_uniform_fills_a_valid_cache(n, parity, seed):
    """Draws skip the construction checks: each must still pass them,
    and each cached leader must start the first cycle of its length."""
    g = perm.sample_uniform(n, parity, seed)
    assert perm.Permutation(g.images) == g
    t, leaders = g._labelling
    walk = _walk_cycles(g.images)
    assert t.counts == Counter(len(c) for c in walk)
    assert leaders == {
        k: next(c[0] for c in walk if len(c) == k) for k in t.counts}
    for k in perm.pre_cycle_targets(t):
        assert perm.extract_cycle_power(g, k) == _walk_extract(g, k)
