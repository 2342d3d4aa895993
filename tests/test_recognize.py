import hashlib
import json
import math
import time
from fractions import Fraction

import numpy as np
import pytest

from precycles import perm, recognize


def _twenty_cycle_powers():
    return [
        perm.Permutation(tuple(((i - 1 + j) % 20) + 1 for i in range(1, 21)))
        for j in range(1, 21)
    ]


def test_uniform_source_finds_and_verifies():
    src = recognize.UniformSource(20, "any", 42)
    out = recognize.run_recognizer(src, Fraction(1, 100))
    assert out.found
    assert out.prime is not None and 2 <= out.prime <= 17
    counts = perm.cycle_type(out.cycle).counts
    assert counts == {out.prime: 1, 1: 20 - out.prime}
    assert out.draws_used >= 1
    # the witness really is the claimed power
    order = math.lcm(*(len(c) for c in out.element.cycles()))
    h = perm.identity(20)
    for _ in range(out.exponent % order or order):
        h = perm.Permutation(
            tuple(out.element.images[x - 1] for x in h.images))
    assert h == out.cycle


def test_recognizer_deterministic():
    a = recognize.run_recognizer(
        recognize.UniformSource(20, "any", 7), Fraction(1, 100))
    b = recognize.run_recognizer(
        recognize.UniformSource(20, "any", 7), Fraction(1, 100))
    assert a.draws_used == b.draws_used
    assert a.prime == b.prime
    assert a.element == b.element
    assert a.exponent == b.exponent


def test_cycle_power_source_never_hits():
    src = recognize.ListSource(_twenty_cycle_powers(), 0)
    out = recognize.run_recognizer(src, Fraction(1, 100))
    assert out.status == "not_found"
    assert out.draws_used == 86


def test_identity_source_never_hits():
    src = recognize.ListSource([perm.identity(10)], 3)
    out = recognize.run_recognizer(src, Fraction(1, 10))
    assert out.status == "not_found"
    # ceil(log(1/10) / log(18/19)) = 43
    assert out.draws_used == 43


def test_epsilon_one_draws_nothing():
    src = recognize.ListSource([perm.identity(10)], 0)
    out = recognize.run_recognizer(src, 1)
    assert out.status == "not_found"
    assert out.draws_used == 0


def test_p_range_restricts_target():
    out = recognize.run_recognizer(
        recognize.UniformSource(30, "any", 11), Fraction(1, 1000),
        p_range=(7, 7))
    assert out.found and out.prime == 7
    out2 = recognize.run_recognizer(
        recognize.UniformSource(20, "any", 1), Fraction(1, 10),
        p_range=(4, 4))
    assert out2.status == "not_found"


@pytest.mark.parametrize("p_range, end", [
    ((0, math.inf), "hi"), ((math.nan, 20), "lo"), ((-math.inf, 20), "lo"),
    ((7, math.nan), "hi")])
def test_p_range_refuses_non_finite_ends(p_range, end):
    src = recognize.UniformSource(50, "any", 0)
    with pytest.raises(ValueError, match=f"^p_range {end} must be finite"):
        recognize.run_recognizer(src, Fraction(1, 100), p_range=p_range)


def test_alt_source():
    src = recognize.UniformSource(21, "even", 5)
    out = recognize.run_recognizer(src, Fraction(1, 100))
    assert out.found
    assert perm.cycle_type(out.element).sign == 1
    # pinned, so that a change to the A_n stream is deliberate
    assert (out.draws_used, out.prime) == (1, 3)


@pytest.mark.parametrize("n, parity", [(10, "odd"), (0, "any")])
def test_uniform_source_refuses_bad_arguments(n, parity):
    with pytest.raises(ValueError):
        recognize.UniformSource(n, parity, 0)


def test_degree_floor():
    with pytest.raises(ValueError):
        recognize.run_recognizer(
            recognize.UniformSource(6, "any", 0), Fraction(1, 10))


def test_list_source_validation():
    with pytest.raises(ValueError):
        recognize.ListSource([])
    with pytest.raises(ValueError):
        recognize.ListSource([perm.identity(3), perm.identity(4)])


def test_element_list_round_trip(tmp_path):
    rng = np.random.default_rng(8)
    elements = [perm.sample_uniform(12, "any", rng) for _ in range(25)]
    path = tmp_path / "draws.txt"
    recognize.save_element_list(elements, path)
    back = recognize.load_element_list(path)
    assert back == elements


def test_replay_source_bit_identical(tmp_path):
    rng = np.random.default_rng(31)
    elements = [perm.sample_uniform(15, "any", rng) for _ in range(200)]
    path = tmp_path / "draws.txt"
    recognize.save_element_list(elements, path)
    out1 = recognize.run_recognizer(
        recognize.ReplaySource(path), Fraction(1, 100))
    out2 = recognize.run_recognizer(
        recognize.ReplaySource(path), Fraction(1, 100))
    assert out1.status == out2.status
    assert out1.draws_used == out2.draws_used
    assert out1.element == out2.element
    assert out1.cycle == out2.cycle


def test_replay_exhaustion(tmp_path):
    path = tmp_path / "short.txt"
    recognize.save_element_list([perm.identity(10)] * 3, path)
    src = recognize.ReplaySource(path)
    with pytest.raises(recognize.SourceError, match="exhausted"):
        recognize.run_recognizer(src, Fraction(1, 100))
    src.reset()
    # budget 2 for epsilon 9/10 fits in the three recorded draws
    out = recognize.run_recognizer(src, Fraction(9, 10))
    assert out.status == "not_found"
    assert out.draws_used == 2


def test_replay_file_errors(tmp_path):
    empty = tmp_path / "empty.txt"
    empty.write_text("# only a comment\n")
    with pytest.raises(recognize.SourceError):
        recognize.ReplaySource(empty)
    mixed = tmp_path / "mixed.txt"
    mixed.write_text("1 2 3\n2 1\n")
    with pytest.raises(ValueError):
        recognize.ReplaySource(mixed)


def test_outcome_json():
    out = recognize.run_recognizer(
        recognize.UniformSource(20, "any", 42), Fraction(1, 100))
    d = out.to_json_dict()
    blob = json.loads(json.dumps(d, sort_keys=True))
    assert blob["status"] == "found"
    assert blob["epsilon"] == "1/100"
    assert blob["c0"] == "1/19"
    assert blob["degree"] == 20
    assert isinstance(blob["exponent"], int)
    assert blob["cycle"].startswith("(")
    missing = recognize.run_recognizer(
        recognize.ListSource([perm.identity(10)], 0), Fraction(1, 2))
    d2 = missing.to_json_dict()
    assert "prime" not in d2 and d2["status"] == "not_found"


def _paper_window(n: int) -> tuple[float, float]:
    log_n = math.log(n)
    return log_n, log_n ** math.log(log_n)


# sha256 of the sorted-key JSON of each outcome, recorded from the
# pure-Python cycle walk: draws, A_n rejections and witnesses are pinned
@pytest.mark.parametrize("seed, draws, prime, exponent, digest", [
    (1, 2, 17, 3638379287400,
     "ea65590fb5e0cd15676a2ca9d02e445221e7d9ae2299e6cc5bf9a5f9ba768505"),
    (2, 3, 79, 177989328,
     "93203a1f684372e6efca39633e42331309f280e0da818960f63c381408642062"),
    (3, 5, 67, 10536651442973250,
     "68d827470b00bf2bf943cbf35afa242e246568f0c1744096d78de5061530a862"),
])
def test_alt_recognition_at_degree_ten_thousand_is_pinned(
        seed, draws, prime, exponent, digest):
    out = recognize.run_recognizer(
        recognize.UniformSource(10**4, "even", seed), Fraction(1, 100),
        p_range=_paper_window(10**4))
    blob = out.to_json_dict()
    assert (blob["draws_used"], blob["prime"], blob["exponent"]) == \
        (draws, prime, exponent)
    text = json.dumps(blob, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_recognizer_at_degree_one_million_without_runaway():
    start = time.perf_counter()
    out = recognize.run_recognizer(
        recognize.UniformSource(10**6, "even", 3), Fraction(1, 100))
    elapsed = time.perf_counter() - start
    assert out.found
    counts = perm.cycle_type(out.cycle).counts
    assert counts == {out.prime: 1, 1: 10**6 - out.prime}
    assert perm.cycle_type(out.element).sign == 1
    assert elapsed < 30, elapsed


@pytest.mark.parametrize("text, n, p", [
    ("(1,2,3)", 7, 3),
    ("(2,9,4,6,5)", 9, 5),
    ("(1,2)", 2, 2),
])
def test_verify_witness_accepts_single_cycles(text, n, p):
    recognize._verify_witness(perm.parse_cycles(text, n), p, n)


def _unchecked(*images) -> perm.Permutation:
    """A permutation of the 1-based images, built without the checks."""
    return perm.Permutation._trusted(np.array(images) - 1)


@pytest.mark.parametrize("cyc, p, n", [
    # two p-cycles
    (perm.parse_cycles("(1,2,3)(4,5,6)", 9), 3, 9),
    (perm.parse_cycles("(1,2)(3,4)", 9), 2, 9),
    # a p-cycle plus a transposition
    (perm.parse_cycles("(1,2,3,4,5)(6,7)", 9), 5, 9),
    # one cycle of the wrong length
    (perm.parse_cycles("(1,2,3,4)", 9), 3, 9),
    (perm.parse_cycles("(1,2,3,4,5)", 9), 7, 9),
    # n - p moved points, but the orbit of 1 closes too early
    (perm.parse_cycles("(1,2)(3,4,5)", 9), 5, 9),
    (perm.parse_cycles("(5,6)(1,2,3,4)", 9), 6, 9),
    # n - p fixed points, but 1 -> 2 -> 3 -> 2: the orbit never closes
    (_unchecked(2, 3, 2, 4, 5, 6, 7), 3, 7),
    # n - p fixed points, but an image leaves 1..n
    (_unchecked(2, 3, 0, 4, 5), 3, 5),
    (_unchecked(2, 3, 6, 4, 5), 3, 5),
    # ... and 2 -> 0 would wrap round to 5 -> 1 as an array index
    (_unchecked(2, 0, 3, 4, 1), 3, 5),
    # the wrong degree
    (perm.parse_cycles("(1,2,3)", 8), 3, 9),
])
def test_verify_witness_rejects(cyc, p, n):
    with pytest.raises(AssertionError, match="witness verification failed"):
        recognize._verify_witness(cyc, p, n)


def _is_even(images) -> bool:
    seen = [False] * len(images)
    cycles = 0
    for i in range(len(images)):
        if not seen[i]:
            cycles += 1
            while not seen[i]:
                seen[i] = True
                i = images[i]
    return (len(images) - cycles) % 2 == 0


@pytest.mark.parametrize("parity, seed", [("any", 4), ("even", 2), ("even", 3)])
def test_found_run_labels_each_raw_draw_once(monkeypatch, parity, seed):
    """Every labelling goes through perm._labels: one per raw draw of
    the source, none for the extract or the witness check."""
    calls = []
    labels = perm._labels
    monkeypatch.setattr(perm, "_labels", lambda f: calls.append(1) or labels(f))
    n = 10**4
    out = recognize.run_recognizer(
        recognize.UniformSource(n, parity, seed), Fraction(1, 100),
        p_range=_paper_window(n))
    assert out.found
    # replay the source's stream, checking parity by a plain walk
    rng = np.random.default_rng(seed)
    raw = kept = 0
    while kept < out.draws_used:
        images = rng.permutation(n).tolist()
        raw += 1
        kept += parity == "any" or _is_even(images)
    assert len(calls) == raw
    if parity == "even":
        assert raw > out.draws_used
