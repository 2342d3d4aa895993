import csv
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from precycles import bounds, cli, exact, montecarlo, perm, primes, recognize

SRC = Path(__file__).resolve().parent.parent / "src"


def run(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_density_pre_cycle(capsys):
    code, out, _ = run(["density", "--n", "5", "--p", "2"], capsys)
    assert code == 0
    assert "1/4" in out


def test_density_window_json(capsys):
    code, out, _ = run(
        ["density", "--n", "5", "--window", "1", "2", "--format", "json"],
        capsys)
    assert code == 0
    blob = json.loads(out)
    assert blob["value"] == "1/4"
    assert blob["hit"] == "3/8"
    assert blob["repeat"] == "1/8"
    assert blob["primes"] == [2]


def test_density_coprime(capsys):
    code, out, _ = run(
        ["density", "--coprime", "3", "2", "--format", "json"], capsys)
    assert code == 0
    assert json.loads(out)["value"] == "1/2"


def test_density_cycles_says_what_it_counts(capsys):
    # 84 of the 120 elements of S_5 are one nontrivial cycle; 104 power
    # to one, since type (3, 2) squares to a 3-cycle
    code, out, _ = run(["density", "--n", "5", "--cycles"], capsys)
    assert code == 0
    assert out == "proportion of S_5 that is one nontrivial cycle = 7/10 ~ 0.7\n"


def test_density_requires_one_mode(capsys):
    code, _, err = run(["density", "--n", "5"], capsys)
    assert code == 2
    assert "choose exactly one" in err


def test_avoid(capsys):
    code, out, _ = run(["avoid", "--n", "4", "--lengths", "1"], capsys)
    assert code == 0
    assert "3/8" in out
    assert "certified" in out


def test_avoid_json_round_trip(capsys):
    code, out, _ = run(
        ["avoid", "--n", "6", "--lengths", "1,2", "--group", "alt",
         "--format", "json"], capsys)
    assert code == 0
    blob = json.loads(out)
    # canonical form: dumping again reproduces the output byte for byte
    assert json.dumps(blob, sort_keys=True) + "\n" == out
    assert blob["certified"] is True


def test_bounds_sample_count(capsys):
    code, out, _ = run(
        ["bounds", "--sample-count", "1/100", "1/19"], capsys)
    assert code == 0
    assert "86" in out
    code, out, _ = run(
        ["bounds", "--sample-count", "0.01", "1/19", "--format", "json"],
        capsys)
    assert code == 0
    assert json.loads(out)["draws"] == 86


def test_bounds_sample_count_past_the_float_range(capsys):
    # 1 - c0 rounds to 1 at 60 digits from c0 = 10**-70 on; the count
    # takes log1p at the ratio's own digits and exits 0
    code, out, err = run(
        ["bounds", "--sample-count", "1/100", "1e-300", "--format", "json"], capsys)
    assert code == 0, err
    draws = json.loads(out)["draws"]
    assert draws == bounds.sample_count(Fraction(1, 100), Fraction(1, 10**300))
    assert str(draws).startswith("46051701859880913680359829093687284152")
    assert len(str(draws)) == 301


def test_bounds_headline(capsys):
    code, out, _ = run(
        ["bounds", "--headline", "1000000", "1", "--format", "json"], capsys)
    assert code == 0
    blob = json.loads(out)
    assert blob["asserted"] is True
    assert blob["simple"] < 1


def test_bounds_window(capsys):
    code, out, _ = run(
        ["bounds", "--window-bound", "1000000", "13.8", "2.6", "1",
         "--format", "json"], capsys)
    assert code == 0
    assert json.loads(out)["value"] < 1


def test_bounds_window_reads_n_and_delta_exactly(capsys):
    code, out, _ = run(
        ["bounds", "--window-bound", "1000000000000000001", "13.8", "1.5",
         "1", "--format", "json"], capsys)
    assert code == 0
    blob = json.loads(out)
    assert (blob["n"], blob["a"], blob["delta"]) == (10**18 + 1, 13.8, 1)
    for n, delta in (("1000000.5", "1"), ("1000000", "1.7")):
        code, out, err = run(
            ["bounds", "--window-bound", n, "13.8", "2.6", delta], capsys)
        assert code == 2 and not out
        assert "N and DELTA must be integers" in err


def test_bounds_prime_sums(capsys):
    code, out, _ = run(
        ["bounds", "--prime-sums", "12", "12", "--format", "json"], capsys)
    assert code == 0
    blob = json.loads(out)
    assert blob["recip_sq_upper"] == pytest.approx(0.0204573, abs=1e-6)


def test_bounds_usage_error(capsys):
    code, _, err = run(["bounds"], capsys)
    assert code == 2
    assert "choose exactly one" in err


@pytest.mark.parametrize("argv, message", [
    (["bounds", "--prime-sums", "12", "inf"], "b must be finite, got inf"),
    (["bounds", "--prime-sums", "nan", "20", "--format", "json"],
     "a must be finite, got nan"),
    (["recognize", "--n", "50", "--p-range", "0", "inf"],
     "p_range hi must be finite, got inf"),
], ids=["prime-sums-inf", "prime-sums-nan-json", "recognize-p-range-inf"])
def test_non_finite_ends_are_usage_errors(argv, message, capsys):
    code, out, err = run(argv, capsys)
    assert code == 2
    assert out == ""
    assert message in err


@pytest.mark.parametrize("mode", [
    ["--p", "3"], ["--cycles"], ["--coprime", "6", "5"]],
    ids=["p", "cycles", "coprime"])
def test_density_alt_group_needs_a_window(mode, capsys):
    code, out, err = run(
        ["density", "--n", "7", *mode, "--group", "alt", "--format", "json"],
        capsys)
    assert code == 2
    assert out == ""
    assert "--group alt applies only to --window" in err


def test_estimate_deterministic(capsys):
    argv = ["estimate", "--n", "6", "--event", "avoids", "--lengths", "1",
            "--trials", "2000", "--seed", "9", "--format", "json"]
    code1, out1, _ = run(argv, capsys)
    code2, out2, _ = run(argv, capsys)
    assert code1 == code2 == 0
    assert out1 == out2
    assert json.loads(out1)["trials"] == 2000


def test_estimate_compare_exact(capsys):
    code, out, _ = run(
        ["estimate", "--n", "5", "--event", "window", "--window", "1", "2",
         "--trials", "20000", "--seed", "1", "--compare-exact",
         "--format", "json"], capsys)
    assert code == 0
    blob = json.loads(out)
    assert blob["exact"] == "1/4"
    assert blob["within_interval"] is True


@pytest.mark.parametrize("trials, seed, inside", [(40, 14, True), (20, 23, False)])
def test_estimate_within_interval_is_the_wilson_interval(
        capsys, trials, seed, inside):
    # against 1/13: p_hat = 0 with interval [0, 0.142] (seed 14), and
    # p_hat = 0.3 with interval [0.116, 0.584] (seed 23)
    code, out, _ = run(
        ["estimate", "--n", "20", "--event", "window", "--window", "12", "13",
         "--trials", str(trials), "--seed", str(seed), "--compare-exact",
         "--format", "json"], capsys)
    assert code == 0
    blob = json.loads(out)
    assert blob["exact"] == "1/13"
    assert blob["within_interval"] is inside


def test_estimate_prints_the_interval_it_tests(capsys):
    # the Wilson interval at p_hat = 0 is [0, 0.142], not 0 +- 0.071,
    # so the exact 1/13 = 0.076923 lies inside it
    argv = ["estimate", "--n", "20", "--event", "window", "--window", "12", "13",
            "--trials", "40", "--seed", "14", "--compare-exact"]
    code, out, _ = run(argv, capsys)
    assert code == 0
    assert out == (
        "estimate over 40 trials (seed 14): p_hat = 0.000000, Wilson interval "
        "[0.000000, 0.142273] (level 0.99, half-width 0.071137)\n"
        "exact value 0.076923; inside interval: True\n")
    code, out, _ = run(argv + ["--format", "json"], capsys)
    assert code == 0
    assert json.loads(out) == {
        "event": "window", "exact": "1/13", "group": "sym",
        "half_width": 0.07113660675379219, "level": 0.99, "lower": 0.0,
        "n": 20, "p_hat": 0.0, "seed": 14, "trials": 40,
        "upper": 0.14227321350758437, "within_interval": True}


def test_estimate_compare_exact_avoids_has_no_degree_bound(capsys):
    code, out, _ = run(
        ["estimate", "--n", "200", "--event", "avoids", "--lengths", "1",
         "--trials", "20000", "--seed", "3", "--compare-exact",
         "--format", "json"], capsys)
    assert code == 0
    blob = json.loads(out)
    # the derangement proportion of S_200 is 1/e to double precision
    assert float(Fraction(blob["exact"])) == pytest.approx(math.exp(-1))


def test_estimate_compare_exact_refuses_before_sampling(capsys, monkeypatch):
    def sample(*args, **kwargs):
        raise AssertionError("sampled before the exact check")

    monkeypatch.setattr(montecarlo, "estimate_event", sample)
    code, _, err = run(
        ["estimate", "--n", "61", "--event", "window", "--window", "1", "40",
         "--compare-exact"], capsys)
    assert code == 2
    assert "exceeds the exact enumeration bound 60" in err


def test_estimate_refuses_a_degree_past_int64(capsys):
    code, _, err = run(
        ["estimate", "--n", "100000000000000000000", "--event", "avoids",
         "--lengths", "2", "--trials", "10"], capsys)
    assert code == 2
    assert "9223372036854775806" in err and "Traceback" not in err


def test_estimate_missing_window(capsys):
    code, _, err = run(
        ["estimate", "--n", "5", "--event", "window"], capsys)
    assert code == 2
    assert "--window is required" in err


def test_recognize_uniform(capsys):
    code, out, _ = run(
        ["recognize", "--source", "sym", "--n", "20", "--seed", "42",
         "--format", "json"], capsys)
    assert code == 0
    blob = json.loads(out)
    assert blob["status"] == "found"
    assert blob["epsilon"] == "1/100"


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_recognize_formats_each_permutation_once(fmt, monkeypatch, capsys):
    formatted = []
    format_cycles = recognize.format_cycles
    monkeypatch.setattr(
        recognize, "format_cycles",
        lambda g: formatted.append(g) or format_cycles(g))
    code, out, _ = run(
        ["recognize", "--source", "alt", "--n", "30", "--seed", "4",
         "--format", fmt], capsys)
    assert code == 0
    assert len(formatted) == 2
    element, cycle = map(format_cycles, formatted)
    if fmt == "text":
        assert f"element: {element}\ncertified cycle: {cycle}\n" in out
    else:
        assert (json.loads(out)["element"], json.loads(out)["cycle"]) == \
            (element, cycle)


def test_recognize_replay(tmp_path, capsys):
    rng = np.random.default_rng(2)
    elements = [perm.sample_uniform(15, "any", rng) for _ in range(200)]
    path = tmp_path / "draws.txt"
    recognize.save_element_list(elements, path)
    argv = ["recognize", "--source", "replay", "--file", str(path),
            "--format", "json"]
    code1, out1, _ = run(argv, capsys)
    code2, out2, _ = run(argv, capsys)
    assert code1 == code2 == 0
    assert out1 == out2


def test_recognize_source_error_is_usage_error(tmp_path, capsys):
    # SourceError comes from a layer the command loads itself
    path = tmp_path / "empty.txt"
    path.write_text("")
    code, out, err = run(["recognize", "--source", "replay", "--file", str(path)], capsys)
    assert code == 2 and not out
    assert "no permutations to replay" in err


def test_recognize_small_degree_is_usage_error(capsys):
    code, _, err = run(
        ["recognize", "--source", "sym", "--n", "6"], capsys)
    assert code == 2
    assert "degree >= 7" in err


def test_verify_primes_small(capsys):
    code, out, _ = run(
        ["verify-primes", "--sieve-limit", "20000", "--format", "json"], capsys)
    assert code == 0
    blob = json.loads(out)
    assert blob["ok"] is True
    assert all(s["holds"] for s in blob["sweeps"])
    # both prime-sum grids cover every pair of the table
    checked = {s["name"]: s["checked"] for s in blob["sweeps"]}
    assert checked["recip_sq_upper_all"] == bounds._pairs(12, 20000)
    assert checked["recip_bounds_all"] == 2 * bounds._pairs(2, 20000)


def test_verify_primes_defaults_add_only_the_harmonic_gap(capsys):
    # the π sweep is that of the battery before the harmonic gap joined
    # it; both prime-sum grids span the whole 10^6 table
    code, out, _ = run(["verify-primes", "--format", "json"], capsys)
    assert code == 0
    blob = json.loads(out)
    margins = [s.pop("min_margin") for s in blob["sweeps"]]
    assert blob["sweeps"] == [
        {"argmin": {"x": 12}, "checked": 999_990, "escalations": 0,
         "failures": [], "holds": True, "name": "pi_bounds_range"},
        {"argmin": {"a": 999_978, "b": 999_983}, "checked": 499_989_500_055,
         "escalations": 0, "failures": [], "holds": True,
         "name": "recip_sq_upper_all"},
        {"argmin": {"a": 19, "b": 996_840}, "checked": 999_999_000_000,
         "escalations": 0, "failures": [], "holds": True,
         "name": "recip_bounds_all"},
        {"argmin": {"n": 999_988}, "checked": 10**6, "escalations": 0,
         "failures": [], "holds": True, "name": "harmonic_gap"},
    ]
    assert margins[:3] == pytest.approx(
        [0.17084474741786426, 4.4152938860619884e-08, 0.003935228423032067],
        rel=1e-9)
    assert set(blob) == {"sweeps", "ok"}


def test_verify_primes_harmonic_gap_stops_at_its_cap(capsys):
    code, out, _ = run(
        ["verify-primes", "--sieve-limit", "2000100", "--format", "json"],
        capsys)
    assert code == 0
    sweeps = {s["name"]: s for s in json.loads(out)["sweeps"]}
    assert sweeps["harmonic_gap"]["checked"] == bounds.HARMONIC_CAP == 2_000_000
    assert sweeps["harmonic_gap"]["holds"]


def test_verify_r2_small(capsys):
    code, out, _ = run(
        ["verify-r2", "--max", "2000", "--exact-upto", "12",
         "--format", "json"], capsys)
    assert code == 0
    blob = json.loads(out)
    assert blob["holds_from_11"] is True
    assert [e["n"] for e in blob["exceptions"]] == [5, 6, 7]
    values = {e["n"]: e["value"] for e in blob["exact_proportions"]}
    assert values[5] == "1/4"


def test_verify_r2_million_is_decided_without_runaway():
    # 268,682 degrees up to 10**6 fall below 1/19; the sweep decides them
    # all from the integer prime table and sums only a few exactly
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys; from precycles.cli import main; "
         "sys.exit(main(sys.argv[1:]))",
         "verify-r2", "--max", "1000000", "--exact-upto", "0",
         "--format", "json"],
        capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 1, proc.stderr
    blob = json.loads(proc.stdout)
    assert blob["holds_from_11"] is False
    assert blob["below_count"] == 268_682
    ns = [e["n"] for e in blob["exceptions"]]
    assert len(ns) <= bounds.FLOOR_EXCEPTIONS
    assert ns[:3] == [5, 6, 7]
    assert ns[3] == 719_534


def test_verify_r2_leaves_the_int_str_cap_alone(capsys):
    # the sweep runs without lifting the interpreter's cap on int-to-str
    # digits, and its JSON, each exception written as its integer
    # bracket, is pinned by its sha256
    before = getattr(sys, "get_int_max_str_digits", lambda: None)()
    code, out, _ = run(["verify-r2", "--max", "720000", "--format", "json"], capsys)
    assert getattr(sys, "get_int_max_str_digits", lambda: None)() == before
    assert code == 1
    assert hashlib.sha256(out.encode()).hexdigest() == \
        "1815f9e0c80d0da57628bc36925870febb40cf9c100a89f1605a15b79be1b3d3"


@pytest.mark.parametrize("argv, name", [
    (["bounds", "--window-bound", "100", "1e400", "2", "1"], "a"),
    (["bounds", "--window-bound", "1e400", "20", "2", "1"], "n"),
    (["bounds", "--avoidance", "1e400"], "mu"),
    (["estimate", "--n", "30", "--event", "avoids", "--lengths", "3",
      "--trials", "100", "--level", "1e400"], "level"),
])
def test_values_past_the_floats_are_usage_errors(argv, name, capsys):
    code, out, err = run(argv, capsys)
    assert code == 2 and out == ""
    assert err.startswith(f"error: {name} must be ") and "1000000000" in err


def _no_constants(name):
    raise ValueError(f"not strict JSON: {name}")


@pytest.mark.parametrize("mu", ["0", "1e-400"])
def test_avoidance_json_is_strict(mu, capsys):
    # 1/mu is no finite float here: null in the JSON, inf in the text
    code, out, _ = run(["bounds", "--avoidance", mu, "--format", "json"], capsys)
    assert code == 0
    assert json.loads(out, parse_constant=_no_constants)["mu_inverse"] is None
    code, out, _ = run(["bounds", "--avoidance", mu], capsys)
    assert code == 0 and "1/mu = inf," in out


@pytest.mark.parametrize("argv, option, mode", [
    (["bounds", "--sample-count", "1/100", "1/19", "--variant", "proof"],
     "--variant", "--headline"),
    (["estimate", "--n", "30", "--event", "window", "--window", "1", "7",
      "--lengths", "2"], "--lengths", "--event avoids"),
    (["estimate", "--n", "30", "--event", "avoids", "--lengths", "3",
      "--window", "1", "7"], "--window", "--event window, in-t, in-u"),
    (["density", "--coprime", "5", "3", "--n", "7"], "--n", "--p, --window, --cycles"),
    (["recognize", "--source", "sym", "--n", "20", "--file", "X"],
     "--file", "--source list, replay"),
    (["recognize", "--source", "list", "--file", "F", "--n", "5"],
     "--n", "--source sym, alt"),
])
def test_options_the_mode_ignores_are_usage_errors(argv, option, mode, tmp_path, capsys):
    path = tmp_path / "draws.txt"
    recognize.save_element_list([perm.sample_uniform(8, "any", np.random.default_rng(0))], path)
    argv = [str(path) if a in ("X", "F") else a for a in argv]
    code, out, err = run(argv, capsys)
    assert code == 2 and out == ""
    assert err == f"error: {option} applies only to {mode}\n"


def test_headline_variant_defaults_to_stated(capsys):
    code, out, _ = run(["bounds", "--headline", "1000", "1", "--format", "json"], capsys)
    assert code == 0 and json.loads(out)["variant"] == "stated"


def test_sieve_cap_is_a_usage_error(capsys):
    over = str(primes.SIEVE_CAP + 1)
    for argv in (["verify-primes", "--sieve-limit", over], ["verify-r2", "--max", over]):
        code, out, err = run(argv, capsys)
        assert code == 2 and not out
        assert "SIEVE_CAP" in err


def test_big_exact_values_print_in_full(capsys):
    # the avoidance proportion of 2-cycles in S_3000 has about 4560
    # digits a side, past the default cap on int-to-str digits
    code, out, _ = run(["avoid", "--n", "3000", "--lengths", "2"], capsys)
    assert code == 0
    value = exact.avoid_proportion(exact.ForbiddenSet(3000, {2}))
    want = primes.fraction_str(value)
    assert len(want) > 9000 and f"= {want} ~" in out


def test_avoid_alt_5000_is_decided_without_runaway():
    # 5000 steps on one fixed scale, one subtraction per forbidden length
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys; from precycles.cli import main; "
         "sys.exit(main(sys.argv[1:]))",
         "avoid", "--n", "5000", "--lengths", "1", "--group", "alt",
         "--format", "json"],
        capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    blob = json.loads(proc.stdout)
    assert blob["certified"] is True


def test_removed_options_are_usage_errors(capsys):
    for argv in (
        ["verify-primes", "--sieve-cache", "x"],
        ["verify-primes", "--grid-max", "2000"],
        ["verify-primes", "--pairs", "1000"],
        ["verify-primes", "--seed", "0"],
        ["verify-r2", "--sieve-limit", "1000000"],
        ["estimate", "--n", "9", "--event", "window", "--window", "1", "5",
         "--threads", "2"],
    ):
        with pytest.raises(SystemExit) as info:
            cli.main(argv)
        assert info.value.code == 2


def test_sieve_limit_ignores_cache_env(tmp_path, capsys, monkeypatch):
    # the sieve is rebuilt at the requested limit on every run, whatever
    # the environment says
    monkeypatch.setenv("PRECYCLES_SIEVE_CACHE", str(tmp_path / "sieve.bin"))
    for limit in (20000, 5000):
        code, out, _ = run(
            ["verify-primes", "--sieve-limit", str(limit), "--format", "json"],
            capsys)
        assert code == 0
        sweeps = {s["name"]: s for s in json.loads(out)["sweeps"]}
        assert sweeps["pi_bounds_range"]["checked"] == limit - 10


def test_argparse_usage_exit():
    with pytest.raises(SystemExit) as info:
        cli.main(["avoid", "--n", "4"])
    assert info.value.code == 2


def test_csv_format(capsys):
    code, out, _ = run(
        ["density", "--n", "5", "--p", "2", "--format", "csv"], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 2
    assert "value" in lines[0]
    assert "1/4" in lines[1]


def test_csv_nested_cells_are_json(capsys):
    code, out, _ = run(
        ["verify-r2", "--max", "100", "--exact-upto", "6", "--format", "csv"],
        capsys)
    assert code == 0
    header, row = csv.reader(io.StringIO(out))
    cells = dict(zip(header, row))
    assert cells["exact_proportions"].startswith('{"n": 5, "value": "1/4"} ')
    for cell in row:
        assert "Fraction(" not in cell and "'" not in cell, cell


@pytest.mark.parametrize("argv, header", [
    (["bounds", "--prime-sums", "5", "1000"],
     "kind,a,b,recip_sq_upper,recip_lower,recip_upper"),
    (["bounds", "--avoidance", "7/3"],
     "kind,mu,mu_inverse,e_one_minus_mu,e_gamma_minus_mu,gamma_bound_dominates"),
    (["density", "--n", "20", "--window", "1", "17"],
     "kind,n,group,window,primes,value,hit,repeat"),
    (["avoid", "--n", "20", "--lengths", "2,3"],
     "n,group,lengths,value,mu,bound_mu_inverse,bound_e_one_minus_mu,"
     "bound_e_gamma_minus_mu,certified"),
])
def test_csv_columns_follow_the_record_fields(argv, header, capsys):
    # each payload spreads its record, whose field order is the column order
    code, out, _ = run(argv + ["--format", "csv"], capsys)
    assert code == 0
    assert out.splitlines()[0] == header


def test_selftest_single_fast_criterion(capsys):
    code, out, _ = run(["selftest", "--only", "2"], capsys)
    assert code == 0
    assert "PASS criterion 2" in out


def test_selftest_json_and_csv_are_the_whole_stdout(capsys):
    code, out, _ = run(["selftest", "--only", "2", "--format", "json"], capsys)
    assert code == 0
    blob = json.loads(out)
    assert blob["ok"] is True
    assert [c["index"] for c in blob["criteria"]] == [2]
    code, out, _ = run(["selftest", "--only", "2", "--format", "csv"], capsys)
    assert code == 0
    header, row = csv.reader(io.StringIO(out))
    assert header == ["criteria", "ok"]
    assert json.loads(row[0])["name"] == "derangement-oracle"


def test_selftest_unknown_criterion_is_usage_error(capsys):
    code, out, err = run(["selftest", "--only", "9"], capsys)
    assert code == 2
    assert out == ""
    assert "valid indices are [1, 2," in err


@pytest.mark.parametrize("hi", ["inf", "3e8"])
def test_density_runaway_window_is_usage_error(hi, capsys):
    code, out, err = run(["density", "--n", "5", "--window", "1", hi], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error: window (1.0, ")


def test_window_past_1e14_is_quick_usage_error(capsys):
    start = time.perf_counter()
    code, out, err = run(
        ["density", "--n", "5", "--window", "1e16", "1.00000000000001e16"], capsys)
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert out == ""
    assert "floor(hi) <= 100000000000000" in err
