"""What importing the package and calling it loads, each in a fresh
interpreter, so that nothing this test process imported counts."""
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import precycles

SRC = Path(__file__).resolve().parent.parent / "src"

# Every public name of the package, by the layer that defines it.
PUBLIC = {
    "bounds": [
        "ASSERTED_FROM", "AvoidanceBounds", "BoundReport", "FloorSweep",
        "HeadlineBounds", "PrimeSumBounds", "SweepReport", "avoidance_bounds",
        "certify_avoidance_bound", "density_floor_sweep", "harmonic_gap",
        "headline_bounds", "prime_sum_bounds", "sample_count",
        "verify_harmonic_gap", "verify_pi_bounds", "verify_pi_bounds_range",
        "verify_recip_bounds_all", "verify_recip_sq_upper_all",
        "window_density_lower_bound",
    ],
    "exact": [
        "ENUMERATION_BOUND", "EnumerationCapacityError", "ForbiddenSet",
        "PrimeWindow", "WindowHitStats", "avoid_proportion",
        "coprime_order_density", "cycle_proportion", "pre_cycle_density",
        "pre_prime_cycle_proportion", "prime_window", "window_hit_proportions",
        "window_proportion",
    ],
    "montecarlo": [
        "Avoids", "Estimate", "InT", "InU", "PreCycleInWindow",
        "estimate_event", "exact_event_proportion", "wilson_interval",
    ],
    "perm": [
        "CycleType", "Permutation", "cycle_type", "extract_cycle_power",
        "format_cycles", "format_one_line", "identity", "parse_cycles",
        "parse_one_line", "parse_permutation", "pre_cycle_targets",
        "sample_uniform",
    ],
    "primes": [
        "PrimeTable", "build_sieve", "sum_recip", "sum_recip_exact",
        "sum_recip_sq", "sum_recip_sq_exact",
    ],
    "recognize": [
        "ElementSource", "ListSource", "RecognitionOutcome", "ReplaySource",
        "SourceError", "UniformSource", "load_element_list", "run_recognizer",
        "save_element_list",
    ],
}


def fresh(code: str) -> dict:
    """Run ``code`` in a new interpreter that imports the package from
    src/, and return the JSON it prints."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


LOADED = ("json.dumps(sorted(m for m in sys.modules "
          "if m == 'mpmath' or m.startswith('precycles.')))")


def test_import_loads_no_layer_and_no_mpmath():
    assert fresh(f"import sys, json, precycles; print({LOADED})") == []


def test_exact_estimate_and_recognize_leave_mpmath_unloaded():
    loaded = fresh(
        "import sys, json\n"
        "from fractions import Fraction\n"
        "import precycles as pc\n"
        "assert pc.window_proportion(20, pc.prime_window(1, 17), 'sym') > 0\n"
        "steps = [" + LOADED + "]\n"
        "pc.estimate_event(30, pc.InU(pc.prime_window(1, 17)), 'alt', trials=64)\n"
        "steps.append(" + LOADED + ")\n"
        "out = pc.run_recognizer(pc.UniformSource(20, 'even', 0),"
        " Fraction(1, 100), Fraction(1, 19))\n"
        "assert out.found\n"
        "assert pc.sample_count(Fraction(1, 100), Fraction(1, 19)) == 86\n"
        "steps.append(" + LOADED + ")\n"
        "print(json.dumps([json.loads(s) for s in steps]))\n")
    assert loaded == [
        ["precycles.exact", "precycles.perm", "precycles.primes"],
        ["precycles.exact", "precycles.montecarlo", "precycles.perm",
         "precycles.primes"],
        ["precycles.bounds", "precycles.exact", "precycles.montecarlo",
         "precycles.perm", "precycles.primes", "precycles.recognize"],
    ]


def test_cli_density_loads_only_the_exact_layers():
    # each subcommand imports the layers it uses: density needs exact and
    # what exact imports, not bounds, montecarlo or recognize
    loaded = fresh(
        "import sys, json, contextlib, io\n"
        "from precycles import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert cli.main(['density', '--n', '20', '--cycles']) == 0\n"
        "print(" + LOADED + ")\n")
    assert loaded == ["precycles.cli", "precycles.exact", "precycles.perm",
                      "precycles.primes"]


def test_an_escalation_loads_mpmath_and_keeps_its_verdict():
    # 1/3 against 1/3, two Fractions, is compared exactly: a non-strict
    # bound holds and a strict one fails
    got = fresh(
        "import sys, json\n"
        "from fractions import Fraction\n"
        "from precycles import bounds\n"
        "before = 'mpmath' in sys.modules\n"
        "third = Fraction(1, 3)\n"
        "verdicts = [bounds._certified_less(lambda: (third, third), strict)"
        " for strict in (False, True)]\n"
        "verdicts.append(bounds._certified_less(lambda: (third, Fraction(1, 2)), True))\n"
        "print(json.dumps([before, 'mpmath' in sys.modules, verdicts]))\n")
    assert got == [False, True, [True, False, True]]


def test_every_public_name_resolves_to_its_layer():
    names = [name for names in PUBLIC.values() for name in names]
    for module, members in PUBLIC.items():
        layer = importlib.import_module(f"precycles.{module}")
        assert getattr(precycles, module) is layer
        for name in members:
            assert getattr(precycles, name) is getattr(layer, name), name
    assert sorted(precycles.__all__) == sorted([*PUBLIC, *names])
    assert set(precycles.__all__) <= set(dir(precycles))
    star = {}
    exec("from precycles import *", star)
    assert {name for name in star if name != "__builtins__"} == set(precycles.__all__)
    with pytest.raises(AttributeError, match="no_such_name"):
        precycles.no_such_name


def test_importtime_lists_the_lazily_loaded_layers():
    # the package loads each layer through __import__, which
    # ``python -X importtime`` times, so every layer that density loads
    # is listed, and the listing changes nothing the command prints
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), env.get("PYTHONPATH")]))
    argv = ["-m", "precycles.cli", "density", "--n", "20", "--cycles"]
    timed, plain = (
        subprocess.run([sys.executable, *flags, *argv], capture_output=True,
                       text=True, env=env, timeout=60)
        for flags in (["-X", "importtime"], []))
    assert timed.returncode == plain.returncode == 0, timed.stderr
    assert timed.stdout == plain.stdout
    listed = {line.rsplit("|", 1)[-1].strip() for line in timed.stderr.splitlines()
              if line.startswith("import time:")}
    assert {"precycles.exact", "precycles.perm", "precycles.primes"} <= listed
