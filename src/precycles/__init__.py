"""Exact and Monte Carlo statistics of permutations that power to a
prime-length cycle, with certified inequality checking behind them.

Each public name, and each layer (``precycles.bounds`` and so on), is
imported on first access, so a process loads only the layers it calls.
"""

__version__ = "0.1.0"

_EXPORTS = {
    "bounds": (
        "ASSERTED_FROM",
        "AvoidanceBounds",
        "BoundReport",
        "FloorSweep",
        "HeadlineBounds",
        "PrimeSumBounds",
        "SweepReport",
        "avoidance_bounds",
        "certify_avoidance_bound",
        "density_floor_sweep",
        "harmonic_gap",
        "headline_bounds",
        "prime_sum_bounds",
        "sample_count",
        "verify_harmonic_gap",
        "verify_pi_bounds",
        "verify_pi_bounds_range",
        "verify_recip_bounds_all",
        "verify_recip_sq_upper_all",
        "window_density_lower_bound",
    ),
    "exact": (
        "ENUMERATION_BOUND",
        "EnumerationCapacityError",
        "ForbiddenSet",
        "PrimeWindow",
        "WindowHitStats",
        "avoid_proportion",
        "coprime_order_density",
        "cycle_proportion",
        "pre_cycle_density",
        "pre_prime_cycle_proportion",
        "prime_window",
        "window_hit_proportions",
        "window_proportion",
    ),
    "montecarlo": (
        "Avoids",
        "Estimate",
        "InT",
        "InU",
        "PreCycleInWindow",
        "estimate_event",
        "exact_event_proportion",
        "wilson_interval",
    ),
    "perm": (
        "CycleType",
        "Permutation",
        "cycle_type",
        "extract_cycle_power",
        "format_cycles",
        "format_one_line",
        "identity",
        "parse_cycles",
        "parse_one_line",
        "parse_permutation",
        "pre_cycle_targets",
        "sample_uniform",
    ),
    "primes": (
        "PrimeTable",
        "build_sieve",
        "sum_recip",
        "sum_recip_exact",
        "sum_recip_sq",
        "sum_recip_sq_exact",
    ),
    "recognize": (
        "ElementSource",
        "ListSource",
        "RecognitionOutcome",
        "ReplaySource",
        "SourceError",
        "UniformSource",
        "load_element_list",
        "run_recognizer",
        "save_element_list",
    ),
}

# Each public name and the layer that defines it.
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

# The layers themselves are public names too, as they were when this
# package imported them all.
__all__ = sorted([*_EXPORTS, *_HOME])


def _layer(name: str):
    """The layer ``name``, loaded through ``__import__``, which
    ``python -X importtime`` times (importlib.import_module it does not)."""
    __import__(f"{__name__}.{name}")
    return globals()[name]


def __getattr__(name: str):
    if name in _EXPORTS:
        return _layer(name)
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_layer(_HOME[name]), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
