"""Exact and Monte Carlo statistics of permutations that power to a
prime-length cycle, with certified inequality checking behind them."""

from .bounds import (
    ASSERTED_FROM,
    AvoidanceBounds,
    BoundReport,
    FloorSweep,
    HeadlineBounds,
    PrimeSumBounds,
    SweepReport,
    avoidance_bounds,
    certify_avoidance_bound,
    density_floor_sweep,
    harmonic_gap,
    headline_bounds,
    prime_sum_bounds,
    sample_count,
    verify_harmonic_gap,
    verify_pi_bounds,
    verify_pi_bounds_range,
    verify_recip_bounds_all,
    verify_recip_sq_upper_all,
    window_density_lower_bound,
)
from .exact import (
    ENUMERATION_BOUND,
    EnumerationCapacityError,
    ForbiddenSet,
    PrimeWindow,
    WindowHitStats,
    avoid_proportion,
    coprime_order_density,
    cycle_proportion,
    pre_cycle_density,
    pre_prime_cycle_proportion,
    prime_window,
    window_hit_proportions,
    window_proportion,
)
from .montecarlo import (
    Avoids,
    Estimate,
    InT,
    InU,
    PreCycleInWindow,
    estimate_event,
    exact_event_proportion,
    wilson_interval,
)
from .perm import (
    CycleType,
    Permutation,
    cycle_type,
    extract_cycle_power,
    format_cycles,
    format_one_line,
    identity,
    parse_cycles,
    parse_one_line,
    parse_permutation,
    pre_cycle_targets,
    sample_uniform,
)
from .primes import (
    PrimeTable,
    build_sieve,
    sum_recip,
    sum_recip_exact,
    sum_recip_sq,
    sum_recip_sq_exact,
)
from .recognize import (
    ElementSource,
    ListSource,
    RecognitionOutcome,
    ReplaySource,
    SourceError,
    UniformSource,
    load_element_list,
    run_recognizer,
    save_element_list,
)

__version__ = "0.1.0"
