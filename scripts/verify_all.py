#!/usr/bin/env python3
"""Run the full certified verification battery and print a report.

This drives the same sweeps the acceptance criteria use, at a scale
chosen on the command line, so a larger machine can push the limits
past the defaults.
"""
import argparse
import sys
import time
from fractions import Fraction

from precycles import bounds, primes


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--sieve-limit", type=int, default=1_000_000)
    ap.add_argument("--grid-max", type=int, default=2000)
    ap.add_argument("--floor-max", type=int, default=400_000)
    ap.add_argument("--harmonic-max", type=int, default=1_000_000)
    args = ap.parse_args()

    t0 = time.perf_counter()
    table = primes.build_sieve(args.sieve_limit)
    print(f"sieve to {args.sieve_limit} in {time.perf_counter() - t0:.2f}s, "
          f"pi = {table.pi(args.sieve_limit)}")

    failures = 0
    sweeps = [
        ("prime counting bounds",
         lambda: bounds.verify_pi_bounds_range(table, 11, args.sieve_limit)),
        ("square reciprocal sum upper bound",
         lambda: bounds.verify_recip_sq_upper_all(table, 12, args.grid_max)),
        ("reciprocal sum bracket",
         lambda: bounds.verify_recip_bounds_all(table, 2, args.grid_max)),
        ("harmonic gap",
         lambda: bounds.verify_harmonic_gap(args.harmonic_max)),
    ]
    for label, run in sweeps:
        t0 = time.perf_counter()
        rep = run()
        status = "ok" if rep.holds else "FAILED"
        print(f"{label}: {status} ({rep.checked} checks, min margin "
              f"{rep.min_margin:.3e} at {rep.argmin}, "
              f"{rep.escalations} escalations, "
              f"{time.perf_counter() - t0:.2f}s)")
        failures += 0 if rep.holds else 1

    t0 = time.perf_counter()
    sweep = bounds.density_floor_sweep(table, args.floor_max,
                                       Fraction(1, 19))
    status = "ok" if sweep.holds_from_11 else "FAILED"
    print(f"density floor vs 1/19: {status} (min {sweep.min_value:.5f} at "
          f"n = {sweep.argmin_n}, {sweep.below_count} degrees below, "
          f"{time.perf_counter() - t0:.2f}s)")
    failures += 0 if sweep.holds_from_11 else 1

    print("all sweeps passed" if failures == 0
          else f"{failures} sweep(s) FAILED")
    return 0 if failures == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
