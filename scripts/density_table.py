#!/usr/bin/env python3
"""Tabulate exact pre-prime-cycle proportions against the floors.

For each degree the table shows the exact proportion in the symmetric
and alternating groups, the large-prime reciprocal floor, and the two
closed-form lower bounds (which stay negative until far beyond any
enumerable degree).
"""
import argparse
import csv
import sys
from fractions import Fraction

from precycles import bounds, exact, primes


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--lo", type=int, default=5)
    ap.add_argument("--hi", type=int, default=50)
    ap.add_argument("--csv", type=str, default=None,
                    help="also write rows to this file")
    args = ap.parse_args()
    if not 5 <= args.lo <= args.hi <= exact.ENUMERATION_BOUND:
        ap.error(f"need 5 <= lo <= hi <= {exact.ENUMERATION_BOUND}")

    table = primes.build_sieve(max(args.hi, 100))
    floor_sum = primes.RecipSumWalk(table)
    rows = []
    for n in range(args.lo, args.hi + 1):
        rho_s = exact.pre_prime_cycle_proportion(n, "sym")
        rho_a = exact.pre_prime_cycle_proportion(n, "alt")
        floor = floor_sum(n // 2, n - 3)
        if n >= 16:
            hb = bounds.headline_bounds(n, 1)
            simple, refined = hb.simple, hb.refined
        else:
            simple = refined = float("nan")
        rows.append((n, rho_s, rho_a, floor, simple, refined))

    print(f"{'n':>4} {'sym':>10} {'alt':>10} {'floor':>10} "
          f"{'simple':>9} {'refined':>9}")
    third = Fraction(1, 3)
    for n, rho_s, rho_a, floor, simple, refined in rows:
        mark = " " if rho_s > third else "*"
        print(f"{n:>4} {float(rho_s):>10.6f} {float(rho_a):>10.6f} "
              f"{float(floor):>10.6f} {simple:>9.3f} {refined:>9.3f} {mark}")
    below = [n for n, rho_s, *_ in rows if rho_s <= third]
    print(f"degrees at or below 1/3 (marked *): {below if below else 'none'}")

    if args.csv:
        with open(args.csv, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["n", "sym", "alt", "floor", "simple", "refined"])
            for n, rho_s, rho_a, floor, simple, refined in rows:
                writer.writerow([n, f"{rho_s.numerator}/{rho_s.denominator}",
                                 f"{rho_a.numerator}/{rho_a.denominator}",
                                 f"{floor.numerator}/{floor.denominator}",
                                 simple, refined])
        print(f"wrote {args.csv}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
