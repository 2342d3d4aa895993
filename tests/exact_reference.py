"""Window statistics with one avoidance recurrence per prime subset.

A reference for the shared-prefix walk in ``precycles.exact``: every
subset S reruns the recurrence from index 0 on its own scale m!, with
one subtraction per forbidden length, and its term is scaled back by
the number of ways to place one p-cycle for each p in S.
"""
import math
from fractions import Fraction


def avoidance_count(m, forbidden, signed):
    """m! q_m for the S_m proportion q_m with no cycle length in
    ``forbidden``, or the signed companion (even minus odd classes)."""
    lengths = sorted(k for k in forbidden if k <= m)
    a = [math.factorial(m)]
    run = 0
    for j in range(1, m + 1):
        run = a[-1] - run if signed else a[-1] + run
        total = run
        for k in lengths:
            if k > j:
                break
            total -= -a[j - k] if signed and k % 2 == 0 else a[j - k]
        a.append(total // j)
    return a[m]


def in_group(m, forbidden, group, parity=1):
    """m! times the proportion in S_m or, counting even classes twice,
    in A_m, with ``parity`` the sign of cycles placed elsewhere."""
    count = avoidance_count(m, forbidden, False)
    if group == "alt":
        count += parity * avoidance_count(m, forbidden, True)
    return count


def prime_subsets(n, primes):
    """(S, m, ways) for each nonempty subset S of the ascending
    ``primes`` with sum(S) <= n: m = n - sum(S) and ways = n! / (m! *
    prod(S)) placements of one p-cycle for each p in S."""
    def walk(start, chosen, m, ways):
        for i in range(start, len(primes)):
            p = primes[i]
            if p > m:
                return
            w = ways * (math.perm(m, p) // p)
            yield chosen + (p,), m - p, w
            yield from walk(i + 1, chosen + (p,), m - p, w)

    return walk(0, (), n, 1)


def _multiples(chosen, m):
    return {k for p in chosen for k in range(p, m + 1, p)}


def _parity(chosen):
    return -1 if 2 in chosen else 1


def window_proportion(n, primes, group):
    """Inclusion-exclusion over subsets S of the classes that are pre-p
    for every p in S."""
    total = 0
    for chosen, m, ways in prime_subsets(n, primes):
        term = ways * in_group(m, _multiples(chosen, m), group, _parity(chosen))
        total += term if len(chosen) % 2 else -term
    return Fraction(total, math.factorial(n))


def window_hit_proportions(n, primes, group):
    """(hit, repeat): hit is 1 minus the avoidance of the primes, and
    hit - repeat the disjoint sum over the set S of primes that occur."""
    nf = math.factorial(n)
    hit = 1 - Fraction(in_group(n, primes, group), nf)
    single = 0
    for chosen, m, ways in prime_subsets(n, primes):
        forbidden = _multiples(chosen, m) | (set(primes) - set(chosen))
        single += ways * in_group(m, forbidden, group, _parity(chosen))
    return hit, hit - Fraction(single, nf)
