"""Every cycle type of S_n with its class size, for tests that sum a
statistic over all classes instead of asking the library for it."""
from collections import Counter
from math import factorial


def _partitions(n, largest):
    """Partitions of n into parts <= largest, each a descending tuple."""
    if n == 0:
        yield ()
        return
    for k in range(min(n, largest), 0, -1):
        for rest in _partitions(n - k, k):
            yield (k,) + rest


def cycle_types(n):
    """Yield (parts, size) for every cycle type of S_n: parts are the
    cycle lengths in ascending order (fixed points included), and size
    = n! / prod k**m * m! counts the permutations of that type."""
    for parts in _partitions(n, n):
        size = factorial(n)
        for k, m in Counter(parts).items():
            size //= k**m * factorial(m)
        yield parts[::-1], size
