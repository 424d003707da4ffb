"""Host-speed calibration.

The benchmark runs on shared CPUs whose speed drifts by up to a factor of
two within a minute, for the same op and the same process. Every timed
interval is therefore measured next to a fixed calibration kernel that does
not touch hypermat, and scaled by ``REFERENCE_S`` over the kernel's
duration: the times read as seconds on a machine where the kernel takes
``REFERENCE_S``. The raw wall times are reported beside them.
"""

from __future__ import annotations

import itertools
import time
from fractions import Fraction

# median kernel time on a 2.1 GHz Xeon (Sapphire Rapids, KVM guest)
REFERENCE_S = 0.012

_PERMS = tuple(itertools.permutations(range(3)))
_TABLE = {key: Fraction(sum(key) - 4, len(set(key)) + 1)
          for key in itertools.combinations_with_replacement(range(3), 4)}


def kernel_s() -> float:
    """Wall time of one pass of the kernel: a product-of-entries sum over
    4-tuples of permutations with sorted-key lookups and exact rationals,
    the same kind of work as the signed-permutation sums."""
    start = time.perf_counter()
    total = Fraction(0)
    for combo in itertools.product(_PERMS, repeat=4):
        term = Fraction(1)
        for t in range(3):
            term *= _TABLE[tuple(sorted(p[t] for p in combo))]
        total += term
    return time.perf_counter() - start


def factor(samples) -> float:
    """Scale for intervals measured next to these kernel samples."""
    return REFERENCE_S / (sum(samples) / len(samples))
