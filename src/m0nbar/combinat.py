"""Exact integer combinatorics: factorials and multinomial coefficients.

Everything runs on Python's arbitrary-precision integers; no value is ever
rounded or truncated.  ``factorial`` is ``math.factorial``, re-exported: it
raises ValueError on a negative argument itself.
"""

import math
from collections.abc import Iterable

from .errors import PartsMismatch

factorial = math.factorial


def multinomial(top: int, parts: Iterable[int]) -> int:
    """Return the multinomial coefficient top! / prod(part!).

    Two parts are one ``math.comb``.  More are top! / largest! by
    ``math.perm``, divided exactly by the product of the other parts'
    factorials, skipping parts of 0 and 1, so a large part and any number
    of 1s cost one C-level product.  The parts must be non-negative and
    sum to ``top``; otherwise PartsMismatch is raised.
    """
    parts = sorted(parts)
    if top < 0 or parts and parts[0] < 0:
        raise ValueError("multinomial arguments must be non-negative")
    if sum(parts) != top:
        raise PartsMismatch(f"parts sum to {sum(parts)}, expected {top}")
    if len(parts) < 3:
        # at most two parts, as at every edge: math.comb is faster on large balanced ones
        return math.comb(top, parts[0]) if parts else 1
    out = math.perm(top, top - parts.pop())
    denominator = 1
    for p in parts:
        if p > 1:
            denominator *= math.factorial(p)
    return out // denominator
