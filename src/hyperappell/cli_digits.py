"""The int-to-str digit limit on the output of `gen`, `matrices`, `eval` and `exp`.

Each check refuses, before the first byte, output holding a number that
CPython would refuse to convert to text.
"""

from __future__ import annotations

import math
import sys
from itertools import accumulate


def check_digits(column, coeffs) -> None:
    """Refuse, before the first byte, output with a number past CPython's int-to-str digit limit.

    `gen` prints c_j and each a = C(k, l) t_(k-l) C(l, j) c_j; the entries
    of `matrices` are the a of c = (1, 0, ..., 0).  As (k-l) + j <= m,
    |num a| <= C(m, k-l) |num t_(k-l)| times the largest C(m, i) |num c_i|
    with i <= m-k+l, and den a <= max den t * max den c; as t_0 = 1, that
    covers each c_j too.  O(m) integer work.
    """
    if not column:  # an empty column (m < 0) is refused later
        return
    m = len(column) - 1
    best = list(accumulate((math.comb(m, i) * abs(c.numerator) for i, c in enumerate(coeffs)), max))
    num = max(math.comb(m, d) * abs(t.numerator) * best[m - d] for d, t in enumerate(column))
    check_bound(max(num, max(t.denominator for t in column) * max(c.denominator for c in coeffs)))


def check_bound(bound: int) -> None:
    """Refuse, before the first byte, output whose numbers may reach `bound` past the limit."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()  # CPython < 3.10.7 has none
    if limit and bound >= 10**limit:  # 0 is no limit
        raise ValueError(
            f"the output would hold numbers of about {int(math.log10(bound)) + 1} digits,"
            f" more than the limit of {limit} digits for int to str conversion"
        )


def check_values(values) -> None:
    """Refuse, before the first byte, `eval` or `exp` values (term lists) past the digit limit."""
    parts = (c for terms in values for _, c in terms)
    check_bound(max((max(abs(c.numerator), c.denominator) for c in parts), default=0))
