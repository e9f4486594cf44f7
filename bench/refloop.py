"""The fixed reference loop that defines the unit ``ref``.

``wall_norm`` divides each check's wall time by the time this loop
takes on the same host, on the same CPU, at the same moment, so that
swings in host CPU throughput cancel out of the quotient.  One loop
takes about 2 ms on a current x86 core; it is short so that it can be
timed often while a check runs.  The loop uses only the standard
library and the same kinds of work the verifier does: ``Fraction``
arithmetic, tuple hashing and dict updates.

Never edit this file: changing the loop redefines the unit and makes
every earlier ``wall_norm`` figure incomparable.
"""

from __future__ import annotations

import time
from fractions import Fraction

ROUNDS = 150


def reference_loop() -> int:
    """One unit of reference work; returns a checksum so the work is
    consumed."""
    table: dict = {}
    x = Fraction(1, 3)
    for i in range(ROUNDS):
        f = Fraction(i % 13 + 1, i % 11 + 2)
        x = (x * f + Fraction(1, i % 7 + 2)) / (f + 1)
        key = (i % 17, x.numerator % 101, x.denominator % 103, (i, i % 5))
        table[key] = table.get(key, 0) + 1
        if x.denominator > 10**6:
            x = Fraction(x.numerator % 97 + 1, x.denominator % 89 + 1)
    return len(table) + sum(table.values())


def time_reference() -> float:
    """Wall time of one reference loop, in seconds."""
    start = time.perf_counter()
    reference_loop()
    return time.perf_counter() - start
