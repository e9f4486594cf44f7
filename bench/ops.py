"""Per-operation timings on fixed operands, matching the baseline table
of the roadmap.  Each figure is the median over several repeats of the
mean time of one operation, in microseconds, measured without tracing.
"""

from __future__ import annotations

import statistics
import timeit

REPEATS = 7
TARGET_S = 0.02  # length of one repeat


def _time_us(fn) -> float:
    timer = timeit.Timer(fn)
    per_call = timer.timeit(10) / 10
    number = max(1, int(TARGET_S / per_call))
    return statistics.median(timer.repeat(REPEATS, number)) / number * 1e6


def _operands():
    from displacement import hnn, matrices, plmaps, wreath
    from displacement.perms import Permutation, symmetric_group

    p = Permutation.from_cycles(9, [(1, 5, 9, 2), (3, 7), (4, 8, 6)])
    q = Permutation.from_cycles(9, [(1, 2, 3, 4, 5, 6, 7, 8, 9)])

    s3 = symmetric_group(3)
    tower = wreath.TowerSpec(s3, ("prefix", (2, 2)))
    ctx1, ctx2 = tower.context(1), tower.context(2)
    a, b = s3.generators
    low = wreath.WreathElement(ctx1, 1, [(0, a), (1, b)])
    w1 = wreath.WreathElement(ctx2, 1, [(0, low), (1, low.inverse())])
    w2 = wreath.WreathElement(ctx2, 0, [(0, low * low), (1, low)])

    # integer entries, as the suites' random invertible matrices have
    m1 = matrices.RationalMatrix([[2, 1, 0, -1], [1, 1, 3, 0], [0, -2, 1, 1], [1, 0, 1, 2]])
    m2 = matrices.RationalMatrix([[1, -1, 2, 0], [0, 3, 1, 1], [2, 0, -1, 1], [1, 1, 0, -2]])

    # the two dissipators adjoined by the depth-3 tower
    _, (t2, t3), _ = plmaps.tower_gamma(3)

    pres = hnn.binate_presentation(s3)
    e = pres.identity_code
    u = (7, (("d", 1, 13), ("d", 1, 29)))
    v = (31, (("d", -1, 5), ("d", 1, e)))
    word = (3, (("d", 1, 14), ("d", -1, 22), ("d", 1, 8)))
    return {
        "op.perm_mul_deg9.us": lambda: p * q,
        "op.wreath_mul_level2.us": lambda: w1 * w2,
        "op.matrix_mul_4x4.us": lambda: m1 * m2,
        "op.matrix_inv_4x4.us": lambda: m1.inverse(),
        "op.pl_compose_depth3.us": lambda: plmaps.pl_compose(t2, t3),
        "op.word_mul.us": lambda: hnn.word_mul(pres, u, v),
        "op.normal_form.us": lambda: hnn.normal_form(pres, word),
    }


def time_operations() -> dict:
    return {name: _time_us(fn) for name, fn in _operands().items()}
