"""Named verification suites and the scenario check registry.

A check is a named, parameterized computation that returns a
PropertyReport: a verdict ("pass", "bounded-pass", "fail", "some",
"none" or "not-applicable") plus human-readable detail lines.  Suites
are predefined scenarios: a list of checks with expected verdicts.  A
suite run succeeds when every check's verdict matches its expectation,
so expected-fail refutations count as success.
"""

from __future__ import annotations

import inspect
import random
import zlib
from fractions import Fraction
from typing import Callable, Dict, List, Optional

from . import checkers, hnn, matrices, plmaps, wreath
from .core import (
    DEFAULT_BUDGET,
    BudgetExceededError,
    FgSubgroup,
    PropertyReport,
    commutes,
    conj,
    element_order,
)
from .perms import symmetric_group
from .serialize import ScenarioError, to_jsonable

DEFAULT_BOUNDS = {"budget": DEFAULT_BUDGET, "radius": 3}

# scenario type name -> runner taking (bounds, rng, **params).  run_checks
# looks runners up here at call time.
CHECK_TYPES: Dict[str, Callable[..., PropertyReport]] = {}
# scenario type name -> param -> its default, or inspect.Parameter.empty
# for a required one: the runner's keyword-only arguments, read once
PARAMS: Dict[str, Dict[str, object]] = {}
DEFAULT_EXPECT: Dict[str, str] = {}
# scenario type name -> completed params -> what makes them meaningless, or None
MEANING: Dict[str, Callable[[dict], Optional[str]]] = {}


def check_type(
    name: str,
    expect: str = "pass",
    meaning: Optional[Callable[[dict], Optional[str]]] = None,
):
    """Register a runner under its scenario type name, together with the
    verdict a check of that type is expected to reach by default and,
    with ``meaning``, a test of its params that ``run_checks`` applies
    before any check runs."""

    def register(fn):
        CHECK_TYPES[name] = fn
        arguments = inspect.signature(fn).parameters.values()
        PARAMS[name] = {a.name: a.default for a in arguments if a.kind is a.KEYWORD_ONLY}
        DEFAULT_EXPECT[name] = expect
        if meaning is not None:
            MEANING[name] = meaning
        return fn

    return register


def _merge(reports, note: Optional[str] = None) -> PropertyReport:
    """Combine sub-reports: fail dominates, then bounded-pass.  ``note``
    closes the detail of a combined report that does not fail."""
    detail: List[str] = []
    verdict = "pass"
    for rep in reports:
        detail.extend(rep.checks)
        if rep.verdict == "fail":
            return PropertyReport("fail", tuple(detail), rep.counterexample)
        if rep.verdict == "bounded-pass":
            verdict = "bounded-pass"
    if note is not None:
        detail.append(note)
    return PropertyReport(verdict, tuple(detail))


def _symmetric_base(degree: int, limit: int, over: str) -> FgSubgroup:
    """Sym(degree) for a base group that may have at most ``limit``
    elements.  A larger one raises BudgetExceededError(f"{over} budget
    {limit}") before any permutation is built: the product 2 * 3 * ...
    stops as soon as it passes the limit."""
    order = 1
    for k in range(2, degree + 1):
        order *= k
        if order > limit:
            raise BudgetExceededError(f"{over} budget {limit}")
    return symmetric_group(degree)


def _degree_within(degree: int, budget: int) -> None:
    """Refuse permutations of more than ``budget`` points before any is built."""
    if degree > budget:
        raise BudgetExceededError(f"permutation degree {degree} exceeds budget {budget}")


def _tower(base: FgSubgroup, orders) -> wreath.TowerSpec:
    return wreath.TowerSpec(base, ("prefix", tuple(orders)))


def _level_in_orders(params) -> Optional[str]:
    level, orders = params["level"], params["orders"]
    if level > len(orders):
        return f"level {level} needs {level} orders, got {len(orders)}"
    return None


def _p_divides_top_order(params) -> Optional[str]:
    problem = _level_in_orders(params)
    if problem is None:
        level, p = params["level"], params["p"]
        n = params["orders"][level - 1]
        if n % p:
            return f"p = {p} does not divide n_{level} = {n}"
    return problem


def _depth_within_tower(params) -> Optional[str]:
    depth = params["depth"]
    if depth > plmaps.MAX_TOWER_DEPTH:
        return f"depth {depth} exceeds the deepest tower, {plmaps.MAX_TOWER_DEPTH}"
    return None


def _letters_within_tree(params) -> Optional[str]:
    letters, most = params["max_letters"], hnn.MAX_TREE_RADIUS
    if letters > most:
        return f"max_letters {letters} exceeds the tree radius budget, {most}"
    return None


# -- check implementations ----------------------------------------------


@check_type("wreath-zn-witness", meaning=_p_divides_top_order)
def run_wreath_zn_witness(bounds, rng, *, orders, level, p, degree=3) -> PropertyReport:
    _degree_within(degree, bounds["budget"])
    tower = _tower(symmetric_group(degree), orders)
    return checkers.verify_certificate(wreath.zn_witness(tower, tower.base, level, p))


@check_type("wreath-brute-search", expect="none", meaning=_level_in_orders)
def run_wreath_brute_search(bounds, rng, *, orders, level, p, degree=3) -> PropertyReport:
    # a level holds at least as many elements as its base group
    base = _symmetric_base(degree, bounds["budget"], f"level {level} order exceeds")
    tower = _tower(base, orders)
    H = wreath.embed_subgroup(tower.base, tower, level)
    size = wreath.level_order(tower, level, bounds["budget"])
    t = wreath.brute_search_zp_witness(tower, level, H, p, bounds["budget"])
    if t is None:
        through = ""
        if wreath.base_normalizes(tower, level, H):
            orbits = len(wreath.base_conjugacy_representatives(tower, bounds["budget"]))
            through = f" through {orbits} base-group conjugacy orbits"
        line = f"exhausted all {size} elements{through}, no witness"
        return PropertyReport("none", (line,))
    return PropertyReport("some", (f"witness found among {size} elements",), t)


@check_type("wreath-torsion-exhaustive", meaning=_level_in_orders)
def run_wreath_torsion_exhaustive(bounds, rng, *, orders, level, degree=3) -> PropertyReport:
    # a level holds at least as many elements as its base group
    base = _symmetric_base(degree, bounds["budget"], f"level {level} order exceeds")
    tower = _tower(base, orders)
    H = wreath.embed_subgroup(tower.base, tower, level)
    size = wreath.level_order(tower, level, bounds["budget"])
    count = 0
    for t in wreath.search_candidates(tower, level, H, bounds["budget"]):
        order = element_order(t)
        rep = checkers.check_czc(H, t, order)
        if rep.ok:
            return PropertyReport.failing(
                f"t of order {order} passes the Z-conjugate conditions", t
            )
        count += 1
    line = f"all {size} elements fail the Z-conjugate conditions at p <= ord(t)"
    if wreath.base_normalizes(tower, level, H):
        line += f", checked on {count} base-group conjugacy orbits"
    return PropertyReport.passing([line])


# the memory a sym-zn-witness check holds at its peak, counted in
# permutations of degree * n points built from fresh ints (36 bytes a
# point: an 8-byte slot and a 28-byte int).  The peak, about 5.5 of them,
# comes while Permutation() checks the second extended generator of
# Sym(degree): the context's identity images, t (a list and a tuple of the
# same ints), the two generators, and that check's sorted copy and
# range(degree * n).  Powering t and comparing t^n with a generator hold
# less, since products share t's ints.  A context is freed with the last
# permutation of its degree, so checks do not add up.
SYM_ZN_HELD = 6


@check_type("sym-zn-witness")
def run_sym_zn_witness(bounds, rng, *, n, degree=3) -> PropertyReport:
    budget = bounds["budget"]
    if SYM_ZN_HELD * degree * n > budget:
        raise BudgetExceededError(
            f"{SYM_ZN_HELD} permutations of degree {degree * n} exceed budget {budget}"
        )
    return checkers.verify_certificate(wreath.sym_zn_witness(symmetric_group(degree), n))


def _random_unitriangular(rng, n: int, upper: bool) -> List[List[int]]:
    m = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(n):
            if (j > i) if upper else (j < i):
                m[i][j] = rng.randint(-3, 3)
    return m


def _random_invertible(rng, n: int) -> matrices.RationalMatrix:
    """L*D*U with unit triangles and invertible diagonal: always in GL_n."""
    low = _random_unitriangular(rng, n, upper=False)
    up = _random_unitriangular(rng, n, upper=True)
    diag = [rng.choice([1, -1, 2, -2, 3]) for _ in range(n)]
    prod = [
        tuple([sum(low[i][k] * diag[k] * up[k][j] for k in range(n)) for j in range(n)])
        for i in range(n)
    ]
    return matrices.RationalMatrix._trusted(tuple(prod))


def _mul2(a, b):
    return [
        [sum(a[i][k] * b[k][j] for k in range(2)) for j in range(2)] for i in range(2)
    ]


@check_type("gl-block-identity")
def run_gl_block_identity(bounds, rng, *, samples=200) -> PropertyReport:
    """Oracle for 2x2-block conjugation inside GL_4, in integers: with
    X = Xn / xd and g = gn / gd, X^-1 = xd adj(Xn) / det(Xn), and
    [[XAX^-1, XB], [CX^-1, D]] is one integer grid over gd xd det(Xn),
    assembled blockwise and compared exactly with the kernel's result."""
    for i in range(samples):
        X = _random_invertible(rng, 2)
        g = _random_invertible(rng, 4)
        got = matrices.block_conjugate(X, g)
        gn, gd = g._padded_num(4), g.den
        Xn, xd = X._padded_num(2), X.den
        # X^-1 from the adjugate, independent of the kernel's inverse
        (a, b), (c, d) = Xn
        det = a * d - b * c
        adj = [[d, -b], [-c, a]]
        A = [row[:2] for row in gn[:2]]
        B = [row[2:] for row in gn[:2]]
        C = [row[:2] for row in gn[2:]]
        D = [row[2:] for row in gn[2:]]
        XAXi = _mul2(_mul2(Xn, A), adj)
        XB = _mul2(Xn, B)
        CXi = _mul2(C, adj)
        top = [[xd * x for x in XAXi[r]] + [det * x for x in XB[r]] for r in range(2)]
        bottom = [
            [xd * xd * x for x in CXi[r]] + [xd * det * x for x in D[r]] for r in range(2)
        ]
        grid = tuple([tuple(row) for row in top + bottom])
        expected = matrices.RationalMatrix._trusted(grid, gd * xd * det)
        if got != expected:
            return PropertyReport.failing(f"mismatch at sample {i}", (X, g))
    return PropertyReport.passing([f"{samples} random block conjugations match the oracle"])


@check_type("gl-centralizer")
def run_gl_centralizer(bounds, rng) -> PropertyReport:
    tests = [
        matrices.RationalMatrix([[-1, 0], [0, 1]]),
        matrices.RationalMatrix([[1, 0], [0, -1]]),
        matrices.RationalMatrix([[1, 0], [1, 1]]),
    ]
    space = matrices.centralizer_space(tests, ambient=4)
    detail = [f"centralizer dimension {space.dim} in M_4"]
    if space.dim != 5:
        return PropertyReport.failing("expected dimension 5", checks=detail)
    for M in matrices.matrices_of(space, 4):
        scalar_block = (
            M[0][0] == M[1][1]
            and M[0][1] == 0
            and M[1][0] == 0
        )
        off_blocks_zero = all(
            M[i][j] == 0 and M[j][i] == 0 for i in range(2) for j in range(2, 4)
        )
        if not (scalar_block and off_blocks_zero):
            return PropertyReport.failing(
                "basis element not of shape aI_2 (+) D", checks=detail
            )
    detail.append("every basis element has the aI_2 (+) D block shape")
    full = matrices.centralizer_space(matrices.gl2z_generators().generators, ambient=2)
    detail.append(f"full generator set centralizer has dimension {full.dim} (scalars)")
    return PropertyReport("pass" if full.dim == 1 else "fail", tuple(detail))


@check_type("gl-z2")
def run_gl_z2(bounds, rng) -> PropertyReport:
    H = matrices.gl2z_generators()
    cert = matrices.gl_block_swap_witness(H)
    rep = checkers.verify_certificate(cert)
    if not rep.ok:
        return rep
    if checkers.check_czc(H, cert.payload["t"], 2).ok:
        return PropertyReport.failing("Z-conjugate conditions unexpectedly hold at p = 2")
    detail = list(rep.checks)
    detail.append("Z-conjugate conditions fail at p = 2 (t^2 = 1), as they must")
    return PropertyReport.passing(detail)


def _pl_letters(gens) -> list:
    """The generators followed by their inverses: the letters that
    ``_random_pl_word`` draws from, built once per check."""
    return list(gens) + [g.inverse() for g in gens]


def _random_pl_word(rng, letters, max_len: int):
    w = plmaps.PLContext().identity
    for _ in range(rng.randint(1, max_len)):
        w = w * rng.choice(letters)
    return w


@check_type("pl-tower", expect="bounded-pass", meaning=_depth_within_tower)
def run_pl_tower(
    bounds, rng, *, depth=3, samples=200, displace_p_max=50, czc_p_max=10
) -> PropertyReport:
    gens, dissipators, intervals = plmaps.tower_gamma(depth)
    detail = [f"tower of depth {depth} built with {len(gens)} generators"]
    reports = []
    for i in range(1, depth):
        t = dissipators[i - 1]
        I = plmaps.IntervalSet([intervals[i - 1]])
        reports.append(plmaps.displaces(t, I, displace_p_max))
        level = FgSubgroup(f"Gamma_{i}", gens[: i + 1])
        reports.append(checkers.check_czc(level, t, czc_p_max))
    merged = _merge(reports)
    if merged.verdict == "fail":
        return merged
    detail.extend(merged.checks)
    level_sets = [plmaps.IntervalSet([iv]) for iv in intervals]
    letters = _pl_letters(gens)
    for k in range(samples):
        g = _random_pl_word(rng, letters, 8)
        sup = plmaps.pl_support(g)
        for (l0, r0), (l1, r1) in zip(sup.ends, sup.ends[1:]):
            if r0 > l1:
                return PropertyReport.failing(f"support not disjoint for sample {k}", g)
        for I in level_sets[:-1]:
            gi = I.image(g)
            if not (gi.is_disjoint_from(I) or gi == I):
                return PropertyReport.failing(
                    f"conjugacy dichotomy fails at sample {k}", (g, I)
                )
    detail.append(
        f"{samples} sampled words: supports are finite disjoint interval sets"
    )
    detail.append(
        f"{samples} sampled words: g(I_i) is disjoint from I_i or equal to it"
    )
    return PropertyReport(merged.verdict, tuple(detail))


@check_type("pl-fixed-point")
def run_pl_fixed_point(bounds, rng, *, samples=50) -> PropertyReport:
    h = plmaps.unique_fixed_point_element()
    half = Fraction(1, 2)
    detail = []
    if h(half) != half:
        return PropertyReport.failing("h does not fix 1/2")
    sup = plmaps.pl_support(h)
    if sup != plmaps.IntervalSet([(0, half), (half, 1)]):
        return PropertyReport.failing(f"support is {sup!r}, not (0,1/2) u (1/2,1)")
    detail.append("h fixes 1/2 and moves every other point of (0, 1)")
    if not plmaps.in_standard_f_copy(h):
        return PropertyReport.failing("h is not in the standard copy on (0, 1)")
    detail.append("h lies in the standard copy on (0, 1)")
    top = samples // 3 + 1
    for u in (h, h.inverse()):
        power = u
        for k in range(top):
            if k:
                power = power * u
            if power(half) != half:
                return PropertyReport.failing("a power of h moves 1/2", power)
    detail.append(
        f"{2 * top} centralizing elements (h^k and h^-k, k = 1..{top}) fix 1/2 exactly"
    )
    moved = 0
    letters = _pl_letters(plmaps.thompson_generators())
    for k in range(samples):
        u = _random_pl_word(rng, letters, 6)
        if u(half) != half:
            moved += 1
            if commutes(u, h):
                return PropertyReport.failing(
                    f"element moving 1/2 centralizes h (sample {k})", u
                )
    detail.append(
        f"{moved} sampled elements moving 1/2 all fail to centralize h"
    )
    return PropertyReport.passing(detail)


def _random_britton_word(rng, pres, signed, max_letters: int):
    """Each letter (x, sign, b) is uniform over the signed stable letters
    times the base codes: one draw q gives signed[q // size] and q % size."""
    size = pres.size
    m = rng.randint(0, max_letters)
    letters = []
    for _ in range(m):
        q = rng.randrange(len(signed) * size)
        x, sign = signed[q // size]
        letters.append((x, sign, q % size))
    return (rng.randrange(size), tuple(letters))


@check_type("britton-engine")
def run_britton_engine(bounds, rng, *, degree=3, samples=500) -> PropertyReport:
    base = _symmetric_base(degree, hnn.MAX_BASE_ORDER, "base group larger than")
    detail = []
    b_pres = hnn.binate_presentation(base)
    m_pres = hnn.mitosis_presentation(base)
    e = base.context.identity
    d, s = b_pres.stable_letter("d"), m_pres.stable_letter("s")
    # defining relations, exhaustively over the base group
    for g in b_pres.group_elems:
        diagonal = b_pres.base_element(g, g)
        if conj(d, b_pres.base_element(e, g)) != diagonal:
            return PropertyReport.failing("d (1,g) d^-1 != (g,g)", g)
        if d.inverse() * diagonal * d != b_pres.base_element(e, g):
            return PropertyReport.failing("d^-1 (g,g) d != (1,g)", g)
        if conj(s, m_pres.base_element(g, e)) != m_pres.base_element(e, g):
            return PropertyReport.failing("s (g,1) s^-1 != (1,g)", g)
    detail.append(
        f"defining rewrites verified for all {len(b_pres.group_elems)} base elements"
    )
    # Britton's lemma: reduced one-letter words are never the identity
    count = 0
    for pres in (b_pres, m_pres):
        for word in hnn.iter_reduced_words(pres, 1):
            if hnn.stable_letter_count(word) != 1:
                continue
            if hnn.is_identity(pres, word):
                return PropertyReport.failing("reduced 1-letter word is trivial", word)
            count += 1
    detail.append(f"all {count} reduced one-stable-letter words are nontrivial")
    # confluence under randomized pinch orders (reduced words: equal ones share a normal form)
    for pres in (b_pres, m_pres):
        signed = [(x, sign) for x in pres.letters for sign in (1, -1)]
        for k in range(samples):
            w = _random_britton_word(rng, pres, signed, 6)
            first = hnn.britton_reduce(pres, w)
            second = hnn.britton_reduce(pres, w, rng=rng)
            if first != second and (
                hnn.reduced_normal_form(pres, first) != hnn.reduced_normal_form(pres, second)
            ):
                return PropertyReport.failing(f"confluence breaks at sample {k}", w)
            quot = hnn.word_mul(pres, first, hnn.word_inv(pres, second))
            if quot != (pres.identity_code, ()):  # word_mul reduces: Britton's lemma
                return PropertyReport.failing(f"reductions differ in the group ({k})", w)
    detail.append(
        f"{samples} randomized-order reductions per presentation agree with the"
        " deterministic order"
    )
    return PropertyReport.passing(detail)


@check_type("bass-serre")
def run_bass_serre(bounds, rng, *, degree=3) -> PropertyReport:
    base = _symmetric_base(degree, hnn.MAX_BASE_ORDER, "base group larger than")
    radius = bounds["radius"]
    pres = hnn.binate_presentation(base)
    e = base.context.identity
    nontrivial = [g for g in pres.group_elems if not g.is_identity()]
    size = hnn.tree_ball_size(pres, radius)
    detail = [f"tree ball of radius {radius} has {size} vertices"]
    for g in nontrivial:
        fixed = hnn.fixed_vertices(pres, pres.encode(g, e), radius)
        if len(fixed) != 1 or fixed[0].distance != 0:
            return PropertyReport.failing(
                f"(g,1) fixes {len(fixed)} vertices within radius {radius}", g
            )
    detail.append(
        f"all {len(nontrivial)} nontrivial (g,1) fix exactly the base vertex"
    )
    for g in nontrivial:
        if len(hnn.fixed_vertices(pres, pres.encode(g, g), 1)) < 2:
            return PropertyReport.failing("diagonal element fixes fewer than 2 vertices", g)
    detail.append("every nontrivial (g,g) fixes at least 2 vertices at radius 1")
    # stabilizer structure at radius 1, exhaustively over the base group:
    # the descent and the word-algebra test must both agree with the
    # associated-subgroup membership of r^-1 g r
    sphere1 = hnn.tree_ball(pres, 1)[1:]
    for code in range(pres.size):
        fixed = {v.word for v in hnn.fixed_vertices(pres, code, 1)}
        for v in sphere1:
            r = v.word[0]
            sign = v.word[1][0][1]
            expected = pres._across["d"][sign][pres.mul(pres.mul(pres.inv(r), code), r)] != -1
            by_descent = v.word in fixed
            by_word_algebra = hnn.fixes_vertex(pres, (code, ()), v)
            if not expected == by_descent == by_word_algebra:
                return PropertyReport.failing(
                    "stabilizer mismatch at a radius-1 vertex", (v.word, code)
                )
    detail.append(
        "radius-1 stabilizers are exactly the expected conjugates of the"
        " associated subgroups"
    )
    return PropertyReport.passing(detail)


@check_type("cc-search-b1", expect="none", meaning=_letters_within_tree)
def run_cc_search_b1(bounds, rng, *, max_letters, degree=3) -> PropertyReport:
    base = _symmetric_base(degree, hnn.MAX_BASE_ORDER, "base group larger than")
    return hnn.cc_witness_search_b1(base, max_letters, bounds["budget"])


@check_type("mitosis")
def run_mitosis(bounds, rng, *, degree=3) -> PropertyReport:
    base = _symmetric_base(degree, hnn.MAX_BASE_ORDER, "base group larger than")
    minus, s, d = hnn.mitosis_data(base)
    mit = checkers.check_mitotic(minus, s, d * s)
    # binate data derived from the mitosis pair: f = conj(t1, .) and the
    # conjugator t2 * t1^-1, so that t f(h) t^-1 = t2 h t2^-1 = h * f(h)
    f = checkers.GeneratorMap(minus, minus.conjugate(s).generators)
    binate = checkers.check_binate(minus, f, d)
    return _merge(
        [mit, binate], "generic mitotic and binate checkers accept the instantiated data"
    )


@check_type("hall-sym")
def run_hall_sym(bounds, rng, *, degree=3, ns=(2, 3, 4)) -> PropertyReport:
    _degree_within(degree * max(ns), bounds["budget"])
    H = symmetric_group(degree)
    return _merge([checkers.verify_certificate(wreath.sym_zn_witness(H, n)) for n in ns])


SUITES: Dict[str, dict] = {}


def _register(name: str, summary: str, checks: List[dict]) -> None:
    SUITES[name] = {"name": name, "summary": summary, "checks": checks}


_register(
    "wreath-cznc",
    "constructive Z/2 witnesses in wreath towers over Sym(3)",
    [
        {
            "id": f"level-{i}",
            "type": "wreath-zn-witness",
            "params": {"degree": 3, "orders": [2, 2, 2, 2], "level": i, "p": 2},
        }
        for i in range(1, 5)
    ]
    + [
        {
            "id": "order-4-level-1",
            "type": "wreath-zn-witness",
            "params": {"degree": 3, "orders": [4], "level": 1, "p": 2},
        }
    ],
)

_register(
    "wreath-converse",
    "exhaustive search: Sym(3) wr Z/3 has no Z/2 witness for Sym(3)",
    [
        {
            "id": "no-z2-witness",
            "type": "wreath-brute-search",
            "params": {"degree": 3, "orders": [3], "level": 1, "p": 2},
            "expect": "none",
        },
        {
            "id": "z2-witness-exists",
            "type": "wreath-brute-search",
            "params": {"degree": 3, "orders": [2], "level": 1, "p": 2},
            "expect": "some",
        },
    ],
)

_register(
    "torsion-obstruction",
    "every element of Sym(3) wr Z/3 fails the Z-conjugate conditions",
    [
        {
            "id": "exhaustive-648",
            "type": "wreath-torsion-exhaustive",
            "params": {"degree": 3, "orders": [3], "level": 1},
        }
    ],
)

_register(
    "gl-block",
    "block conjugation formula against the full-matrix oracle",
    [
        {
            "id": "random-200",
            "type": "gl-block-identity",
            "params": {"samples": 200},
        }
    ],
)

_register(
    "gl-centralizer",
    "centralizer of the three test matrices in M_4 is aI_2 (+) D",
    [{"id": "dimension-and-shape", "type": "gl-centralizer", "params": {}}],
)

_register(
    "gl-z2",
    "block swap is a Z/2 witness for GL_2(Z) but no Z witness",
    [{"id": "swap-witness", "type": "gl-z2", "params": {}}],
)

_register(
    "pl-tower",
    "depth-3 PL tower: displacement, bounded Z-conjugates, sampled lemmas",
    [
        {
            "id": "depth-3",
            "type": "pl-tower",
            "params": {
                "depth": 3,
                "displace_p_max": 50,
                "czc_p_max": 10,
                "samples": 200,
            },
            "expect": "bounded-pass",
        }
    ],
)

_register(
    "pl-fixed-point",
    "element with unique interior fixed point 1/2; centralizers fix it",
    [{"id": "fixed-point-kernel", "type": "pl-fixed-point", "params": {"samples": 50}}],
)

_register(
    "britton",
    "rewriting engine: defining relations, Britton's lemma, confluence",
    [
        {
            "id": "engine",
            "type": "britton-engine",
            "params": {"degree": 3, "samples": 500},
        }
    ],
)

_register(
    "bass-serre",
    "fixed vertices in the tree: unique for (g,1), edge for (g,g)",
    [{"id": "fixed-vertices", "type": "bass-serre", "params": {"degree": 3}}],
)

_register(
    "binate-tower-no-cc",
    "bounded refutation: no 2-letter commuting-conjugates witness over Sym(3)",
    [
        {
            "id": "search",
            "type": "cc-search-b1",
            "params": {"degree": 3, "max_letters": 2},
            "expect": "none",
        }
    ],
)

_register(
    "mitosis",
    "mitosis data of m(Sym(3)) via normal forms",
    [{"id": "s-and-ds", "type": "mitosis", "params": {"degree": 3}}],
)

_register(
    "hall-sym",
    "Z/n witnesses for Sym(3) inside larger symmetric groups",
    [{"id": "n-2-3-4", "type": "hall-sym", "params": {"degree": 3, "ns": [2, 3, 4]}}],
)

_register(
    "all",
    "every named suite, in order",
    [
        dict(check, id=f"{name}/{check['id']}")
        for name, suite in SUITES.items()
        for check in suite["checks"]
    ],
)


def list_suites() -> str:
    lines = []
    for name in SUITES:
        lines.append(f"{name:20s} {SUITES[name]['summary']}")
    return "\n".join(lines) + "\n"


def _run_one(check: dict, params: dict, bounds: dict, seed: int) -> dict:
    ctype = check["type"]
    expect = check.get("expect", DEFAULT_EXPECT[ctype])
    rng = random.Random((seed << 32) ^ zlib.crc32(check["id"].encode()))
    rep = CHECK_TYPES[ctype](bounds, rng, **params)
    return {
        "id": check["id"],
        "type": ctype,
        "verdict": rep.verdict,
        "expected": expect,
        "ok": rep.verdict == expect,
        "detail": list(rep.checks),
        "counterexample": to_jsonable(rep.counterexample),
    }


def run_checks(checks: List[dict], bounds: dict, seed: int) -> dict:
    """Run a list of scenario checks in input order, once the params of
    every check are known to be complete and meaningful.  A check gets
    the params its runner declares, as given or else their defaults."""
    merged_bounds = dict(DEFAULT_BOUNDS)
    merged_bounds.update(bounds or {})
    completed = []
    for check in checks:
        ctype, given = check["type"], check.get("params", {})
        if ctype not in CHECK_TYPES:
            raise ScenarioError(f"check {check['id']!r} has unknown type {ctype!r}")
        params = {k: given.get(k, v) for k, v in PARAMS[ctype].items()}
        extra = [k for k in given if k not in params]
        if extra:
            names = ", ".join(extra)
            raise ScenarioError(f"check {check['id']!r}: type {ctype!r} does not take {names}")
        missing = [k for k, v in params.items() if v is inspect.Parameter.empty]
        if missing:
            raise ScenarioError(f"check {check['id']!r} lacks params: {', '.join(missing)}")
        problem = MEANING[ctype](params) if ctype in MEANING else None
        if problem is not None:
            raise ScenarioError(f"check {check['id']!r}: {problem}")
        completed.append(params)
    results = [_run_one(c, p, merged_bounds, seed) for c, p in zip(checks, completed)]
    ok = sum(1 for r in results if r["ok"])
    return {
        "seed": seed,
        "bounds": merged_bounds,
        "checks": results,
        "totals": {"checks": len(results), "ok": ok, "violations": len(results) - ok},
    }


def run_suite(name: str, bounds: Optional[dict] = None, seed: int = 0) -> dict:
    if name not in SUITES:
        raise ScenarioError(f"unknown suite {name!r}; try one of: {', '.join(SUITES)}")
    report = run_checks(SUITES[name]["checks"], bounds or {}, seed)
    report["suite"] = name
    return report
