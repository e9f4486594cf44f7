"""Oracle checks on the reports of a run, computed apart from the program.

They run after every metric is taken, in the parent process, because
importing sympy would otherwise inflate the peak resident size and the
set-up time.  Each oracle takes one check of a report together with the
parameters the benchmark gave it, recomputes what the mathematics fixes
(by closed form or with ``sympy``) and returns a list of problems.
Witnesses are rebuilt as ``sympy.combinatorics`` permutations and their
conditions tested there; permutation products follow the program's
convention, ``(f g)(x) = f(g(x))``.
"""

from __future__ import annotations

import random
import re
from fractions import Fraction
from math import factorial
from typing import Callable, Dict, List, Optional, Sequence

from sympy import Matrix, Rational, diag, eye, symbols
from sympy.combinatorics import Permutation, PermutationGroup
from sympy.combinatorics.named_groups import SymmetricGroup


def _number(detail: Sequence[str], pattern: str) -> Optional[List[int]]:
    for line in detail:
        m = re.search(pattern, line)
        if m:
            return [int(g) for g in m.groups()]
    return None


def _expect_number(problems, detail, pattern, expected, what) -> None:
    got = _number(detail, pattern)
    if got is None:
        problems.append(f"no detail line reports {what}")
    elif got[-1] != expected:
        problems.append(f"{what} is {got[-1]}, expected {expected}")


# -- permutations in the program's convention ----------------------------


def _perm(images: Sequence[int]) -> Permutation:
    return Permutation(list(images))


def _compose(f: Permutation, g: Permutation) -> Permutation:
    """f after g.  sympy's ``a * b`` applies ``a`` first."""
    return g * f


def _conj(t: Permutation, h: Permutation) -> Permutation:
    return _compose(_compose(t, h), ~t)


def _base_generators(degree: int, total: int) -> List[Permutation]:
    """Sym(degree) on the first ``degree`` points of ``total``."""
    swap = list(range(total))
    swap[0], swap[1] = 1, 0
    cycle = list(range(total))
    for x in range(degree):
        cycle[x] = (x + 1) % degree
    return [_perm(swap), _perm(cycle)] if degree > 2 else [_perm(swap)]


def _shift(block: int, total: int, by: int = 1) -> Permutation:
    """Translate blocks of ``block`` points by ``by`` blocks, cyclically."""
    return _perm([(x + by * block) % total for x in range(total)])


def _zn_conditions(H: List[Permutation], t: Permutation, p: int) -> List[str]:
    """[H, t^q H t^-q] = 1 for 1 <= q < p and [H, t^p] = 1, on generators."""
    problems = []
    tq = t
    for q in range(1, p):
        conjugates = [_conj(tq, k) for k in H]
        if any(_compose(h, c) != _compose(c, h) for h in H for c in conjugates):
            problems.append(f"[H, t^{q} H t^-{q}] != 1 in sympy")
        tq = _compose(tq, t)
    if any(_compose(h, tq) != _compose(tq, h) for h in H):
        problems.append(f"t^{p} does not centralize H in sympy")
    return problems


def _tower_degrees(degree: int, orders: Sequence[int], level: int) -> List[int]:
    degrees = [degree]
    for n in orders[:level]:
        degrees.append(degrees[-1] * n)
    return degrees


def _tower_group(degree: int, orders: Sequence[int], level: int) -> PermutationGroup:
    """The imprimitive permutation realization of a wreath level."""
    degrees = _tower_degrees(degree, orders, level)
    total = degrees[-1]
    gens = _base_generators(degree, total)
    for i in range(1, level + 1):
        inner = degrees[i - 1]
        block = list(range(total))
        for x in range(degrees[i]):
            block[x] = (x + inner) % degrees[i]
        gens.append(_perm(block))
    return PermutationGroup(gens)


def _level_order(degree: int, orders: Sequence[int], level: int) -> int:
    size = factorial(degree)
    for n in orders[:level]:
        size = size**n * n
    return size


def _cycles_to_images(obj: dict) -> List[int]:
    images = list(range(obj["degree"]))
    for cycle in obj["cycles"]:
        for i, pt in enumerate(cycle):
            images[pt - 1] = cycle[(i + 1) % len(cycle)] - 1
    return images


def _realize(obj: dict, degree: int, orders: Sequence[int], level: int) -> List[int]:
    """Images of a serialized wreath element (or, at level 0, a
    permutation): point (j, x) maps to (j + k, f_{j+k}(x))."""
    if level == 0:
        return _cycles_to_images(obj)
    n = orders[level - 1]
    lower = _tower_degrees(degree, orders, level - 1)[-1]
    values = {i: _realize(v, degree, orders, level - 1) for i, v in obj["support"]}
    k = obj["shift"]
    images = []
    for j in range(n):
        target = (j + k) % n
        f = values.get(target, list(range(lower)))
        images.extend(target * lower + f[x] for x in range(lower))
    return images


# -- oracles, one per check type -----------------------------------------


def _wreath_search(check: dict, params: dict) -> List[str]:
    problems: List[str] = []
    d, orders, level = params["degree"], params["orders"], params["level"]
    closed = _level_order(d, orders, level)
    order = _tower_group(d, orders, level).order()
    if order != closed:
        problems.append(f"sympy order {order} != closed form {closed}")
    detail = check["detail"]
    if check["verdict"] == "none":
        _expect_number(problems, detail, r"exhausted all (\d+) elements", closed,
                       "the exhausted level size")
    if check["verdict"] == "some":
        _expect_number(problems, detail, r"witness found among (\d+) elements",
                       closed, "the searched level size")
        t = _perm(_realize(check["counterexample"], d, orders, level))
        total = _tower_degrees(d, orders, level)[-1]
        problems += _zn_conditions(_base_generators(d, total), t, params["p"])
    return problems


def _torsion(check: dict, params: dict) -> List[str]:
    problems: List[str] = []
    d, orders, level = params["degree"], params["orders"], params["level"]
    closed = _level_order(d, orders, level)
    group = _tower_group(d, orders, level)
    if group.order() != closed:
        problems.append(f"sympy order {group.order()} != closed form {closed}")
    # every element has finite order, and at p = ord(t) the conjugate is
    # H itself, so a non-abelian H fails the Z-conjugate conditions
    if SymmetricGroup(d).is_abelian:
        problems.append("the base group is abelian; the obstruction does not apply")
    _expect_number(problems, check["detail"], r"all (\d+) elements fail", closed,
                   "the number of refuted elements")
    return problems


def _zn_witness(check: dict, params: dict) -> List[str]:
    """The constructive witness: the (n_i / p)-th power of the level-i
    shift, which the report does not carry, rebuilt from its definition."""
    d, orders, level, p = params["degree"], params["orders"], params["level"], params["p"]
    degrees = _tower_degrees(d, orders, level)
    n = orders[level - 1]
    if n % p:
        return [f"p = {p} does not divide n_{level} = {n}"]
    t = _shift(degrees[level - 1], degrees[level], n // p)
    return _zn_conditions(_base_generators(d, degrees[level]), t, p)


def _hall_sym(check: dict, params: dict) -> List[str]:
    d = params["degree"]
    problems = []
    for n in params["ns"]:
        t = _shift(d, d * n)
        problems += [f"n = {n}: {p}" for p in
                     _zn_conditions(_base_generators(d, d * n), t, n)]
    return problems


def tree_ball_size(group_order: int, radius: int) -> int:
    """Vertices within ``radius`` of a vertex of the Bass-Serre tree of
    <G x G, d | d (1,g) d^-1 = (g,g)>: every vertex has degree
    [G x G : 1 x G] + [G x G : diagonal] = 2|G|."""
    valence = 2 * group_order
    return 1 + sum(valence * (valence - 1) ** k for k in range(radius))


def _bass_serre(check: dict, params: dict) -> List[str]:
    problems: List[str] = []
    order = SymmetricGroup(params["degree"]).order()
    radius = params.get("radius", 3)
    got = _number(check["detail"], r"tree ball of radius (\d+) has (\d+) vertices")
    expected = [radius, tree_ball_size(order, radius)]
    if got != expected:
        problems.append(f"tree ball (radius, size) is {got}, expected {expected}")
    _expect_number(problems, check["detail"], r"all (\d+) nontrivial \(g,1\)",
                   order - 1, "the number of nontrivial (g,1)")
    return problems


def _britton(check: dict, params: dict) -> List[str]:
    problems: List[str] = []
    order = SymmetricGroup(params["degree"]).order()
    detail = check["detail"]
    _expect_number(problems, detail, r"verified for all (\d+) base elements", order,
                   "the number of base elements")
    # b0 x^e b1 over G x G: 2 signs of d in b(G), 2 letters x 2 signs in m(G)
    _expect_number(problems, detail, r"all (\d+) reduced one-stable-letter", 6 * order**4,
                   "the number of one-letter words")
    _expect_number(problems, detail, r"(\d+) randomized-order reductions",
                   params["samples"], "the number of confluence samples")
    return problems


def _sylvester_nullity(gens: List[Matrix], n: int) -> int:
    """dim {M in M_n : M g = g M for every g}, from a sympy nullspace."""
    xs = symbols(f"m0:{n * n}")
    M = Matrix(n, n, xs)
    rows = []
    for g in gens:
        gp = diag(g, eye(n - g.rows)) if g.rows < n else g
        for eq in M * gp - gp * M:
            rows.append([eq.coeff(x) for x in xs])
    return len(Matrix(rows).nullspace())


def _gl_centralizer(check: dict, params: dict) -> List[str]:
    problems: List[str] = []
    tests = [Matrix([[-1, 0], [0, 1]]), Matrix([[1, 0], [0, -1]]),
             Matrix([[1, 0], [1, 1]])]
    swap = Matrix([[0, 1], [1, 0]])
    _expect_number(problems, check["detail"], r"centralizer dimension (\d+) in M_4",
                   _sylvester_nullity(tests, 4), "the centralizer dimension in M_4")
    _expect_number(problems, check["detail"], r"full generator set centralizer has "
                   r"dimension (\d+)", _sylvester_nullity(tests + [swap], 2),
                   "the centralizer dimension of GL_2(Z)")
    return problems


def _gl_z2(check: dict, params: dict) -> List[str]:
    """The block swap of Q^4 against GL_2(Z) on <e1, e2>."""
    H = [diag(m, eye(2)) for m in (Matrix([[-1, 0], [0, 1]]), Matrix([[1, 0], [0, -1]]),
                                   Matrix([[1, 0], [1, 1]]), Matrix([[0, 1], [1, 0]]))]
    t = Matrix(4, 4, lambda i, j: 1 if j == (i + 2) % 4 else 0)
    problems = []
    if t * t != eye(4):
        problems.append("the block swap is not an involution")
    if any(h * (t * k * t.inv()) != (t * k * t.inv()) * h for h in H for k in H):
        problems.append("[H, t H t^-1] != 1 in sympy")
    if all(h * k == k * h for h in H for k in H):
        problems.append("GL_2(Z) generators commute, so p = 2 would not fail")
    return problems


def _pl_fixed_point(check: dict, params: dict) -> List[str]:
    """Interior fixed points of h, solved piece by piece in sympy."""
    from displacement.plmaps import unique_fixed_point_element

    bps = [(Rational(x.numerator, x.denominator), Rational(y.numerator, y.denominator))
           for x, y in unique_fixed_point_element().breakpoints]
    fixed = set()
    for (x0, y0), (x1, y1) in zip(bps, bps[1:]):
        slope = (y1 - y0) / (x1 - x0)
        if slope == 1:
            if y0 == x0 and 0 < x1 and x0 < 1:
                return ["h is the identity on an interval inside (0, 1)"]
            continue
        x = (y0 - slope * x0) / (1 - slope)
        if x0 <= x <= x1 and 0 < x < 1:
            fixed.add(x)
    if fixed != {Rational(1, 2)}:
        return [f"interior fixed points of h are {sorted(fixed)}, not {{1/2}}"]
    return []


def _pl_tower(check: dict, params: dict) -> List[str]:
    problems: List[str] = []
    depth = params["depth"]
    # the F-copy's two generators plus one dissipator per level above 1
    _expect_number(problems, check["detail"], r"depth \d+ built with (\d+) generators",
                   depth + 1, "the generator count")
    _expect_number(problems, check["detail"], r"(\d+) sampled words",
                   params["samples"], "the number of sampled words")
    return problems


ORACLES: Dict[str, Callable[[dict, dict], List[str]]] = {
    "wreath-brute-search": _wreath_search,
    "wreath-torsion-exhaustive": _torsion,
    "wreath-zn-witness": _zn_witness,
    "hall-sym": _hall_sym,
    "bass-serre": _bass_serre,
    "britton-engine": _britton,
    "gl-centralizer": _gl_centralizer,
    "gl-z2": _gl_z2,
    "pl-fixed-point": _pl_fixed_point,
    "pl-tower": _pl_tower,
}

# checks whose counterexample field carries a witness an oracle re-checks
RECHECKED_WITNESSES = {("wreath-brute-search", "some")}


def _fractions(m: Matrix) -> List[List[Fraction]]:
    return [[Fraction(int(x.p), int(x.q)) for x in row] for row in m.tolist()]


def block_conjugate_sample(seed: int, count: int) -> List[str]:
    """``matrices.block_conjugate`` on seeded random operands against
    sympy: (X (+) I) g (X (+) I)^-1."""
    from displacement.matrices import RationalMatrix, block_conjugate

    rng = random.Random(f"block-conjugate:{seed}")
    problems = []
    done = 0
    while done < count:
        X = Matrix(2, 2, lambda i, j: Rational(rng.randint(-4, 4), rng.randint(1, 3)))
        g = Matrix(4, 4, lambda i, j: Rational(rng.randint(-4, 4), rng.randint(1, 3)))
        if X.det() == 0 or g.det() == 0:
            continue
        done += 1
        Xp = diag(X, eye(2))
        expected = _fractions(Xp * g * Xp.inv())
        got = block_conjugate(RationalMatrix(_fractions(X)), RationalMatrix(_fractions(g)))
        if [list(row) for row in got.padded(4)] != expected:
            problems.append(f"block_conjugate differs from sympy on sample {done}")
    return problems


def verify(steps, reports: Dict[str, dict], seed: int, block_samples: int) -> List[str]:
    """Every oracle problem found in the reports of one run."""
    problems: List[str] = []
    wants_block_sample = False
    for step in steps:
        for check in reports[step.name]["checks"]:
            where = f"{step.name}/{check['id']}"
            oracle = ORACLES.get(check["type"])
            if oracle is not None:
                problems += [f"{where}: {p}" for p in oracle(check, step.params[check["id"]])]
            if (check.get("counterexample") is not None
                    and (check["type"], check["verdict"]) not in RECHECKED_WITNESSES):
                problems.append(f"{where}: carries a counterexample no oracle re-checks")
            wants_block_sample |= check["type"] == "gl-block-identity"
    if wants_block_sample:
        problems += block_conjugate_sample(seed, block_samples)
    return problems
