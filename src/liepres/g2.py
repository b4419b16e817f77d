"""Quadruple-relation rewriter deriving the 14-dimensional algebra on three generators.

Towers here use 1-based generator indices, matching the naming convention x1, x2, x3.
Every element of the quotient is a Q-combination of 14 canonical towers: the three
generators, three degree-2 towers T(j,k) with j < k, and eight degree-3 towers
T(i,j,k) with j < k, T(3,1,2) excluded (it rewrites through Jacobi).  Degree-4 towers
collapse to degree <= 1 through the quadruple relations, which is what makes the
rewriter total.

The relations are read from the shipped `fixtures/g2.lp`, and the named basis is
defined once, as free Lie polynomials in `named_basis_free`; its tower form is
computed from them.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from importlib.resources import files

from . import freelie
from .freelie import LiePoly, bracket
from .linalg import RatMatrix, invert
from .presentation import Presentation, parse_presentation
from .table import StructureTable

G2_NAMES = ("h1", "h2", "a12", "a13", "a23", "a21", "a31", "a32",
            "x1", "x2", "x3", "y1", "y2", "y3")

GENERATOR_NAMES = ("x1", "x2", "x3")

CANONICAL_TOWERS = (
    (1,), (2,), (3,),
    (1, 2), (1, 3), (2, 3),
    (1, 1, 2), (1, 1, 3), (1, 2, 3), (2, 1, 2), (2, 1, 3), (2, 2, 3), (3, 1, 3), (3, 2, 3),
)

_EVEN = {(1, 2, 3), (2, 3, 1), (3, 1, 2)}


def epsilon(i: int, j: int, k: int) -> int:
    """Levi-Civita symbol on indices 1..3."""
    if sorted((i, j, k)) != [1, 2, 3]:
        return 0
    return 1 if (i, j, k) in _EVEN else -1


# --- relations ----------------------------------------------------------------

def g2_presentation_text() -> str:
    """The shipped presentation file `fixtures/g2.lp`, the one copy of the relations.

    It lists the 54 quadruple relations (LHS - RHS), three families instantiated
    over i,j,k in {1,2,3} with eps evaluated, skipping instantiations whose tower
    already vanishes in the free algebra:
      1:  [xi,[xj,[xi,xk]]] = 2 eps(i,j,k) xi   (skip i == k)
      2:  [xi,[xi,[xj,xk]]] = 4 eps(i,j,k) xi   (skip j == k)
      3:  [xi,[xj,[xj,xk]]] = 6 eps(i,j,k) xj   (skip j == k)
    eps = 0 instantiations stay as homogeneous degree-4 relations.
    """
    return (files(__package__) / "fixtures" / "g2.lp").read_text(encoding="utf-8")


def g2_presentation() -> Presentation:
    """The quadruple presentation as a parsed object."""
    return parse_presentation(g2_presentation_text())


def g2_relations() -> list:
    """The 54 quadruple relations as free Lie polynomials, in the file's order."""
    return list(g2_presentation().relations)


# --- tower reduction ----------------------------------------------------------

def _acc(acc: dict, vec: dict, c: Fraction = Fraction(1)) -> None:
    for t, v in vec.items():
        s = acc.get(t, 0) + c * v
        if s:
            acc[t] = s
        else:
            acc.pop(t, None)


def reduce_quadruple(a: int, b: int, c: int, d: int) -> dict:
    """Rewrite the degree-4 tower [xa,[xb,[xc,xd]]] to degree <= 1 via the relations.

    All applicable relation patterns are evaluated and must agree (confluence is an
    internal invariant, checked on every call).  Some pattern always applies: four
    indices over a 3-letter alphabet force a coincidence.
    """
    if c == d:
        return {}
    sign = 1
    if c > d:
        c, d, sign = d, c, -1
    results = []
    if a == b:
        results.append(("family 2", 4 * epsilon(a, c, d), a))
    if a == c:
        results.append(("family 1", 2 * epsilon(a, b, d), a))
    if a == d:
        results.append(("family 1 (flipped)", -2 * epsilon(a, b, c), a))
    if b == c:
        results.append(("family 3", 6 * epsilon(a, b, d), b))
    if b == d:
        results.append(("family 3 (flipped)", -6 * epsilon(a, b, c), b))
    if not results:
        raise RuntimeError(f"no quadruple relation applies to {(a, b, c, d)}")
    vecs = [{(t,): Fraction(sign * coeff)} if coeff else {} for _, coeff, t in results]
    if any(v != vecs[0] for v in vecs[1:]):
        detail = ", ".join(f"{name}: {v}" for (name, _, _), v in zip(results, vecs))
        raise RuntimeError(f"quadruple reduction is not confluent at {(a, b, c, d)}: {detail}")
    return vecs[0]


def tower_reduce(t: tuple) -> dict:
    """Express a tower of degree <= 4 over the canonical towers."""
    if not 1 <= len(t) <= 4:
        raise ValueError(f"tower degree {len(t)} outside 1..4")
    if len(t) == 1:
        return {t: Fraction(1)}
    if len(t) == 2:
        a, b = t
        if a == b:
            return {}
        return {(a, b): Fraction(1)} if a < b else {(b, a): Fraction(-1)}
    if len(t) == 3:
        a, b, c = t
        if b == c:
            return {}
        sign = Fraction(1)
        if b > c:
            b, c, sign = c, b, Fraction(-1)
        if (a, b, c) == (3, 1, 2):
            # Jacobi: T(3,1,2) = -T(1,2,3) + T(2,1,3)
            return {(1, 2, 3): -sign, (2, 1, 3): sign}
        return {(a, b, c): sign}
    return reduce_quadruple(*t)


@lru_cache(maxsize=None)
def _bracket_towers(t1: tuple, t2: tuple) -> tuple:
    """[T1, T2] over canonical towers, returned as a sorted item tuple (cache-safe).

    Total by induction on deg(T1): a generator head goes through tower_reduce
    (degree <= 4), otherwise T1 = [head, rest] and Jacobi gives
    [T1, T2] = [head, [rest, T2]] - [rest, [head, T2]] with strictly smaller first
    arguments throughout.
    """
    if len(t1) == 1:
        return tuple(sorted(tower_reduce(t1 + t2).items()))
    head, rest = (t1[0],), t1[1:]
    acc: dict = {}
    for m, c in _bracket_towers(rest, t2):
        _acc(acc, dict(_bracket_towers(head, m)), c)
    for m, c in _bracket_towers(head, t2):
        _acc(acc, dict(_bracket_towers(rest, m)), -c)
    return tuple(sorted(acc.items()))


def reduce_bracket(p: dict, q: dict) -> dict:
    """Bracket of two canonical-tower vectors, reduced to canonical towers."""
    acc: dict = {}
    for t1, c1 in p.items():
        for t2, c2 in q.items():
            _acc(acc, dict(_bracket_towers(t1, t2)), c1 * c2)
    return acc


# --- named basis --------------------------------------------------------------

def _word_towers(w: tuple) -> dict:
    """A Lyndon monomial over the canonical towers, through its standard factorization."""
    if len(w) == 1:
        return {(w[0] + 1,): Fraction(1)}
    u, v = freelie.standard_factorization(w)
    return reduce_bracket(_word_towers(u), _word_towers(v))


@lru_cache(maxsize=None)
def named_basis_towers() -> dict:
    """The 14 named elements of named_basis_free() as canonical-tower vectors."""
    named = {}
    for name, p in named_basis_free().items():
        acc: dict = {}
        for w, c in p.terms.items():
            _acc(acc, _word_towers(w), c)
        named[name] = acc
    return named


@lru_cache(maxsize=None)
def _named_solver() -> RatMatrix:
    named = named_basis_towers()
    idx = {t: i for i, t in enumerate(CANONICAL_TOWERS)}
    cols = []
    for name in G2_NAMES:
        v = [Fraction(0)] * len(CANONICAL_TOWERS)
        for t, c in named[name].items():
            v[idx[t]] = c
        cols.append(v)
    m = RatMatrix.from_rows([[cols[j][i] for j in range(len(G2_NAMES))] for i in range(len(CANONICAL_TOWERS))])
    inv = invert(m)
    if inv is None:
        raise RuntimeError("named elements do not span the canonical towers")
    return inv


def to_named_coordinates(v: dict) -> dict:
    """Coordinates of a canonical-tower vector over the named basis."""
    idx = {t: i for i, t in enumerate(CANONICAL_TOWERS)}
    dense = [Fraction(0)] * len(CANONICAL_TOWERS)
    for t, c in v.items():
        if t not in idx:
            raise ValueError(f"not a canonical tower: {t}")
        dense[idx[t]] = c
    coords = _named_solver().apply(dense)
    return {name: c for name, c in zip(G2_NAMES, coords) if c}


def bracket_named(n1: str, n2: str) -> dict:
    """[n1, n2] in named coordinates."""
    named = named_basis_towers()
    return to_named_coordinates(reduce_bracket(named[n1], named[n2]))


def rewriter_structure_table() -> StructureTable:
    """Full bracket table of the 14 named elements from the rewriter path alone."""
    name_index = {n: i for i, n in enumerate(G2_NAMES)}

    def fn(i, j):
        vec = [Fraction(0)] * len(G2_NAMES)
        for name, c in bracket_named(G2_NAMES[i], G2_NAMES[j]).items():
            vec[name_index[name]] = c
        return vec

    return StructureTable.from_bracket_fn(G2_NAMES, fn)


@lru_cache(maxsize=None)
def named_basis_free() -> dict:
    """The 14 named elements as free Lie polynomials (for the closure engine path)."""
    half, third = Fraction(1, 2), Fraction(1, 3)
    x = {i: LiePoly.generator(i - 1) for i in (1, 2, 3)}
    y = {
        1: half * bracket(x[2], x[3]),
        2: half * bracket(x[3], x[1]),
        3: half * bracket(x[1], x[2]),
    }
    return {
        "h1": third * (bracket(x[1], y[1]) - bracket(x[2], y[2])),
        "h2": third * (bracket(x[2], y[2]) - bracket(x[3], y[3])),
        "a12": third * bracket(x[2], y[1]),
        "a13": third * bracket(x[3], y[1]),
        "a23": third * bracket(x[3], y[2]),
        "a21": third * bracket(x[1], y[2]),
        "a31": third * bracket(x[1], y[3]),
        "a32": third * bracket(x[2], y[3]),
        "x1": x[1], "x2": x[2], "x3": x[3],
        "y1": y[1], "y2": y[2], "y3": y[3],
    }
