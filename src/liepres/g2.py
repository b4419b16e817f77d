"""G2, the one module that knows it: relations, named basis, quadruple rewriter.

The relations are read from the shipped `fixtures/g2.lp` and typed out nowhere
else.  `g2_span` is their echelon form; `rewriter_applicable` compares a
presentation's span with it, and the rewriter reduces degree-4 towers against
it.  The named basis is defined once, as free Lie polynomials in
`named_basis_free`.

Towers use 1-based generator indices, matching the names x1, x2, x3.  Every
element of the quotient is a Q-combination of 14 canonical towers: the three
generators, three degree-2 towers T(j,k) with j < k, and eight degree-3 towers
T(i,j,k) with j < k, T(3,1,2) excluded (it rewrites through Jacobi).  Every
degree-4 Lyndon word is a pivot of `g2_span`, so degree-4 towers reduce to
degree <= 1, which is what makes the rewriter total.  `table.py` builds the
table from the generators' action on the canonical towers, as the closure engine
builds its own from their action on its representatives, and the table is
renamed to the named basis through their images in the tower model.
"""

from __future__ import annotations

import os
from fractions import Fraction
from functools import lru_cache

from .freelie import LiePoly, bracket, standard_factorization, tower_to_poly
from .linalg import Echelon, integer_scaled
from .presentation import Presentation, parse_presentation
from .table import StructureTable, action_table, generator_action, lie_map

G2_NAMES = ("h1", "h2", "a12", "a13", "a23", "a21", "a31", "a32",
            "x1", "x2", "x3", "y1", "y2", "y3")

CANONICAL_TOWERS = (
    (1,), (2,), (3,),
    (1, 2), (1, 3), (2, 3),
    (1, 1, 2), (1, 1, 3), (1, 2, 3), (2, 1, 2), (2, 1, 3), (2, 2, 3), (3, 1, 3), (3, 2, 3),
)


# --- relations ----------------------------------------------------------------

def g2_presentation_text() -> str:
    """The shipped presentation file `fixtures/g2.lp`, the one copy of the relations.

    Its 54 relations are the paper's three families, each headed by its formula,
    over i,j,k in {1,2,3}, skipping instances whose tower vanishes in the free algebra.
    """
    path = os.path.join(os.path.dirname(__file__), "fixtures", "g2.lp")
    with open(path, encoding="utf-8") as f:
        return f.read()


def g2_presentation() -> Presentation:
    """The quadruple presentation as a parsed object."""
    return parse_presentation(g2_presentation_text())


def g2_relations() -> list:
    """The 54 quadruple relations as free Lie polynomials, in the file's order."""
    return list(g2_presentation().relations)


def relation_span(relations) -> Echelon | None:
    """Echelon form of the relations over the Lyndon words of degree <= 4 on 3 letters.

    A word w is the coordinate (len(w), w), so coordinates are ordered by degree,
    then lexicographically, and a row's pivot is its highest word.  None when a
    relation has a monomial outside that range.
    """
    if any(len(w) > 4 or max(w) > 2 for rel in relations for w in rel.terms):
        return None
    return Echelon.of({(len(w), w): c for w, c in rel.terms.items()} for rel in relations)


@lru_cache(maxsize=None)
def g2_span() -> Echelon:
    """relation_span(g2_relations()), built once per process; callers only read it."""
    return relation_span(g2_relations())


def rewriter_applicable(pres: Presentation) -> bool:
    """Whether the G2 rewriter applies: 3 generators and relations spanning g2_relations().

    Equal spans generate the same ideal, so rescaled, reordered or recombined
    relations still present G2 with its named basis.  Echelon rows are the unique
    primitive reduced echelon form of the span, so equal Echelons mean equal spans.
    """
    if len(pres.generators) != 3:
        return False
    span = relation_span(pres.relations)
    return span is not None and span == g2_span()


# --- tower reduction ----------------------------------------------------------

def reduce_quadruple(a: int, b: int, c: int, d: int) -> dict:
    """Rewrite the degree-4 tower [xa,[xb,[xc,xd]]] to degree <= 1 via the relations.

    The remainder against g2_span(), the unique reduced echelon form of the
    relations, is the one lower combination the tower equals modulo them.  A
    remainder word above degree 1 means the relations leave the tower unreduced.
    """
    tower = tower_to_poly((a - 1, b - 1, c - 1, d - 1))
    D, ints = integer_scaled(tower.terms.values())
    rem, s = g2_span().reduce({(4, w): x for w, x in zip(tower.terms, ints)})
    out = {}
    for (degree, w), x in rem.items():
        if degree > 1:
            raise RuntimeError(f"the relations do not reduce the tower {(a, b, c, d)} to degree 1")
        out[(w[0] + 1,)] = Fraction(x, D * s)
    return out


def tower_reduce(t: tuple) -> dict:
    """Express a tower of degree <= 4 over the canonical towers.

    Degrees 1 to 3 by antisymmetry and the one Jacobi rewrite of T(3,1,2);
    degree 4 by reduce_quadruple, against the relations of g2.lp.
    """
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


def tower_action() -> list:
    """act[i][j]: canonical tower i acting on canonical tower j, over the canonical towers.

    rho(x_g) sends the tower T to tower_reduce((g,) + T), which is where the
    relations enter; a longer tower T = [x_{T[0]}, T[1:]] acts by the commutator
    of its head's and its rest's operators.
    """
    index = {t: i for i, t in enumerate(CANONICAL_TOWERS)}
    rho = {(g,): [{index[u]: c for u, c in tower_reduce((g,) + t).items()} for t in CANONICAL_TOWERS]
           for g in (1, 2, 3)}
    return generator_action(rho, lambda t: ((t[0],), t[1:]), CANONICAL_TOWERS)


def tower_model() -> StructureTable:
    """The rewriter's table over the canonical towers, named T1, T2, ..., T323."""
    return action_table(("T" + "".join(map(str, t)) for t in CANONICAL_TOWERS), tower_action())


def tower_map(towers: StructureTable):
    """phi into the tower model: the generator x_g goes to the tower (g,)."""
    return lie_map(towers, [{g: Fraction(1)} for g in range(3)], standard_factorization)


def rewriter_structure_table() -> StructureTable:
    """Full bracket table of the 14 named elements from the rewriter path alone.

    The tower model renamed to named_basis_free(), whose coordinates are their
    images under phi.
    """
    towers = tower_model()
    phi = tower_map(towers)
    return towers.rebased(G2_NAMES, (phi(p) for p in named_basis_free().values()))


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

