"""Quadruple-relation rewriter deriving the 14-dimensional algebra on three generators.

Towers here use 1-based generator indices, matching the naming convention x1, x2, x3.
Every element of the quotient is a Q-combination of 14 canonical towers: the three
generators, three degree-2 towers T(j,k) with j < k, and eight degree-3 towers
T(i,j,k) with j < k, T(3,1,2) excluded (it rewrites through Jacobi).  Degree-4 towers
collapse to degree <= 1 through the quadruple relations, which is what makes the
rewriter total.

The rules give the generators' action on the canonical towers, and `table.py`
builds the table from it, the way the closure engine builds its own from the
generators' action on its representatives.  The relations are read from the
shipped `fixtures/g2.lp`, and the named basis is defined once, as free Lie
polynomials in `named_basis_free`; the rewriter's table is renamed to it through
their images in the tower model.
"""

from __future__ import annotations

import os
from fractions import Fraction
from functools import lru_cache

from .freelie import LiePoly, bracket
from .presentation import Presentation, parse_presentation
from .table import StructureTable, action_table, generator_action, lie_map

G2_NAMES = ("h1", "h2", "a12", "a13", "a23", "a21", "a31", "a32",
            "x1", "x2", "x3", "y1", "y2", "y3")

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
    path = os.path.join(os.path.dirname(__file__), "fixtures", "g2.lp")
    with open(path, encoding="utf-8") as f:
        return f.read()


def g2_presentation() -> Presentation:
    """The quadruple presentation as a parsed object."""
    return parse_presentation(g2_presentation_text())


def g2_relations() -> list:
    """The 54 quadruple relations as free Lie polynomials, in the file's order."""
    return list(g2_presentation().relations)


# --- tower reduction ----------------------------------------------------------

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
    return lie_map(towers, [{g: Fraction(1)} for g in range(3)])


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
