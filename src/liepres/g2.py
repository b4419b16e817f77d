"""G2, the one module that knows it: relations, named basis, the G2 gate.

The relations are read from the shipped `fixtures/g2.lp` and typed out nowhere
else; `g2_presentation` parses it on each call.  The gate `spans_g2` decides
whether a level of a closure climb is G2's: bound 4 on 3 letters, 14
representatives, and every g2.lp relation reducing to 0 in it.  Then the
level's relations span those of g2.lp, so its representatives, model and table
are those of g2.lp's climb at bound 4.  `derive` renames the table of a
certified level that passes to the named basis; under `--engine rewriter` it
also refuses, with exit 2, input that fails `has_g2_shape` or whose first level
fails the gate.  `rewriter_applicable` applies both, for the tests and the
benchmark's replay.  The named basis is defined once, as free Lie polynomials
in `named_basis_free`, whose key order is the basis order.
"""

import os
from fractions import Fraction
from functools import partial

from . import freelie
from .freelie import LiePoly
from .presentation import Presentation, parse_presentation
from .table import StructureTable


def g2_presentation_text() -> str:
    """The shipped presentation file `fixtures/g2.lp`, the one copy of the relations.

    Its 54 relations are the paper's three families, each headed by its formula,
    over i,j,k in {1,2,3}, skipping instances whose tower vanishes in the free algebra.
    """
    path = os.path.join(os.path.dirname(__file__), "fixtures", "g2.lp")
    with open(path, encoding="utf-8") as f:
        return f.read()


def g2_presentation() -> Presentation:
    """The quadruple presentation as a parsed object, parsed anew on each call."""
    return parse_presentation(g2_presentation_text())


def g2_relations() -> list:
    """The 54 quadruple relations as free Lie polynomials, in the file's order."""
    return list(g2_presentation().relations)


def spans_g2(level) -> bool:
    """Whether a level of a closure climb (a `QuotientBasis`) eliminates exactly g2.lp's relation span.

    True when the level is at bound 4 on 3 letters, has 14 representatives and
    reduces every g2.lp relation to 0; the cheap fields are read first, so other
    levels never parse g2.lp.  Proof that the level's relations then span S,
    the span of g2.lp's relations: S has dimension 18 in the 32-dimensional
    F_4, and the level's span N has dimension 32 - 14 = 18 and contains S, so
    N = S.  Every relation lies in N, and S has no nonzero element of top
    degree below 4 (its 18 pivots are the 18 degree-4 Lyndon words), so the
    level holds no relation of lower top degree and no children: N is the span
    of the relations, which therefore span S.  Conversely, relations spanning S
    certify at bound 4 with g2.lp's level.  Equal spans generate the same ideal,
    so rescaled, reordered or recombined relations present G2 with its named basis.
    """
    return (level.degree_bound == 4 and level.alphabet == 3 and level.dim == 14
            and all(level.reduce(r) == {} for r in g2_relations()))


def has_g2_shape(pres: Presentation) -> bool:
    """3 generators and top relation degree 4, the shape of every presentation spanning g2.lp's relations."""
    return len(pres.names) == 3 and pres.max_relation_degree() == 4


def rewriter_applicable(pres: Presentation) -> bool:
    """Whether the G2 rewriter applies: 3 generators and relations spanning g2_relations().

    `has_g2_shape`, then `spans_g2` on the presentation's level at bound 4.
    `derive` does not call it: it gates the first level of its own climb.  The
    tests and the benchmark's replay (`perfbench/replay.py`) read it.
    """
    from .quotient import closure_levels  # quotient imports g2
    return has_g2_shape(pres) and spans_g2(next(closure_levels(pres, 4)))


def rewriter_structure_table() -> StructureTable:
    """Full bracket table of the 14 named elements: g2.lp closed at degree bound 4.

    The table `certify` checks at that bound, renamed to named_basis_free().
    Raises ValueError if a representative of degree 4 is left, which would need
    the closure at degree 5 to act on.  `derive` climbs its own input instead;
    this stays only because the benchmark's replay (`perfbench/replay.py`)
    imports it.
    """
    from .quotient import structure_table  # quotient imports g2
    return structure_table(g2_presentation(), named_basis_free(), 4)


def named_basis_free() -> dict:
    """The 14 named elements as free Lie polynomials; the key order is the basis order."""
    half, third = Fraction(1, 2), Fraction(1, 3)
    bracket = partial(freelie.bracket, cache={})  # one Lyndon bracket memo for all 14 names
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

