"""G2, the one module that knows it: relations, named basis, the rewriter gate.

The relations are read from the shipped `fixtures/g2.lp` and typed out nowhere
else; `g2_presentation` parses it on each call.  `rewriter_applicable` compares
the echelon rows at degree bound 4 of a presentation's closure climb with those
of g2.lp's.  The named basis is defined once, as free Lie polynomials in
`named_basis_free`.  A presentation that passes the gate has g2.lp's relation
span, whose 18 echelon pivots are the 18 degree-4 Lyndon words; so its closure
at degree bound 4, the relations' degree, has 14 representatives below degree
4, `certify` proves dimension 14 there, and renamed to the named basis it is
the rewriter's table.
"""

from __future__ import annotations

import os
from fractions import Fraction
from functools import partial

from . import freelie
from .freelie import LiePoly
from .presentation import Presentation, parse_presentation
from .table import StructureTable

G2_NAMES = ("h1", "h2", "a12", "a13", "a23", "a21", "a31", "a32",
            "x1", "x2", "x3", "y1", "y2", "y3")


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


def rewriter_applicable(pres: Presentation) -> bool:
    """Whether the G2 rewriter applies: 3 generators and relations spanning g2_relations().

    Equal spans generate the same ideal, so rescaled, reordered or recombined
    relations still present G2 with its named basis.  The 18 pivots of g2.lp's
    span S are the degree-4 Lyndon words, so each nonzero element of S has top
    degree 4, and relations whose top degree is not 4 are refused before g2.lp
    is parsed.  The rest compares the level-4 echelon rows of the two climbs
    (`closure_levels`), the unique primitive reduced echelon form of what each
    holds at bound 4.  g2.lp's level 4 holds S: its relations have top degree 4,
    so no lower level adds children.  If the input's rows span S, every input
    relation lies in S and so is 0 or of top degree 4; then no lower level adds
    children either, and the rows span exactly the input's relations, which
    therefore span S.  Conversely, relations spanning S have top degree 4, and
    the input's level 4 holds their span S.
    """
    if len(pres.generators) != 3 or pres.max_relation_degree() != 4:
        return False
    from .quotient import closure_levels  # quotient imports g2
    return next(closure_levels(pres, 4))._rows == next(closure_levels(g2_presentation(), 4))._rows


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
    """The 14 named elements as free Lie polynomials, in the order of G2_NAMES."""
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

