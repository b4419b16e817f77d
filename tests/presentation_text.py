"""Presentations as text: written back for the round-trip tests (parsing inverts it), and inputs shared by tests."""

from liepres.freelie import LiePoly, bracket_string
from liepres.presentation import Presentation, combination_text


def poly_text(p: LiePoly, names) -> str:
    """Render a Lie polynomial as a sum of bracketed Lyndon monomials."""
    words = sorted(p.terms, key=lambda w: (len(w), w))
    return combination_text((bracket_string(w, names), p.terms[w]) for w in words)


def format_presentation(pres: Presentation) -> str:
    """Canonical text form; parsing it back yields an equal Presentation."""
    lines = ["generators: " + " ".join(pres.names)]
    for r in pres.relations:
        lines.append(f"relation: {poly_text(r, pres.names)} = 0")
    return "\n".join(lines) + "\n"


# The bound-4 and bound-5 quotients agree on dim 4, which a dimension-stabilization
# test took for the answer; the quotient is 1-dimensional.
FALSE_STABLE = ("generators: x1 x2\nrelation: x1 - [[[x1,x2],x2],x2] = 0\n"
                "relation: 3/2*[x1,x2] - 4*[x1,[x1,x2]] = 0\n")
# Dims 3, 3, 5, 6, 9 at bounds 5-9: a dimension-stabilization test calls bound 6 stabilized.
GROWING = ("generators: x1 x2\nrelation: -5*[x1,x2] + [[x1,x2],x2] = 0\n"
           "relation: -3*x2 - 2/3*[x1,x2] - 2*[x1,[[x1,x2],x2]] = 0\n"
           "relation: 5/2*x2 + 4/3*[[x1,x2],x2] = 0\n")
