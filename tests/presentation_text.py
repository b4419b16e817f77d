"""Presentations written back as text, for the round-trip tests: parsing inverts it."""

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
