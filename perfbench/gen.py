"""Seeded input generators: G2 presentation variants and G2 table variants.

Every variant presents or describes the same algebra as the shipped fixtures, so
the mathematically correct answer is known without running the program:
- a presentation variant shuffles the relation order and multiplies each relation
  by a nonzero rational, which leaves the ideal, and so the derived table, unchanged;
- a table variant permutes and rescales the basis, which gives an isomorphic
  algebra, so classification must still say G2.
"""

from __future__ import annotations

import json
import random
import re
from fractions import Fraction

_RELATION = re.compile(r"^relation:\s*(\[.*\])\s*=\s*(.+?)\s*$")
_RHS = re.compile(r"^(-?)(\d+)\*(\w+)$")

# Relation multipliers. Their size does not change the closure's pivots, only
# the integer sizes inside the elimination rows.
RELATION_SCALES = tuple(Fraction(p, q) for p in (1, 2, 3, 5, 7) for q in (1, 2, 3))

# Basis rescale factors for table variants: |s| <= 10 and 1/2, 1/3.
SMALL_SCALES = tuple(Fraction(x) for x in (1, 2, 3, 5, 10)) + (Fraction(1, 2), Fraction(1, 3))

# The scale that makes classify's rational-root search run past any sane limit.
LARGE_SCALE = Fraction(100)


def fmt(q: Fraction) -> str:
    """Rational in the .lp / JSON spelling: "p" or "p/q", sign in front."""
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def parse_relations(text: str) -> tuple:
    """(header lines, [(lhs, rhs_coeff, rhs_generator or None)]) of a quadruple .lp file."""
    header, rels = [], []
    for line in text.splitlines():
        m = _RELATION.match(line)
        if not m:
            if line.startswith("generators:"):
                header.append(line)
            continue
        lhs, rhs = m.groups()
        if rhs == "0":
            rels.append((lhs, Fraction(0), None))
            continue
        r = _RHS.match(rhs)
        if not r:
            raise ValueError(f"unsupported right-hand side: {rhs!r}")
        sign, num, gen = r.groups()
        rels.append((lhs, Fraction(int(num)) * (-1 if sign else 1), gen))
    return header, rels


def presentation_variant(text: str, rng: random.Random, *, rescale: bool = True) -> str:
    """The presentation with its relations shuffled and, with rescale, each scaled by a nonzero rational."""
    header, rels = parse_relations(text)
    rng.shuffle(rels)
    lines = list(header)
    for lhs, coeff, gen in rels:
        c = Fraction(1)
        if rescale:
            c = rng.choice(RELATION_SCALES) * rng.choice((1, -1))
        rhs = "0" if gen is None else f"{fmt(c * coeff)}*{gen}"
        lines.append(f"relation: {fmt(c)}*{lhs} = {rhs}")
    return "\n".join(lines) + "\n"


def table_variant(doc: dict, rng: random.Random, scales: list | None = None) -> str:
    """JSON for the table in doc over the basis b'_a = scales[perm[a]] * b_{perm[a]}.

    perm is a seeded permutation. scales[m] is the factor of the old basis element
    m; by default each is drawn from SMALL_SCALES with a random sign.
    """
    names = doc["names"]
    n = len(names)
    if scales is None:
        scales = [rng.choice(SMALL_SCALES) * rng.choice((1, -1)) for _ in range(n)]
    perm = list(range(n))
    rng.shuffle(perm)
    inv = {old: new for new, old in enumerate(perm)}
    index = {name: k for k, name in enumerate(names)}
    brackets: dict = {}
    for rec in doc["brackets"]:
        i, j = rec["i"], rec["j"]
        for name, val in rec["coefficients"].items():
            m = index[name]
            coeff = scales[i] * scales[j] * Fraction(val) / scales[m]
            a, b = inv[i], inv[j]
            if a > b:
                a, b, coeff = b, a, -coeff
            brackets.setdefault((a, b), {})[inv[m]] = coeff
    out = {
        "schema_version": doc["schema_version"],
        "dim": n,
        "names": [names[perm[a]] for a in range(n)],
        "brackets": [
            {"i": a, "j": b,
             "coefficients": {names[perm[k]]: fmt(v) for k, v in sorted(coeffs.items())}}
            for (a, b), coeffs in sorted(brackets.items())
        ],
    }
    return json.dumps(out, indent=2) + "\n"
