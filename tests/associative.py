"""The free Lie algebra inside the free associative algebra, for the tests.

b_w, the Lyndon basis element of a word w with standard factorization (u, v),
is the commutator b_u b_v - b_v b_u; these associative images are the
independent oracle the Lyndon bracket is checked against.
"""

from fractions import Fraction
from functools import lru_cache

from liepres.freelie import LiePoly, standard_factorization


def _add_scaled(acc: dict, terms: dict, scale) -> None:
    for w, c in terms.items():
        v = acc.get(w, 0) + scale * c
        if v:
            acc[w] = v
        else:
            acc.pop(w, None)


class NCPoly:
    """Noncommutative associative polynomial: Q-combination of words in the generators."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        clean = {}
        for w, c in (terms or {}).items():
            c = Fraction(c)
            if c:
                clean[tuple(w)] = c
        self.terms = clean

    @classmethod
    def letter(cls, index: int) -> "NCPoly":
        return cls({(index,): 1})

    def mul(self, other: "NCPoly") -> "NCPoly":
        acc: dict = {}
        for u, cu in self.terms.items():
            _add_scaled(acc, {u + v: cv for v, cv in other.terms.items()}, cu)
        return NCPoly(acc)

    def __add__(self, other: "NCPoly") -> "NCPoly":
        acc = dict(self.terms)
        _add_scaled(acc, other.terms, 1)
        return NCPoly(acc)

    def __sub__(self, other: "NCPoly") -> "NCPoly":
        acc = dict(self.terms)
        _add_scaled(acc, other.terms, -1)
        return NCPoly(acc)

    def __rmul__(self, scalar) -> "NCPoly":
        scalar = Fraction(scalar)
        return NCPoly({w: scalar * c for w, c in self.terms.items()})

    def commutator(self, other: "NCPoly") -> "NCPoly":
        return self.mul(other) - other.mul(self)

    def __eq__(self, other) -> bool:
        return isinstance(other, NCPoly) and self.terms == other.terms

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        return " + ".join(f"{self.terms[w]}*w{list(w)}" for w in sorted(self.terms, key=lambda w: (len(w), w)))


@lru_cache(maxsize=None)
def word_image(w: tuple) -> dict:
    """b_w in the free associative algebra as {word: int}; cached, so callers only read it."""
    if len(w) == 1:
        return {w: 1}
    u, v = standard_factorization(w)
    bu, bv = word_image(u), word_image(v)
    acc: dict = {}
    for x, cx in bu.items():
        _add_scaled(acc, {x + y: cy for y, cy in bv.items()}, cx)
    for y, cy in bv.items():
        _add_scaled(acc, {y + x: cx for x, cx in bu.items()}, -cy)
    return acc


def expand_to_associative(p: LiePoly) -> NCPoly:
    """Image of p under the standard embedding into the free associative algebra."""
    acc: dict = {}
    for w, c in p.terms.items():
        _add_scaled(acc, word_image(w), c)
    return NCPoly(acc)
