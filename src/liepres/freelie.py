"""Free Lie algebra over Q in the Lyndon word basis."""

from __future__ import annotations

from fractions import Fraction

from .record import FrozenRecord

Word = tuple  # tuple of 0-based generator indices
Tower = tuple  # left-normed nesting [x_{t0}, [x_{t1}, [... x_{tk}]]]


class Generator(FrozenRecord):
    __slots__ = ("index", "name")


DEFAULT_DEGREE_CAP = 12

# lyndon_words refuses to build more words than this (G2 at degree 13 needs 192,346).
MAX_LYNDON_WORDS = 200_000


class DegreeCapExceeded(RuntimeError):
    """A bracket would exceed the degree cap."""


def is_lyndon(w: Word) -> bool:
    """A nonempty word is Lyndon iff it is strictly smaller than every proper suffix."""
    return len(w) > 0 and all(w < w[i:] for i in range(1, len(w)))


def lyndon_words(alphabet_size: int, max_degree: int) -> list:
    """Lyndon words over 0..alphabet_size-1 grouped by length: result[d] for d in 1..max_degree.

    Duval's algorithm; each group comes out in lexicographic order.  Raises
    ValueError before allocating anything when the words would number more than
    MAX_LYNDON_WORDS, counted degree by degree with Witt's formula.
    """
    if alphabet_size < 1 or max_degree < 1:
        raise ValueError("alphabet size and degree must be positive")
    check_word_budget(alphabet_size, max_degree)
    by_degree = [None] + [[] for _ in range(max_degree)]
    w = [-1]
    while w:
        w[-1] += 1
        by_degree[len(w)].append(tuple(w))
        m = len(w)
        while len(w) < max_degree:
            w.append(w[len(w) - m])
        while w and w[-1] == alphabet_size - 1:
            w.pop()
    return by_degree


def check_word_budget(alphabet_size: int, max_degree: int) -> None:
    """Raise ValueError if there are more than MAX_LYNDON_WORDS words up to max_degree.

    Witt: a^d = sum over e | d of e * N(e), N(e) the number of Lyndon words of
    length e, so N(d) follows from the smaller lengths with N(e) > 0.
    """
    if max_degree > MAX_LYNDON_WORDS:
        raise ValueError(f"degree bound {max_degree} exceeds the Lyndon word budget {MAX_LYNDON_WORDS}")
    total = 0
    weighted = []  # (e, e * N(e)) for the lengths e with N(e) > 0
    for d in range(1, max_degree + 1):
        count = (alphabet_size ** d - sum(m for e, m in weighted if d % e == 0)) // d
        if count:
            weighted.append((d, d * count))
        total += count
        if total > MAX_LYNDON_WORDS:
            raise ValueError(f"more than {MAX_LYNDON_WORDS} Lyndon words on {alphabet_size} letters "
                             f"up to degree {max_degree}")


def standard_factorization(w: Word) -> tuple:
    """Split a Lyndon word of length >= 2 at its longest proper Lyndon suffix."""
    if len(w) < 2:
        raise ValueError("standard factorization needs length >= 2")
    for i in range(1, len(w)):
        if is_lyndon(w[i:]):
            return w[:i], w[i:]
    raise AssertionError("unreachable: the last letter is a Lyndon suffix")


def _clean(terms: dict) -> dict:
    return {w: c for w, c in terms.items() if c != 0}


def _add_scaled(acc: dict, terms: dict, scale: Fraction) -> None:
    for w, c in terms.items():
        v = acc.get(w, 0) + scale * c
        if v:
            acc[w] = v
        else:
            acc.pop(w, None)


class LiePoly:
    """Finite Q-linear combination of Lyndon basis monomials."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        clean = {}
        for w, c in (terms or {}).items():
            c = Fraction(c)
            if c:
                clean[tuple(w)] = c
        self.terms = clean

    @classmethod
    def zero(cls) -> "LiePoly":
        return cls()

    @classmethod
    def monomial(cls, word: Word, coeff=1) -> "LiePoly":
        word = tuple(word)
        if not is_lyndon(word):
            raise ValueError(f"not a Lyndon word: {word}")
        return cls({word: coeff})

    @classmethod
    def generator(cls, index: int) -> "LiePoly":
        return cls({(index,): 1})

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: "LiePoly") -> "LiePoly":
        acc = dict(self.terms)
        for w, c in other.terms.items():
            v = acc.get(w, 0) + c
            if v:
                acc[w] = v
            else:
                del acc[w]
        return _clean_poly(acc)

    def __sub__(self, other: "LiePoly") -> "LiePoly":
        return self + -other

    def __neg__(self) -> "LiePoly":
        return _clean_poly({w: -c for w, c in self.terms.items()})

    def __rmul__(self, scalar) -> "LiePoly":
        scalar = Fraction(scalar)
        if scalar == 1:
            return _clean_poly(dict(self.terms))
        if not scalar:
            return LiePoly()
        return _clean_poly({w: scalar * c for w, c in self.terms.items()})

    def __eq__(self, other) -> bool:
        return isinstance(other, LiePoly) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def max_degree(self) -> int:
        """Largest monomial degree; 0 for the zero polynomial."""
        return max((len(w) for w in self.terms), default=0)

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        bits = []
        for w in sorted(self.terms, key=lambda w: (len(w), w)):
            bits.append(f"{self.terms[w]}*b{list(w)}")
        return " + ".join(bits)


def _clean_poly(terms: dict) -> LiePoly:
    """A LiePoly over terms that are already clean: tuple words, nonzero Fractions."""
    p = LiePoly.__new__(LiePoly)
    p.terms = terms
    return p


_bracket_cache: dict = {}
_DEPTH_LIMIT = 500


def _bracket_words(u: Word, v: Word, depth: int = 1) -> dict:
    """[b_u, b_v] as a term dict over Lyndon words; results are cached and read-only.

    For u < v the pair is a basis bracket exactly when uv is Lyndon with standard
    factorization (u, v); otherwise u = u1 u2 splits and Jacobi rewrites
    [b_u, b_v] = [b_u1, [b_u2, b_v]] - [b_u2, [b_u1, b_v]].  Both inner brackets drop
    the total degree, and the outer re-brackets keep the total degree while the first
    argument shrinks; the depth guard backstops the induction.  depth counts the
    uncached calls on the stack, this one included.
    """
    if u == v:
        return {}
    if u > v:
        return {w: -c for w, c in _bracket_words(v, u, depth).items()}
    key = (u, v)
    hit = _bracket_cache.get(key)
    if hit is not None:
        return hit
    if depth > _DEPTH_LIMIT:
        raise RuntimeError("bracket recursion depth guard tripped")
    w = u + v
    if is_lyndon(w) and standard_factorization(w) == (u, v):
        out = {w: Fraction(1)}
    else:
        if len(u) == 1:
            raise AssertionError(f"letter pair {u},{v} must be standard")
        u1, u2 = standard_factorization(u)
        acc: dict = {}
        for m, c in _bracket_words(u2, v, depth + 1).items():
            _add_scaled(acc, _bracket_words(u1, m, depth + 1), c)
        for m, c in _bracket_words(u1, v, depth + 1).items():
            _add_scaled(acc, _bracket_words(u2, m, depth + 1), -c)
        out = _clean(acc)
    _bracket_cache[key] = out
    return out


def bracket(p: LiePoly, q: LiePoly) -> LiePoly:
    """Lie bracket [p, q] in the Lyndon basis, refused past DEFAULT_DEGREE_CAP."""
    acc: dict = {}
    for u, cu in p.terms.items():
        for v, cv in q.terms.items():
            if len(u) + len(v) > DEFAULT_DEGREE_CAP:
                raise DegreeCapExceeded(f"bracket degree {len(u) + len(v)} exceeds cap {DEFAULT_DEGREE_CAP}")
            _add_scaled(acc, _bracket_words(u, v), cu * cv)
    return _clean_poly(acc)


def tower_to_poly(t: Tower) -> LiePoly:
    """Left-normed tower [x_{t0}, [x_{t1}, [... x_{tk}]]] as a LiePoly (0-based indices)."""
    if len(t) == 0:
        raise ValueError("empty tower")
    p = LiePoly.generator(t[-1])
    for a in reversed(t[:-1]):
        p = bracket(LiePoly.generator(a), p)
    return p


def bracket_string(w: Word, names) -> str:
    """Render a Lyndon monomial as nested brackets via its standard factorization."""
    if len(w) == 1:
        return names[w[0]]
    u, v = standard_factorization(w)
    return f"[{bracket_string(u, names)},{bracket_string(v, names)}]"


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
            for v, cv in other.terms.items():
                w = u + v
                val = acc.get(w, 0) + cu * cv
                if val:
                    acc[w] = val
                else:
                    acc.pop(w, None)
        return NCPoly(acc)

    def __add__(self, other: "NCPoly") -> "NCPoly":
        acc = dict(self.terms)
        _add_scaled(acc, other.terms, Fraction(1))
        return NCPoly(acc)

    def __sub__(self, other: "NCPoly") -> "NCPoly":
        acc = dict(self.terms)
        _add_scaled(acc, other.terms, Fraction(-1))
        return NCPoly(acc)

    def __rmul__(self, scalar) -> "NCPoly":
        scalar = Fraction(scalar)
        return NCPoly({w: scalar * c for w, c in self.terms.items()})

    def commutator(self, other: "NCPoly") -> "NCPoly":
        return self.mul(other) - other.mul(self)

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        return isinstance(other, NCPoly) and self.terms == other.terms

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        bits = []
        for w in sorted(self.terms, key=lambda w: (len(w), w)):
            bits.append(f"{self.terms[w]}*w{list(w)}")
        return " + ".join(bits)


def _word_to_associative(w: Word) -> NCPoly:
    if len(w) == 1:
        return NCPoly.letter(w[0])
    u, v = standard_factorization(w)
    return _word_to_associative(u).commutator(_word_to_associative(v))


def expand_to_associative(p: LiePoly) -> NCPoly:
    """Image of p under the standard embedding into the free associative algebra."""
    acc: dict = {}
    for w, c in p.terms.items():
        _add_scaled(acc, _word_to_associative(w).terms, c)
    return NCPoly(acc)
