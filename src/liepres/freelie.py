"""Free Lie algebra over Q in the Lyndon word basis."""

from .record import Record

Word = tuple  # tuple of 0-based generator indices


class Generator(Record):
    __slots__ = ("index", "name")


DEFAULT_DEGREE_CAP = 12

# lyndon_words refuses to build more words than this (G2 at degree 13 needs 192,346).
MAX_LYNDON_WORDS = 200_000


class DegreeCapExceeded(RuntimeError):
    """A bracket would exceed the degree cap."""


def is_lyndon(w: Word) -> bool:
    """A nonempty word is Lyndon iff it is strictly smaller than every proper suffix."""
    return len(w) > 0 and all(w < w[i:] for i in range(1, len(w)))


def lyndon_words_of_degree(alphabet_size: int, degree: int):
    """Yield the Lyndon words of length degree over 0..alphabet_size-1, in lexicographic order.

    Fredricksen-Kessler-Maiorana: walk the prenecklaces of length degree in
    lexicographic order, each the periodic extension of its first p letters, and
    yield those of period p = degree.  The successor of a prenecklace raises its
    last letter below alphabet_size - 1, and the new period is that letter's
    position.  No word of another length is built, and the budget is the caller's.
    """
    if alphabet_size < 1 or degree < 1:
        raise ValueError("alphabet size and degree must be positive")
    a = [0] * degree
    last = alphabet_size - 1
    p = 1
    while True:
        if p == degree:
            yield tuple(a)
        i = degree - 1
        while i >= 0 and a[i] == last:
            i -= 1
        if i < 0:
            return
        a[i] += 1
        p = i + 1
        for j in range(p, degree):
            a[j] = a[j - p]


def lyndon_words(alphabet_size: int, max_degree: int) -> list:
    """Lyndon words over 0..alphabet_size-1 grouped by length: result[d] for d in 1..max_degree.

    Each group is `lyndon_words_of_degree`, in lexicographic order.  Raises
    ValueError before allocating anything when the words would number more than
    MAX_LYNDON_WORDS, counted degree by degree with Witt's formula.
    """
    if alphabet_size < 1 or max_degree < 1:
        raise ValueError("alphabet size and degree must be positive")
    check_word_budget(alphabet_size, max_degree)
    return [None] + [list(lyndon_words_of_degree(alphabet_size, d)) if count else []
                     for d, count in enumerate(lyndon_counts(alphabet_size, max_degree), start=1)]


def lyndon_counts(alphabet_size: int, max_degree: int):
    """Yield N(d), the number of Lyndon words of length d, for d in 1..max_degree.

    Witt: a^d = sum over e | d of e * N(e), so N(d) follows from the smaller
    lengths with N(e) > 0.  Nothing is built; the caller may stop at any degree.
    """
    weighted = []  # (e, e * N(e)) for the lengths e with N(e) > 0
    for d in range(1, max_degree + 1):
        count = (alphabet_size ** d - sum(m for e, m in weighted if d % e == 0)) // d
        if count:
            weighted.append((d, d * count))
        yield count


def check_word_budget(alphabet_size: int, max_degree: int) -> None:
    """Raise ValueError if there are more than MAX_LYNDON_WORDS words up to max_degree.

    The counts are summed degree by degree, so the refusal comes at the first
    degree past the budget.
    """
    if max_degree > MAX_LYNDON_WORDS:
        raise ValueError(f"degree bound {max_degree} exceeds the Lyndon word budget {MAX_LYNDON_WORDS}")
    total = 0
    for count in lyndon_counts(alphabet_size, max_degree):
        total += count
        if total > MAX_LYNDON_WORDS:
            raise ValueError(f"more than {MAX_LYNDON_WORDS} Lyndon words on {alphabet_size} letters "
                             f"up to degree {max_degree}")


def standard_factorization(w: Word) -> tuple:
    """Split a Lyndon word of length >= 2 at its longest proper Lyndon suffix.

    That suffix is the lexicographically smallest proper suffix v: v is smaller
    than its own proper suffixes, so it is Lyndon, and a longer Lyndon suffix
    would end in v and so be smaller than v.
    """
    if len(w) < 2:
        raise ValueError("standard factorization needs length >= 2")
    i = min(range(1, len(w)), key=lambda i: w[i:])
    return w[:i], w[i:]


def _add_scaled(acc: dict, terms: dict, scale) -> None:
    for w, c in terms.items():
        v = acc.get(w, 0) + scale * c
        if v:
            acc[w] = v
        else:
            acc.pop(w, None)


class LiePoly:
    """Finite Q-linear combination of Lyndon basis monomials, each coefficient an int or a Fraction."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = {tuple(w): c for w, c in (terms or {}).items() if c}

    @classmethod
    def monomial(cls, word: Word, coeff=1) -> "LiePoly":
        word = tuple(word)
        if not is_lyndon(word):
            raise ValueError(f"not a Lyndon word: {word}")
        return cls({word: coeff})

    @classmethod
    def generator(cls, index: int) -> "LiePoly":
        return cls({(index,): 1})

    def __add__(self, other: "LiePoly") -> "LiePoly":
        acc = dict(self.terms)
        _add_scaled(acc, other.terms, 1)
        return _clean_poly(acc)

    def __sub__(self, other: "LiePoly") -> "LiePoly":
        return self + -other

    def __neg__(self) -> "LiePoly":
        return _clean_poly({w: -c for w, c in self.terms.items()})

    def __rmul__(self, scalar) -> "LiePoly":
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
    """A LiePoly over terms that are already clean: tuple words, nonzero coefficients."""
    p = LiePoly.__new__(LiePoly)
    p.terms = terms
    return p


_DEPTH_LIMIT = 500


def _bracket_words(u: Word, v: Word, cache: dict, depth: int = 1) -> dict:
    """[b_u, b_v] for Lyndon words u, v as an int term dict, memoized read-only in the caller's cache.

    The Lyndon basis has integer structure constants, so no Fraction is needed.
    For u < v the word uv is Lyndon, and its standard factorization is (u, v)
    exactly when u is a letter or u = u1 u2 (standard) has u2 >= v (Lothaire,
    Combinatorics on Words, 5.1); then [b_u, b_v] = b_uv.  Otherwise Jacobi rewrites
    [b_u, b_v] = [b_u1, [b_u2, b_v]] - [b_u2, [b_u1, b_v]].  Both inner brackets drop
    the total degree, and the outer re-brackets keep the total degree while the first
    argument shrinks; the depth guard backstops the induction.  depth counts the
    uncached calls on the stack, this one included.

    The cache holds one orientation, the pair (u, v) with u < v.  A call with
    u > v returns a fresh negation of the stored bracket and stores nothing; the
    hot callers (`bracket`, the Jacobi step here, `quotient.closure_levels`) ask
    in the stored order and apply the sign where they use the result.
    """
    if u >= v:
        return {w: -c for w, c in _bracket_words(v, u, cache, depth).items()} if u > v else {}
    key = (u, v)
    hit = cache.get(key)
    if hit is not None:
        return hit
    if depth > _DEPTH_LIMIT:
        raise RuntimeError("bracket recursion depth guard tripped")
    u1, u2 = standard_factorization(u) if len(u) > 1 else (None, None)
    if u2 is None or u2 >= v:
        out = {u + v: 1}
    else:
        out = {}  # zero-free: _add_scaled drops every term that cancels
        for m, c in _bracket_words(u2, v, cache, depth + 1).items():
            _add_bracket(out, u1, m, c, cache, depth + 1)
        for m, c in _bracket_words(u1, v, cache, depth + 1).items():
            _add_bracket(out, u2, m, -c, cache, depth + 1)
    cache[key] = out
    return out


def _add_bracket(acc: dict, u: Word, v: Word, scale, cache: dict, depth: int = 1) -> None:
    """acc += scale * [b_u, b_v], reading the memo in its stored orientation."""
    if u < v:
        _add_scaled(acc, _bracket_words(u, v, cache, depth), scale)
    elif u > v:
        _add_scaled(acc, _bracket_words(v, u, cache, depth), -scale)


def bracket(p: LiePoly, q: LiePoly, cache: dict | None = None) -> LiePoly:
    """Lie bracket [p, q] in the Lyndon basis, refused past DEFAULT_DEGREE_CAP.

    cache is the caller's word-bracket memo, shared across its calls; None uses a fresh one.
    """
    acc: dict = {}
    if cache is None:
        cache = {}
    for u, cu in p.terms.items():
        for v, cv in q.terms.items():
            if len(u) + len(v) > DEFAULT_DEGREE_CAP:
                raise DegreeCapExceeded(f"bracket degree {len(u) + len(v)} exceeds cap {DEFAULT_DEGREE_CAP}")
            _add_bracket(acc, u, v, cu * cv, cache)
    return _clean_poly(acc)


def bracket_string(w: Word, names) -> str:
    """Render a Lyndon monomial as nested brackets via its standard factorization."""
    if len(w) == 1:
        return names[w[0]]
    u, v = standard_factorization(w)
    return f"[{bracket_string(u, names)},{bracket_string(v, names)}]"
