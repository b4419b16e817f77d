"""Free Lie algebra core: Lyndon words, bracket normalization, and its oracles."""

import itertools
import random
from fractions import Fraction

import pytest
from associative import expand_to_associative, word_image
from towers import tower_to_poly

from liepres import freelie
from liepres.freelie import (
    DegreeCapExceeded,
    LiePoly,
    bracket,
    bracket_string,
    is_lyndon,
    lyndon_counts,
    lyndon_words,
    lyndon_words_of_degree,
    standard_factorization,
)


def mobius(n):
    result = 1
    d = 2
    while d * d <= n:
        if n % d == 0:
            n //= d
            if n % d == 0:
                return 0
            result = -result
        d += 1
    if n > 1:
        result = -result
    return result


def witt(k, n):
    total = 0
    for d in range(1, n + 1):
        if n % d == 0:
            total += mobius(d) * k ** (n // d)
    return total // n


def all_words(k, n):
    return itertools.product(range(k), repeat=n)


def test_lyndon_matches_rotation_definition():
    for n in range(1, 7):
        for w in all_words(3, n):
            rotations = [w[i:] + w[:i] for i in range(1, n)]
            expected = all(w < r for r in rotations)
            assert is_lyndon(w) == expected, w


def test_lyndon_counts_match_witt_formula():
    for k in (2, 3):
        grouped = lyndon_words(k, 7)
        for n in range(1, 8):
            assert len(grouped[n]) == witt(k, n), (k, n)


def test_three_letter_counts_up_to_degree_8():
    grouped = lyndon_words(3, 8)
    assert [len(grouped[n]) for n in range(1, 9)] == [3, 3, 8, 18, 48, 116, 312, 810]
    assert sum(len(grouped[n]) for n in range(1, 9)) == 1318


def test_lyndon_words_sorted_and_unique():
    grouped = lyndon_words(3, 6)
    for n in range(1, 7):
        ws = grouped[n]
        assert ws == sorted(ws)
        assert len(set(ws)) == len(ws)
        for w in ws:
            assert is_lyndon(w)


def test_standard_factorization_is_longest_lyndon_proper_suffix():
    grouped = lyndon_words(3, 6)
    for n in range(2, 7):
        for w in grouped[n]:
            u, v = standard_factorization(w)
            assert u + v == w
            assert is_lyndon(u) and is_lyndon(v)
            assert u < v
            best = None
            for i in range(1, n):
                if is_lyndon(w[i:]):
                    best = w[i:]
                    break
            assert v == best, w


def test_bracket_bilinear_and_antisymmetric():
    rng = random.Random(424242)
    grouped = lyndon_words(3, 3)
    monos = [w for n in range(1, 4) for w in grouped[n]]

    def rand_poly():
        p = LiePoly()
        for w in rng.sample(monos, 4):
            p = p + Fraction(rng.randint(-3, 3)) * LiePoly.monomial(w)
        return p

    for trial in range(15):
        p, q, r = rand_poly(), rand_poly(), rand_poly()
        assert bracket(p, p) == LiePoly()
        assert bracket(p, q) == -bracket(q, p)
        assert bracket(p + q, r) == bracket(p, r) + bracket(q, r)
        c = Fraction(rng.randint(-5, 5), rng.randint(1, 5))
        assert bracket(c * p, q) == c * bracket(p, q)


def _clean_terms(p: LiePoly) -> bool:
    """Tuple words with exact nonzero coefficients: an int or a Fraction, never a bool or a float."""
    return all(type(w) is tuple and type(c) in (int, Fraction) and c != 0 for w, c in p.terms.items())


def test_public_constructor_keeps_exact_coefficients_and_arithmetic_stays_clean():
    p = LiePoly({(0,): 2, (1,): 0, (0, 1): Fraction(0), (0, 2): Fraction(1, 3)})
    assert p.terms == {(0,): 2, (0, 2): Fraction(1, 3)} and _clean_terms(p)
    assert type(p.terms[(0,)]) is int and type(p.terms[(0, 2)]) is Fraction
    q = LiePoly({(0,): -2, (1,): 5})
    for r in (p + q, p - q, q - q, -p, 1 * p, 0 * p, Fraction(3, 7) * p, 2 * q, bracket(p, q)):
        assert _clean_terms(r)
    assert (p + q).terms == {(0, 2): Fraction(1, 3), (1,): 5}
    assert q - q == LiePoly() and 0 * p == LiePoly()
    assert (1 * p) == p and (1 * p).terms is not p.terms


def test_bracket_lands_in_lyndon_basis():
    grouped = lyndon_words(3, 6)
    lyndon = {w for n in range(1, 7) for w in grouped[n]}
    for du in range(1, 4):
        for dv in range(1, 4):
            for u in grouped[du]:
                for v in grouped[dv]:
                    for w in bracket(LiePoly.monomial(u), LiePoly.monomial(v)).terms:
                        assert w in lyndon
                        assert len(w) == du + dv


def test_jacobi_exhaustive_to_degree_6():
    grouped = lyndon_words(3, 4)
    monos = [w for n in range(1, 5) for w in grouped[n]]
    count = 0
    for a, b, c in itertools.combinations(monos, 3):
        if len(a) + len(b) + len(c) > 6:
            continue
        pa, pb, pc = LiePoly.monomial(a), LiePoly.monomial(b), LiePoly.monomial(c)
        total = (bracket(pa, bracket(pb, pc))
                 + bracket(pb, bracket(pc, pa))
                 + bracket(pc, bracket(pa, pb)))
        assert total == LiePoly(), (a, b, c)
        count += 1
    assert count == 170


def test_associative_commutator_oracle_on_every_climb_bracket():
    # The closure climb brackets only [x_g, w] with a letter first: every such
    # bracket on 3 letters up to |w| = 7 and on 2 letters up to |w| = 9 must be the
    # commutator x_g b_w - b_w x_g of the associative images, summed in one dict.
    pairs = 0
    for letters, top in ((3, 7), (2, 9)):
        cache: dict = {}
        for w in (w for words in lyndon_words(letters, top)[1:] for w in words):
            bw = word_image(w)
            for g in range(letters):
                acc: dict = {}
                for m, c in freelie._bracket_words((g,), w, cache).items():
                    for x, k in word_image(m).items():
                        acc[x] = acc.get(x, 0) + c * k
                for x, k in bw.items():
                    acc[(g,) + x] = acc.get((g,) + x, 0) - k
                    acc[x + (g,)] = acc.get(x + (g,), 0) + k
                assert not any(acc.values()), (g, w)
                pairs += 1
    assert pairs == 1778


def test_associative_oracle_on_random_polys():
    rng = random.Random(1318)
    grouped = lyndon_words(3, 3)
    monos = [w for n in range(1, 4) for w in grouped[n]]
    for trial in range(10):
        p = LiePoly()
        q = LiePoly()
        for w in rng.sample(monos, 3):
            p = p + Fraction(rng.randint(-2, 2)) * LiePoly.monomial(w)
        for w in rng.sample(monos, 3):
            q = q + Fraction(rng.randint(-2, 2)) * LiePoly.monomial(w)
        ap = expand_to_associative(p)
        aq = expand_to_associative(q)
        assert expand_to_associative(bracket(p, q)) == ap.mul(aq) - aq.mul(ap)


def test_embedding_injective_to_degree_5():
    grouped = lyndon_words(3, 5)
    monos = [w for n in range(1, 6) for w in grouped[n]]
    images = [expand_to_associative(LiePoly.monomial(w)) for w in monos]
    support = sorted({w for img in images for w in img.terms}, key=lambda w: (len(w), w))
    index = {w: i for i, w in enumerate(support)}
    rows = []
    for img in images:
        row = [Fraction(0)] * len(support)
        for w, c in img.terms.items():
            row[index[w]] = c
        rows.append(row)
    # dense Gaussian elimination: the rank of the images
    rank = 0
    for j in range(len(support)):
        p = next((i for i in range(rank, len(rows)) if rows[i][j]), None)
        if p is None:
            continue
        rows[rank], rows[p] = rows[p], rows[rank]
        for i in range(rank + 1, len(rows)):
            if rows[i][j]:
                f = rows[i][j] / rows[rank][j]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    assert rank == len(monos) == 80


def test_tower_to_poly_matches_nested_brackets():
    x = [LiePoly.generator(i) for i in range(3)]
    assert tower_to_poly((0, 1)) == bracket(x[0], x[1])
    assert tower_to_poly((0, 1, 2)) == bracket(x[0], bracket(x[1], x[2]))
    assert tower_to_poly((2, 0, 1, 2)) == bracket(x[2], bracket(x[0], bracket(x[1], x[2])))
    assert tower_to_poly((0,)) == x[0]
    assert tower_to_poly((0, 0)) == LiePoly()


def test_bracket_string_round_names():
    assert bracket_string((0,), ("x1", "x2", "x3")) == "x1"
    assert bracket_string((0, 1), ("x1", "x2", "x3")) == "[x1,x2]"
    assert bracket_string((0, 0, 1), ("x1", "x2", "x3")) == "[x1,[x1,x2]]"


def test_degree_cap_enforced(monkeypatch):
    p = LiePoly.monomial((0, 0, 0, 0, 0, 0, 1))
    q = LiePoly.monomial((0, 0, 0, 0, 0, 1))
    try:
        bracket(p, q)
        raised = False
    except DegreeCapExceeded:
        raised = True
    assert raised
    monkeypatch.setattr(freelie, "DEFAULT_DEGREE_CAP", 13)
    assert bracket(p, q).max_degree() == 13


def test_depth_guard_unwinds_counter(monkeypatch):
    # the depth travels as an argument, so a tripped guard leaves no state behind:
    # with the default limit the same bracket, on the same memo, then succeeds and is correct
    default_limit = freelie._DEPTH_LIMIT
    cache: dict = {}
    monkeypatch.setattr(freelie, "_DEPTH_LIMIT", 1)
    with pytest.raises(RuntimeError, match="depth guard"):
        freelie._bracket_words((0, 0, 1), (1,), cache)
    monkeypatch.setattr(freelie, "_DEPTH_LIMIT", default_limit)
    u, v = LiePoly.monomial((0, 0, 1)), LiePoly.monomial((1,))
    got = LiePoly(freelie._bracket_words((0, 0, 1), (1,), cache))
    assert got != LiePoly()
    assert expand_to_associative(got) == expand_to_associative(u).commutator(expand_to_associative(v))


def test_bracket_memo_is_the_callers_and_stores_one_orientation():
    words = [w for ws in lyndon_words(3, 4)[1:] for w in ws]
    warm: dict = {}
    for u, v in itertools.product(words, repeat=2):
        if len(u) + len(v) > 6:
            continue
        cold = freelie._bracket_words(u, v, {})
        assert freelie._bracket_words(u, v, warm) == cold
        assert freelie._bracket_words(v, u, warm) == {w: -c for w, c in cold.items()}
        assert freelie._bracket_words(u, v, warm) == cold
    # a reversed call reads the bracket stored under (v, u) and negates it unstored
    assert all(u < v for u, v in warm)
    assert len(warm) > 100


@pytest.mark.parametrize("alphabet", [1, 2, 3, 4, 5])
def test_words_of_one_degree_match_the_grouped_words_and_brute_force(alphabet):
    top = {1: 6, 2: 10, 3: 7, 4: 5, 5: 4}[alphabet]
    grouped = lyndon_words(alphabet, top)
    for degree in range(1, top + 1):
        words = list(lyndon_words_of_degree(alphabet, degree))
        assert words == grouped[degree]
        assert words == [w for w in itertools.product(range(alphabet), repeat=degree) if is_lyndon(w)]


@pytest.mark.parametrize("alphabet, bound", [(3, 6), (2, 9), (4, 4), (5, 3)])
def test_word_budget_counts_exactly_with_witt(monkeypatch, alphabet, bound):
    total = sum(witt(alphabet, d) for d in range(1, bound + 1))
    monkeypatch.setattr(freelie, "MAX_LYNDON_WORDS", total)
    assert list(lyndon_counts(alphabet, bound)) == [len(ws) for ws in lyndon_words(alphabet, bound)[1:]]
    assert sum(len(ws) for ws in lyndon_words(alphabet, bound)[1:]) == total
    monkeypatch.setattr(freelie, "MAX_LYNDON_WORDS", total - 1)
    with pytest.raises(ValueError, match=f"more than {total - 1} Lyndon words"):
        lyndon_words(alphabet, bound)
