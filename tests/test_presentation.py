"""Presentation DSL: parsing, errors with positions, and round-tripping."""

from collections import Counter
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st
from associative import NCPoly, expand_to_associative
from presentation_text import format_presentation, poly_text
from towers import tower_to_poly

from liepres import freelie, g2
from liepres.freelie import DegreeCapExceeded, Generator, LiePoly, bracket
from liepres.presentation import (
    MAX_NESTING,
    ParseError,
    Presentation,
    combination_text,
    parse_presentation,
)


def parse_error(text):
    try:
        parse_presentation(text)
    except ParseError as exc:
        return exc
    raise AssertionError("expected a ParseError")


def test_single_quadruple_relation():
    pres = parse_presentation("generators: x1 x2 x3\nrelation: [x1,[x2,[x1,x3]]] = 2*x1")
    assert pres.names == ("x1", "x2", "x3")
    assert len(pres.relations) == 1
    expected = tower_to_poly((0, 1, 0, 2)) - Fraction(2) * LiePoly.generator(0)
    assert pres.relations[0] == expected


def test_sl2_presentation():
    text = "generators: e f h\nrelation: [h,e] = 2*e\nrelation: [h,f] = -2*f\nrelation: [e,f] = h"
    pres = parse_presentation(text)
    assert pres.names == ("e", "f", "h")
    assert len(pres.relations) == 3
    e, f, h = (LiePoly.generator(i) for i in range(3))
    assert pres.relations[0] == bracket(h, e) - Fraction(2) * e
    assert pres.relations[1] == bracket(h, f) + Fraction(2) * f
    assert pres.relations[2] == bracket(e, f) - h


def test_unclosed_bracket_is_a_syntax_error():
    exc = parse_error("generators: x1 x2 x3\nrelation: [x1,")
    assert "line 2" in str(exc)


def test_error_positions_are_reported():
    exc = parse_error("generators: a b\nrelation: [a,b = 0")
    assert exc.line == 2
    assert exc.col > 0
    exc = parse_error("generators: a b\nrelation: [a,c] = 0")
    assert "c" in str(exc)
    assert exc.line == 2


def _nested_zero(depth):
    text = "x1"
    for _ in range(depth):
        text = f"[0,{text}]"
    return f"generators: x1\nrelation: {text} = 0"


def test_nesting_depth_is_bounded():
    assert parse_presentation(_nested_zero(MAX_NESTING)).relations == (LiePoly(),)
    for depth in (MAX_NESTING + 1, 3000):
        exc = parse_error(_nested_zero(depth))
        assert exc.message == f"brackets nested deeper than {MAX_NESTING}"
        # the first '[' is column 11, and each level adds the 3 characters "[0,"
        assert (exc.line, exc.col) == (2, 11 + 3 * MAX_NESTING)


def test_duplicate_generator_rejected():
    exc = parse_error("generators: a b a\nrelation: [a,b] = 0")
    assert "a" in str(exc)


def test_unknown_generator_rejected():
    exc = parse_error("generators: a b\nrelation: [a,z] = 0")
    assert "z" in str(exc)


def test_bare_constant_rejected():
    exc = parse_error("generators: a b\nrelation: [a,b] = 5")
    assert "constant" in str(exc)


def test_zero_rhs_allowed():
    pres = parse_presentation("generators: a b\nrelation: [a,b] = 0")
    assert pres.relations[0] == bracket(LiePoly.generator(0), LiePoly.generator(1))


def test_zero_denominator_rejected():
    exc = parse_error("generators: a b\nrelation: [a,b] = 1/0 * a")
    assert "denominator" in str(exc) or "zero" in str(exc).lower()


def test_numbers_past_the_digit_limit_are_parse_errors():
    # int() refuses more than 4300 digits; that must not escape as a bare ValueError
    huge = "1" * 5000
    exc = parse_error(f"generators: a b\nrelation: {huge}*[a,b] = 0")
    assert (exc.line, exc.col) == (2, 11)
    assert exc.message == "number of 5000 digits is too long"
    exc = parse_error(f"generators: a b\nrelation: 3/{huge}*[a,b] = a")
    assert (exc.line, exc.col) == (2, 13)
    assert exc.message == "number of 5000 digits is too long"


def test_non_decimal_digits_are_parse_errors():
    # superscripts are digits to str.isdigit but not numbers to int()
    exc = parse_error("generators: a b\nrelation: 2\u00b2*[a,b] = 0")
    assert (exc.line, exc.col) == (2, 12)
    assert "unexpected character" in exc.message


def test_rational_coefficients():
    pres = parse_presentation("generators: a b\nrelation: [a,b] = 3/4*a - 2*b + b")
    a, b = LiePoly.generator(0), LiePoly.generator(1)
    assert pres.relations[0] == bracket(a, b) - Fraction(3, 4) * a + b


def test_nested_expressions_and_sums():
    pres = parse_presentation(
        "generators: a b c\nrelation: [[a,b],c] + [b,[a,c]] = [a,[b,c]]")
    a, b, c = (LiePoly.generator(i) for i in range(3))
    lhs = bracket(bracket(a, b), c) + bracket(b, bracket(a, c))
    assert pres.relations[0] == lhs - bracket(a, bracket(b, c))
    assert pres.relations[0] == LiePoly()


def test_comments_and_blank_lines_ignored():
    text = "# header\n\ngenerators: a b  # trailing\n\n# note\nrelation: [a,b] = 0\n"
    pres = parse_presentation(text)
    assert pres.names == ("a", "b")
    assert len(pres.relations) == 1


def test_round_trip_is_structural_identity():
    text = ("generators: x1 x2 x3\n"
            "relation: [x1,[x2,[x1,x3]]] = 2*x1\n"
            "relation: [x1,[x1,[x2,x3]]] = 4*x1\n"
            "relation: [x2,[x1,[x1,x3]]] = -6*x1\n")
    pres = parse_presentation(text)
    again = parse_presentation(format_presentation(pres))
    assert again == pres
    assert format_presentation(again) == format_presentation(pres)


def test_round_trip_shipped_g2_text():
    from liepres.g2 import g2_presentation, g2_presentation_text
    pres = parse_presentation(g2_presentation_text())
    assert pres.names == ("x1", "x2", "x3")
    assert set(pres.relations) == set(g2_presentation().relations)
    assert parse_presentation(format_presentation(pres)) == pres


def test_poly_text_inverse_of_parsing():
    names = ("a", "b", "c")
    a, b, c = (LiePoly.generator(i) for i in range(3))
    samples = [
        a,
        -b,
        bracket(a, b),
        Fraction(2) * bracket(a, bracket(b, c)) - Fraction(1, 3) * a,
        bracket(a, b) + bracket(a, c) - c,
    ]
    for p in samples:
        text = f"generators: a b c\nrelation: {poly_text(p, names)} = 0"
        assert parse_presentation(text).relations[0] == p


def test_combination_text():
    assert combination_text([]) == "0"
    terms = [("a", Fraction(-1)), ("b", Fraction(1)), ("c", Fraction(-3, 2)), ("d", Fraction(4))]
    assert combination_text(terms) == "-a + b - 3/2*c + 4*d"
    assert combination_text([("[x,y]", Fraction(2, 3))]) == "2/3*[x,y]"


def test_max_relation_degree():
    pres = parse_presentation("generators: a b\nrelation: [a,[a,[a,b]]] = 0\nrelation: [a,b] = 0")
    assert pres.max_relation_degree() == 4
    assert Presentation(pres.generators, ()).max_relation_degree() == 0


# --- fuzzing the grammar ------------------------------------------------------

NAME = st.from_regex(r"[A-Za-z_][A-Za-z0-9_]{0,4}", fullmatch=True).filter(
    lambda s: s not in ("generators", "relation"))


@st.composite
def presentations(draw):
    names = draw(st.lists(NAME, min_size=1, max_size=4, unique=True))
    n = len(names)
    towers = st.lists(st.integers(0, n - 1), min_size=1, max_size=4).map(tuple)
    terms = st.tuples(st.integers(-9, 9), st.integers(1, 4), towers)
    relations = []
    for rel in draw(st.lists(st.lists(terms, max_size=4), max_size=4)):
        p = LiePoly()
        for num, den, tower in rel:
            p = p + Fraction(num, den) * tower_to_poly(tower)
        relations.append(p)
    return Presentation(tuple(Generator(i, name) for i, name in enumerate(names)), tuple(relations))


@settings(max_examples=100, deadline=None)
@given(pres=presentations())
def test_format_then_parse_round_trips(pres):
    text = format_presentation(pres)
    again = parse_presentation(text)
    assert again == pres
    assert format_presentation(again) == text


# An expression is a list of (sign, coefficient or None, atom); an atom is a
# generator index or a pair of expressions in brackets.  Both are rendered as
# text for the parser and evaluated independently in the free associative algebra.
COEFF = st.one_of(st.none(), st.tuples(st.integers(0, 9), st.integers(1, 4)))


def expressions(atoms):
    return st.lists(st.tuples(st.sampled_from("+-"), COEFF, atoms), min_size=1, max_size=3)


EXPRESSIONS = expressions(st.recursive(
    st.integers(0, 2), lambda inner: st.tuples(expressions(inner), expressions(inner)), max_leaves=6))


def render(expr) -> str:
    out = []
    for k, (sign, coeff, atom) in enumerate(expr):
        body = f"[{render(atom[0])},{render(atom[1])}]" if isinstance(atom, tuple) else "abc"[atom]
        if coeff is not None:
            num, den = coeff
            body = f"{num}*{body}" if den == 1 else f"{num}/{den}*{body}"
        if k > 0:
            out.append(f" {sign} {body}")
        else:
            out.append("-" + body if sign == "-" else body)
    return "".join(out)


def relation_text(lhs, rhs) -> str:
    return f"generators: a b c\nrelation: {render(lhs)} = {render(rhs)}\n"


def associative(expr) -> NCPoly:
    acc = NCPoly()
    for sign, coeff, atom in expr:
        if isinstance(atom, tuple):
            value = associative(atom[0]).commutator(associative(atom[1]))
        else:
            value = NCPoly.letter(atom)
        scale = Fraction(*coeff) if coeff is not None else Fraction(1)
        acc = acc + (scale if sign == "+" else -scale) * value
    return acc


@settings(max_examples=100, deadline=None)
@given(lhs=EXPRESSIONS, rhs=EXPRESSIONS)
def test_parsed_relation_expands_like_the_expression(lhs, rhs):
    (relation,) = parse_presentation(relation_text(lhs, rhs)).relations
    assert all(type(c) in (int, Fraction) and c != 0 for c in relation.terms.values())
    assert expand_to_associative(relation) == associative(lhs) - associative(rhs)


# The grammar's punctuation, digits, keywords and names, and a few characters
# outside it.
SOUP = st.sampled_from(["[", "]", ",", "=", "*", "+", "-", "/", ":", "\n", " ", "#", "0", "1", "12", "3/4",
                        "generators", "relation", "a", "b", "x1", "_", "%", "\u00b2", "\u00e9"])


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_token_soup_parses_or_raises_a_typed_error(data):
    # Pure soup, or a valid relation with a few tokens inserted or overwritten.
    text = data.draw(st.one_of(st.lists(SOUP, max_size=40).map("".join),
                               st.builds(relation_text, EXPRESSIONS, EXPRESSIONS)))
    for _ in range(data.draw(st.integers(0, 3))):
        i = data.draw(st.integers(0, len(text)))
        text = text[:i] + data.draw(SOUP) + text[i + data.draw(st.integers(0, 2)):]
    try:
        pres = parse_presentation(text)
    except (ParseError, DegreeCapExceeded):
        return
    assert parse_presentation(format_presentation(pres)) == pres


def test_a_parse_expands_each_bracket_pair_once(monkeypatch):
    # one memo per parse (and per named_basis_free call): the relations share inner brackets.
    # The memo holds the pair u < v, so a bracket is computed only under that orientation.
    expanded = Counter()
    expand = freelie._bracket_words

    def counting(u, v, cache, depth=1):
        if u < v and (u, v) not in cache:
            expanded[(u, v)] += 1
        return expand(u, v, cache, depth)

    monkeypatch.setattr(freelie, "_bracket_words", counting)
    parse_presentation(g2.g2_presentation_text())
    assert expanded and max(expanded.values()) == 1
    expanded.clear()
    g2.named_basis_free()
    assert expanded and max(expanded.values()) == 1
