"""Ideal-closure engine: quotient bases, reduction maps, tables, the rewriter gate."""

import random
import tracemalloc
from collections import Counter
from fractions import Fraction
from math import gcd, lcm
from pathlib import Path

import dense
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from presentation_text import format_presentation
from towers import tower_to_poly

import liepres
from liepres import freelie, g2
from liepres.analysis import check_jacobi, derived_subalgebra_and_center, lower_central_dims
from liepres.cli import main
from liepres.freelie import Generator, LiePoly, bracket, lyndon_words
from liepres.g2 import named_basis_free, rewriter_applicable, rewriter_structure_table, spans_g2
from liepres.linalg import Echelon
from liepres.presentation import Presentation, parse_presentation
from liepres.quotient import (
    NamesNotBasisError,
    certify,
    closure_levels,
    quotient_closure,
    renamed,
    structure_table,
)
from liepres.tabledoc import load_table, to_json_text

FIXTURES = Path(liepres.__file__).parent / "fixtures"

SL2 = "generators: e f h\nrelation: [e,f] = h\nrelation: [h,e] = 2*e\nrelation: [h,f] = -2*f\n"
HEIS = "generators: p q\nrelation: [p,[p,q]] = 0\nrelation: [q,[p,q]] = 0\n"
MUTATIONS = (
    ("relation: [x1,[x1,[x2,x3]]] = 4*x1", "relation: [x1,[x1,[x2,x3]]] = 5*x1"),
    ("relation: [x1,[x2,[x1,x3]]] = 2*x1", "relation: [x1,[x2,[x1,x3]]] = -2*x1"),
    ("relation: [x1,[x2,[x2,x3]]] = 6*x2", "relation: [x1,[x2,[x2,x3]]] = 3*x2"),
)


@pytest.fixture(scope="module")
def g2_pres():
    return parse_presentation((FIXTURES / "g2.lp").read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def g2_qb6(g2_pres):
    return quotient_closure(g2_pres, 6)


def test_sl2_quotient():
    pres = parse_presentation(SL2)
    qb = quotient_closure(pres, 4)
    assert qb.dim == 3
    assert qb.stabilized
    assert qb.representatives == ((0,), (1,), (2,))
    t = structure_table(pres, degree_bound=4, qb=qb)
    assert t.names == ("e", "f", "h")
    assert t.bracket_map(0, 1) == {2: Fraction(1)}
    assert t.bracket_map(0, 2) == {0: Fraction(-2)}
    assert t.bracket_map(1, 2) == {1: Fraction(2)}


def test_heisenberg_quotient():
    pres = parse_presentation(HEIS)
    qb = quotient_closure(pres, 5)
    assert qb.dim == 3
    assert qb.stabilized
    assert qb.representatives == ((0,), (1,), (0, 1))
    t = structure_table(pres, degree_bound=5, qb=qb)
    assert t.names == ("p", "q", "[p,q]")
    assert t.bracket_map(0, 1) == {2: Fraction(1)}
    assert t.bracket_map(0, 2) == {}
    assert t.bracket_map(1, 2) == {}


def test_no_relations_keeps_all_lyndon_words():
    pres = parse_presentation("generators: a b c")
    qb = quotient_closure(pres, 3)
    assert qb.dim == 14
    grouped = lyndon_words(3, 3)
    expected = tuple(w for n in range(1, 4) for w in grouped[n])
    assert tuple(sorted(qb.representatives, key=lambda w: (len(w), w))) == expected
    assert not qb.stabilized


def test_reduce_is_linear_and_fixes_representatives():
    pres = parse_presentation(SL2)
    qb = quotient_closure(pres, 4)
    for i, w in enumerate(qb.representatives):
        assert qb.reduce(LiePoly.monomial(w)) == {i: 1}
    rng = random.Random(8)
    grouped = lyndon_words(3, 3)
    monos = [w for n in range(1, 4) for w in grouped[n]]
    for trial in range(10):
        p = LiePoly()
        q = LiePoly()
        for w in rng.sample(monos, 3):
            p = p + Fraction(rng.randint(-3, 3)) * LiePoly.monomial(w)
        for w in rng.sample(monos, 3):
            q = q + Fraction(rng.randint(-3, 3)) * LiePoly.monomial(w)
        rp, rq = qb.reduce(p), qb.reduce(q)
        rsum = qb.reduce(p + q)
        assert rsum == {k: v for k in rp.keys() | rq.keys() if (v := rp.get(k, 0) + rq.get(k, 0))}
        c = Fraction(rng.randint(-4, 4), rng.randint(1, 4))
        assert qb.reduce(c * p) == {k: c * a for k, a in rp.items() if c}


def test_relations_reduce_to_zero():
    pres = parse_presentation(SL2)
    qb = quotient_closure(pres, 4)
    for r in pres.relations:
        assert qb.reduce(r) == {}


def test_reduce_rejects_out_of_range_monomials():
    pres = parse_presentation(SL2)
    qb = quotient_closure(pres, 3)
    with pytest.raises(ValueError):
        qb.reduce(LiePoly.monomial((0, 0, 0, 1)))


def test_degree_bound_below_relations_rejected():
    pres = parse_presentation(HEIS)
    with pytest.raises(ValueError):
        quotient_closure(pres, 2)


def test_g2_dimension_and_stability_at_bound_6(g2_pres, g2_qb6):
    qb = g2_qb6
    assert qb.dim == 14
    assert qb.stabilized
    assert qb.dim_at_lower == 14
    assert qb.dims_by_degree() == {1: 3, 2: 3, 3: 8}


def test_g2_relations_vanish_in_quotient(g2_pres, g2_qb6):
    for r in g2_pres.relations:
        assert g2_qb6.reduce(r) == {}


def degree_images(qb, degree: int) -> list:
    """(word, sparse coordinates) for every Lyndon monomial of the given degree."""
    return [(w, qb.reduce(LiePoly.monomial(w))) for w in lyndon_words(qb.alphabet, degree)[degree]]


def test_g2_degree_4_words_collapse_to_generators(g2_pres, g2_qb6):
    images = degree_images(g2_qb6, 4)
    assert len(images) == 18
    nonzero = 0
    for w, vec in images:
        assert all(k < 3 for k in vec), w
        if vec:
            nonzero += 1
    assert nonzero > 0
    by_word = dict(images)
    assert by_word[(0, 0, 0, 1)] == {}
    assert by_word[(0, 0, 0, 2)] == {}


def test_g2_named_table_matches_golden(g2_pres, g2_qb6):
    from liepres.g2 import named_basis_free
    t = structure_table(g2_pres, named_basis_free(), qb=g2_qb6)
    golden = load_table(str(FIXTURES / "g2_table.json"))
    assert t.names == golden.names
    assert t.diff(golden) == []


def test_wrong_name_count_rejected(g2_pres, g2_qb6):
    bad = {"only": LiePoly.generator(0)}
    with pytest.raises(NamesNotBasisError):
        structure_table(g2_pres, bad, qb=g2_qb6)


def test_dependent_names_rejected():
    pres = parse_presentation(SL2)
    qb = quotient_closure(pres, 4)
    e = LiePoly.generator(0)
    f = LiePoly.generator(1)
    names = {"a": e, "b": f, "c": e + f}
    ok_names = {"a": e, "b": f, "c": bracket(e, f)}
    assert structure_table(pres, ok_names, qb=qb).dim == 3
    names["c"] = Fraction(2) * e
    with pytest.raises(NamesNotBasisError):
        structure_table(pres, names, qb=qb)


def test_truncation_events_recorded(g2_qb6):
    assert len(g2_qb6.truncation_events) > 0
    for e in g2_qb6.truncation_events:
        assert 0 <= e.relation_index < 54
        assert all(d <= 6 for d in e.kept_degrees)
        assert min(e.kept_degrees) > 2


def shuffled_scaled(pres: Presentation, seed: int) -> Presentation:
    """pres with its relations in a seeded order, each scaled by a nonzero rational."""
    rng = random.Random(seed)
    rels = list(pres.relations)
    rng.shuffle(rels)
    rels = [Fraction(rng.choice([-1, 1]) * rng.randint(1, 7), rng.randint(1, 5)) * r for r in rels]
    return Presentation(pres.generators, tuple(rels))


@pytest.mark.parametrize("seed", [None, 31], ids=["g2", "rescaled"])
def test_fraction_coefficients_climb_certify_and_write_like_ints(g2_pres, seed):
    # The parser keeps integer coefficients as ints; the same relations with every
    # coefficient a Fraction give the same echelon rows, table and JSON bytes.
    pres = g2_pres if seed is None else parse_presentation(format_presentation(shuffled_scaled(g2_pres, seed)))
    as_fractions = Presentation(pres.generators, tuple(
        LiePoly({w: Fraction(c) for w, c in r.terms.items()}) for r in pres.relations))
    assert any(type(c) is int for r in pres.relations for c in r.terms.values())
    runs = []
    for p in (pres, as_fractions):
        qb = next(closure_levels(p, 4))
        cert = certify(p, qb)
        runs.append((qb._rows, cert.table, cert.detail, to_json_text(renamed(qb, cert.table, named_basis_free()))))
    assert runs[0] == runs[1]
    assert runs[0][1] is not None and runs[0][3] == (FIXTURES / "g2_table.json").read_text(encoding="utf-8")


def test_rewriter_applicability_rule(g2_pres, family_member_text):
    assert rewriter_applicable(g2_pres)
    assert rewriter_applicable(shuffled_scaled(g2_pres, 31))
    assert not rewriter_applicable(parse_presentation(SL2))
    assert not rewriter_applicable(parse_presentation(HEIS))
    assert not rewriter_applicable(parse_presentation("generators: a b c"))
    assert rewriter_applicable(parse_presentation(family_member_text(2, 4, 6)))
    for coeffs in ((1, 2, 3), (0, 0, 0)):
        assert not rewriter_applicable(parse_presentation(family_member_text(*coeffs))), coeffs
    base = (FIXTURES / "g2.lp").read_text(encoding="utf-8")
    for old, new in MUTATIONS:
        assert not rewriter_applicable(parse_presentation(base.replace(old, new, 1))), new


def same_span_as_g2(pres: Presentation, g2_pres: Presentation) -> bool:
    """The gate's oracle: 3 generators, and rank R_in = rank R_g2 = rank of both, dense in (degree, word)."""
    if len(pres.generators) != 3:
        return False
    cols = sorted({(len(w), w) for rel in pres.relations + g2_pres.relations for w in rel.terms})

    def dense_rows(rels):
        return [[rel.terms.get(w, Fraction(0)) for _, w in cols] for rel in rels]

    r_in, r_g2 = dense_rows(pres.relations), dense_rows(g2_pres.relations)
    return dense.rank(r_in, len(cols)) == dense.rank(r_g2, len(cols)) == dense.rank(r_in + r_g2, len(cols))


def test_rewriter_gate_agrees_with_a_dense_rank_oracle(g2_pres, family_member_text):
    rng = random.Random(25)
    rels = g2_pres.relations
    base = (FIXTURES / "g2.lp").read_text(encoding="utf-8")
    cases = {}
    for seed in range(3):
        cases[f"shuffled-scaled-{seed}"] = shuffled_scaled(g2_pres, seed)
        # r_i plus multiples of later relations: a unit triangular, so invertible, recombination
        recombined = [sum((Fraction(rng.randint(-3, 3), rng.randint(1, 4)) * s for s in rels[i + 1:i + 4]), r)
                      for i, r in enumerate(rels)]
        cases[f"recombined-{seed}"] = Presentation(g2_pres.generators, tuple(recombined))
        dropped = list(rels)
        del dropped[rng.randrange(len(dropped))]
        cases[f"dropped-{seed}"] = Presentation(g2_pres.generators, tuple(dropped))
    cases["first_43"] = Presentation(g2_pres.generators, rels[:43])
    for old, new in MUTATIONS:
        cases[new] = parse_presentation(base.replace(old, new, 1))
    for coeffs in ((2, 4, 6), (1, 2, 3), (0, 0, 0), (4, 8, 12), (2, 4, 5), (1, 2, 0)):
        cases[f"family{coeffs}"] = parse_presentation(family_member_text(*coeffs))
    # the extras of top degree 3 and 2 leave children at level 4; the last lies outside the span
    for extra in ("[x1,[x1,x2]] = x3", "[x1,x2] = x3", "[x1,[x1,[x2,x3]]] = 0"):
        cases[f"g2 + {extra}"] = parse_presentation(base + f"relation: {extra}\n")
    cases["sl2"] = parse_presentation(SL2)
    verdicts = {name: same_span_as_g2(pres, g2_pres) for name, pres in cases.items()}
    assert {name: rewriter_applicable(pres) for name, pres in cases.items()} == verdicts
    assert set(verdicts.values()) == {True, False}
    # derive's gate: spans_g2 on the first level up to bound 5 that certifies
    assert {name: certified_level_spans_g2(pres, 5) for name, pres in cases.items()} == verdicts


def certified_level_spans_g2(pres: Presentation, max_bound: int) -> bool:
    for qb in closure_levels(pres, max_bound):
        if certify(pres, qb).ok:
            return spans_g2(qb)
    return False


def test_rewriter_gate_refuses_other_top_degrees_before_parsing_g2(g2_pres, monkeypatch):
    # every nonzero element of g2.lp's relation span has top degree 4
    def no_parse():
        raise AssertionError("g2.lp parsed")

    monkeypatch.setattr(g2, "g2_presentation", no_parse)
    for text in ((FIXTURES / "sl2.lp").read_text(encoding="utf-8"), "generators: a b c",
                 "generators: a b c\nrelation: [a,[a,[a,[a,b]]]] = [c,[c,[c,[c,b]]]]\n"):
        assert not rewriter_applicable(parse_presentation(text)), text
    # spans_g2 reads the level's bound, alphabet and dimension before it parses g2.lp
    for name in ("sl2", "sl3", "heisenberg"):
        assert not certified_level_spans_g2(parse_presentation((FIXTURES / f"{name}.lp").read_text()), 5), name
    monkeypatch.undo()
    assert all(rewriter_applicable(shuffled_scaled(g2_pres, seed)) for seed in (3, 4))


def test_closure_table_matches_rewriter_g2(g2_pres, g2_qb6):
    assert rewriter_applicable(g2_pres)
    assert g2_qb6.stabilized
    rewriter = rewriter_structure_table()
    assert structure_table(g2_pres, named_basis_free(), qb=g2_qb6).diff(rewriter) == []
    # derive prints "engines agree" whenever the gate holds: a gated presentation's
    # climb starts at bound 4 with g2.lp's echelon rows and certifies the rewriter's table
    g2_rows = next(closure_levels(g2_pres, 4))._rows
    rng = random.Random(17)
    for seed in range(10):
        shuffled = list(g2_pres.relations)
        rng.shuffle(shuffled)
        rescaled = shuffled_scaled(g2_pres, seed).relations
        dropped = list(rescaled)
        del dropped[rng.randrange(len(dropped))]
        for rels in (shuffled, rescaled, dropped):
            pres = Presentation(g2_pres.generators, tuple(rels))
            assert rewriter_applicable(pres), seed
            first = next(closure_levels(pres, 8))
            assert first.degree_bound == 4
            assert first._rows == g2_rows
            cert = certify(pres, first)
            assert cert.ok, cert.detail
            assert renamed(first, cert.table, named_basis_free()) == rewriter


def test_non_g2_table_over_representatives():
    pres = parse_presentation(SL2)
    qb = quotient_closure(pres, 4)
    assert not rewriter_applicable(pres)
    assert qb.stabilized
    assert structure_table(pres, None, qb=qb).dim == 3
    with pytest.raises(NamesNotBasisError):
        structure_table(pres, named_basis_free(), qb=qb)


def test_unstabilized_derive_writes_no_table(tmp_path, capsys):
    text = "generators: p q z\nrelation: [p,q] = z\nrelation: [p,[p,q]] = 0\nrelation: [q,[p,q]] = 0\n"
    assert not quotient_closure(parse_presentation(text), 4).stabilized
    lp, out = tmp_path / "pqz.lp", tmp_path / "t.json"
    lp.write_text(text, encoding="utf-8")
    assert main(["derive", str(lp), "--max-degree", "4", "--engine", "both", "--out", str(out)]) == 4
    assert "not certified up to degree bound 4" in capsys.readouterr().err
    assert not out.exists()


def test_mutated_presentations_detected():
    base = (FIXTURES / "g2.lp").read_text(encoding="utf-8")
    for old, new in MUTATIONS:
        assert old in base
        pres = parse_presentation(base.replace(old, new, 1))
        for bound in (6, 7, 8):
            assert not quotient_closure(pres, bound).stabilized, (new, bound)
        for bound in range(4, 9):
            assert not certify(pres, quotient_closure(pres, bound)).ok, (new, bound)


def _reference_add(rows: dict, vec: dict) -> None:
    """Insert vec into a fully reduced echelon form over Q with monic rows."""
    for p in [i for i in vec if i in rows]:
        c = vec.pop(p)
        for k, v in rows[p].items():
            if k != p:
                nv = vec.get(k, 0) - c * v
                if nv:
                    vec[k] = nv
                else:
                    vec.pop(k, None)
    if not vec:
        return
    p = max(vec)
    lead = vec[p]
    new = {k: Fraction(v) / lead for k, v in vec.items()}
    for q, row in rows.items():
        c = row.get(p)
        if c:
            for k, v in new.items():
                nv = row.get(k, 0) - c * v
                if nv:
                    row[k] = nv
                else:
                    row.pop(k, None)
    rows[p] = new


def reference_closure(pres: Presentation, bound: int) -> dict:
    """The closure as a depth-first walk over the consequence tree, with the
    stability check taken from a second, separate closure at bound - 1."""
    n = len(pres.generators)
    grouped = lyndon_words(n, bound) if bound else [[]]
    flat = [w for d in range(1, bound + 1) for w in grouped[d]]
    word_index = {w: i for i, w in enumerate(flat)}
    rows: dict = {}
    events = []
    brackets: dict = {}
    for ridx, rel in enumerate(pres.relations):
        stack = [rel.terms] if rel.terms else []
        while stack:
            node = stack.pop()
            _reference_add(rows, {word_index[w]: c for w, c in node.items()})
            if max(len(w) for w in node) == bound:
                kept = tuple(sorted({len(w) + 1 for w in node if len(w) < bound}))
                if kept:
                    events.append((ridx, kept))
                continue
            for g in reversed(range(n)):
                child: dict = {}
                for w, c in node.items():
                    freelie._add_scaled(child, freelie._bracket_words((g,), w, brackets), c)
                if child:
                    stack.append(child)
    reps = tuple(w for i, w in enumerate(flat) if i not in rows)
    top = pres.max_relation_degree()
    dim_at_lower, stabilized = None, False
    if bound - 1 >= top:
        dim_at_lower = len(reference_closure(pres, bound - 1)["representatives"])
        stabilized = dim_at_lower == len(reps) and all(min(k) > bound - top for _, k in events)
    return {
        "representatives": reps,
        "word_index": word_index,
        "_rep_index": {word_index[w]: i for i, w in enumerate(reps)},
        "monic_rows": rows,
        "dim_at_lower": dim_at_lower,
        "stabilized": stabilized,
        "truncation_events": events,
    }


def primitive(row: dict) -> dict:
    """The integer multiple of a monic row whose entries have no common factor."""
    d = lcm(*(v.denominator for v in row.values()))
    g = gcd(*(int(v * d) for v in row.values()))
    return {k: int(v * d) // g for k, v in row.items()}


def reference_reduce(ref: dict, p: LiePoly) -> dict:
    """Sparse coordinates of p over the representatives, by the monic rows over Q."""
    vec = {ref["word_index"][w]: c for w, c in p.terms.items()}
    rows = ref["monic_rows"]
    for piv in [i for i in vec if i in rows]:
        c = vec.pop(piv)
        for k, v in rows[piv].items():
            if k != piv:
                nv = vec.get(k, 0) - c * v
                if nv:
                    vec[k] = nv
                else:
                    vec.pop(k, None)
    return {ref["_rep_index"][idx]: c for idx, c in vec.items()}


def dense_reference_reduce(ref: dict, p: LiePoly) -> tuple:
    """Coordinates of p over the representatives as one dense tuple: p minus
    p[q] times monic row q, for every pivot q, read on the representatives' columns."""
    n = len(ref["word_index"])
    vec = [Fraction(0)] * n
    for w, c in p.terms.items():
        vec[ref["word_index"][w]] += c
    rows = ref["monic_rows"]
    dense_rows = {q: [row.get(k, Fraction(0)) for k in range(n)] for q, row in rows.items()}
    out = [vec[k] - sum((vec[q] * r[k] for q, r in dense_rows.items()), Fraction(0)) for k in range(n)]
    return tuple(out[k] for k in range(n) if k not in rows)


def assert_matches_reference(pres: Presentation, top: int) -> None:
    """Every level of one climb to top, each checked after the climb has finished."""
    levels = list(closure_levels(pres, top))
    assert [qb.degree_bound for qb in levels] == list(range(max(pres.max_relation_degree(), 1), top + 1))
    assert quotient_closure(pres, top)._rows == levels[-1]._rows
    for qb in levels:
        bound = qb.degree_bound
        ref = reference_closure(pres, bound)
        assert qb.representatives == ref["representatives"]
        assert qb._rep_index == ref["_rep_index"]
        assert qb._rows == {p: primitive(row) for p, row in ref["monic_rows"].items()}
        assert all(row[p] > 0 for p, row in qb._rows.items())
        terms = {}
        for degree in range(1, bound + 1):
            for i, (w, vec) in enumerate(degree_images(qb, degree)):
                assert vec == reference_reduce(ref, LiePoly.monomial(w)), w
                terms[w] = Fraction(i % 5 - 2, i % 3 + 1)
        dense = LiePoly(terms)
        assert qb.reduce(dense) == reference_reduce(ref, dense)
        assert qb.dim_at_lower == ref["dim_at_lower"]
        assert qb.stabilized == ref["stabilized"]
        assert [(e.relation_index, e.kept_degrees) for e in qb.truncation_events] == ref["truncation_events"]


@pytest.mark.parametrize("name", ["g2", "g2_mutated", "sl2", "heisenberg"])
def test_closure_matches_reference_on_fixtures(name):
    pres = parse_presentation((FIXTURES / f"{name}.lp").read_text(encoding="utf-8"))
    assert_matches_reference(pres, 8)


def test_closure_matches_reference_on_shuffled_scaled_g2(g2_pres):
    assert_matches_reference(shuffled_scaled(g2_pres, 31), 7)


@pytest.mark.parametrize("text", [
    "generators: a b\nrelation: 2*[a,b] = 3*a\n",
    "generators: a b c\nrelation: 3*[a,[a,b]] = 2*[a,c] + 5*b\nrelation: 2*[b,c] = 7*a\n",
])
def test_closure_matches_reference_with_non_unit_pivots(text):
    assert_matches_reference(parse_presentation(text), 5)


@st.composite
def presentations_and_bounds(draw):
    n = draw(st.integers(2, 3))
    towers = st.lists(st.integers(0, n - 1), min_size=1, max_size=4).map(tuple)
    terms = st.tuples(st.integers(-5, 5), st.integers(1, 3), towers)
    relations = []
    for rel in draw(st.lists(st.lists(terms, min_size=1, max_size=4), max_size=4)):
        p = LiePoly()
        for num, den, tower in rel:
            p = p + Fraction(num, den) * tower_to_poly(tower)
        relations.append(p)
    pres = Presentation(tuple(Generator(i, f"x{i + 1}") for i in range(n)), tuple(relations))
    bound = draw(st.integers(max(pres.max_relation_degree(), 1), 6 if n == 2 else 5))
    return pres, bound


@settings(max_examples=60, deadline=None)
@given(case=presentations_and_bounds())
def test_closure_matches_reference_on_random_presentations(case):
    assert_matches_reference(*case)


@settings(max_examples=60, deadline=None)
@given(case=presentations_and_bounds(), data=st.data())
def test_reduce_returns_sparse_representative_coordinates(case, data):
    pres, top = case
    levels = list(closure_levels(pres, top))
    qb = levels[data.draw(st.integers(0, len(levels) - 1))]
    ref = reference_closure(pres, qb.degree_bound)
    words = list(ref["word_index"])
    coefficients = st.one_of(st.integers(-4, 4), st.fractions(min_value=-4, max_value=4, max_denominator=3))
    for _ in range(3):
        chosen = data.draw(st.lists(st.sampled_from(words), max_size=6, unique=True))
        p = LiePoly({w: data.draw(coefficients) for w in chosen})
        got = qb.reduce(p)
        assert set(got) <= set(range(qb.dim))
        assert all(type(c) in (int, Fraction) and c != 0 for c in [*p.terms.values(), *got.values()])
        assert tuple(got.get(k, 0) for k in range(qb.dim)) == dense_reference_reduce(ref, p)


@pytest.mark.parametrize("bound,pivots,events", [(6, 182, 108), (7, 494, 324), (8, 1304, 972)])
def test_g2_closure_counters(g2_pres, bound, pivots, events):
    qb = quotient_closure(g2_pres, bound)
    assert len(qb._rows) == pivots
    assert len(qb.truncation_events) == events
    assert qb.dim_at_lower == 14
    assert qb.dim == 14


def test_derive_climb_inserts_only_the_new_rows(monkeypatch, capsys):
    # One elimination climbs bounds 4 to 8 and brackets only the rows each level
    # adds; the tree of bound 8 alone has 6534 nodes.
    calls = []
    add = Echelon.add
    monkeypatch.setattr(Echelon, "add", lambda self, vec: calls.append(1) or add(self, vec))
    assert main(["derive", str(FIXTURES / "g2_mutated.lp"), "--max-degree", "8"]) == 4
    assert "degree bound: 8\n" in capsys.readouterr().out
    assert len(calls) == 1566


def test_a_climb_after_an_unrelated_climb_has_the_rows_of_the_first():
    # each climb owns its bracket memo, so a climb leaves nothing that the next one reads
    def levels(pres, bound):
        return [(qb.representatives, qb._rows) for qb in closure_levels(pres, bound)]

    heis = parse_presentation(HEIS)
    first = levels(heis, 7)
    levels(parse_presentation((FIXTURES / "g2_mutated.lp").read_text(encoding="utf-8")), 6)
    assert levels(heis, 7) == first
    assert first[-1][0] == reference_closure(heis, 7)["representatives"]


def test_bound_one_without_relations_is_not_stabilized():
    qb = quotient_closure(parse_presentation("generators: a b"), 1)
    assert qb.dim == 2
    assert qb.dim_at_lower == 0
    assert not qb.stabilized


def _certified_dim(pres: Presentation, bound: int):
    """qb.dim when certify proves it at this bound, else None."""
    qb = quotient_closure(pres, bound)
    cert = certify(pres, qb)
    return qb.dim if cert.ok else None


@pytest.mark.parametrize("name,bound,dim", [("g2", 4, 14), ("sl2", 2, 3), ("heisenberg", 3, 3)])
def test_fixtures_certify_at_their_first_bound(name, bound, dim):
    pres = parse_presentation((FIXTURES / f"{name}.lp").read_text(encoding="utf-8"))
    assert pres.max_relation_degree() == bound
    assert _certified_dim(pres, bound) == dim


@pytest.mark.parametrize("coeffs", [(1, 2, 3), (0, 0, 0)], ids=["1-2-3", "0-0-0"])
def test_family_members_certify_dim_14_at_bound_4(family_member_text, coeffs):
    assert _certified_dim(parse_presentation(family_member_text(*coeffs)), 4) == 14


def test_mutated_g2_is_not_certified():
    pres = parse_presentation((FIXTURES / "g2_mutated.lp").read_text(encoding="utf-8"))
    for bound in range(4, 9):
        assert _certified_dim(pres, bound) is None, bound


def test_climb_of_the_mutated_g2_stays_under_its_memory_bound():
    # about 2.16 MB traced on CPython 3.11; a second store of the brackets beside the
    # memo, or snapshots that hold the echelon and not only its rows, reach 2.5 MB
    pres = parse_presentation((FIXTURES / "g2_mutated.lp").read_text(encoding="utf-8"))
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    tracemalloc.reset_peak()
    base = tracemalloc.get_traced_memory()[0]
    try:
        for qb in closure_levels(pres, 8):
            certify(pres, qb)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        if not tracing:
            tracemalloc.stop()
    assert (qb.degree_bound, len(qb._rows)) == (8, 1316)
    assert peak < 2.4e6


def test_climb_computes_each_memo_pair_once(monkeypatch):
    # the memo is the climb's only bracket store: each of its pairs is computed once,
    # and every bracket computed is kept in it
    computed = Counter()
    memos = {}
    expand = freelie._bracket_words

    def counting(u, v, cache, depth=1):
        memos[id(cache)] = cache
        if u < v and (u, v) not in cache:
            computed[(u, v)] += 1
        return expand(u, v, cache, depth)

    pres = parse_presentation((FIXTURES / "g2_mutated.lp").read_text(encoding="utf-8"))
    monkeypatch.setattr(freelie, "_bracket_words", counting)
    for qb in closure_levels(pres, 8):
        pass
    assert qb.degree_bound == 8 and len(memos) == 1
    (memo,) = memos.values()
    assert max(computed.values()) == 1
    assert computed.keys() == memo.keys()


def test_family_member_1_2_4_is_not_certified(family_member_text):
    pres = parse_presentation(family_member_text(1, 2, 4))
    for bound in range(4, 7):
        assert _certified_dim(pres, bound) is None, bound


def test_certified_g2_model_is_the_golden_table(g2_pres):
    qb = quotient_closure(g2_pres, 4)
    cert = certify(g2_pres, qb)
    assert cert.ok
    assert cert.table == structure_table(g2_pres, None, qb=qb)
    assert cert.table.names == tuple(qb.representative_name(i) for i in range(14))
    named = structure_table(g2_pres, named_basis_free(), qb=qb)
    assert named == load_table(str(FIXTURES / "g2_table.json"))


def test_certify_names_the_first_failed_check():
    # representatives reach the bound: no upper bound
    pres = parse_presentation("generators: a b")
    assert certify(pres, quotient_closure(pres, 3)).detail == (
        "representative [a,[a,b]] has degree 3, not below the degree bound 3")
    # no representative at all: the upper bound alone proves dim 0
    pres = parse_presentation("generators: a b\nrelation: a = 0\nrelation: b = 0\n")
    cert = certify(pres, quotient_closure(pres, 1))
    assert cert.ok and cert.table.dim == 0


def test_certify_maps_relations_through_the_table_bracket():
    # At bound 4 the closure keeps x2 alone and reduces [x1,x2] to -x2.  The model
    # table is the 1-dim abelian algebra, where relation 1 maps to x2, not 0.  The
    # operator rho(x1) still sends x2 to -x2, so mapping the relations through the
    # operators instead of the table's bracket would certify dim 1; the quotient is 0.
    pres = parse_presentation("generators: x1 x2 x3\nrelation: x2 + [x1,x2] = 0\n"
                              "relation: x1 + [x1,[x1,[x1,x3]]] = 0\nrelation: x3 = 0\n")
    qb = quotient_closure(pres, 4)
    assert qb.dim == 1
    assert certify(pres, qb).detail == "relation 1 does not vanish in the model"
    assert _certified_dim(pres, 5) == 0


@settings(max_examples=60, deadline=None)
@given(case=presentations_and_bounds())
def test_certificate_fixes_the_quotient_above_its_bound(case):
    pres, bound = case
    qb = quotient_closure(pres, bound)
    cert = certify(pres, qb)
    if not cert.ok:
        return
    assert check_jacobi(cert.table) == []
    assert cert.table.dim == qb.dim
    for higher in (bound + 1, bound + 2):
        above = quotient_closure(pres, higher)
        assert above.dim == qb.dim, higher
        assert above.representatives == qb.representatives, higher
        assert certify(pres, above).table == cert.table, higher


def with_generators_reordered(pres: Presentation, names) -> Presentation:
    """pres with its generators line listing names: the same relations over renumbered generators."""
    text = format_presentation(pres).split("\n", 1)[1]
    return parse_presentation("generators: " + " ".join(names) + "\n" + text)


@settings(max_examples=60, deadline=None)
@given(case=presentations_and_bounds(), data=st.data())
def test_quotient_is_invariant_under_permuting_the_generators(case, data):
    pres, top = case
    other = with_generators_reordered(pres, data.draw(st.permutations(pres.names)))
    for bound in range(max(pres.max_relation_degree(), 1), top + 1):
        qb, qb_other = quotient_closure(pres, bound), quotient_closure(other, bound)
        assert qb.dims_by_degree() == qb_other.dims_by_degree(), bound
        cert, cert_other = certify(pres, qb), certify(other, qb_other)
        assert cert.ok == cert_other.ok, bound
        if cert.ok:
            a, b = derived_subalgebra_and_center(cert.table), derived_subalgebra_and_center(cert_other.table)
            assert (a.derived_dim, a.center_dim) == (b.derived_dim, b.center_dim), bound
            assert lower_central_dims(cert.table) == lower_central_dims(cert_other.table), bound


def test_g2_with_x1_and_x3_swapped_certifies_dim_14_at_bound_4(g2_pres):
    swapped = with_generators_reordered(g2_pres, ("x3", "x2", "x1"))
    assert swapped.names == ("x3", "x2", "x1")
    assert _certified_dim(swapped, 4) == 14


def with_generators_renamed(pres: Presentation, names) -> Presentation:
    """pres written by format_presentation with its generators renamed, in order, and parsed back."""
    renamed = Presentation(tuple(Generator(g.index, name) for g, name in zip(pres.generators, names)),
                           pres.relations)
    return parse_presentation(format_presentation(renamed))


GENERATOR_NAME = st.from_regex(r"[A-Za-z_][A-Za-z0-9_]{0,3}", fullmatch=True)


@settings(max_examples=60, deadline=None)
@given(case=presentations_and_bounds(), data=st.data())
def test_quotient_is_invariant_under_renaming_the_generators(case, data):
    pres, top = case
    n = len(pres.generators)
    names = data.draw(st.lists(GENERATOR_NAME, min_size=n, max_size=n, unique=True))
    other = with_generators_renamed(pres, names)
    assert other.names == tuple(names)
    assert other.relations == pres.relations
    for bound in range(max(pres.max_relation_degree(), 1), top + 1):
        qb, qb_other = quotient_closure(pres, bound), quotient_closure(other, bound)
        assert qb.dims_by_degree() == qb_other.dims_by_degree(), bound
        assert qb.representatives == qb_other.representatives, bound
        cert, cert_other = certify(pres, qb), certify(other, qb_other)
        assert cert.ok == cert_other.ok, bound
        if cert.ok:
            assert cert.table.c == cert_other.table.c, bound


def test_g2_renamed_to_p_q_r_derives_the_golden_bytes(g2_pres, tmp_path):
    lp, out = tmp_path / "pqr.lp", tmp_path / "t.json"
    lp.write_text(format_presentation(with_generators_renamed(g2_pres, ("p", "q", "r"))), encoding="utf-8")
    text = lp.read_text(encoding="utf-8")
    assert text.startswith("generators: p q r\n") and "x" not in text
    assert main(["derive", str(lp), "--out", str(out)]) == 0
    assert out.read_bytes() == (FIXTURES / "g2_table.json").read_bytes()
