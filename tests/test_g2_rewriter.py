"""Quadruple rewriter: relation families, tower reduction, named table.

The rewriter's table is g2.lp closed at degree bound 4, renamed to the named
basis.  The paper's formulas, through `epsilon` below, are the oracle for the
values that closure gives the degree-4 towers.
"""

import itertools
from fractions import Fraction
from pathlib import Path

import pytest
from towers import tower_to_poly

import liepres
from liepres import g2
from liepres.analysis import check_jacobi, find_cartan_candidate, root_decomposition
from liepres.freelie import LiePoly
from liepres.g2 import (
    g2_presentation,
    g2_relations,
    named_basis_free,
    rewriter_applicable,
    rewriter_structure_table,
)
from liepres.presentation import Presentation
from liepres.quotient import certify, lie_map, quotient_closure, renamed
from liepres.tabledoc import load_table

_EVEN = {(1, 2, 3), (2, 3, 1), (3, 1, 2)}


def golden_table():
    return load_table(str(Path(liepres.__file__).parent / "fixtures" / "g2_table.json"))


def epsilon(i: int, j: int, k: int) -> int:
    """Levi-Civita symbol on indices 1..3."""
    if sorted((i, j, k)) != [1, 2, 3]:
        return 0
    return 1 if (i, j, k) in _EVEN else -1


def test_epsilon_total_antisymmetry():
    assert epsilon(1, 2, 3) == 1
    assert epsilon(2, 3, 1) == 1
    assert epsilon(3, 1, 2) == 1
    assert epsilon(2, 1, 3) == -1
    assert epsilon(1, 3, 2) == -1
    assert epsilon(3, 2, 1) == -1
    for i, j, k in itertools.product((1, 2, 3), repeat=3):
        if len({i, j, k}) < 3:
            assert epsilon(i, j, k) == 0
        assert epsilon(i, j, k) == -epsilon(j, i, k)
        assert epsilon(i, j, k) == -epsilon(i, k, j)


def test_relation_family_instances():
    all_rels = g2_relations()
    rels = set(all_rels)
    assert len(all_rels) == 54
    assert len(rels) == 36  # epsilon-zero cases coincide across families
    x = [LiePoly.generator(i) for i in range(3)]
    assert tower_to_poly((0, 1, 0, 2)) - Fraction(2) * x[0] in rels
    assert tower_to_poly((2, 2, 0, 1)) - Fraction(4) * x[2] in rels
    assert tower_to_poly((0, 1, 0, 1)) in rels
    assert tower_to_poly((1, 0, 0, 2)) + Fraction(6) * x[0] in rels


def family_relations():
    """The three eps-families built from their formulas: the reference for g2.lp."""
    x = {i: LiePoly.generator(i - 1) for i in (1, 2, 3)}
    triples = list(itertools.product((1, 2, 3), repeat=3))
    rels = []
    for i, j, k in triples:
        if i != k:
            rels.append(tower_to_poly((i - 1, j - 1, i - 1, k - 1)) - Fraction(2 * epsilon(i, j, k)) * x[i])
    for i, j, k in triples:
        if j != k:
            rels.append(tower_to_poly((i - 1, i - 1, j - 1, k - 1)) - Fraction(4 * epsilon(i, j, k)) * x[i])
    for i, j, k in triples:
        if j != k:
            rels.append(tower_to_poly((i - 1, j - 1, j - 1, k - 1)) - Fraction(6 * epsilon(i, j, k)) * x[j])
    return rels


def test_fixture_relations_equal_the_families_in_order():
    assert g2_relations() == family_relations()


def test_relations_never_identically_zero():
    for r in g2_relations():
        assert r != LiePoly()


def test_presentation_object_matches_relations():
    pres = g2_presentation()
    assert pres.names == ("x1", "x2", "x3")
    assert set(pres.relations) == set(g2_relations())


@pytest.fixture(scope="module")
def qb():
    """g2.lp closed at degree bound 4, where the rewriter's table is read."""
    return quotient_closure(g2_presentation(), 4)


def reduced(qb, tower):
    """{word: c}: the tower [x_t0,[x_t1,...]] (indices 1..3) over the representatives."""
    coords = qb.reduce(tower_to_poly(tuple(g - 1 for g in tower)))
    return {qb.representatives[i]: c for i, c in coords.items()}


def quadruple(qb, a, b, c, d):
    """The degree-4 tower [xa,[xb,[xc,xd]]] reduced, as {(g,): c} with g in 1..3."""
    got = reduced(qb, (a, b, c, d))
    assert all(len(w) == 1 for w in got), (a, b, c, d)
    return {(w[0] + 1,): x for w, x in got.items()}


def test_all_81_quadruples_reduce(qb):
    seen = 0
    for a, b, c, d in itertools.product((1, 2, 3), repeat=4):
        for w in reduced(qb, (a, b, c, d)):
            assert len(w) == 1, (a, b, c, d)
        seen += 1
    assert seen == 81


def test_quadruple_spot_values(qb):
    assert quadruple(qb, 1, 2, 1, 3) == {(1,): Fraction(2)}
    assert quadruple(qb, 2, 1, 1, 3) == {(1,): Fraction(-6)}
    assert quadruple(qb, 1, 1, 2, 3) == {(1,): Fraction(4)}
    assert quadruple(qb, 1, 2, 3, 3) == {}
    assert quadruple(qb, 1, 2, 1, 2) == {}
    assert quadruple(qb, 3, 3, 1, 2) == {(3,): Fraction(4)}
    assert quadruple(qb, 1, 3, 1, 2) == {(1,): Fraction(-2)}


def test_quadruple_swap_of_last_two_flips_sign(qb):
    for a, b, c, d in itertools.product((1, 2, 3), repeat=4):
        lhs = quadruple(qb, a, b, c, d)
        rhs = quadruple(qb, a, b, d, c)
        assert lhs == {t: -v for t, v in rhs.items()}


def test_tower_reduce_agrees_with_quadruple_rule(qb):
    # the named table brackets every degree-4 tower of generators to what the closure reduces it to
    t = rewriter_structure_table()
    x = {g: {t.names.index(f"x{g}"): Fraction(1)} for g in (1, 2, 3)}
    for a, b, c, d in itertools.product((1, 2, 3), repeat=4):
        got = t.bracket(x[a], t.bracket(x[b], t.bracket(x[c], x[d])))
        assert all(t.names[k].startswith("x") for k in got)
        assert {(int(t.names[k][1:]),): v for k, v in got.items()} == quadruple(qb, a, b, c, d)


def test_representatives_are_14_and_self_reducing(qb):
    assert qb.dim == 14
    assert qb.dims_by_degree() == {1: 3, 2: 3, 3: 8}
    for i, w in enumerate(qb.representatives):
        assert qb.reduce(LiePoly.monomial(w)) == {i: 1}, w


def test_non_canonical_triple_rewrites(qb):
    # Jacobi: [x3,[x1,x2]] = -[x1,[x2,x3]] + [x2,[x1,x3]], and the Lyndon word
    # (0, 2, 1) is [[x1,x3],x2] = -[x2,[x1,x3]]
    assert reduced(qb, (3, 1, 2)) == {(0, 1, 2): Fraction(-1), (0, 2, 1): Fraction(-1)}


def named_basis_coordinates(qb):
    """The 14 named elements over the representatives, keyed by Lyndon word."""
    out = {}
    for name, p in named_basis_free().items():
        out[name] = {qb.representatives[i]: c for i, c in qb.reduce(p).items()}
    return out


def test_named_basis_towers_cover_all_names(qb):
    # the key order of named_basis_free() is the basis order; the golden table is its oracle
    named = named_basis_coordinates(qb)
    assert tuple(named) == tuple(named_basis_free()) == golden_table().names


def hand_written_named_coordinates(qb):
    """The named basis written out from the generators: y = [x, x]/2, a = [x, y]/3,
    h = ([x, y] - [x', y'])/3, bracketed in the model table over the
    representatives.  The reference for the coordinates of named_basis_free()."""
    half, third = Fraction(1, 2), Fraction(1, 3)
    model = certify(g2_presentation(), qb).table
    index = {w: i for i, w in enumerate(qb.representatives)}

    def combo(*terms):
        acc = {}
        for c, p, q in terms:
            pq = model.bracket({index[w]: v for w, v in p.items()}, {index[w]: v for w, v in q.items()})
            for k, v in pq.items():
                w = qb.representatives[k]
                acc[w] = acc.get(w, 0) + c * v
        return {w: v for w, v in acc.items() if v}

    x = {i: {(i - 1,): Fraction(1)} for i in (1, 2, 3)}
    y = {1: combo((half, x[2], x[3])), 2: combo((half, x[3], x[1])), 3: combo((half, x[1], x[2]))}
    named = {
        "h1": combo((third, x[1], y[1]), (-third, x[2], y[2])),
        "h2": combo((third, x[2], y[2]), (-third, x[3], y[3])),
    }
    for i, j in ((1, 2), (1, 3), (2, 3), (2, 1), (3, 1), (3, 2)):
        named[f"a{i}{j}"] = combo((third, x[j], y[i]))
    named.update({f"x{i}": x[i] for i in (1, 2, 3)})
    named.update({f"y{i}": y[i] for i in (1, 2, 3)})
    return named


def test_named_basis_towers_equal_hand_written_values(qb):
    named = named_basis_coordinates(qb)
    assert named == hand_written_named_coordinates(qb)
    assert named["y1"] == {(1, 2): Fraction(1, 2)}  # [x2,x3] / 2
    assert named["a12"] == {(1, 1, 2): Fraction(1, 6)}  # [x2,[x2,x3]] / 6


def test_named_bracket_worked_identities():
    t = rewriter_structure_table()

    def bracket(n1, n2):
        return {t.names[k]: v for k, v in t.bracket_map(t.names.index(n1), t.names.index(n2)).items()}

    assert bracket("y1", "a23") == {}
    assert bracket("a12", "a23") == {"a13": Fraction(1)}
    assert bracket("x1", "x2") == {"y3": Fraction(2)}
    assert bracket("x1", "y1") == {"h1": Fraction(2), "h2": Fraction(1)}
    assert bracket("a13", "a31") == {"h1": Fraction(1), "h2": Fraction(1)}
    assert bracket("h1", "h2") == {}
    assert bracket("h1", "a12") == {"a12": Fraction(2)}
    assert bracket("a12", "a21") == {"h1": Fraction(1)}


def test_tower_model_is_a_lie_algebra_where_the_relations_vanish(qb):
    # the rewriter's table is the certified model of g2.lp at bound 4, renamed
    pres = g2_presentation()
    cert = certify(pres, qb)
    assert cert.ok
    assert check_jacobi(cert.table) == []
    phi = lie_map(cert.table, [{g: Fraction(1)} for g in range(3)])
    relations = g2_relations()
    assert len(relations) == 54
    assert all(phi(r) == {} for r in relations)
    assert rewriter_structure_table() == renamed(qb, cert.table, named_basis_free())


def test_tower_model_refuses_relations_that_leave_a_tower_unreduced(monkeypatch):
    # The first 43 relations of g2.lp do not span the last 11, so a degree-4 word
    # stays a representative at bound 4; ad(x_g) takes it past the bound, and the
    # table must not be built.
    pres = g2_presentation()
    first_43 = Presentation(pres.generators, pres.relations[:43])
    assert max(len(w) for w in quotient_closure(first_43, 4).representatives) == 4
    monkeypatch.setattr(g2, "g2_presentation", lambda: first_43)
    with pytest.raises(ValueError, match="exceeds bound 4"):
        rewriter_structure_table()


def test_g2_lp_is_parsed_once_per_call(monkeypatch):
    # no parse outlives its call: each gate and each rewriter table parses g2.lp once
    parse = g2.parse_presentation
    calls = []
    monkeypatch.setattr(g2, "parse_presentation", lambda text: calls.append(text) or parse(text))
    pres = g2_presentation()
    assert len(calls) == 1
    assert rewriter_applicable(pres)
    assert len(calls) == 2
    rewriter_structure_table()
    assert len(calls) == 3
    assert g2_presentation() is not pres


def test_rewriter_table_shape():
    t = rewriter_structure_table()
    assert t.dim == 14
    assert t.names == tuple(named_basis_free())
    nonzero = sum(1 for i in range(14) for j in range(i + 1, 14) if t.bracket_map(i, j))
    assert nonzero == 56


def test_rewriter_table_matches_golden_fixture():
    golden = golden_table()
    t = rewriter_structure_table()
    assert t.names == golden.names
    assert t.diff(golden) == []


# x1, x2, x3 graded by Z^2 with w1 + w2 + w3 = 0
GRADING = ((1, 0), (0, 1), (-1, -1))


def weights(p: LiePoly, grading=GRADING) -> set:
    """The weights of p's Lyndon monomials, each the sum of its letters' weights."""
    return {tuple(sum(grading[g][k] for g in w) for k in (0, 1)) for w in p.terms}


def test_grading_by_the_roots():
    # Each family is homogeneous once w1 + w2 + w3 = 0: for distinct i, j, k the
    # tower [xi,[xj,[xi,xk]]] has weight wi + (w1 + w2 + w3), the weight of xi.
    assert all(len(weights(r)) == 1 for r in g2_relations())
    assert not all(len(weights(r, ((1, 0), (0, 1), (0, 0)))) == 1 for r in g2_relations())
    named = {}
    for name, p in named_basis_free().items():
        (named[name],) = weights(p)
    # the linear map fixed by x1 and x2 sends each element's weight to its root
    golden = golden_table()
    cartan = find_cartan_candidate(golden)
    assert [golden.names[i] for i in cartan] == ["h1", "h2"]
    rd = root_decomposition(golden, cartan)
    root = {golden.names[j]: r for r, members in rd.root_spaces.items() for j in members}
    for name, (a, b) in named.items():
        assert tuple(a * s + b * t for s, t in zip(root["x1"], root["x2"])) == root[name], name
    assert named["h1"] == named["h2"] == (0, 0)
    assert len({w for name, w in named.items() if name not in ("h1", "h2")}) == 12
