"""Quadruple rewriter: relation families, tower reduction, named table.

The paper's formulas, through `epsilon` below, are the oracle for the rule the
rewriter reads off g2.lp.
"""

import itertools
from fractions import Fraction

import pytest

from liepres import g2
from liepres.analysis import check_jacobi
from liepres.freelie import LiePoly, tower_to_poly
from liepres.g2 import (
    CANONICAL_TOWERS,
    G2_NAMES,
    g2_presentation,
    g2_relations,
    named_basis_free,
    reduce_quadruple,
    rewriter_applicable,
    rewriter_structure_table,
    tower_action,
    tower_map,
    tower_model,
    tower_reduce,
)

_EVEN = {(1, 2, 3), (2, 3, 1), (3, 1, 2)}


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
        assert r != LiePoly.zero()


def test_presentation_object_matches_relations():
    pres = g2_presentation()
    assert pres.names == ("x1", "x2", "x3")
    assert set(pres.relations) == set(g2_relations())


def test_all_81_quadruples_reduce():
    seen = 0
    for a, b, c, d in itertools.product((1, 2, 3), repeat=4):
        result = reduce_quadruple(a, b, c, d)
        assert isinstance(result, dict)
        for t in result:
            assert len(t) == 1
        seen += 1
    assert seen == 81


def test_quadruple_spot_values():
    assert reduce_quadruple(1, 2, 1, 3) == {(1,): Fraction(2)}
    assert reduce_quadruple(2, 1, 1, 3) == {(1,): Fraction(-6)}
    assert reduce_quadruple(1, 1, 2, 3) == {(1,): Fraction(4)}
    assert reduce_quadruple(1, 2, 3, 3) == {}
    assert reduce_quadruple(1, 2, 1, 2) == {}
    assert reduce_quadruple(3, 3, 1, 2) == {(3,): Fraction(4)}
    assert reduce_quadruple(1, 3, 1, 2) == {(1,): Fraction(-2)}


def test_quadruple_swap_of_last_two_flips_sign():
    for a, b, c, d in itertools.product((1, 2, 3), repeat=4):
        lhs = reduce_quadruple(a, b, c, d)
        rhs = reduce_quadruple(a, b, d, c)
        assert lhs == {t: -v for t, v in rhs.items()}


def test_tower_reduce_agrees_with_quadruple_rule():
    for a, b, c, d in itertools.product((1, 2, 3), repeat=4):
        assert tower_reduce((a, b, c, d)) == reduce_quadruple(a, b, c, d)


def test_canonical_towers_are_14_and_self_reducing():
    assert len(CANONICAL_TOWERS) == 14
    for t in CANONICAL_TOWERS:
        reduced = tower_reduce(t)
        assert reduced == {t: Fraction(1)}, t


def test_non_canonical_triple_rewrites():
    got = tower_reduce((3, 1, 2))
    assert got == {(1, 2, 3): Fraction(-1), (2, 1, 3): Fraction(1)}


def named_basis_towers():
    """The 14 named elements as canonical-tower vectors: their images in the tower model."""
    phi = tower_map(tower_model())
    return {name: {CANONICAL_TOWERS[k]: c for k, c in phi(p).items()} for name, p in named_basis_free().items()}


def test_named_basis_towers_cover_all_names():
    named = named_basis_towers()
    assert set(named) == set(G2_NAMES)
    free = named_basis_free()
    assert tuple(free) == G2_NAMES


def hand_written_named_towers():
    """The named basis written out on canonical towers: y = [x, x]/2, a = [x, y]/3,
    h = ([x, y] - [x', y'])/3, bracketed in the tower model.  The reference for
    the images of named_basis_free()."""
    half, third = Fraction(1, 2), Fraction(1, 3)
    towers = tower_model()
    index = {t: i for i, t in enumerate(CANONICAL_TOWERS)}

    def combo(*terms):
        acc = {}
        for c, p, q in terms:
            pq = towers.bracket({index[t]: v for t, v in p.items()}, {index[t]: v for t, v in q.items()})
            for k, v in pq.items():
                acc[CANONICAL_TOWERS[k]] = acc.get(CANONICAL_TOWERS[k], 0) + c * v
        return {t: v for t, v in acc.items() if v}

    x = {i: {(i,): Fraction(1)} for i in (1, 2, 3)}
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


def test_named_basis_towers_equal_hand_written_values():
    named = named_basis_towers()
    assert tuple(named) == G2_NAMES
    assert named == hand_written_named_towers()
    assert named["y1"] == {(2, 3): Fraction(1, 2)}
    assert named["a12"] == {(2, 2, 3): Fraction(1, 6)}


def test_named_bracket_worked_identities():
    t = rewriter_structure_table()

    def bracket(n1, n2):
        return {t.names[k]: v for k, v in t.bracket_map(t.index_of(n1), t.index_of(n2)).items()}

    assert bracket("y1", "a23") == {}
    assert bracket("a12", "a23") == {"a13": Fraction(1)}
    assert bracket("x1", "x2") == {"y3": Fraction(2)}
    assert bracket("x1", "y1") == {"h1": Fraction(2), "h2": Fraction(1)}
    assert bracket("a13", "a31") == {"h1": Fraction(1), "h2": Fraction(1)}
    assert bracket("h1", "h2") == {}
    assert bracket("h1", "a12") == {"a12": Fraction(2)}
    assert bracket("a12", "a21") == {"h1": Fraction(1)}


def test_tower_model_is_a_lie_algebra_where_the_relations_vanish():
    act = tower_action()
    for i in range(14):
        for j in range(14):
            assert act[i][j] == {k: -v for k, v in act[j][i].items()}, (CANONICAL_TOWERS[i], CANONICAL_TOWERS[j])
    towers = tower_model()
    assert check_jacobi(towers) == []
    phi = tower_map(towers)
    relations = g2_relations()
    assert len(relations) == 54
    assert all(phi(r) == {} for r in relations)


def test_tower_model_refuses_relations_that_leave_a_tower_unreduced(monkeypatch):
    # The first 43 relations of g2.lp do not span the last 11, so some degree-4
    # tower keeps a degree-4 remainder; the model must not be built.
    first_43 = g2_relations()[:43]
    g2.g2_span.cache_clear()
    monkeypatch.setattr(g2, "g2_relations", lambda: first_43)
    try:
        with pytest.raises(RuntimeError, match=r"do not reduce the tower \(2, 1, 1, 3\)"):
            tower_model()
    finally:
        g2.g2_span.cache_clear()


def test_g2_lp_is_parsed_once_per_process(monkeypatch):
    pres = g2_presentation()
    parse = g2.parse_presentation
    calls = []
    monkeypatch.setattr(g2, "parse_presentation", lambda text: calls.append(text) or parse(text))
    g2.g2_span.cache_clear()
    assert rewriter_applicable(pres)
    assert rewriter_applicable(pres)
    rewriter_structure_table()
    assert len(calls) == 1


def test_rewriter_table_shape():
    t = rewriter_structure_table()
    assert t.dim == 14
    assert t.names == G2_NAMES
    nonzero = sum(1 for i in range(14) for j in range(i + 1, 14) if t.bracket_map(i, j))
    assert nonzero == 56


def test_rewriter_table_matches_golden_fixture():
    from pathlib import Path
    import liepres
    from liepres.tabledoc import load_table
    golden = load_table(str(Path(liepres.__file__).parent / "fixtures" / "g2_table.json"))
    t = rewriter_structure_table()
    assert t.names == golden.names
    assert t.diff(golden) == []
