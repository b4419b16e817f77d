"""Acceptance suite: the eleven end-to-end criteria, one test and one verdict line each.

Run with `pytest -v tests/test_acceptance.py`; the per-test PASSED/FAILED line is
the verdict line for each criterion.
"""

import itertools
import time
from fractions import Fraction
from pathlib import Path

import pytest
from associative import expand_to_associative
from dense import killing_invariance_violations
from sl3 import verify_sl3_subalgebra
from towers import tower_to_poly

import liepres
from liepres import analysis, cli, g2
from liepres.freelie import LiePoly, bracket, lyndon_words
from liepres.linalg import det
from liepres.presentation import parse_presentation
from liepres.g2 import rewriter_applicable
from liepres.quotient import certify, quotient_closure, structure_table
from liepres.table import StructureTable
from liepres.tabledoc import load_table

FIXTURES = Path(liepres.__file__).parent / "fixtures"
GOLDEN = str(FIXTURES / "g2_table.json")

_EVEN = {(1, 2, 3), (2, 3, 1), (3, 1, 2)}


def epsilon(i: int, j: int, k: int) -> int:
    """Levi-Civita symbol on indices 1..3."""
    if sorted((i, j, k)) != [1, 2, 3]:
        return 0
    return 1 if (i, j, k) in _EVEN else -1

MUTATIONS = (
    ("relation: [x1,[x1,[x2,x3]]] = 4*x1", "relation: [x1,[x1,[x2,x3]]] = 5*x1"),
    ("relation: [x1,[x2,[x1,x3]]] = 2*x1", "relation: [x1,[x2,[x1,x3]]] = -2*x1"),
    ("relation: [x1,[x2,[x2,x3]]] = 6*x2", "relation: [x1,[x2,[x2,x3]]] = 3*x2"),
)


@pytest.fixture(scope="module")
def golden():
    return load_table(GOLDEN)


@pytest.fixture(scope="module")
def g2_pres():
    return parse_presentation((FIXTURES / "g2.lp").read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def closure_runs(g2_pres):
    start = time.monotonic()
    runs = {bound: quotient_closure(g2_pres, bound) for bound in (6, 7, 8)}
    elapsed = time.monotonic() - start
    return runs, elapsed


@pytest.fixture(scope="module")
def derived(g2_pres, closure_runs):
    runs, _ = closure_runs
    return structure_table(g2_pres, g2.named_basis_free(), qb=runs[8])


def test_criterion_01_dimension_14_stabilized_under_60s(closure_runs):
    runs, elapsed = closure_runs
    for bound in (6, 7, 8):
        assert runs[bound].dim == 14, f"bound {bound}"
        assert runs[bound].stabilized, f"bound {bound}"
    assert elapsed < 60.0, f"closure took {elapsed:.1f} s"
    print(f"criterion 1: dim 14 at bounds 6/7/8, stabilized, {elapsed:.2f} s")


def test_criterion_02_derived_table_reproduces_golden(derived, golden):
    assert derived.names == golden.names
    assert derived.diff(golden) == []
    anchors = [
        ("x1", "x2", {"y3": 2}),
        ("x1", "y1", {"h1": 2, "h2": 1}),
        ("a13", "a31", {"h1": 1, "h2": 1}),
        ("y1", "a23", {}),
        ("a12", "a23", {"a13": 1}),
    ]
    for n1, n2, want in anchors:
        i, j = derived.names.index(n1), derived.names.index(n2)
        got = derived.bracket_map(*sorted((i, j)))
        if i > j:
            got = {k: -v for k, v in got.items()}
        assert got == {derived.names.index(n): Fraction(v) for n, v in want.items()}, (n1, n2)
    print("criterion 2: all 91 pairs and 5 spot anchors match the golden table")


def test_criterion_03_engines_agree_and_mutants_detected(g2_pres, derived):
    assert rewriter_applicable(g2_pres)
    assert derived.diff(g2.rewriter_structure_table()) == []

    text = g2.g2_presentation_text()
    for old, new in MUTATIONS:
        assert old in text
        mutated = parse_presentation(text.replace(old, new))
        assert not rewriter_applicable(mutated)
        assert not quotient_closure(mutated, 6).stabilized
        assert not certify(quotient_closure(mutated, 6)).ok
    print("criterion 3: derived and g2.lp's bound-4 tables equal on 91 pairs; 3 mutated presentations detected")


def test_criterion_04_jacobi_on_all_364_triples(derived):
    n = derived.dim
    assert n * (n - 1) * (n - 2) // 6 == 364
    assert analysis.check_jacobi(derived) == []
    c = dict(derived.c)
    c[(derived.names.index("h1"), derived.names.index("a12"), derived.names.index("a12"))] = Fraction(3)
    assert analysis.check_jacobi(StructureTable(derived.names, c)) != []
    print("criterion 4: Jacobi holds on 364 triples; single-entry mutation caught")


def test_criterion_05_killing_form_matches_eigenvalue_oracle(derived):
    K = analysis.killing_form(derived)
    assert all(K[j].get(i) == v for i, row in enumerate(K) for j, v in row.items())
    assert killing_invariance_violations(derived, K) == []
    assert det(K) != 0
    h1, h2 = derived.names.index("h1"), derived.names.index("h2")
    lam1, lam2 = [], []
    for k in range(derived.dim):
        m1 = derived.bracket_map(h1, k)
        m2 = derived.bracket_map(h2, k)
        assert set(m1) <= {k} and set(m2) <= {k}
        lam1.append(m1.get(k, Fraction(0)))
        lam2.append(m2.get(k, Fraction(0)))
    assert K[h1][h1] == sum(a * a for a in lam1) == 16
    assert K[h1][h2] == sum(a * b for a, b in zip(lam1, lam2)) == -8
    print("criterion 5: Killing form symmetric, invariant, det != 0, K(h1,h1)=16, K(h1,h2)=-8")


def test_criterion_06_root_system_identifies_g2(derived, capsys):
    h1, h2 = derived.names.index("h1"), derived.names.index("h2")
    rd = analysis.root_decomposition(derived, [h1, h2])
    assert len(rd.roots) == 12
    assert all(len(rd.root_spaces[r]) == 1 for r in rd.roots)
    assert all(tuple(-x for x in r) in rd.root_spaces for r in rd.roots)
    zero = (Fraction(0), Fraction(0))
    assert len(rd.root_spaces[zero]) == 2
    assert 2 + 12 == derived.dim
    A, name = analysis.cartan_matrix_and_type(rd)
    assert A == ((2, -1), (-3, 2))
    assert name == "G2"
    assert cli.main(["classify", "--table", GOLDEN]) == 0
    assert "type: G2" in capsys.readouterr().out
    print("criterion 6: 12 roots of multiplicity 1, Cartan matrix [[2,-1],[-3,2]], type G2")


def test_criterion_07_sl3_subalgebra_and_invariant_triples(derived):
    v = verify_sl3_subalgebra(derived)
    assert v.ok
    assert v.closure_failures == () and v.model_failures == () and v.invariance_failures == ()
    sub = [derived.names.index(n) for n in ("h1", "h2", "a12", "a13", "a23", "a21", "a31", "a32")]
    xs = {derived.names.index(n) for n in ("x1", "x2", "x3")}
    ys = {derived.names.index(n) for n in ("y1", "y2", "y3")}
    for s in sub:
        for span in (xs, ys):
            for vtx in span:
                assert set(derived.bracket_map(s, vtx)) <= span
    print("criterion 7: 8-element sub-table matches the matrix model; x and y spans are invariant")


def test_criterion_08_lyndon_counts_match_witt_oracle():
    def mobius(n):
        result, m = 1, n
        p = 2
        while p * p <= m:
            if m % p == 0:
                m //= p
                if m % p == 0:
                    return 0
                result = -result
            p += 1
        if m > 1:
            result = -result
        return result

    def witt(k, n):
        return sum(mobius(d) * k ** (n // d) for d in range(1, n + 1) if n % d == 0) // n

    grouped = lyndon_words(3, 8)
    counts = [len(ws) for ws in grouped[1:]]
    assert counts == [3, 3, 8, 18, 48, 116, 312, 810]
    assert counts == [witt(3, n) for n in range(1, 9)]
    print("criterion 8: Lyndon counts 3 3 8 18 48 116 312 810 match the Witt oracle")


def test_criterion_09_bracket_matches_associative_commutator():
    grouped = lyndon_words(3, 4)
    items = [(w, d) for d in range(1, 5) for w in grouped[d]]
    pairs = 0
    for (u, du), (v, dv) in itertools.combinations(items, 2):
        if du + dv > 5:
            continue
        pu, pv = LiePoly.monomial(u), LiePoly.monomial(v)
        au, av = expand_to_associative(pu), expand_to_associative(pv)
        assert expand_to_associative(bracket(pu, pv)) == au.mul(av) - av.mul(au)
        pairs += 1
    assert pairs == 117
    print("criterion 9: bracket equals the associative commutator on 117 Lyndon pairs")


def test_criterion_10_rewriter_total_and_confluent():
    # The rewriter's table is g2.lp closed at bound 4: every degree-4 tower reduces
    # there to degree 1, to the value the paper's quadruple rule predicts.
    qb = quotient_closure(g2.g2_presentation(), 4)

    def reduce_tower(t):
        """{(g,): c} for the tower [x_t0,[x_t1,...]] (indices 1..3) over qb's representatives."""
        coords = qb.reduce(tower_to_poly(tuple(g - 1 for g in t)))
        got = {qb.representatives[i]: c for i, c in coords.items()}
        assert all(len(w) == 1 for w in got), t
        return {(w[0] + 1,): c for w, c in got.items()}

    multi = 0
    for a, b, c, d in itertools.product((1, 2, 3), repeat=4):
        got = reduce_tower((a, b, c, d))
        cc, dd, sign = (c, d, 1) if c <= d else (d, c, -1)
        predictions = []
        if cc == dd:
            predictions.append({})
        else:
            if a == b:
                predictions.append({(a,): 4 * epsilon(a, cc, dd)})
            if a == cc:
                predictions.append({(a,): 2 * epsilon(a, b, dd)})
            if a == dd:
                predictions.append({(a,): -2 * epsilon(a, b, cc)})
            if b == cc:
                predictions.append({(b,): 6 * epsilon(a, b, dd)})
            if b == dd:
                predictions.append({(b,): -6 * epsilon(a, b, cc)})
        assert predictions, (a, b, c, d)
        cleaned = [{t: sign * x for t, x in p.items() if x} for p in predictions]
        for p in cleaned:
            assert p == cleaned[0], (a, b, c, d)
        assert got == {t: Fraction(x) for t, x in cleaned[0].items()}
        if len(predictions) > 1:
            multi += 1
    assert multi > 0
    # every relation instance holds verbatim: the left tower reduces to the right side
    for i, j, k in itertools.product((1, 2, 3), repeat=3):
        if i != k:
            want = {(i,): Fraction(2 * epsilon(i, j, k))} if epsilon(i, j, k) else {}
            assert reduce_tower((i, j, i, k)) == want
        if j != k:
            want = {(i,): Fraction(4 * epsilon(i, j, k))} if epsilon(i, j, k) else {}
            assert reduce_tower((i, i, j, k)) == want
            want = {(j,): Fraction(6 * epsilon(i, j, k))} if epsilon(i, j, k) else {}
            assert reduce_tower((i, j, j, k)) == want
    assert g2.rewriter_structure_table().diff(load_table(GOLDEN)) == []
    print(f"criterion 10: all 81 quadruples reduce; {multi} multi-pattern tuples agree")


def test_criterion_11_control_presentations(capsys):
    sl2 = parse_presentation((FIXTURES / "sl2.lp").read_text(encoding="utf-8"))
    t = structure_table(sl2, degree_bound=4)
    assert t.dim == 3
    cand = analysis.find_cartan_candidate(t)
    rd = analysis.root_decomposition(t, cand)
    A, name = analysis.cartan_matrix_and_type(rd)
    assert name == "A1"

    heis = parse_presentation((FIXTURES / "heisenberg.lp").read_text(encoding="utf-8"))
    t = structure_table(heis, degree_bound=5)
    assert t.dim == 3
    K = analysis.killing_form(t)
    assert det(K) == 0
    dc = analysis.derived_subalgebra_and_center(t)
    assert len(dc.derived_basis) == 1
    assert len(dc.center_basis) == 1
    print("criterion 11: sl2 gives dim 3 type A1; Heisenberg gives dim 3, degenerate Killing, derived 1, center 1")
