"""Certification suite: Jacobi, Killing form, roots, classification, sl3 checks."""

from fractions import Fraction
from pathlib import Path

import pytest
from dense import inverse, killing_invariance_violations, matmul, sparse_rows
from sl3 import verify_sl3_subalgebra

import liepres
from liepres import analysis
from liepres.linalg import det, integer_char_poly
from liepres.presentation import parse_presentation
from liepres.quotient import quotient_closure, structure_table
from liepres.table import StructureTable
from liepres.tabledoc import load_table

FIXTURES = Path(liepres.__file__).parent / "fixtures"

SL2 = "generators: e f h\nrelation: [e,f] = h\nrelation: [h,e] = 2*e\nrelation: [h,f] = -2*f\n"
HEIS = "generators: p q\nrelation: [p,[p,q]] = 0\nrelation: [q,[p,q]] = 0\n"


@pytest.fixture(scope="module")
def golden():
    return load_table(str(FIXTURES / "g2_table.json"))


@pytest.fixture(scope="module")
def sl2_table():
    pres = parse_presentation(SL2)
    return structure_table(pres, degree_bound=4)


@pytest.fixture(scope="module")
def heis_table():
    pres = parse_presentation(HEIS)
    return structure_table(pres, degree_bound=5)


def mutate_entry(t, i, j, coeffs):
    c = {k: v for k, v in t.c.items()}
    for k in range(t.dim):
        c.pop((i, j, k), None)
    for k, v in coeffs.items():
        c[(i, j, k)] = v
    return StructureTable(t.names, c)


def test_jacobi_holds_on_golden(golden):
    assert analysis.check_jacobi(golden) == []


def test_jacobi_catches_single_entry_mutation(golden):
    i = golden.names.index("h1")
    j = golden.names.index("a12")
    k = golden.names.index("a12")
    mutated = mutate_entry(golden, i, j, {k: Fraction(3)})
    violations = analysis.check_jacobi(mutated)
    assert violations != []


def test_derived_and_center(golden, sl2_table, heis_table):
    dc = analysis.derived_subalgebra_and_center(golden)
    assert len(dc.derived_basis) == 14
    assert len(dc.center_basis) == 0
    dc = analysis.derived_subalgebra_and_center(sl2_table)
    assert len(dc.derived_basis) == 3
    assert len(dc.center_basis) == 0
    dc = analysis.derived_subalgebra_and_center(heis_table)
    assert len(dc.derived_basis) == 1
    assert len(dc.center_basis) == 1
    bracket_rep = heis_table.names.index("[p,q]")
    assert dc.center_basis[0][bracket_rep] != 0


def test_killing_form_values_and_oracle(golden):
    K = analysis.killing_form(golden)
    assert all(K[j].get(i) == v for i, row in enumerate(K) for j, v in row.items())
    h1, h2 = golden.names.index("h1"), golden.names.index("h2")
    assert K[h1][h1] == 16
    assert K[h1][h2] == -8
    assert K[h2][h2] == 16
    # independent oracle: the basis diagonalizes ad h1 and ad h2, so the trace
    # is the sum of products of the diagonal eigenvalues read off the rows
    lam1, lam2 = [], []
    for k in range(golden.dim):
        m1 = golden.bracket_map(h1, k)
        m2 = golden.bracket_map(h2, k)
        assert set(m1) <= {k} and set(m2) <= {k}
        lam1.append(m1.get(k, Fraction(0)))
        lam2.append(m2.get(k, Fraction(0)))
    assert sum(a * a for a in lam1) == K[h1][h1]
    assert sum(a * b for a, b in zip(lam1, lam2)) == K[h1][h2]
    assert sum(b * b for b in lam2) == K[h2][h2]


def test_killing_invariance_and_determinant(golden, heis_table):
    K = analysis.killing_form(golden)
    assert killing_invariance_violations(golden, K) == []
    assert det(K) != 0
    K2 = analysis.killing_form(heis_table)
    assert det(K2) == 0
    assert killing_invariance_violations(heis_table, K2) == []


def test_cartan_check_positive_and_negative(golden):
    h1, h2, a12 = (golden.names.index(n) for n in ("h1", "h2", "a12"))
    good = analysis.cartan_check(golden, [h1, h2])
    assert good.ok and good.witness is None
    not_abelian = analysis.cartan_check(golden, [h1, a12])
    assert not not_abelian.ok
    assert not_abelian.witness == (h1, a12)
    assert golden.bracket({h1: 1}, {a12: 1})
    # span{h1} is normalized by everything whose h1-eigenvalue vanishes:
    # h1, h2 and the root vectors x3, y3 with first weight coordinate zero
    too_small = analysis.cartan_check(golden, [h1])
    assert not too_small.ok
    assert set(too_small.witness) - {h1}
    assert set(too_small.witness) <= {golden.names.index(n) for n in ("h1", "h2", "x3", "y3")}
    assert set(golden.bracket({h1: 1}, too_small.witness)) <= {h1}


def test_normalizer_is_not_the_centralizer(sl2_table):
    # [e, h] = -2e lies in span{e}: h normalizes span{e} without centralizing it
    e, h = sl2_table.names.index("e"), sl2_table.names.index("h")
    check = analysis.cartan_check(sl2_table, [e])
    assert not check.ok
    assert check.witness.get(h)
    assert set(sl2_table.bracket({e: 1}, check.witness)) <= {e}


def test_cartan_candidate_with_an_asymmetric_spectrum():
    # basis (a, c = a + b) of [a, b] = b: ad(a) and ad(c) both have eigenvalues 0
    # and 1, but neither is diagonal in this basis, so neither is picked
    t = StructureTable(["a", "c"], {(0, 1, 1): Fraction(1), (0, 1, 0): Fraction(-1)})
    assert analysis.find_cartan_candidate(t) == []


def char_poly(rows):
    """Coefficients of det(xI - M), highest power first: a_k / D^k from the integer polynomial."""
    D, a = integer_char_poly(rows)
    return [Fraction(c, D ** k) for k, c in enumerate(a)]


def test_char_poly_known_cases():
    assert char_poly([{0: 2, 1: 1}, {1: 3}]) == [Fraction(1), Fraction(-5), Fraction(6)]
    assert char_poly([{1: 1}, {0: -1}]) == [Fraction(1), Fraction(0), Fraction(1)]
    assert char_poly([{1: 1}, {}]) == [Fraction(1), Fraction(0), Fraction(0)]
    assert char_poly([{}, {}, {}]) == [Fraction(1)] + [Fraction(0)] * 3
    jordan = [{j + 1: Fraction(1, 2)} for j in range(4)] + [{}]  # nilpotent, N^4 != 0
    assert char_poly(jordan) == [Fraction(1)] + [Fraction(0)] * 5
    assert char_poly([]) == [Fraction(1)]
    with pytest.raises(ValueError, match="need a square matrix"):
        char_poly([{0: 1, 2: 1}, {1: 1}])


def test_rational_eigenvalues_with_huge_constant_term():
    # the characteristic polynomial of a non-diagonal matrix with eigenvalues up to
    # 3*10^6 and 1/7, exactly
    eigs = [Fraction(10**6), Fraction(-2 * 10**6), Fraction(3 * 10**6), Fraction(1, 7)]
    p = [[Fraction(x) for x in row] for row in ([1, 2, 0, -1], [0, 1, 3, 0], [1, 0, 1, 2], [0, -1, 0, 1])]
    d = [[eigs[i] if i == j else Fraction(0) for j in range(4)] for i in range(4)]
    m = matmul(matmul(p, d), inverse(p))
    assert any(m[i][j] != 0 for i in range(4) for j in range(4) if i != j)
    expected = [Fraction(1)]
    for lam in eigs:  # times (x - lam)
        expected = [a - lam * b for a, b in zip(expected + [0], [0] + expected)]
    assert char_poly(sparse_rows(m)) == expected


def test_root_decomposition_refuses_non_diagonal_cartan():
    # ad(p) is nilpotent and not zero, so not diagonalizable at all; the refusal
    # names the basis and no longer runs an eigenspace decomposition first
    heis = structure_table(parse_presentation(HEIS), degree_bound=5)
    p = heis.names.index("p")
    with pytest.raises(ValueError, match="^root spaces are not aligned with the table basis$"):
        analysis.root_decomposition(heis, [p])


def test_root_decomposition_on_golden(golden):
    h1, h2 = golden.names.index("h1"), golden.names.index("h2")
    rd = analysis.root_decomposition(golden, [h1, h2])
    assert len(rd.roots) == 12
    zero = (Fraction(0), Fraction(0))
    assert set(rd.root_spaces[zero]) == {h1, h2}
    for r in rd.roots:
        assert len(rd.root_spaces[r]) == 1
        neg = tuple(-x for x in r)
        assert neg in rd.root_spaces
    expected = {
        "x1": (-1, 0), "x2": (1, -1), "x3": (0, 1),
        "y1": (1, 0), "y2": (-1, 1), "y3": (0, -1),
        "a12": (2, -1), "a13": (1, 1), "a23": (-1, 2),
        "a21": (-2, 1), "a31": (-1, -1), "a32": (1, -2),
    }
    for name, root in expected.items():
        key = tuple(Fraction(x) for x in root)
        assert rd.root_spaces[key] == (golden.names.index(name),), name
    assert rd.cartan_killing == [{0: 16, 1: -8}, {0: -8, 1: 16}]


def test_root_space_killing_orthogonality(golden):
    K = analysis.killing_form(golden)
    h1, h2 = golden.names.index("h1"), golden.names.index("h2")
    rd = analysis.root_decomposition(golden, [h1, h2])
    slot = {rd.root_spaces[r][0]: r for r in rd.roots}
    for i, ri in slot.items():
        for j, rj in slot.items():
            if tuple(-x for x in ri) != rj:
                assert K[i].get(j, 0) == 0, (golden.names[i], golden.names[j])
            else:
                assert K[i].get(j, 0) != 0
        assert K[h1].get(i, 0) == 0
        assert K[h2].get(i, 0) == 0


def test_cartan_matrix_and_type_g2(golden):
    h1, h2 = golden.names.index("h1"), golden.names.index("h2")
    rd = analysis.root_decomposition(golden, [h1, h2])
    A, name = analysis.cartan_matrix_and_type(rd)
    assert name == "G2"
    assert A == ((2, -1), (-3, 2))


def test_find_cartan_candidate(golden, sl2_table):
    assert analysis.find_cartan_candidate(golden) == [0, 1]
    cand = analysis.find_cartan_candidate(sl2_table)
    assert cand == [sl2_table.names.index("h")]


def test_classification_sl2_is_a1(sl2_table):
    cand = analysis.find_cartan_candidate(sl2_table)
    rd = analysis.root_decomposition(sl2_table, cand)
    assert len(rd.roots) == 2
    A, name = analysis.cartan_matrix_and_type(rd)
    assert name == "A1"
    assert A == ((2,),)


def test_classification_sl3_subtable_is_a2(golden):
    sub_names = ("h1", "h2", "a12", "a13", "a23", "a21", "a31", "a32")
    idx = [golden.names.index(n) for n in sub_names]
    pos = {b: a for a, b in enumerate(idx)}
    c = {}
    for (i, j, k), v in golden.c.items():
        if i in pos and j in pos:
            assert k in pos, (i, j, k)
            c[(pos[i], pos[j], pos[k])] = v
    sub = StructureTable(sub_names, c)
    assert analysis.check_jacobi(sub) == []
    cand = analysis.find_cartan_candidate(sub)
    assert cand == [0, 1]
    rd = analysis.root_decomposition(sub, cand)
    assert len(rd.roots) == 6
    A, name = analysis.cartan_matrix_and_type(rd)
    assert name == "A2"
    assert A == ((2, -1), (-1, 2))


def test_classification_direct_sum_is_a1xa1(sl2_table):
    names = ("e1", "f1", "h1", "e2", "f2", "h2")
    c = {}
    for (i, j, k), v in sl2_table.c.items():
        c[(i, j, k)] = v
        c[(i + 3, j + 3, k + 3)] = v
    t = StructureTable(names, c)
    assert analysis.check_jacobi(t) == []
    cand = analysis.find_cartan_candidate(t)
    assert len(cand) == 2
    rd = analysis.root_decomposition(t, cand)
    assert len(rd.roots) == 4
    A, name = analysis.cartan_matrix_and_type(rd)
    assert name == "A1xA1"


def test_sl3_subalgebra_verdict(golden):
    v = verify_sl3_subalgebra(golden)
    assert v.ok
    assert v.closure_failures == ()
    assert v.model_failures == ()
    assert v.invariance_failures == ()


def test_sl3_verdict_catches_model_mutation(golden):
    i, j = golden.names.index("a12"), golden.names.index("a23")
    k = golden.names.index("a13")
    mutated = mutate_entry(golden, i, j, {k: Fraction(2)})
    v = verify_sl3_subalgebra(mutated)
    assert not v.ok
    assert ("a12", "a23") in v.model_failures


def test_sl3_verdict_catches_invariance_mutation(golden):
    i, j = golden.names.index("a12"), golden.names.index("x1")
    y1 = golden.names.index("y1")
    mutated = mutate_entry(golden, i, j, {y1: Fraction(1)})
    v = verify_sl3_subalgebra(mutated)
    assert not v.ok
    assert ("a12", "x1") in v.invariance_failures


def test_lower_central_series(golden, sl2_table, heis_table):
    assert analysis.lower_central_dims(golden) == [14, 14]
    assert analysis.lower_central_dims(sl2_table) == [3, 3]
    assert analysis.lower_central_dims(heis_table) == [3, 1, 0]


def test_lower_central_series_brackets_only_elements_with_nonzero_ad(monkeypatch, heis_table):
    calls = []
    bracket = StructureTable.bracket
    monkeypatch.setattr(StructureTable, "bracket", lambda t, a, b: calls.append((a, b)) or bracket(t, a, b))
    abelian = StructureTable([f"a{i}" for i in range(40)], {})
    assert analysis.lower_central_dims(abelian) == [40, 0]
    assert calls == []
    # [p, q] = z: only p and q have a nonzero ad, and [g, g] = <z> is read off the table
    assert analysis.lower_central_dims(heis_table) == [3, 1, 0]
    assert len(calls) == 2
