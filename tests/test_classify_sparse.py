"""Sparse Killing/Jacobi against dense references, and classify under changes of basis."""

import contextlib
import copy
import io
import os
import random
import tempfile
from contextlib import redirect_stdout
from fractions import Fraction
from pathlib import Path

import dense
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import liepres
from liepres import analysis, table
from liepres.cli import main
from liepres.presentation import parse_presentation
from liepres.quotient import structure_table
from liepres.table import NamesNotBasisError, StructureTable
from liepres.tabledoc import load_table, save_table, to_csv, to_json_text, to_latex

FIXTURES = Path(liepres.__file__).parent / "fixtures"
GOLDEN = load_table(str(FIXTURES / "g2_table.json"))
SL2 = structure_table(parse_presentation(
    "generators: e f h\nrelation: [e,f] = h\nrelation: [h,e] = 2*e\nrelation: [h,f] = -2*f\n"),
    degree_bound=4)
HEIS = structure_table(parse_presentation(
    "generators: p q\nrelation: [p,[p,q]] = 0\nrelation: [q,[p,q]] = 0\n"), degree_bound=5)


def permuted_rescaled(t, perm, scales):
    """The table over the basis b'_a = scales[a] * b_{perm[a]}."""
    where = {old: new for new, old in enumerate(perm)}
    c = {}
    for (i, j, k), v in t.c.items():
        a, b, m = where[i], where[j], where[k]
        coeff = scales[a] * scales[b] * v / scales[m]
        if a > b:
            a, b, coeff = b, a, -coeff
        c[(a, b, m)] = coeff
    return StructureTable([t.names[p] for p in perm], c)


def dense_rebased(t, basis):
    """The table over the new basis vectors basis[m], given in old coordinates.

    The reference for StructureTable.rebased: a dense Gauss-Jordan inverse.
    """
    n = t.dim
    # new coordinates of an old-coordinate vector: apply the inverse of the matrix
    # whose columns are the new basis vectors
    to_new = dense.inverse([[basis[m][r] for m in range(n)] for r in range(n)])

    def bracket(u, v):
        out = [Fraction(0)] * n
        for i in range(n):
            for j in range(n):
                if u[i] and v[j]:
                    for k, x in t.bracket_map(i, j).items():
                        out[k] += u[i] * v[j] * x
        return out

    c = {}
    for i in range(n):
        for j in range(i + 1, n):
            for k, x in enumerate(dense.apply(to_new, bracket(basis[i], basis[j]))):
                if x:
                    c[(i, j, k)] = x
    return StructureTable(t.names, c)


def rebased(t, name, plus, c=1):
    """The table over the basis with b_name replaced by b_name + c * b_plus."""
    n = t.dim
    basis = [[Fraction(int(r == m)) for r in range(n)] for m in range(n)]
    basis[t.names.index(name)][t.names.index(plus)] += c
    return dense_rebased(t, basis)


def jacobi_broken(value):
    c = dict(GOLDEN.c)
    h1, a12 = GOLDEN.names.index("h1"), GOLDEN.names.index("a12")
    c[(h1, a12, a12)] = value
    return StructureTable(GOLDEN.names, c)


def seeded_g2():
    rng = random.Random(7)
    perm = list(range(GOLDEN.dim))
    rng.shuffle(perm)
    scales = [Fraction(rng.choice((1, 2, 3, 5, 10)), rng.choice((1, 2, 3))) * rng.choice((1, -1))
              for _ in perm]
    return permuted_rescaled(GOLDEN, perm, scales)


def g2_rescaled(seed, s):
    """G2 in a seeded permuted basis, every element scaled by s or -s: constants with denominators."""
    rng = random.Random(seed)
    perm = list(range(GOLDEN.dim))
    rng.shuffle(perm)
    return permuted_rescaled(GOLDEN, perm, [s * rng.choice((1, -1)) for _ in perm])


# jacobi-broken-thirds has Jacobi totals that are not integers, so the integer
# contraction must divide by D**2 (D = 3) to match; jacobi-broken-sparse has
# mostly zero brackets, so check_jacobi skips most of its triples
INPUTS = {"g2": GOLDEN, "sl2": SL2, "heisenberg": HEIS, "g2-seeded": seeded_g2(),
          "g2-half": g2_rescaled(11, Fraction(1, 2)), "g2-third": g2_rescaled(12, Fraction(1, 3)),
          "jacobi-broken": jacobi_broken(Fraction(3)), "jacobi-broken-thirds": jacobi_broken(Fraction(1, 3)),
          "jacobi-broken-sparse": StructureTable("abcdefg", {(0, 1, 2): 1, (2, 3, 4): 1, (1, 3, 5): 1,
                                                             (4, 6, 0): Fraction(1, 2)})}


def dense_jacobi(t):
    n = t.dim
    ads = [dense.ad(t, i) for i in range(n)]
    out = []
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                v = dense.apply(ads[i], dense.column(t, j, k))
                w = dense.apply(ads[k], dense.column(t, i, j))
                u = dense.apply(ads[j], dense.column(t, i, k))
                total = [a + b - c for a, b, c in zip(v, w, u)]
                if any(total):
                    out.append((i, j, k, tuple(total)))
    return out


@pytest.mark.parametrize("name", sorted(INPUTS))
def test_killing_form_equals_dense_reference(name):
    t = INPUTS[name]
    assert analysis.killing_form(t) == dense.sparse_rows(dense.killing(t))


@pytest.mark.parametrize("name", sorted(INPUTS))
def test_jacobi_violations_equal_dense_reference(name):
    t = INPUTS[name]
    got, want = analysis.check_jacobi(t), dense_jacobi(t)
    assert len(got) == len(want)
    for (i, j, k, total), w in zip(got, want):
        assert (i, j, k, tuple(total.get(m, 0) for m in range(t.dim))) == w
        assert all(x and type(x) is Fraction for x in total.values())
    assert (want != []) == name.startswith("jacobi-broken")
    if name == "jacobi-broken-thirds":
        assert any(x.denominator > 1 for *_, total in got for x in total.values())


def test_jacobi_skips_the_triples_whose_pair_brackets_vanish(monkeypatch):
    calls = []
    monkeypatch.setattr(table, "_add_bracket", lambda *args: calls.append(args))
    assert analysis.check_jacobi(StructureTable([f"z{i}" for i in range(60)], {})) == []
    assert calls == []


def classify_lines(t):
    """(exit code, stdout lines) of `liepres classify` on the table."""
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "t.json")
        save_table(t, path)
        buf = io.StringIO()
        with redirect_stdout(buf):
            code = main(["classify", "--table", path])
    return code, buf.getvalue().splitlines()


def factors():
    return st.builds(lambda k, inv, neg: (-1 if neg else 1) * (Fraction(1, k) if inv else Fraction(k)),
                     st.integers(1, 1000), st.booleans(), st.booleans())


# Chevalley-Serre presentation of B2: [h_i, e_j] = A_ij e_j for A = [[2, -1], [-2, 2]],
# and Serre's ad(e_i)^(1 - A_ij) e_j = 0
B2 = """generators: e1 e2 f1 f2 h1 h2
relation: [h1,h2] = 0
relation: [h1,e1] = 2*e1
relation: [h1,e2] = -e2
relation: [h2,e1] = -2*e1
relation: [h2,e2] = 2*e2
relation: [h1,f1] = -2*f1
relation: [h1,f2] = f2
relation: [h2,f1] = 2*f1
relation: [h2,f2] = -2*f2
relation: [e1,f1] = h1
relation: [e2,f2] = h2
relation: [e1,f2] = 0
relation: [e2,f1] = 0
relation: [e1,[e1,e2]] = 0
relation: [e2,[e2,[e2,e1]]] = 0
relation: [f1,[f1,f2]] = 0
relation: [f2,[f2,[f2,f1]]] = 0
"""




def direct_sum(t, u):
    """The table of t + u, u's basis after t's."""
    n = t.dim
    c = dict(t.c)
    c.update({(i + n, j + n, k + n): v for (i, j, k), v in u.c.items()})
    return StructureTable([f"{x}_1" for x in t.names] + [f"{x}_2" for x in u.names], c)


def subtable(t, names):
    """The table of the subalgebra spanned by the named basis elements of t."""
    pos = {t.names.index(x): a for a, x in enumerate(names)}
    return StructureTable(names, {(pos[i], pos[j], pos[k]): v for (i, j, k), v in t.c.items()
                                  if i in pos and j in pos})


# one table of each catalog type
SL3 = subtable(GOLDEN, ("h1", "h2", "a12", "a13", "a23", "a21", "a31", "a32"))
SERRE_B2 = structure_table(parse_presentation(B2), degree_bound=4)


@pytest.mark.parametrize("table, matrix, kind", [
    (GOLDEN, "cartan matrix: [[2, -1], [-3, 2]]", "type: G2"),
    (SL2, "cartan matrix: [[2]]", "type: A1"),
    (direct_sum(SL2, SL2), "cartan matrix: [[2, 0], [0, 2]]", "type: A1xA1"),
    (SL3, "cartan matrix: [[2, -1], [-1, 2]]", "type: A2"),
    (SERRE_B2, "cartan matrix: [[2, -1], [-2, 2]]", "type: B2"),
], ids=["g2", "sl2", "a1xa1", "sl3", "b2"])
@settings(max_examples=12, deadline=None)
@given(data=st.data())
def test_type_invariant_under_permutation_and_rescale(table, matrix, kind, data):
    perm = data.draw(st.permutations(range(table.dim)))
    scales = data.draw(st.lists(factors(), min_size=table.dim, max_size=table.dim))
    code, lines = classify_lines(permuted_rescaled(table, perm, scales))
    assert code == 0
    assert matrix in lines
    assert kind in lines


def test_serre_b2_derives_and_classifies_in_two_bases(tmp_path):
    (tmp_path / "b2.lp").write_text(B2)
    out = io.StringIO()
    with redirect_stdout(out):
        assert main(["derive", str(tmp_path / "b2.lp"), "--out", str(tmp_path / "b2.json")]) == 0
    assert "degree bound: 4" in out.getvalue().splitlines()
    assert "dim = 10" in out.getvalue().splitlines()
    t = load_table(str(tmp_path / "b2.json"))
    rng = random.Random(5)
    perm = list(range(t.dim))
    rng.shuffle(perm)
    scales = [Fraction(rng.choice((1, 2, 3)), rng.choice((1, 5))) * rng.choice((1, -1)) for _ in perm]
    for basis in (t, permuted_rescaled(t, perm, scales)):
        code, lines = classify_lines(basis)
        assert code == 0
        assert "cartan matrix: [[2, -1], [-2, 2]]" in lines
        assert lines[-1] == "type: B2"


def test_g2_with_h1_scaled_by_100_classifies():
    scales = [Fraction(100) if name == "h1" else Fraction(1) for name in GOLDEN.names]
    t = permuted_rescaled(GOLDEN, list(range(GOLDEN.dim)), scales)
    code, lines = classify_lines(t)
    assert code == 0
    assert "cartan matrix: [[2, -1], [-3, 2]]" in lines
    assert lines[-1] == "type: G2"


@pytest.mark.parametrize("name, plus, reason", [
    ("x1", "x2", "no Cartan candidate among the basis elements"),
    ("h1", "x1", "candidate ['h2'] fails the Cartan check"),
], ids=["x1-x2", "h1-x1"])
def test_classify_refuses_basis_not_aligned_with_roots(name, plus, reason):
    code, lines = classify_lines(rebased(GOLDEN, name, plus))
    assert code == 1
    assert not any(line.startswith("cartan:") for line in lines)
    assert lines[-1] == f"type: unrecognized ({reason})"


@pytest.mark.parametrize("table", [GOLDEN, SL2], ids=["g2", "sl2"])
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_accepted_cartan_candidates_commute_and_diagonalize(table, data):
    # every picked ad is diagonal in the table basis, which root_decomposition needs
    a = data.draw(st.integers(0, table.dim - 1))
    b = data.draw(st.sampled_from([k for k in range(table.dim) if k != a]))
    t = rebased(table, table.names[a], table.names[b], data.draw(factors()))
    assert analysis.check_jacobi(t) == []
    ads = [dense.ad(t, h) for h in analysis.find_cartan_candidate(t)]
    for x in ads:
        assert all(v == 0 for r, row in enumerate(x) for c, v in enumerate(row) if r != c)
        for y in ads:
            assert dense.matmul(x, y) == dense.matmul(y, x)


def test_non_diagonal_cartan_passes_the_check():
    # h1 + x1 and h2 span a Cartan subalgebra, but ad(h1 + x1) is not diagonal in
    # the table basis, so find_cartan_candidate does not pick it
    t = rebased(GOLDEN, "h1", "x1", Fraction(-3, 2))
    h1, h2 = t.names.index("h1"), t.names.index("h2")
    assert analysis.cartan_check(t, [h1, h2]).ok
    assert any(k != m for m in range(t.dim) for k in t.bracket_map(h1, m))
    assert h1 not in analysis.find_cartan_candidate(t)


def invertible_bases(n):
    """Rows of L.U: L unit lower triangular, U upper triangular with a nonzero diagonal."""
    entry = st.sampled_from([0, 0, 0, 1, -1, 2, Fraction(1, 2), Fraction(-2, 3), Fraction(5, 7)])
    pivot = st.sampled_from([1, -1, 3, Fraction(1, 2), Fraction(-4, 5)])

    def product(lower, upper, diagonal):
        L = [[1 if r == m else (lower[r * n + m] if m < r else 0) for m in range(n)] for r in range(n)]
        U = [[diagonal[r] if r == m else (upper[r * n + m] if m > r else 0) for m in range(n)] for r in range(n)]
        return [[Fraction(sum(L[r][k] * U[k][m] for k in range(n))) for m in range(n)] for r in range(n)]

    return st.builds(product, st.lists(entry, min_size=n * n, max_size=n * n),
                     st.lists(entry, min_size=n * n, max_size=n * n),
                     st.lists(pivot, min_size=n, max_size=n))


@pytest.mark.parametrize("table", [GOLDEN, SL2, HEIS], ids=["g2", "sl2", "heisenberg"])
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_sparse_rebased_equals_the_dense_reference(table, data):
    basis = data.draw(invertible_bases(table.dim))
    coords = [{k: x for k, x in enumerate(row) if x} for row in basis]
    assert table.rebased(table.names, coords) == dense_rebased(table, basis)


@pytest.mark.parametrize("table", [SL2, HEIS], ids=["sl2", "heisenberg"])
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_derived_and_center_survive_a_change_of_basis(table, data):
    # in a mixed basis the center's rows {m: c_im^k} take entries from brackets
    # on both sides of i, so a sign slip there leaves non-central vectors
    t = dense_rebased(table, data.draw(invertible_bases(table.dim)))
    dc, ref = analysis.derived_subalgebra_and_center(t), analysis.derived_subalgebra_and_center(table)
    assert (dc.derived_dim, dc.center_dim) == (ref.derived_dim, ref.center_dim)
    for v in dc.center_basis:
        assert all(not t.bracket({i: 1}, v) for i in range(t.dim))


@pytest.mark.parametrize("table", [GOLDEN, SL2, HEIS], ids=["g2", "sl2", "heisenberg"])
def test_rebased_refuses_what_is_not_a_basis(table):
    n = table.dim
    unit = [{k: Fraction(1)} for k in range(n)]
    assert table.rebased(table.names, unit) == table
    with pytest.raises(NamesNotBasisError):
        table.rebased(table.names[:-1], unit[:-1])
    with pytest.raises(NamesNotBasisError):
        table.rebased(table.names, unit[:-1])
    with pytest.raises(NamesNotBasisError):
        table.rebased(table.names, unit[:-1] + [{}])
    with pytest.raises(NamesNotBasisError):
        table.rebased(table.names, unit[:-1] + [{0: Fraction(2), n - 2: Fraction(-1, 3)}])


INDEXED = {"g2-seeded": seeded_g2(), "g2-half": g2_rescaled(11, Fraction(1, 2)),
           "sl2-permuted": permuted_rescaled(SL2, [2, 0, 1], [Fraction(3), Fraction(-1, 2), Fraction(5, 3)]),
           "b2-permuted": permuted_rescaled(SERRE_B2, list(reversed(range(SERRE_B2.dim))),
                                            [Fraction(k + 1, 2) for k in range(SERRE_B2.dim)]),
           "sl2+heisenberg": direct_sum(SL2, HEIS), "sl2+sl2": direct_sum(SL2, SL2),
           "g2-h1+x1": rebased(GOLDEN, "h1", "x1", Fraction(-3, 2))}


@pytest.mark.parametrize("name", sorted(INDEXED))
def test_table_is_its_antisymmetric_ad_maps_and_callers_leave_them_alone(name):
    t = INDEXED[name]
    for i, ad in enumerate(t.ad):
        assert i not in ad
        for j, col in ad.items():
            assert col and all(col.values())
            assert t.ad[j][i] == {k: -v for k, v in col.items()}
    assert StructureTable(t.names, t.c) == t
    # bracket_map hands out the stored columns: no reader may write to them
    before = copy.deepcopy(t.ad)
    calls = [analysis.check_jacobi, analysis.derived_subalgebra_and_center, analysis.killing_form,
             analysis.find_cartan_candidate, analysis.lower_central_dims, table.integer_ad_maps,
             lambda t: analysis.cartan_check(t, analysis.find_cartan_candidate(t)),
             lambda t: analysis.cartan_matrix_and_type(
                 analysis.root_decomposition(t, analysis.find_cartan_candidate(t))),
             lambda t: t.diff(StructureTable(t.names, {})),
             to_json_text, to_csv, to_latex]
    for call in calls:
        with contextlib.suppress(ValueError):
            call(t)
        assert t.ad == before, call
