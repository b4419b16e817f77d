"""Sparse Killing/Jacobi against dense references, and classify under changes of basis."""

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
from liepres import analysis
from liepres.cli import main
from liepres.presentation import parse_presentation
from liepres.quotient import structure_table
from liepres.table import NamesNotBasisError, StructureTable
from liepres.tabledoc import load_table, save_table

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
    basis[t.index_of(name)][t.index_of(plus)] += c
    return dense_rebased(t, basis)


def jacobi_broken(value):
    c = dict(GOLDEN.c)
    h1, a12 = GOLDEN.index_of("h1"), GOLDEN.index_of("a12")
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
# contraction must divide by D**2 (D = 3) to match
INPUTS = {"g2": GOLDEN, "sl2": SL2, "heisenberg": HEIS, "g2-seeded": seeded_g2(),
          "g2-half": g2_rescaled(11, Fraction(1, 2)), "g2-third": g2_rescaled(12, Fraction(1, 3)),
          "jacobi-broken": jacobi_broken(Fraction(3)), "jacobi-broken-thirds": jacobi_broken(Fraction(1, 3))}


def dense_jacobi(t):
    n = t.dim
    ads = [dense.ad(t, i) for i in range(n)]
    out = []
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                v = dense.apply(ads[i], t.bracket_vector(j, k))
                w = dense.apply(ads[k], t.bracket_vector(i, j))
                u = dense.apply(ads[j], t.bracket_vector(i, k))
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


@pytest.mark.parametrize("table, matrix, kind", [
    (GOLDEN, "cartan matrix: [[2, -1], [-3, 2]]", "type: G2"),
    (SL2, "cartan matrix: [[2]]", "type: A1"),
], ids=["g2", "sl2"])
@settings(max_examples=12, deadline=None)
@given(data=st.data())
def test_type_invariant_under_permutation_and_rescale(table, matrix, kind, data):
    perm = data.draw(st.permutations(range(table.dim)))
    scales = data.draw(st.lists(factors(), min_size=table.dim, max_size=table.dim))
    code, lines = classify_lines(permuted_rescaled(table, perm, scales))
    assert code == 0
    assert matrix in lines
    assert kind in lines


def test_g2_with_h1_scaled_by_100_classifies():
    scales = [Fraction(100) if name == "h1" else Fraction(1) for name in GOLDEN.names]
    t = permuted_rescaled(GOLDEN, list(range(GOLDEN.dim)), scales)
    h1 = t.index_of("h1")
    diagonal = {t.bracket_map(h1, j).get(j, Fraction(0)) for j in range(t.dim)}
    assert analysis.rational_eigenvalues(dense.sparse_rows(dense.ad(t, h1))) == sorted(diagonal)
    code, lines = classify_lines(t)
    assert code == 0
    assert "cartan matrix: [[2, -1], [-3, 2]]" in lines
    assert lines[-1] == "type: G2"


@pytest.mark.parametrize("name, plus", [("x1", "x2"), ("h1", "x1")])
def test_classify_refuses_basis_not_aligned_with_roots(name, plus):
    code, lines = classify_lines(rebased(GOLDEN, name, plus))
    assert code == 1
    assert "cartan: h1 h2" in lines
    assert lines[-1] == "type: unrecognized (root spaces are not aligned with the table basis)"


def diagonalizable_over_q(m):
    """The geometric multiplicities of the rational eigenvalues add up to the size.

    The ranks are the dense Gauss-Jordan reference for the sparse multiplicities.
    """
    n = len(m)
    total = 0
    for lam in analysis.rational_eigenvalues(dense.sparse_rows(m)):
        shifted = [[x - lam if r == c else x for c, x in enumerate(row)] for r, row in enumerate(m)]
        total += n - dense.rank(shifted, n)
    return total == n


@pytest.mark.parametrize("table", [GOLDEN, SL2], ids=["g2", "sl2"])
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_accepted_cartan_candidates_commute_and_diagonalize(table, data):
    # Why root_decomposition can refuse a non-diagonal Cartan outright: a candidate
    # that passes the Cartan check is simultaneously diagonalizable over Q anyway.
    a = data.draw(st.integers(0, table.dim - 1))
    b = data.draw(st.sampled_from([k for k in range(table.dim) if k != a]))
    t = rebased(table, table.names[a], table.names[b], data.draw(factors()))
    assert analysis.check_jacobi(t) == []
    cartan = analysis.find_cartan_candidate(t)
    if not cartan or not analysis.cartan_check(t, cartan).ok:
        return
    ads = [dense.ad(t, h) for h in cartan]
    for x in ads:
        assert diagonalizable_over_q(x)
        for y in ads:
            assert dense.matmul(x, y) == dense.matmul(y, x)


def test_non_diagonal_cartan_passes_the_check():
    # the property above is not vacuous: here the picked h1 + x1 has a
    # non-diagonal ad and the candidate passes the Cartan check
    t = rebased(GOLDEN, "h1", "x1", Fraction(-3, 2))
    cartan = analysis.find_cartan_candidate(t)
    assert analysis.cartan_check(t, cartan).ok
    h1 = t.index_of("h1")
    assert h1 in cartan
    assert any(k != m for m in range(t.dim) for k in t.bracket_map(h1, m))
    assert diagonalizable_over_q(dense.ad(t, h1))


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
