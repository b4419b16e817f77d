"""Exact sparse linear algebra checked against dense brute-force oracles."""

import random
from fractions import Fraction

import pytest
from dense import gauss_jordan, identity, inverse, leibniz_det, matmul, rank, sparse_rows
from hypothesis import example, given, settings
from hypothesis import strategies as st

from liepres.linalg import (Echelon, add_scaled, basis_change, compose, det, integer_char_poly, kernel_basis, reduce,
                            solve)
from liepres.table import NamesNotBasisError, StructureTable


def rand_matrix(rng, rows, cols, lo=-4, hi=4):
    return [[Fraction(rng.randint(lo, hi)) for _ in range(cols)] for _ in range(rows)]


def eliminate_right_to_left(rows):
    """Independent elimination choosing pivots from the last column backwards."""
    work = [list(r) for r in rows]
    basis = []
    for col in range(len(work[0]) - 1, -1, -1) if work else []:
        pivot_row = None
        for r in work:
            if r[col] != 0 and all(r[c] == 0 for c in range(col + 1, len(r))):
                pivot_row = r
                break
        if pivot_row is None:
            continue
        work.remove(pivot_row)
        inv = Fraction(1) / pivot_row[col]
        pivot_row = [x * inv for x in pivot_row]
        basis.append(pivot_row)
        work = [[x - r[col] * p for x, p in zip(r, pivot_row)] for r in work]
    return basis


def dense(vec, n):
    return [vec.get(k, Fraction(0)) for k in range(n)]


def annihilates(m, vec):
    return all(sum(x * vec.get(k, 0) for k, x in enumerate(row)) == 0 for row in m)


SCALARS = st.sampled_from([1, -1, 2, -2, Fraction(1, 2), Fraction(-3, 4)])
SPARSE = st.dictionaries(st.integers(0, 3), SCALARS, max_size=4)


@settings(max_examples=200, deadline=None)
@given(SPARSE, SPARSE, SCALARS)
def test_add_scaled_adds_and_never_leaves_a_zero(acc, vec, scale):
    # small values over four indices, so entries often cancel
    want = [x + scale * y for x, y in zip(dense(acc, 4), dense(vec, 4))]
    add_scaled(acc, vec, scale)
    assert 0 not in acc.values()
    assert dense(acc, 4) == want


def columns_to_rows(cols, n):
    """The dense matrix whose column k is the sparse cols[k]."""
    return [[Fraction(col.get(m, 0)) for col in cols] for m in range(n)]


def operators(n):
    """Operators on Q^n as lists of n sparse columns."""
    return st.lists(st.dictionaries(st.integers(0, n - 1), SCALARS, max_size=n), min_size=n, max_size=n)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 4).flatmap(lambda n: st.tuples(operators(n), operators(n))))
def test_compose_is_the_dense_matrix_product(ab):
    a, b = ab
    n = len(a)
    product = compose(a, b)
    assert not any(0 in col.values() for col in product)
    assert columns_to_rows(product, n) == matmul(columns_to_rows(a, n), columns_to_rows(b, n))


def test_kernel_annihilates_independent_elimination():
    rng = random.Random(20240811)
    for trial in range(25):
        m = rand_matrix(rng, 5, 7)
        ker = kernel_basis(sparse_rows(m), 7)
        other = eliminate_right_to_left(m)
        assert len(ker) == 7 - rank(other, 7)
        for v in ker:
            assert annihilates(other, v)
        assert rank([dense(v, 7) for v in ker], 7) == len(ker)


def reference_kernel(m, cols):
    """(pivots, kernel) from gauss_jordan on the reversed columns, rightmost pivot first as in Echelon.

    With the pivot columns fixed, the kernel vector with x_f = 1 and every other
    free coordinate 0 is unique, so the kernel must match vector for vector.
    """
    last = cols - 1
    red, pivots = gauss_jordan([list(reversed(r)) for r in m], cols)
    row_of = {last - j: r for r, j in enumerate(pivots)}
    kernel = []
    for f in range(cols):
        if f not in row_of:
            kernel.append({f: Fraction(1), **{p: -red[r][last - f] for p, r in row_of.items() if red[r][last - f]}})
    return sorted(row_of), kernel


def test_kernel_basis_equals_reversed_gauss_jordan():
    rng = random.Random(4242)
    shapes = [(0, 0), (0, 4), (3, 0), (1, 1), (5, 9), (9, 5), (6, 6), (12, 4), (3, 14)]
    for trial in range(40):
        rows, cols = shapes[trial % len(shapes)]
        entries = []
        for _ in range(rows * cols):
            if trial % 2:
                entries.append(Fraction(rng.randint(-30, 30), rng.randint(1, 12)))
            else:
                entries.append(rng.randint(-5, 5) if rng.random() < 0.6 else 0)
        m = [[Fraction(x) for x in entries[r * cols:(r + 1) * cols]] for r in range(rows)]
        if rows > 2 and cols > 2:
            # a zero row, a zero column and a repeated row
            zero_row, zero_col = rng.randrange(rows), rng.randrange(cols)
            m[zero_row] = [Fraction(0)] * cols
            for r in m:
                r[zero_col] = Fraction(0)
            m[(zero_row + 1) % rows] = list(m[(zero_row + 2) % rows])
        pivots, kernel = reference_kernel(m, cols)
        assert sorted(Echelon.of(sparse_rows(m)).rows) == pivots, m
        assert kernel_basis(sparse_rows(m), cols) == kernel, m


def test_echelon_pivots_and_free_columns():
    rng = random.Random(7)
    for trial in range(25):
        m = rand_matrix(rng, 4, 6)
        rows = Echelon.of(sparse_rows(m)).rows
        assert len(rows) == rank(m, 6)
        for p, row in rows.items():
            assert max(row) == p and row[p] > 0
            assert not any(q in row for q in rows if q != p)
        ker = kernel_basis(sparse_rows(m), 6)
        free = [f for f in range(6) if f not in rows]
        assert len(ker) == len(free)
        for f, v in zip(free, ker):
            assert [v.get(g, 0) for g in free] == [int(g == f) for g in free]


def test_row_snapshot_keeps_its_rows_and_reductions_while_the_echelon_adds():
    rng = random.Random(11)
    for trial in range(25):
        m = rand_matrix(rng, 6, 6)
        base = Echelon.of(sparse_rows(m[:3]))
        snapshot = dict(base.rows)
        before = {p: dict(row) for p, row in snapshot.items()}
        probes = [{j: int(x) for j, x in enumerate(r) if x} for r in rand_matrix(rng, 4, 6)]
        reduced = [reduce(snapshot, v) for v in probes]
        assert not any(r.keys() & snapshot.keys() for r, _ in reduced)
        for r in m[3:]:
            base.add({j: int(x) for j, x in enumerate(r) if x})
        # add replaces rows and edits none: the snapshot still holds the old ones
        assert snapshot == before == Echelon.of(sparse_rows(m[:3])).rows
        assert [reduce(snapshot, v) for v in probes] == reduced
        assert base == Echelon.of(sparse_rows(m))


def test_kernel_annihilates_and_has_right_dimension():
    rng = random.Random(99)
    for trial in range(25):
        m = rand_matrix(rng, 4, 6)
        ker = kernel_basis(sparse_rows(m), 6)
        assert len(ker) == 6 - rank(m, 6)
        for v in ker:
            assert annihilates(m, v)
        if ker:
            combo = {j: sum(Fraction(i + 1) * v.get(j, 0) for i, v in enumerate(ker)) for j in range(6)}
            assert annihilates(m, combo)
            assert rank([dense(v, 6) for v in ker], 6) == len(ker)
    assert kernel_basis([], 3) == [{0: 1}, {1: 1}, {2: 1}]


def inverse_by_basis_change(m):
    """Row k of the inverse is the coordinate vector of X_k over Y_i = sum_k m[i][k] X_k."""
    n = len(m)
    new_coordinates = basis_change(sparse_rows(m), n)
    if new_coordinates is None:
        return None
    return [dense(new_coordinates({k: 1}), n) for k in range(n)]


def test_basis_change_inverts_and_refuses_singular():
    rng = random.Random(5)
    found = 0
    while found < 10:
        m = rand_matrix(rng, 4, 4)
        mi = inverse_by_basis_change(m)
        assert mi == inverse(m)
        if mi is None:
            assert det(sparse_rows(m)) == 0
            continue
        found += 1
        assert matmul(m, mi) == identity(4)
        assert matmul(mi, m) == identity(4)
    assert basis_change(sparse_rows([[1, 2], [2, 4]]), 2) is None


SL2 = StructureTable(["e", "f", "h"], {(0, 1, 2): 1, (0, 2, 0): -2, (1, 2, 1): 2})
ENTRIES = st.sampled_from([0, 0, 1, -1, 2, Fraction(1, 2), Fraction(-3, 4)])


@settings(max_examples=60, deadline=None)
@given(st.lists(ENTRIES, min_size=9, max_size=9), st.lists(ENTRIES, min_size=3, max_size=3))
def test_basis_change_and_rebased_agree_with_the_dense_inverse(entries, vec):
    # Y_i = sum_k m[i, k] X_k over sl2's basis: the inverse renames old
    # coordinates x to x . m^-1, and rebased must give that table
    m = [[Fraction(x) for x in entries[3 * r:3 * r + 3]] for r in range(3)]
    coords = sparse_rows(m)
    new_coordinates, inv = basis_change(coords, 3), inverse(m)
    assert (new_coordinates is None) == (inv is None) == (det(coords) == 0)
    if inv is None:
        with pytest.raises(NamesNotBasisError):
            SL2.rebased(SL2.names, coords)
        return
    assert dense(new_coordinates(dict(enumerate(vec))), 3) == matmul([vec], inv)[0]
    c = {}
    for i in range(3):
        for j in range(i + 1, 3):
            old = dense(SL2.bracket(coords[i], coords[j]), 3)
            for k, x in enumerate(matmul([old], inv)[0]):
                if x:
                    c[(i, j, k)] = x
    assert SL2.rebased(SL2.names, coords) == StructureTable(SL2.names, c)


def solve_by_inverse_rows(m, vec):
    """vec . m^-1 by solve against the rows sum_k m[i][k] X_k - Y_i, X on the indices n + k; None if m is singular."""
    n = len(m)
    rows = Echelon.of({n + k: x for k, x in enumerate(row)} | {i: -1} for i, row in enumerate(m)).rows
    got = solve(rows, {n + k: x for k, x in enumerate(vec)})
    assert not got.keys() & rows.keys()
    return dense(got, n) if sorted(rows) == list(range(n, 2 * n)) else None


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 4).flatmap(lambda n: st.tuples(st.lists(st.lists(ENTRIES, min_size=n, max_size=n), min_size=n,
                                                              max_size=n), st.lists(ENTRIES, min_size=n, max_size=n))))
@example(([[Fraction(1, 2), Fraction(1, 3)], [Fraction(1, 5), Fraction(1, 7)]], [1, Fraction(-2, 3)]))
@example(([[1, 2], [2, 4]], [1, 0]))
def test_solve_agrees_with_the_dense_inverse(case):
    # examples: the matrices inverse_by_basis_change meets in test_fraction_entries_survive
    # and in test_basis_change_inverts_and_refuses_singular
    m, vec = case
    m = [[Fraction(x) for x in row] for row in m]
    got, inv = solve_by_inverse_rows(m, vec), inverse(m)
    assert (got is None) == (inv is None)
    if inv is not None:
        assert got == matmul([vec], inv)[0]


def test_det_against_permutation_expansion():
    rng = random.Random(77)
    for trial in range(10):
        m = rand_matrix(rng, 4, 4, -3, 3)
        assert det(sparse_rows(m)) == leibniz_det(m)
    # every size 0..5 with Fraction entries: odd sizes catch a dropped (-1)^n,
    # unequal denominators a dropped D^n
    rng = random.Random(2026)
    for n in range(6):
        for trial in range(6):
            m = [[Fraction(rng.randint(-9, 9), rng.randint(1, 7)) if rng.random() < 0.8 else Fraction(0)
                  for _ in range(n)] for _ in range(n)]
            assert det(sparse_rows(m)) == leibniz_det(m), m
    # n is the number of rows: an index outside 0..n-1 is not square
    for rows in ([{0: 1, 1: 2, 2: 3}, {0: 4, 1: 5, 2: 6}], [{1: 1}], [{-1: 1}, {0: 1}]):
        with pytest.raises(ValueError, match="need a square matrix"):
            det(rows)


def test_det_multiplicative_and_identity():
    rng = random.Random(31)
    assert det(sparse_rows(identity(5))) == 1
    a = rand_matrix(rng, 3, 3)
    b = rand_matrix(rng, 3, 3)
    assert det(sparse_rows(matmul(a, b))) == det(sparse_rows(a)) * det(sparse_rows(b))


def test_integer_char_poly_scales_by_the_common_denominator():
    # rows {j: x} with explicit zeros and empty rows: diag(1/2, 1/3, 0) has D = 6
    # and det(xI - 6m) = (x - 3)(x - 2)x
    rows = [{0: Fraction(1, 2), 2: 0}, {1: Fraction(1, 3)}, {}]
    assert integer_char_poly(rows) == (6, [1, -5, 6, 0])
    assert integer_char_poly([]) == (1, [1])


def test_fraction_entries_survive():
    m = [[Fraction(1, 2), Fraction(1, 3)], [Fraction(1, 5), Fraction(1, 7)]]
    mi = inverse_by_basis_change(m)
    assert mi is not None
    assert mi == inverse(m)
    assert matmul(m, mi) == identity(2)
    assert det(sparse_rows(m)) == Fraction(1, 14) - Fraction(1, 15)
