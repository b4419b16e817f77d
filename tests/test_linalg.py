"""Exact rational matrix routines checked against brute-force oracles."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liepres.linalg import Echelon, RatMatrix, basis_change, det, invert, kernel_basis
from liepres.table import NamesNotBasisError, StructureTable


def rand_matrix(rng, rows, cols, lo=-4, hi=4):
    return RatMatrix.from_rows(
        [[Fraction(rng.randint(lo, hi)) for _ in range(cols)] for _ in range(rows)])


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


def sparse_rows(m):
    return [{j: x for j, x in enumerate(r) if x} for r in m.row_list()]


def dense(vec, n):
    return [vec.get(k, Fraction(0)) for k in range(n)]


def annihilates(m, vec):
    return all(x == 0 for x in m.apply(dense(vec, m.cols)))


def test_kernel_annihilates_independent_elimination():
    rng = random.Random(20240811)
    for trial in range(25):
        m = rand_matrix(rng, 5, 7)
        ker = kernel_basis(sparse_rows(m), 7)
        other = RatMatrix.from_rows(eliminate_right_to_left(m.row_list()) or [[0] * 7])
        assert len(ker) == 7 - rank(other)
        for v in ker:
            assert annihilates(other, v)
        assert rank(RatMatrix.from_rows([dense(v, 7) for v in ker] or [[0] * 7])) == len(ker)


def gauss_jordan(m):
    """Dense Gauss-Jordan over Fraction, leftmost pivot first: the reference elimination."""
    rows = m.row_list()
    pivots = []
    r = 0
    for j in range(m.cols):
        p = next((i for i in range(r, len(rows)) if rows[i][j] != 0), None)
        if p is None:
            continue
        rows[r], rows[p] = rows[p], rows[r]
        inv = 1 / rows[r][j]
        rows[r] = [x * inv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][j] != 0:
                c = rows[i][j]
                rows[i] = [a - c * b for a, b in zip(rows[i], rows[r])]
        pivots.append(j)
        r += 1
        if r == len(rows):
            break
    return RatMatrix.from_rows(rows) if rows else m, tuple(pivots)


def rank(m):
    return len(gauss_jordan(m)[1])


def reference_kernel(m):
    """(pivots, kernel) from gauss_jordan on the reversed columns, rightmost pivot first as in Echelon.

    With the pivot columns fixed, the kernel vector with x_f = 1 and every other
    free coordinate 0 is unique, so the kernel must match vector for vector.
    """
    last = m.cols - 1
    red, pivots = gauss_jordan(RatMatrix(m.rows, m.cols, [x for r in m.row_list() for x in reversed(r)]))
    row_of = {last - j: r for r, j in enumerate(pivots)}
    kernel = []
    for f in range(m.cols):
        if f not in row_of:
            kernel.append({f: Fraction(1), **{p: -red[r, last - f] for p, r in row_of.items() if red[r, last - f]}})
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
        m = RatMatrix(rows, cols, entries)
        if rows > 2 and cols > 2:
            # a zero row, a zero column and a repeated row
            zero_row, zero_col = rng.randrange(rows), rng.randrange(cols)
            grid = m.row_list()
            grid[zero_row] = [Fraction(0)] * cols
            for r in grid:
                r[zero_col] = Fraction(0)
            grid[(zero_row + 1) % rows] = list(grid[(zero_row + 2) % rows])
            m = RatMatrix.from_rows(grid)
        pivots, kernel = reference_kernel(m)
        assert sorted(Echelon.of(sparse_rows(m)).rows) == pivots, m
        assert kernel_basis(sparse_rows(m), m.cols) == kernel, m


def test_echelon_pivots_and_free_columns():
    rng = random.Random(7)
    for trial in range(25):
        m = rand_matrix(rng, 4, 6)
        rows = Echelon.of(sparse_rows(m)).rows
        assert len(rows) == rank(m)
        for p, row in rows.items():
            assert max(row) == p and row[p] > 0
            assert not any(q in row for q in rows if q != p)
        ker = kernel_basis(sparse_rows(m), 6)
        free = [f for f in range(6) if f not in rows]
        assert len(ker) == len(free)
        for f, v in zip(free, ker):
            assert [v.get(g, 0) for g in free] == [int(g == f) for g in free]


def test_kernel_annihilates_and_has_right_dimension():
    rng = random.Random(99)
    for trial in range(25):
        m = rand_matrix(rng, 4, 6)
        ker = kernel_basis(sparse_rows(m), 6)
        assert len(ker) == 6 - rank(m)
        for v in ker:
            assert annihilates(m, v)
        if ker:
            combo = {j: sum(Fraction(i + 1) * v.get(j, 0) for i, v in enumerate(ker)) for j in range(6)}
            assert annihilates(m, combo)
            assert rank(RatMatrix.from_rows([dense(v, 6) for v in ker])) == len(ker)
    assert kernel_basis([], 3) == [{0: 1}, {1: 1}, {2: 1}]


def test_invert_round_trip_and_singular():
    rng = random.Random(5)
    found = 0
    while found < 10:
        m = rand_matrix(rng, 4, 4)
        mi = invert(m)
        if mi is None:
            assert det(m) == 0
            continue
        found += 1
        assert m.matmul(mi) == RatMatrix.identity(4)
        assert mi.matmul(m) == RatMatrix.identity(4)
    singular = RatMatrix.from_rows([[1, 2], [2, 4]])
    assert invert(singular) is None


SL2 = StructureTable(["e", "f", "h"], {(0, 1, 2): 1, (0, 2, 0): -2, (1, 2, 1): 2})
ENTRIES = st.sampled_from([0, 0, 1, -1, 2, Fraction(1, 2), Fraction(-3, 4)])


@settings(max_examples=60, deadline=None)
@given(st.lists(ENTRIES, min_size=9, max_size=9), st.lists(ENTRIES, min_size=3, max_size=3))
def test_invert_and_rebased_agree_through_basis_change(entries, vec):
    # Y_i = sum_k m[i, k] X_k over sl2's basis: the inverse renames old
    # coordinates x to x . m^-1, and rebased must give that table
    m = RatMatrix(3, 3, entries)
    coords = sparse_rows(m)
    new_coordinates, inv = basis_change(coords, 3), invert(m)
    assert (new_coordinates is None) == (inv is None) == (det(m) == 0)
    if inv is None:
        with pytest.raises(NamesNotBasisError):
            SL2.rebased(SL2.names, coords)
        return
    assert dense(new_coordinates(dict(enumerate(vec))), 3) == RatMatrix.from_rows([vec]).matmul(inv).row(0)
    c = {}
    for i in range(3):
        for j in range(i + 1, 3):
            old = dense(SL2.bracket(coords[i], coords[j]), 3)
            for k, x in enumerate(RatMatrix.from_rows([old]).matmul(inv).row(0)):
                if x:
                    c[(i, j, k)] = x
    assert SL2.rebased(SL2.names, coords) == StructureTable(SL2.names, c)


def permutation_expansion(m):
    """Leibniz formula: the sum over permutations of sign times the product of entries."""
    n = m.rows
    total = Fraction(0)
    for perm in itertools.permutations(range(n)):
        sign = 1
        for i in range(n):
            for j in range(i + 1, n):
                if perm[i] > perm[j]:
                    sign = -sign
        prod = Fraction(1)
        for i in range(n):
            prod *= m[i, perm[i]]
        total += sign * prod
    return total


def test_det_against_permutation_expansion():
    rng = random.Random(77)
    for trial in range(10):
        m = rand_matrix(rng, 4, 4, -3, 3)
        assert det(m) == permutation_expansion(m)
    # every size 0..5 with Fraction entries: odd sizes catch a dropped (-1)^n,
    # unequal denominators a dropped D^n
    rng = random.Random(2026)
    for n in range(6):
        for trial in range(6):
            m = RatMatrix(n, n, [Fraction(rng.randint(-9, 9), rng.randint(1, 7)) if rng.random() < 0.8 else 0
                                 for _ in range(n * n)])
            assert det(m) == permutation_expansion(m), m
    with pytest.raises(ValueError):
        det(RatMatrix.from_rows([[1, 2, 3], [4, 5, 6]]))


def test_det_multiplicative_and_identity():
    rng = random.Random(31)
    assert det(RatMatrix.identity(5)) == 1
    a = rand_matrix(rng, 3, 3)
    b = rand_matrix(rng, 3, 3)
    assert det(a.matmul(b)) == det(a) * det(b)


def test_fraction_entries_survive():
    m = RatMatrix.from_rows([[Fraction(1, 2), Fraction(1, 3)], [Fraction(1, 5), Fraction(1, 7)]])
    mi = invert(m)
    assert mi is not None
    assert m.matmul(mi) == RatMatrix.identity(2)
    assert det(m) == Fraction(1, 14) - Fraction(1, 15)
