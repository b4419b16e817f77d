"""Exact rational matrix routines checked against brute-force oracles."""

import itertools
import random
from fractions import Fraction

import pytest

from liepres.linalg import RatMatrix, det, invert, kernel_basis, rank, rref


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


def in_span(basis, vec):
    return rank(RatMatrix.from_rows(list(basis) + [list(vec)])) == rank(RatMatrix.from_rows(basis))


def test_rref_row_space_matches_independent_elimination():
    rng = random.Random(20240811)
    for trial in range(25):
        m = rand_matrix(rng, 5, 7)
        red, pivots = rref(m)
        mine = [red.row(i) for i in range(len(pivots))]
        other = eliminate_right_to_left(m.row_list())
        assert len(mine) == len(other)
        for v in mine:
            assert in_span(other, v)
        for v in other:
            assert in_span(mine, v)


def gauss_jordan(m):
    """Dense Gauss-Jordan over Fraction, leftmost pivot first: the reference for rref."""
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


def test_rref_equals_dense_gauss_jordan():
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
        assert rref(m) == gauss_jordan(m), m


def test_rref_shape_and_pivots():
    rng = random.Random(7)
    for trial in range(25):
        m = rand_matrix(rng, 4, 6)
        red, pivots = rref(m)
        assert sorted(pivots) == list(pivots)
        for r, c in enumerate(pivots):
            assert red[r, c] == 1
            for r2 in range(4):
                if r2 != r:
                    assert red[r2, c] == 0
        assert rank(m) == len(pivots)


def test_kernel_annihilates_and_has_right_dimension():
    rng = random.Random(99)
    for trial in range(25):
        m = rand_matrix(rng, 4, 6)
        ker = kernel_basis(m)
        assert len(ker) == 6 - rank(m)
        for v in ker:
            assert all(x == 0 for x in m.apply(v))
        if ker:
            combo = [sum(Fraction(i + 1) * v[j] for i, v in enumerate(ker)) for j in range(6)]
            assert all(x == 0 for x in m.apply(combo))
        if len(ker) > 1:
            assert rank(RatMatrix.from_rows(ker)) == len(ker)


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
