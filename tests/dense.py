"""Dense reference linear algebra over Fraction for the tests: lists of rows, no Echelon.

The package holds every matrix as sparse rows {j: x} and eliminates only through
linalg.Echelon; these textbook routines are the independent oracles it is checked
against.
"""

import itertools
from fractions import Fraction


def identity(n):
    return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]


def matmul(a, b):
    return [[sum((row[k] * b[k][j] for k in range(len(b))), Fraction(0)) for j in range(len(b[0]))]
            for row in a]


def apply(m, vec):
    """The column m . vec."""
    return [sum((x * y for x, y in zip(row, vec)), Fraction(0)) for row in m]


def trace(m):
    return sum((m[i][i] for i in range(len(m))), Fraction(0))


def sparse_rows(m):
    return [{j: x for j, x in enumerate(row) if x} for row in m]


def gauss_jordan(m, cols):
    """(reduced rows, pivot columns) of Gauss-Jordan over Fraction, leftmost pivot first."""
    rows = [[Fraction(x) for x in row] for row in m]
    pivots = []
    r = 0
    for j in range(cols):
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
    return rows, tuple(pivots)


def rank(m, cols):
    return len(gauss_jordan(m, cols)[1])


def inverse(m):
    """The inverse by Gauss-Jordan on [m | I], or None when m is singular."""
    n = len(m)
    red, pivots = gauss_jordan([list(row) + e for row, e in zip(m, identity(n))], 2 * n)
    if pivots[:n] != tuple(range(n)):
        return None
    return [row[n:] for row in red]


def leibniz_det(m):
    """The sum over permutations of sign times the product of entries."""
    n = len(m)
    total = Fraction(0)
    for perm in itertools.permutations(range(n)):
        sign = 1
        for i in range(n):
            for j in range(i + 1, n):
                if perm[i] > perm[j]:
                    sign = -sign
        prod = Fraction(1)
        for i in range(n):
            prod *= m[i][perm[i]]
        total += sign * prod
    return total


def ad(t, i):
    """The matrix of ad(b_i) acting on column vectors in the table basis."""
    cols = [t.bracket_vector(i, j) for j in range(t.dim)]
    return [[cols[j][k] for j in range(t.dim)] for k in range(t.dim)]


def killing(t):
    """K_ij = trace(ad b_i . ad b_j) from dense matrix products."""
    ads = [ad(t, i) for i in range(t.dim)]
    return [[trace(matmul(a, b)) for b in ads] for a in ads]
