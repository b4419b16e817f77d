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


def sparse_rows(m):
    return [{j: x for j, x in enumerate(row) if x} for row in m]


def column(t, i, j):
    """[b_i, b_j] as a dense column over the table basis, read from bracket_map."""
    vec = t.bracket_map(i, j)
    return [Fraction(vec.get(k, 0)) for k in range(t.dim)]


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
    cols = [column(t, i, j) for j in range(t.dim)]
    return [[cols[j][k] for j in range(t.dim)] for k in range(t.dim)]


def killing(t):
    """K_ij = trace(ad b_i . ad b_j), the trace summed as a[k][m] * b[m][k] over dense ad matrices."""
    ads = [ad(t, i) for i in range(t.dim)]
    n = t.dim
    return [[sum((a[k][m] * b[m][k] for k in range(n) for m in range(n)), Fraction(0)) for b in ads] for a in ads]


def killing_invariance_violations(t, K):
    """Triples where K([bi,bj],bk) + K(bj,[bi,bk]) != 0, K given as sparse rows."""
    n = t.dim
    out = []
    for i in range(n):
        for j in range(n):
            vij = t.bracket_map(i, j)
            for k in range(n):
                lhs = sum(x * K[m].get(k, 0) for m, x in vij.items())
                rhs = sum(K[j].get(m, 0) * x for m, x in t.bracket_map(i, k).items())
                if lhs + rhs != 0:
                    out.append((i, j, k))
    return out
