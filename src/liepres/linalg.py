"""Exact linear algebra over the rationals, on sparse rows.

A vector is a sparse map {index: x} and a matrix is a list of such rows.  Each
sparse operation has one implementation, here.  `integer_scaled` takes every
common denominator.  `add_scaled` is every sparse accumulate outside `freelie`
and the climb's `child`: `reduce`, `Echelon.add`, `compose`, `StructureTable.bracket`,
`check_jacobi` and `quotient.lie_map`.  `compose`, the operator product, serves
the model's commutators in `quotient._model` and `integer_char_poly`.  `Echelon`
is the one elimination kernel, a sparse reduced echelon form over the integers, and
`reduce(rows, vec)` eliminates against its rows or a snapshot of them: every
span, rank and kernel runs on it.  `solve` scales, reduces and divides back; it
is `QuotientBasis.reduce` and `basis_change`, which renames tables
(`StructureTable.rebased`) and solves against the Killing form on a Cartan
subalgebra.  The integer characteristic polynomial (Faddeev-LeVerrier, no
elimination) serves only `det`.
"""

from fractions import Fraction
from math import gcd, lcm


def integer_scaled(values) -> tuple:
    """(D, ints): D the least common denominator of the rationals in values, ints an iterator of them times D."""
    values = list(values)
    D = lcm(1, *(x.denominator for x in values))
    return D, (x.numerator * (D // x.denominator) for x in values)


def add_scaled(acc: dict, vec: dict, scale) -> None:
    """acc += scale * vec in place; an entry that cancels is removed, so acc holds no zero."""
    for k, x in vec.items():
        v = acc.get(k, 0) + scale * x
        if v:
            acc[k] = v
        else:
            acc.pop(k, None)


def compose(a: list, b: list) -> list:
    """The product a.b of operators given as lists of sparse columns; of lists of rows, b.a."""
    out: list = [{} for _ in b]
    for acc, col in zip(out, b):
        for k, x in col.items():
            add_scaled(acc, a[k], x)
    return out


def _content_strip(vec: dict) -> dict:
    g = 0
    for v in vec.values():
        g = gcd(g, v)
        if g == 1:
            return vec
    if g > 1:
        return {k: v // g for k, v in vec.items()}
    return vec


def reduce(rows: dict, vec: dict) -> tuple:
    """(r, s) with r = s*vec minus a combination of rows, supported off their pivots.

    rows are an `Echelon`'s rows, {pivot: row}, or a snapshot dict(e.rows) of them.
    s > 0 is the product of the multipliers applied to vec, so vec is congruent
    to r / s modulo the span of the rows.
    """
    vec = dict(vec)
    s = 1
    for p in [i for i in vec if i in rows]:
        row = rows[p]
        if len(row) == 1:
            del vec[p]
            continue
        vp = vec[p]
        rp = row[p]
        g = gcd(vp, rp)
        mv, mr = rp // g, vp // g
        if mv != 1:
            s *= mv
            for k in vec:
                vec[k] *= mv
        add_scaled(vec, row, -mr)
    return vec, s


def solve(rows: dict, vec: dict) -> dict:
    """vec modulo the span of the Echelon rows as {index: Fraction}: scaled to integers, reduced, divided back."""
    D, ints = integer_scaled(vec.values())
    rem, s = reduce(rows, {k: x for k, x in zip(vec, ints) if x})
    return {k: Fraction(x, D * s) for k, x in rem.items()}


class Echelon:
    """Sparse incremental reduced echelon form over Z: rows are content-stripped, tails pivot-free.

    Vectors are dicts {index: int}.  The pivot of a row is its maximum index and its
    value is positive, so each row is the unique primitive integer row of the reduced
    echelon form of the span and the rows do not depend on the insertion order.  Full
    back-substitution is maintained on every insertion, so reduction of any vector is
    a single pass over its initial support, in any order (eliminating one pivot only
    ever introduces non-pivot coordinates).  Back-substitution is cheapest when
    vectors arrive in ascending order of their largest index.  `add` replaces a
    changed row and never edits one, so a snapshot dict(e.rows) keeps its rows,
    and `reduce` against it, while e goes on adding.
    """

    def __init__(self):
        self.rows: dict = {}            # pivot index -> {index: int}
        self.containing: dict = {}      # index -> set of pivots whose row touches it

    @classmethod
    def of(cls, rows) -> "Echelon":
        """The Echelon of sparse rational rows {index: int or Fraction}, each scaled to integers."""
        ech = cls()
        for row in rows:
            _, ints = integer_scaled(row.values())
            ech.add({k: x for k, x in zip(row, ints) if x})
        return ech

    def _register(self, p: int, row: dict) -> None:
        for k in row:
            self.containing.setdefault(k, set()).add(p)

    def _unregister(self, p: int, row: dict) -> None:
        for k in row:
            s = self.containing.get(k)
            if s:
                s.discard(p)

    def add(self, vec: dict) -> int | None:
        """Reduce vec and, if independent, insert it; returns the new pivot or None."""
        rem = _content_strip(reduce(self.rows, vec)[0])
        if not rem:
            return None
        p = max(rem)
        if rem[p] < 0:
            rem = {k: -v for k, v in rem.items()}
        for q in list(self.containing.get(p, ())):
            row = self.rows[q]
            self._unregister(q, row)
            rp, qv = rem[p], row[p]
            g = gcd(rp, qv)
            mq, mr = rp // g, qv // g
            new = {k: v * mq for k, v in row.items()}
            add_scaled(new, rem, -mr)
            new = _content_strip(new)
            self.rows[q] = new
            self._register(q, new)
        self.rows[p] = rem
        self._register(p, rem)
        return p


def kernel_basis(rows, n: int) -> list:
    """Basis of {x in Q^n : row . x = 0 for every row}, rows sparse {index: rational}.

    One vector per free column f, read off the Echelon of the rows: each row's
    pivot p is its largest index and its tail holds no pivot, so x_f = 1, the
    other free coordinates 0 and x_p = -row_p[f] / row_p[p] solve every row.
    """
    pivots = Echelon.of(rows).rows
    return [{f: Fraction(1), **{p: Fraction(-row[f], row[p]) for p, row in pivots.items() if f in row}}
            for f in range(n) if f not in pivots]


def basis_change(coords, n: int):
    """The map from coordinates over X to those over Y_i = sum_k coords[i][k] X_k, i < n.

    One sparse elimination: the n rows sum_k c_ik X_k - Y_i, with X on the
    indices n + k, go into an Echelon.  The Y_i form a basis exactly when every
    X_k becomes a pivot; then `solve` leaves an X-coordinate vector's Y
    coordinates on the indices below n.  Returns None when they are not a basis.
    """
    rows = Echelon.of({n + k: x for k, x in vec.items()} | {i: -1} for i, vec in enumerate(coords)).rows
    if sorted(rows) != list(range(n, 2 * n)):
        return None
    return lambda vec: solve(rows, {n + k: x for k, x in vec.items()})


def integer_char_poly(rows) -> tuple:
    """(D, a): D the common denominator of the square matrix m, a = det(xI - D*m) over Z, highest power first.

    m is given as its n sparse rows {j: x}, 0 <= j < n.  Faddeev-LeVerrier on
    the integer rows of A = D*m: M_1 = A, c_k = -trace(M_k)/k,
    M_{k+1} = A (M_k + c_k I).  Every M_k is an integer matrix and every c_k an
    integer coefficient of det(xI - A), so each trace divides exactly.  Once some
    M_k is zero every later c_k and M_k is zero too, and the product stops there.
    """
    rows = list(rows)
    n = len(rows)
    if any(not 0 <= j < n for row in rows for j in row):
        raise ValueError("characteristic polynomial and determinant need a square matrix")
    D, ints = integer_scaled(x for row in rows for x in row.values())
    rows = [{j: x for j in row if (x := next(ints))} for row in rows]
    coeffs = [1]
    mk = rows
    for k in range(1, n + 1):
        if not any(mk):
            coeffs += [0] * (n + 1 - k)
            break
        ck = -sum(row.get(i, 0) for i, row in enumerate(mk)) // k
        coeffs.append(ck)
        if k < n:
            mk = compose(mk, rows)  # A M_k, then + c_k A
            for row, a in zip(mk, rows):
                add_scaled(row, a, ck)
    return D, coeffs


def det(rows) -> Fraction:
    """Exact determinant of a square matrix given as sparse rows: (-1)^n times the constant term of det(xI - M).

    No elimination: the integer characteristic polynomial already carries it.
    """
    D, a = integer_char_poly(rows)
    n = len(a) - 1
    return Fraction((-1) ** n * a[-1], D ** n)
