"""Dense exact linear algebra over the rationals."""

from __future__ import annotations

from fractions import Fraction


def _q(x) -> Fraction:
    # Fraction(float) would silently absorb rounding error; insist on exact inputs.
    if isinstance(x, float):
        raise TypeError("floats are not exact; pass int, Fraction, or a 'p/q' string")
    return Fraction(x)


class RatMatrix:
    """Immutable-by-convention dense matrix with Fraction entries, row-major."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows: int, cols: int, entries):
        entries = [_q(x) for x in entries]
        if len(entries) != rows * cols:
            raise ValueError(f"expected {rows * cols} entries, got {len(entries)}")
        self.rows = rows
        self.cols = cols
        self.entries = entries

    @classmethod
    def from_rows(cls, rows) -> "RatMatrix":
        rows = [list(r) for r in rows]
        ncols = len(rows[0]) if rows else 0
        if any(len(r) != ncols for r in rows):
            raise ValueError("ragged rows")
        return cls(len(rows), ncols, [x for r in rows for x in r])

    @classmethod
    def identity(cls, n: int) -> "RatMatrix":
        return cls(n, n, [Fraction(int(i == j)) for i in range(n) for j in range(n)])

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "RatMatrix":
        return cls(rows, cols, [Fraction(0)] * (rows * cols))

    def __getitem__(self, ij) -> Fraction:
        i, j = ij
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexError(ij)
        return self.entries[i * self.cols + j]

    def row(self, i) -> list:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def col(self, j) -> list:
        return self.entries[j :: self.cols]

    def row_list(self) -> list:
        return [self.row(i) for i in range(self.rows)]

    def transpose(self) -> "RatMatrix":
        return RatMatrix(
            self.cols,
            self.rows,
            [self.entries[i * self.cols + j] for j in range(self.cols) for i in range(self.rows)],
        )

    def matmul(self, other: "RatMatrix") -> "RatMatrix":
        if self.cols != other.rows:
            raise ValueError("shape mismatch")
        out = []
        for i in range(self.rows):
            ri = self.row(i)
            for j in range(other.cols):
                out.append(sum((ri[k] * other.entries[k * other.cols + j] for k in range(self.cols)), Fraction(0)))
        return RatMatrix(self.rows, other.cols, out)

    def apply(self, vec) -> list:
        vec = [_q(x) for x in vec]
        if len(vec) != self.cols:
            raise ValueError("shape mismatch")
        return [sum((self.row(i)[k] * vec[k] for k in range(self.cols)), Fraction(0)) for i in range(self.rows)]

    def trace(self) -> Fraction:
        if self.rows != self.cols:
            raise ValueError("trace needs a square matrix")
        return sum((self[i, i] for i in range(self.rows)), Fraction(0))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, RatMatrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.entries == other.entries
        )

    def __hash__(self):
        return hash((self.rows, self.cols, tuple(self.entries)))

    def __repr__(self) -> str:
        body = "; ".join(" ".join(str(x) for x in self.row(i)) for i in range(self.rows))
        return f"RatMatrix({self.rows}x{self.cols}: {body})"


def rref(m: RatMatrix) -> tuple:
    """Reduced row echelon form; returns (matrix, pivot column indices)."""
    rows = m.row_list()
    pivots = []
    r = 0
    for j in range(m.cols):
        # pivot: first row at or below r with a nonzero entry in column j
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


def rank(m: RatMatrix) -> int:
    return len(rref(m)[1])


def kernel_basis(m: RatMatrix) -> list:
    """Basis of the right kernel; one vector per free column, exact."""
    red, pivots = rref(m)
    pivot_set = set(pivots)
    free = [j for j in range(m.cols) if j not in pivot_set]
    basis = []
    for f in free:
        v = [Fraction(0)] * m.cols
        v[f] = Fraction(1)
        # pivot row i: x_{pivots[i]} + sum over free j of red[i,j] x_j = 0
        for i, pj in enumerate(pivots):
            v[pj] = -red[i, f]
        basis.append(v)
    return basis


def solve_in_span(basis, target) -> list | None:
    """Coefficients writing target as a combination of basis vectors, or None.

    basis is a list of vectors; if coefficients are returned the combination
    reconstructs target exactly (free coefficients are set to zero).
    """
    target = [_q(x) for x in target]
    n = len(target)
    if any(len(b) != n for b in basis):
        raise ValueError("vector length mismatch")
    if not basis:
        return [] if all(x == 0 for x in target) else None
    # columns = basis vectors, augmented with target
    aug = RatMatrix.from_rows([[_q(b[i]) for b in basis] + [target[i]] for i in range(n)])
    red, pivots = rref(aug)
    if len(basis) in pivots:
        return None
    coeffs = [Fraction(0)] * len(basis)
    for i, pj in enumerate(pivots):
        coeffs[pj] = red[i, len(basis)]
    return coeffs


def invert(m: RatMatrix) -> RatMatrix | None:
    """Exact inverse, or None if the matrix is singular."""
    if m.rows != m.cols:
        raise ValueError("inverse needs a square matrix")
    n = m.rows
    aug = RatMatrix.from_rows([m.row(i) + RatMatrix.identity(n).row(i) for i in range(n)])
    red, pivots = rref(aug)
    if pivots != tuple(range(n)):
        return None
    return RatMatrix.from_rows([red.row(i)[n:] for i in range(n)])


def det(m: RatMatrix) -> Fraction:
    """Exact determinant by fraction Gaussian elimination."""
    if m.rows != m.cols:
        raise ValueError("determinant needs a square matrix")
    rows = m.row_list()
    n = m.rows
    d = Fraction(1)
    for j in range(n):
        p = next((i for i in range(j, n) if rows[i][j] != 0), None)
        if p is None:
            return Fraction(0)
        if p != j:
            rows[j], rows[p] = rows[p], rows[j]
            d = -d
        d *= rows[j][j]
        inv = 1 / rows[j][j]
        for i in range(j + 1, n):
            if rows[i][j] != 0:
                c = rows[i][j] * inv
                rows[i] = [a - c * b for a, b in zip(rows[i], rows[j])]
    return d
