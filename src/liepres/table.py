"""Structure constant tables for finite-dimensional Lie algebras over Q."""

from __future__ import annotations

from fractions import Fraction

from .linalg import RatMatrix


class StructureTable:
    """Bracket table [b_i, b_j] = sum_k c[(i,j,k)] b_k, stored for i < j only.

    c holds the nonzero constants keyed by (i, j, k). The constructor also indexes
    them once by pair, (i, j) -> {k: c[(i,j,k)]}, so that bracket_map and
    bracket_vector are a dict lookup rather than a scan of every entry.
    """

    __slots__ = ("names", "c", "_pairs")

    def __init__(self, names, c):
        self.names = tuple(names)
        if len(set(self.names)) != len(self.names):
            raise ValueError("duplicate basis names")
        n = len(self.names)
        clean = {}
        pairs = {}
        for (i, j, k), val in c.items():
            if not (0 <= i < n and 0 <= j < n and 0 <= k < n):
                raise ValueError(f"index out of range: {(i, j, k)}")
            if i >= j:
                raise ValueError(f"structure constants must be stored with i < j: {(i, j, k)}")
            val = Fraction(val)
            if val:
                clean[(i, j, k)] = val
                pairs.setdefault((i, j), {})[k] = val
        self.c = clean
        self._pairs = pairs

    @property
    def dim(self) -> int:
        return len(self.names)

    @classmethod
    def from_bracket_fn(cls, names, fn) -> "StructureTable":
        """Build from fn(i, j) -> coefficient vector of [b_i, b_j], called for i < j."""
        names = tuple(names)
        c = {}
        for i in range(len(names)):
            for j in range(i + 1, len(names)):
                vec = fn(i, j)
                for k, val in enumerate(vec):
                    if val:
                        c[(i, j, k)] = Fraction(val)
        return cls(names, c)

    def bracket_vector(self, i: int, j: int) -> list:
        """[b_i, b_j] as a dense coefficient vector (antisymmetry applied for i >= j)."""
        out = [Fraction(0)] * self.dim
        for k, val in self.bracket_map(i, j).items():
            out[k] = val
        return out

    def bracket_map(self, i: int, j: int) -> dict:
        """[b_i, b_j] as a sparse k -> coefficient mapping."""
        if i == j:
            return {}
        sign = 1
        if i > j:
            i, j, sign = j, i, -1
        return {k: sign * v for k, v in self._pairs.get((i, j), {}).items()}

    def ad_matrix(self, i: int) -> RatMatrix:
        """Matrix of ad(b_i) acting on column vectors in the table basis."""
        cols = [self.bracket_vector(i, j) for j in range(self.dim)]
        return RatMatrix.from_rows([[cols[j][k] for j in range(self.dim)] for k in range(self.dim)])

    def index_of(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise KeyError(f"no basis element named {name!r}") from None

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, StructureTable)
            and self.names == other.names
            and self.c == other.c
        )

    def diff(self, other: "StructureTable") -> list:
        """Entries where the two tables disagree: (i, j, self_map, other_map)."""
        if self.names != other.names:
            raise ValueError("tables have different basis names")
        out = []
        for i in range(self.dim):
            for j in range(i + 1, self.dim):
                a, b = self.bracket_map(i, j), other.bracket_map(i, j)
                if a != b:
                    out.append((i, j, a, b))
        return out

    def __repr__(self) -> str:
        return f"StructureTable(dim={self.dim}, nonzero_pairs={len(self._pairs)})"
