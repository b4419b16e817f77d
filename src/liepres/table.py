"""Structure constant tables for finite-dimensional Lie algebras over Q.

A table is renamed to a chosen basis by `StructureTable.rebased`; `check_jacobi`
is the Jacobi check that `certify` and `classify` both run on a table.
"""

from fractions import Fraction

from .linalg import add_scaled, basis_change, integer_scaled


class NamesNotBasisError(ValueError):
    """The provided named elements do not form a basis of the computed quotient."""


class StructureTable:
    """Bracket table [b_i, b_j] = sum_k c[(i,j,k)] b_k, indexed once by its ad maps.

    ad[i] maps m -> {k: c} with [b_i, b_m] = sum_k c b_k.  Each nonzero bracket is
    held in both orientations, ad[m][i] = -ad[i][m], and zero columns are omitted,
    so no ad[i] has the key i.  The constructor takes the nonzero constants keyed
    by (i, j, k) with i < j, and `c` reads them back off ad.
    """

    __slots__ = ("names", "ad", "_integer_ad")

    def __init__(self, names, c):
        self.names = tuple(names)
        if len(set(self.names)) != len(self.names):
            raise ValueError("duplicate basis names")
        n = len(self.names)
        ad: list = [{} for _ in range(n)]
        for (i, j, k), val in c.items():
            if not (0 <= i < n and 0 <= j < n and 0 <= k < n):
                raise ValueError(f"index out of range: {(i, j, k)}")
            if i >= j:
                raise ValueError(f"structure constants must be stored with i < j: {(i, j, k)}")
            if val:
                ad[i].setdefault(j, {})[k] = val
                ad[j].setdefault(i, {})[k] = -val
        self.ad = ad
        self._integer_ad = None  # filled by the first integer_ad_maps call

    @property
    def c(self) -> dict:
        """The nonzero constants {(i, j, k): c} with i < j, read off ad."""
        return {(i, j, k): v for i, row in enumerate(self.ad) for j, col in row.items() if i < j
                for k, v in col.items()}

    @property
    def dim(self) -> int:
        return len(self.names)

    def bracket_map(self, i: int, j: int) -> dict:
        """[b_i, b_j] as a sparse k -> coefficient mapping.

        It is the stored column ad[i][j] itself, not a copy: no caller writes to it.
        """
        return self.ad[i].get(j, {})

    def bracket(self, a: dict, b: dict) -> dict:
        """[a, b] for sparse coordinate vectors {index: coefficient}."""
        acc: dict = {}
        for i, x in a.items():
            for j, y in b.items():
                add_scaled(acc, self.bracket_map(i, j), x * y)
        return acc

    def rebased(self, names, coords) -> "StructureTable":
        """The table over new basis elements Y_i = sum_k coords[i][k] b_k, named names[i].

        Each bracket [Y_i, Y_j] is renamed to Y coordinates by linalg.basis_change.
        Raises NamesNotBasisError for a wrong number of elements or a dependent set.
        """
        names = tuple(names)
        n = self.dim
        if len(names) != n:
            raise NamesNotBasisError(f"{len(names)} names for a quotient of dimension {n}")
        coords = list(coords)
        if len(coords) != n:
            raise NamesNotBasisError(f"{len(coords)} coordinate vectors for {n} names")
        new_coordinates = basis_change(coords, n)
        if new_coordinates is None:
            raise NamesNotBasisError("the names do not form a basis of the quotient")
        c = {}
        for i in range(n):
            for j in range(i + 1, n):
                for k, v in new_coordinates(self.bracket(coords[i], coords[j])).items():
                    c[(i, j, k)] = v
        return StructureTable(names, c)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, StructureTable)
            and self.names == other.names
            and self.ad == other.ad
        )

    def diff(self, other: "StructureTable") -> list:
        """Entries where the two tables disagree: (i, j, self_map, other_map)."""
        if self.names != other.names:
            raise ValueError("tables have different basis names")
        out = []
        for i in range(self.dim):
            for j in sorted(k for k in self.ad[i].keys() | other.ad[i].keys() if k > i):
                a, b = self.bracket_map(i, j), other.bracket_map(i, j)
                if a != b:
                    out.append((i, j, a, b))
        return out

    def __repr__(self) -> str:
        return f"StructureTable(dim={self.dim}, nonzero_pairs={sum(map(len, self.ad)) // 2})"


def integer_ad_maps(t: StructureTable) -> tuple:
    """(D, ads): D the least common denominator of the constants, ads = t.ad scaled by D to ints.

    ads[i] maps m -> {k: x} with D [b_i, b_m] = sum_k x b_k.  A sum of products of
    two constants, taken over these columns, is D**2 times the same sum over the table.
    Built on the first call and kept on the table, whose ad is never edited; no caller writes to it.
    """
    if t._integer_ad is None:
        D, ints = integer_scaled(x for row in t.ad for col in row.values() for x in col.values())
        t._integer_ad = D, [{m: {k: next(ints) for k in col} for m, col in row.items()} for row in t.ad]
    return t._integer_ad


def _add_bracket(acc: dict, ad: dict, vec: dict, sign: int) -> None:
    """acc += sign * [b, v] for ad = ad(b) and v given as a sparse map."""
    for m, x in vec.items():
        add_scaled(acc, ad.get(m, {}), sign * x)


def check_jacobi(t: StructureTable) -> list:
    """All triples i < j < k where [[bi,bj],bk] cycling fails; empty means it holds.

    Each violation is (i, j, k, total) with total the sparse map {m: c} of
    [b_i,[b_j,b_k]] + [b_k,[b_i,b_j]] - [b_j,[b_i,b_k]], summed over bracket maps.
    The sums run in ints over integer_ad_maps; a nonzero total is divided by D**2.
    Each term brackets one of [b_i,b_j], [b_j,b_k], [b_i,b_k], so a triple whose
    three pair brackets vanish is skipped: when [b_i,b_j] = 0 only the k in the
    keys of ads[i] or ads[j] are visited.
    """
    n = t.dim
    D, ads = integer_ad_maps(t)
    violations = []
    for i in range(n):
        for j in range(i + 1, n):
            if j in ads[i]:
                ks = range(j + 1, n)
            else:
                ks = sorted(k for k in ads[i].keys() | ads[j].keys() if k > j)
            for k in ks:
                acc: dict = {}
                _add_bracket(acc, ads[i], ads[j].get(k, {}), 1)
                _add_bracket(acc, ads[k], ads[i].get(j, {}), 1)
                _add_bracket(acc, ads[j], ads[i].get(k, {}), -1)  # [b_j,[b_k,b_i]] = -[b_j,[b_i,b_k]]
                if acc:
                    violations.append((i, j, k, {m: Fraction(v, D * D) for m, v in acc.items()}))
    return violations
