"""Structure constant tables for finite-dimensional Lie algebras over Q.

Also the one way both engines build a table: from the generators' action
(`generator_action`, `action_table`), mapped into by the free Lie algebra
(`lie_map`) and renamed to a chosen basis (`StructureTable.rebased`); and the
Jacobi check that `certify` and `classify` both run on a table (`check_jacobi`).
"""

from __future__ import annotations

from fractions import Fraction

from .linalg import basis_change, integer_scaled


class NamesNotBasisError(ValueError):
    """The provided named elements do not form a basis of the computed quotient."""


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

    def bracket(self, a: dict, b: dict) -> dict:
        """[a, b] for sparse coordinate vectors {index: coefficient}."""
        acc: dict = {}
        for i, x in a.items():
            for j, y in b.items():
                for k, v in self.bracket_map(i, j).items():
                    acc[k] = acc.get(k, 0) + x * y * v
        return {k: v for k, v in acc.items() if v}

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


def _compose(a: list, b: list) -> list:
    """The product a.b of two operators given as lists of sparse columns."""
    out = []
    for col in b:
        acc: dict = {}
        for k, x in col.items():
            for m, y in a[k].items():
                acc[m] = acc.get(m, 0) + x * y
        out.append({m: v for m, v in acc.items() if v})
    return out


def _commutator(a: list, b: list) -> list:
    return [{m: v for m in x.keys() | y.keys() if (v := x.get(m, 0) - y.get(m, 0))}
            for x, y in zip(_compose(a, b), _compose(b, a))]


def generator_action(rho: dict, split, keys) -> list:
    """act[i][j]: basis element keys[i] acting on basis vector j, as sparse coordinates.

    rho maps each generator's key to its operator, a list of sparse columns over
    the basis.  Any other key k is a bracket [u, v] with (u, v) = split(k), and acts
    by the commutator [rho(u), rho(v)]: ad[u, v] = [ad u, ad v] is the Jacobi
    identity.  Only the keys the basis splits through are computed.
    """
    ops = dict(rho)

    def op(k):
        if k not in ops:
            u, v = split(k)
            ops[k] = _commutator(op(u), op(v))
        return ops[k]

    return [op(k) for k in keys]


def action_table(names, act: list) -> StructureTable:
    """The table [e_i, e_j] = act[i] e_j over the named basis, read for i < j."""
    c = {(i, j, k): v for i, row in enumerate(act) for j in range(i + 1, len(act)) for k, v in row[j].items()}
    return StructureTable(names, c)


def lie_map(table: StructureTable, generator_images: list, split):
    """phi: free Lie polynomial -> sparse coordinates in the table.

    phi sends generator g to generator_images[g] and a Lyndon word w with
    standard factorization (u, v) = split(w) to table.bracket(phi(u), phi(v)), so
    it is extended through the table's bracket alone.  Word images are memoized in
    the returned function, not across calls of lie_map.
    """
    words: dict = {(g,): v for g, v in enumerate(generator_images)}

    def image(w):
        if w not in words:
            u, v = split(w)
            words[w] = table.bracket(image(u), image(v))
        return words[w]

    def phi(p) -> dict:
        acc: dict = {}
        for w, c in p.terms.items():
            for k, v in image(w).items():
                acc[k] = acc.get(k, 0) + c * v
        return {k: v for k, v in acc.items() if v}

    return phi


def integer_ad_maps(t: StructureTable) -> tuple:
    """(D, ads): D the least common denominator of the constants, ads[i] = ad(D b_i).

    ads[i] maps m -> {k: x} with D [b_i, b_m] = sum_k x b_k, x an int, zero
    columns omitted.  A sum of products of two constants, taken over these
    columns, is D**2 times the same sum over the table.
    """
    D, ints = integer_scaled(t.c.values())
    ads: list = [{} for _ in range(t.dim)]
    for (i, j, k), x in zip(t.c, ints):
        ads[i].setdefault(j, {})[k] = x
        ads[j].setdefault(i, {})[k] = -x
    return D, ads


def _add_bracket(acc: dict, ad: dict, vec: dict, sign: int) -> None:
    """acc += sign * [b, v] for ad = ad(b) and v given as a sparse map."""
    for m, x in vec.items():
        for k, y in ad.get(m, {}).items():
            acc[k] = acc.get(k, 0) + sign * x * y


def check_jacobi(t: StructureTable) -> list:
    """All triples i < j < k where [[bi,bj],bk] cycling fails; empty means it holds.

    Each violation is (i, j, k, total) with total the sparse map {m: c} of
    [b_i,[b_j,b_k]] + [b_k,[b_i,b_j]] - [b_j,[b_i,b_k]], summed over bracket maps.
    The sums run in ints over integer_ad_maps; a nonzero total is divided by D**2.
    """
    n = t.dim
    D, ads = integer_ad_maps(t)
    violations = []
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                acc: dict = {}
                _add_bracket(acc, ads[i], ads[j].get(k, {}), 1)
                _add_bracket(acc, ads[k], ads[i].get(j, {}), 1)
                _add_bracket(acc, ads[j], ads[i].get(k, {}), -1)  # [b_j,[b_k,b_i]] = -[b_j,[b_i,b_k]]
                total = {m: Fraction(v, D * D) for m, v in acc.items() if v}
                if total:
                    violations.append((i, j, k, total))
    return violations
