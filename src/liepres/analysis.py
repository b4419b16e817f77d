"""Certification of structure tables: Jacobi, Killing form, root systems, Cartan type."""

import itertools
from fractions import Fraction

from .linalg import Echelon, basis_change, kernel_basis
from .record import Record
from .table import StructureTable, check_jacobi, integer_ad_maps  # noqa: F401  classify calls analysis.check_jacobi


def _is_diagonal(ad: dict) -> bool:
    return all(len(col) == 1 and m in col for m, col in ad.items())


def _derived_rows(t: StructureTable) -> dict:
    """The Echelon rows of [g, g], spanned by the nonzero brackets [b_i, b_j], i < j."""
    return Echelon.of(col for i, ad in enumerate(t.ad) for j, col in ad.items() if i < j).rows


def _centralizer_rows(t: StructureTable, indices, inside):
    """Rows {m: c_hm^k}, one per h in indices and k not in inside, read off ad(b_h).

    v solves them all exactly when [b_h, v] lies in the span of the b_k, k in inside, for every h.
    """
    rows: dict = {}
    for h in indices:
        for m, col in t.ad[h].items():
            for k, v in col.items():
                if k not in inside:
                    rows.setdefault((h, k), {})[m] = v
    return rows.values()


class DerivedCenter(Record):
    __slots__ = (
        "derived_basis",  # sparse vectors {index: coefficient}, as are the center's
        "center_basis",
    )


def derived_subalgebra_and_center(t: StructureTable) -> DerivedCenter:
    """[g, g] as the span of the brackets, the center as the common kernel of the ad(b_i): of every centralizer row."""
    n = t.dim
    derived = _derived_rows(t)
    center = kernel_basis(_centralizer_rows(t, range(n), ()), n)
    return DerivedCenter(tuple(derived[p] for p in sorted(derived)), tuple(center))


def _killing_entry(adi: dict, adj: dict):
    """trace(ad b_i . ad b_j) = sum over m, k of c_{i m}^k c_{j k}^m, for int or Fraction columns."""
    total = 0
    for m, col in adi.items():
        for k, x in col.items():
            y = adj.get(k, {}).get(m)
            if y:
                total += x * y
    return total


def killing_form(t: StructureTable) -> list:
    """The sparse rows K[i] = {j: trace(ad b_i . ad b_j)}, zeros omitted, contracted over the bracket maps.

    The traces are summed in ints over integer_ad_maps and each divided by D**2.
    trace(AB) = trace(BA): the entries (i, j) and (j, i) sum the same products with
    m and k swapped, so each unordered pair is computed once and mirrored.  A
    central element, whose ad is zero, has a zero row, so only the others are paired.
    """
    D, ads = integer_ad_maps(t)
    K: list = [{} for _ in range(t.dim)]
    live = [i for i, ad in enumerate(ads) if ad]
    for a, i in enumerate(live):
        for j in live[a:]:
            if v := _killing_entry(ads[i], ads[j]):
                K[i][j] = K[j][i] = Fraction(v, D * D)
    return K


class CartanCheck(Record):
    __slots__ = (
        "ok",
        "witness",  # a pair (a, b) that does not commute, a sparse normalizer vector outside the span, or None
    )


def cartan_check(t: StructureTable, indices) -> CartanCheck:
    """Verify a set of basis indices spans an abelian self-normalizing subalgebra.

    When the set is abelian its span lies in its normalizer, so a normalizer of
    larger dimension has a basis vector with a coordinate outside the set.
    """
    indices = list(indices)
    for a, b in itertools.combinations(indices, 2):
        if b in t.ad[a]:
            return CartanCheck(False, (a, b))
    inside = set(indices)
    normalizer = kernel_basis(_centralizer_rows(t, indices, inside), t.dim)
    witness = next((v for v in normalizer if any(k not in inside for k in v)), None)
    return CartanCheck(witness is None, witness)


class RootDatum(Record):
    """Roots and root spaces of a table under a Cartan set of basis indices.

    cartan_killing is the Killing form on the Cartan set as sparse rows: row a
    maps each position b in cartan_indices to K(h_a, h_b), zeros omitted.
    """
    __slots__ = (
        "cartan_indices",
        "roots",           # sorted tuples of Fractions, zero excluded
        "root_spaces",     # root -> tuple of basis indices
        "cartan_killing",  # Killing form on the Cartan indices, sparse rows by position
    )


def root_decomposition(t: StructureTable, cartan_indices) -> RootDatum:
    """Split the table basis into simultaneous ad-eigenspaces of the Cartan elements.

    Every ad(h) must be diagonal in the table basis: then each b_j is a common
    eigenvector, and its weight is read off the diagonals, the coefficients of b_j
    in [h, b_j].  find_cartan_candidate picks only such elements, so the refusal
    here is the check on a direct caller's set.  The zero-weight space must
    contain the Cartan span.
    """
    cartan_indices = tuple(cartan_indices)
    n = t.dim
    if not all(_is_diagonal(t.ad[h]) for h in cartan_indices):
        raise ValueError("root spaces are not aligned with the table basis")
    grouped: dict = {}
    for j in range(n):
        weight = tuple(t.ad[h].get(j, {}).get(j, Fraction(0)) for h in cartan_indices)
        grouped.setdefault(weight, []).append(j)
    root_spaces = {w: tuple(grouped[w]) for w in sorted(grouped)}
    zero = tuple(Fraction(0) for _ in cartan_indices)
    zero_members = root_spaces.get(zero, ())
    if not set(cartan_indices) <= set(zero_members):
        raise ValueError("Cartan elements do not lie in the zero weight space")
    ck = [{p: v for p, b in enumerate(cartan_indices) if (v := _killing_entry(t.ad[a], t.ad[b]))}
          for a in cartan_indices]
    roots = tuple(sorted(w for w in root_spaces if w != zero))
    return RootDatum(cartan_indices, roots, root_spaces, ck)


# cartan matrix, simple roots short first -> (type, number of roots)
_CATALOG = {
    ((2,),): ("A1", 2),
    ((2, 0), (0, 2)): ("A1xA1", 4),
    ((2, -1), (-1, 2)): ("A2", 6),
    ((2, -1), (-2, 2)): ("B2", 8),
    ((2, -1), (-3, 2)): ("G2", 12),
}


def cartan_matrix_and_type(rd: RootDatum) -> tuple:
    """Cartan matrix from simple roots plus the catalog type, or "unrecognized".

    Inner products use the inverse of the Killing form restricted to the Cartan,
    applied as the change of basis to its rows;
    positivity is lexicographic on the root's coordinate tuple; simple roots are the
    indecomposable positive roots, ordered by squared length then lexicographically.
    At the catalog's ranks (at most 2) that order gives the catalog's own matrix:
    roots of equal length give a symmetric one, and otherwise the short root
    comes first, as the catalog writes B2 and G2.
    """
    kinv = basis_change(rd.cartan_killing, len(rd.cartan_indices))
    if kinv is None:
        raise ValueError("Killing form is degenerate on the Cartan subalgebra")

    def inner(a, b):
        return sum((a[i] * x for i, x in kinv(dict(enumerate(b))).items()), Fraction(0))

    def positive(a):
        for x in a:
            if x != 0:
                return x > 0
        return False

    pos = [r for r in rd.roots if positive(r)]
    if 2 * len(pos) != len(rd.roots):
        return None, "unrecognized"
    pos_set = set(pos)
    simple = []
    for a in pos:
        decomposable = any(
            tuple(x - y for x, y in zip(a, b)) in pos_set for b in pos_set if b != a
        )
        if not decomposable:
            simple.append(a)
    simple.sort(key=lambda a: (inner(a, a), a))
    rank_ = len(rd.cartan_indices)
    if len(simple) != rank_:
        return None, "unrecognized"
    A = tuple(
        tuple(2 * inner(ai, aj) / inner(aj, aj) for aj in simple) for ai in simple
    )
    if any(x.denominator != 1 for row in A for x in row):
        return None, "unrecognized"
    A = tuple(tuple(int(x) for x in row) for row in A)
    name, root_count = _CATALOG.get(A, ("unrecognized", None))
    return A, name if root_count == len(rd.roots) else "unrecognized"


def find_cartan_candidate(t: StructureTable) -> list:
    """Greedy maximal set of commuting basis elements whose ad is diagonal in the table basis.

    Their eigenvalues are the diagonal entries, so root_decomposition reads the
    weights off the basis.  An element whose ad is diagonalizable only in another
    basis is skipped.
    """
    chosen = []
    for i in range(t.dim):
        if not any(j in t.ad[i] for j in chosen) and _is_diagonal(t.ad[i]):
            chosen.append(i)
    return chosen


def lower_central_dims(t: StructureTable) -> list:
    """Dimensions of the lower central series g, [g,g], [g,[g,g]], ... until stable.

    Each term after [g, g] brackets the previous one with the basis elements whose ad is nonzero.
    """
    current = list(_derived_rows(t).values())
    active = [i for i, ad in enumerate(t.ad) if ad]
    dims = [t.dim, len(current)]
    while current and dims[-1] != dims[-2]:
        current = list(Echelon.of(t.bracket({i: 1}, v) for i in active for v in current).rows.values())
        dims.append(len(current))
    return dims
