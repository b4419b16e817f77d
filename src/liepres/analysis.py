"""Certification of structure tables: Jacobi, Killing form, root systems, Cartan type."""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import gcd

from .linalg import Echelon, basis_change, integer_char_poly, integer_scaled, kernel_basis
from .record import Record
from .table import StructureTable, check_jacobi, integer_ad_maps  # noqa: F401  classify calls analysis.check_jacobi


def _ad_map(t: StructureTable, i: int) -> dict:
    """ad(b_i) as sparse columns: m -> {k: c} with [b_i, b_m] = sum_k c b_k, zero columns omitted."""
    return {m: col for m in range(t.dim) if (col := t.bracket_map(i, m))}


def _is_diagonal(ad: dict) -> bool:
    return all(len(col) == 1 and m in col for m, col in ad.items())


class DerivedCenter(Record):
    __slots__ = (
        "derived_dim",
        "center_dim",
        "derived_basis",  # sparse vectors {index: coefficient}, as are the center's
        "center_basis",
    )


def derived_subalgebra_and_center(t: StructureTable) -> DerivedCenter:
    """[g, g] as the span of the brackets, the center as the common kernel of the ad(b_i).

    v is central when the coefficient of b_k in [b_i, v] vanishes for every i and
    k: one sparse row {m: c_im^k} per (i, k), read off the constants.
    """
    n = t.dim
    derived = Echelon.of(t.bracket_map(i, j) for i in range(n) for j in range(i + 1, n)).rows
    rows: dict = {}
    for (i, j, k), v in t.c.items():
        rows.setdefault((i, k), {})[j] = v
        rows.setdefault((j, k), {})[i] = -v
    center = kernel_basis(rows.values(), n)
    return DerivedCenter(len(derived), len(center), tuple(derived[p] for p in sorted(derived)), tuple(center))


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
    Symmetric by construction, verified anyway.
    """
    n = t.dim
    D, ads = integer_ad_maps(t)
    K = [{j: Fraction(v, D * D) for j in range(n) if (v := _killing_entry(ads[i], ads[j]))} for i in range(n)]
    if any(K[j].get(i) != v for i, row in enumerate(K) for j, v in row.items()):
        raise RuntimeError("Killing form came out asymmetric; table is inconsistent")
    return K


def killing_invariance_violations(t: StructureTable, K: list) -> list:
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


class CartanCheck(Record):
    __slots__ = (
        "ok",
        "abelian",
        "self_normalizing",
        "normalizer_dim",
        "witness",  # offending pair, or sparse normalizer vector outside the span, or None
    )


def cartan_check(t: StructureTable, indices) -> CartanCheck:
    """Verify a set of basis indices spans an abelian self-normalizing subalgebra."""
    indices = list(indices)
    n = t.dim
    for a, b in itertools.combinations(indices, 2):
        if t.bracket_map(a, b):
            return CartanCheck(False, False, False, 0, (a, b))
    inside = set(indices)
    rows: dict = {}  # (h, k) -> the coefficient of b_k in [b_h, v], for b_k outside the span
    for h in indices:
        for m, col in _ad_map(t, h).items():
            for k, v in col.items():
                if k not in inside:
                    rows.setdefault((h, k), {})[m] = v
    normalizer = kernel_basis(rows.values(), n)
    ndim = len(normalizer)
    if ndim != len(indices):
        witness = next((v for v in normalizer if any(k not in inside for k in v)), None)
        return CartanCheck(False, True, False, ndim, witness)
    return CartanCheck(True, True, True, ndim, None)


# --- exact eigen machinery ----------------------------------------------------

def _trim(p: list) -> list:
    while len(p) > 1 and p[0] == 0:
        p = p[1:]
    return p


def _poly_divmod(a: list, b: list) -> tuple:
    """Quotient and remainder over Q of polynomials given highest power first."""
    a = [Fraction(x) for x in a]
    q = []
    while len(a) >= len(b):
        f = a[0] / b[0]
        q.append(f)
        for i in range(1, len(b)):
            a[i] -= f * b[i]
        a.pop(0)
    return q, _trim(a or [Fraction(0)])


def _primitive(p: list) -> list:
    """p times a positive rational, as integers with no common factor."""
    _, ints = integer_scaled(p)
    g = gcd(*ints) or 1
    return [x // g for x in ints]


def _derivative(p: list) -> list:
    return [c * (len(p) - 1 - i) for i, c in enumerate(p[:-1])]


def _horner(p: list, x: int) -> int:
    acc = 0
    for c in p:
        acc = acc * x + c
    return acc


def _integer_roots(p: list) -> list:
    """Sorted distinct integer roots of an integer polynomial, highest power first.

    The squarefree part p / gcd(p, p') has the same roots, each simple, so a Sturm
    sequence counts its real roots in (lo, hi] as V(lo) - V(hi), V the number of
    sign changes. Integer bisection inside the Cauchy bound then shrinks every
    interval that holds a root to (r - 1, r], and r is a root or the root is not an
    integer. The work grows with the bound's bit length, not with its size.
    """
    p = _trim(list(p))
    if len(p) == 1:
        return []
    g, h = p, _derivative(p)
    while any(h):  # Euclid: g ends as gcd(p, p')
        g, h = h, _poly_divmod(g, h)[1]
    sq = _primitive(_poly_divmod(p, g)[0])
    seq = [sq, _primitive(_derivative(sq))]
    while len(seq[-1]) > 1:
        r = _poly_divmod(seq[-2], seq[-1])[1]
        if not any(r):
            break
        seq.append(_primitive([-c for c in r]))

    def changes(x: int) -> int:
        signs = [v > 0 for v in (_horner(s, x) for s in seq) if v]
        return sum(a != b for a, b in zip(signs, signs[1:]))

    bound = 1 + -(-max(abs(c) for c in sq[1:]) // abs(sq[0]))
    roots = []
    stack = [(-bound - 1, bound, changes(-bound - 1), changes(bound))]
    while stack:
        lo, hi, vlo, vhi = stack.pop()
        if vlo == vhi:
            continue
        if hi - lo == 1:
            if _horner(sq, hi) == 0:
                roots.append(hi)
            continue
        mid = (lo + hi) // 2
        vmid = changes(mid)
        stack += [(lo, mid, vlo, vmid), (mid, hi, vmid, vhi)]
    return sorted(roots)


def rational_eigenvalues(rows) -> list:
    """All rational eigenvalues, exactly, of a square matrix given as its n sparse rows {j: x}.

    Scaling by the common denominator D makes the matrix integral, whose monic integer
    characteristic polynomial confines rational roots to integers; those are
    isolated exactly and divided by D.  The transpose has the same eigenvalues, so
    sparse columns serve as well as rows.
    """
    D, a = integer_char_poly(rows)
    return [Fraction(r, D) for r in _integer_roots(a)]


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

    The zero-weight space must contain the Cartan span, and every root space must be
    spanned by table basis elements (all tables in scope are split in their own basis).
    The root spaces are spanned by basis elements exactly when every ad(h) is
    diagonal in the table basis: then each b_j is a common eigenvector, and its
    weight is read off the diagonals, the coefficients of b_j in [h, b_j].  When
    some ad(h) is not diagonal the decomposition is refused, whether or not the
    ad(h) are simultaneously diagonalizable in another basis.  For a set from
    find_cartan_candidate they always are: the elements bracket to zero, so under
    Jacobi their ads commute, and each ad is diagonalizable over Q.
    """
    cartan_indices = tuple(cartan_indices)
    n = t.dim
    ads = {h: _ad_map(t, h) for h in cartan_indices}
    if not all(_is_diagonal(ad) for ad in ads.values()):
        raise ValueError("root spaces are not aligned with the table basis")
    grouped: dict = {}
    for j in range(n):
        weight = tuple(ads[h].get(j, {}).get(j, Fraction(0)) for h in cartan_indices)
        grouped.setdefault(weight, []).append(j)
    root_spaces = {w: tuple(grouped[w]) for w in sorted(grouped)}
    zero = tuple(Fraction(0) for _ in cartan_indices)
    zero_members = root_spaces.get(zero, ())
    if not set(cartan_indices) <= set(zero_members):
        raise ValueError("Cartan elements do not lie in the zero weight space")
    ck = [{p: v for p, b in enumerate(cartan_indices) if (v := _killing_entry(ads[a], ads[b]))}
          for a in cartan_indices]
    roots = tuple(sorted(w for w in root_spaces if w != zero))
    return RootDatum(cartan_indices, roots, root_spaces, ck)


_CATALOG = (
    ("A1", ((2,),)),
    ("A1xA1", ((2, 0), (0, 2))),
    ("A2", ((2, -1), (-1, 2))),
    ("B2", ((2, -1), (-2, 2))),
    ("G2", ((2, -1), (-3, 2))),
)
_CATALOG_ROOT_COUNT = {"A1": 2, "A1xA1": 4, "A2": 6, "B2": 8, "G2": 12}


def cartan_matrix_and_type(rd: RootDatum) -> tuple:
    """Cartan matrix from simple roots plus the catalog type, or "unrecognized".

    Inner products use the inverse of the Killing form restricted to the Cartan,
    applied as the change of basis to its rows;
    positivity is lexicographic on the root's coordinate tuple; simple roots are the
    indecomposable positive roots, ordered by squared length then lexicographically.
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
    for name, ref in _CATALOG:
        if len(ref) != rank_ or _CATALOG_ROOT_COUNT[name] != len(rd.roots):
            continue
        for perm in itertools.permutations(range(rank_)):
            permuted = tuple(tuple(A[perm[i]][perm[j]] for j in range(rank_)) for i in range(rank_))
            transposed = tuple(tuple(permuted[j][i] for j in range(rank_)) for i in range(rank_))
            if permuted == ref or transposed == ref:
                return A, name
    return A, "unrecognized"


def find_cartan_candidate(t: StructureTable) -> list:
    """Greedy maximal set of commuting basis elements with rationally diagonalizable ad.

    If ad(b_i) is diagonal in the table basis it is rationally diagonalizable, its
    eigenvalues being the diagonal entries, and b_i needs no characteristic
    polynomial. Any other element qualifies when the geometric multiplicities of
    its rational eigenvalues add up to the dimension; the rank of ad(b_i) - lambda
    is that of its sparse columns.
    """
    n = t.dim
    chosen = []
    for i in range(n):
        if any(t.bracket_map(i, j) for j in chosen):
            continue
        ad = _ad_map(t, i)
        if not _is_diagonal(ad):
            total = 0
            for lam in rational_eigenvalues(ad.get(m, {}) for m in range(n)):
                shifted = ({**ad.get(m, {}), m: ad.get(m, {}).get(m, 0) - lam} for m in range(n))
                total += n - len(Echelon.of(shifted).rows)
            if total != n:
                continue
        chosen.append(i)
    return chosen


def lower_central_dims(t: StructureTable) -> list:
    """Dimensions of the lower central series g, [g,g], [g,[g,g]], ... until stable."""
    n = t.dim
    current = [{k: 1} for k in range(n)]
    dims = [n]
    while True:
        span = Echelon.of(t.bracket({i: 1}, v) for i in range(n) for v in current).rows
        dims.append(len(span))
        if not span or dims[-1] == dims[-2]:
            return dims
        current = list(span.values())

