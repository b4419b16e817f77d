"""Degree-truncated quotient of a free Lie algebra by the ideal of a presentation."""

from __future__ import annotations

from fractions import Fraction
from heapq import heappop, heappush

from . import freelie
from .freelie import LiePoly, bracket_string
from .g2 import rewriter_applicable  # noqa: F401  perfbench/replay.py imports it from here
from .linalg import Echelon, integer_scaled
from .presentation import Presentation
from .record import FrozenRecord, Record
from .table import NamesNotBasisError, StructureTable, check_jacobi  # noqa: F401


class TruncationEvent(Record):
    """A consequence all of whose children exceeded the bound and were dropped."""
    __slots__ = (
        "relation_index",
        "kept_degrees",  # within-bound component degrees the dropped children had
    )


class QuotientBasis(Record):
    """Reduced model of the truncated quotient F_b / N computed by quotient_closure.

    F_b is the span of the Lyndon words of degree at most b = degree_bound, and N is
    the span of the consequence tree: the relations and their iterated ad(x_g)
    images, each expanded only while its top degree is below b.  Every tree node lies
    in the relation ideal I, and the representatives are a basis of F_b / N.  This is
    not L/(I + L_{>b}), which for G2 is 0 (x1 lies in I + L_{>=4}, and iterating
    pushes it above any bound).  `certify` proves dim L/I = dim or names the check
    that fails.  `stabilized` (the dimension at bound b - 1 is the same and every
    dropped subtree touched only high degrees) is a heuristic, kept with
    `dim_at_lower` and `truncation_events` only for the benchmark's replay.

    The closure's own integer `Echelon` is kept: `reduce` eliminates against its
    rows, whose pivots are exactly the non-representative words.
    """
    __slots__ = (
        "degree_bound",
        "alphabet",
        "generator_names",
        "representatives",    # Lyndon words, increasing (degree, lex)
        "stabilized",
        "truncation_events",
        "dim_at_lower",       # quotient dimension at degree_bound - 1, if computable
        "_rep_index",
        "_echelon",
        "_word_index",
    )
    _hidden = ("_rep_index", "_echelon", "_word_index")

    @property
    def dim(self) -> int:
        return len(self.representatives)

    def reduce(self, p: LiePoly) -> tuple:
        """Coordinates of p over the representatives."""
        D, ints = integer_scaled(p.terms.values())
        vec: dict = {}
        for w, c in zip(p.terms, ints):
            idx = self._word_index.get(w)
            if idx is None:
                raise ValueError(f"monomial degree {len(w)} exceeds bound {self.degree_bound} or bad alphabet: {w}")
            vec[idx] = c
        rem, s = self._echelon.reduce(vec)
        out = [Fraction(0)] * len(self.representatives)
        for idx, c in rem.items():
            out[self._rep_index[idx]] = Fraction(c, D * s)
        return tuple(out)

    def representative_name(self, i: int) -> str:
        return bracket_string(self.representatives[i], self.generator_names)

    def dims_by_degree(self) -> dict:
        out: dict = {}
        for w in self.representatives:
            out[len(w)] = out.get(len(w), 0) + 1
        return out

    def degree_images(self, degree: int) -> list:
        """(word, coordinates) for every Lyndon monomial of the given degree."""
        out = []
        for w in freelie.lyndon_words(self.alphabet, degree)[degree]:
            out.append((w, self.reduce(LiePoly.monomial(w))))
        return out


def check_degree_bound(pres: Presentation, degree_bound: int) -> None:
    """Raise ValueError unless quotient_closure can run at degree_bound.

    The bound must be positive, reach the relations' degree and keep the Lyndon
    words within their budget; nothing is allocated before these checks.
    """
    if degree_bound < 1:
        raise ValueError("degree bound must be positive")
    max_rel_deg = pres.max_relation_degree()
    if max_rel_deg > degree_bound:
        raise ValueError(f"degree bound {degree_bound} below max relation degree {max_rel_deg}")
    freelie.check_word_budget(len(pres.generators), degree_bound)


def quotient_closure(pres: Presentation, degree_bound: int) -> QuotientBasis:
    """Close the relation ideal under ad(generator) up to degree_bound and quotient.

    Consequences are the full finite tree of ad(x_g) monomials applied to each
    relation.  A consequence whose children would carry a component above the bound
    stops there: the children are dropped whole (never partially truncated, which
    would inject spurious low-degree vectors) and a TruncationEvent records which
    within-bound degrees the drop touched, for the `stabilized` heuristic.

    All nodes go through one elimination.  The tree at bound b - 1 is the set of
    inner nodes of this one (top degree below b), so they are inserted first and
    the rank read right after them gives dim_at_lower.  Inner nodes are inserted in
    ascending order of their top word index, so a new pivot nearly always lies
    above every existing one.  Leaves (top degree b) are never expanded and their
    dicts are not kept: each is rebuilt from its parent and inserted last, also in
    ascending order of top index.  The reduced echelon form of a span is unique, so
    the order changes no result, and events are reported in tree preorder.
    """
    check_degree_bound(pres, degree_bound)
    n = len(pres.generators)
    max_rel_deg = pres.max_relation_degree()
    by_degree = freelie.lyndon_words(n, degree_bound)
    flat = [w for d in range(1, degree_bound + 1) for w in by_degree[d]]
    word_index = {w: i for i, w in enumerate(flat)}
    degree = [len(w) for w in flat]

    # expansion cache: exp_cache[g][i] is [x_g, flat[i]] as (word index, int) terms
    exp_cache = [[None] * len(flat) for _ in range(n)]

    def child(terms, g: int) -> dict:
        """[x_g, node] for a node given by its (word index, coefficient) terms."""
        cache = exp_cache[g]
        out: dict = {}
        for i, c in terms:
            expansion = cache[i]
            if expansion is None:
                expansion = [(word_index[w2], int(k))
                             for w2, k in freelie._bracket_words((g,), flat[i]).items()]
                cache[i] = expansion
            for j, k in expansion:
                nv = out.get(j, 0) + c * k
                if nv:
                    out[j] = nv
                else:
                    out.pop(j, None)
        return out

    # In a free Lie algebra [x_g, u] = 0 for a nonzero homogeneous u only when u is
    # a multiple of x_g, so a nonzero child has top degree exactly one above its
    # parent's.  Hence the tree at bound b - 1 (same roots, expanded while the top
    # degree is at most b - 2) is exactly the set of inner nodes, those of top degree
    # below b, and the leaves are the children of nodes of top degree b - 1.
    # A path (relation index, g1, g2, ...) names a node; its lexicographic order is
    # the tree's preorder.
    heap: list = []     # inner nodes as (top index, path, node)
    leaves: list = []   # (top index, path, parent, g); parent is the node itself for a root
    for ridx, rel in enumerate(pres.relations):
        _, ints = integer_scaled(rel.terms.values())
        seed = {word_index[w]: c for w, c in zip(rel.terms, ints)}
        if not seed:
            continue
        top = max(seed)
        if degree[top] == degree_bound:
            leaves.append((top, (ridx,), seed, None))
        else:
            heappush(heap, (top, (ridx,), seed))

    elim = Echelon()
    while heap:
        top, path, node = heappop(heap)
        elim.add(node)
        if degree[top] < degree_bound - 1:
            for g in range(n):
                ch = child(node.items(), g)
                if ch:
                    heappush(heap, (max(ch), path + (g,), ch))
        else:
            # The children are leaves; the top component alone says which are
            # nonzero and where their pivots lie.  They are rebuilt in full below.
            top_part = [(i, c) for i, c in node.items() if degree[i] == degree_bound - 1]
            for g in range(n):
                ch = child(top_part, g)
                if ch:
                    leaves.append((max(ch), path + (g,), node, g))
    rank_lower = len(elim.rows)

    dropped = []
    leaves.sort(key=lambda leaf: leaf[:2])
    for _, path, parent, g in leaves:
        leaf = parent if g is None else child(parent.items(), g)
        elim.add(leaf)
        kept = tuple(sorted({degree[i] + 1 for i in leaf if degree[i] < degree_bound}))
        if kept:
            dropped.append((path, TruncationEvent(path[0], kept)))
    events = tuple(e for _, e in sorted(dropped, key=lambda pe: pe[0]))

    pivots = set(elim.rows)
    reps = tuple(flat[i] for i in range(len(flat)) if i not in pivots)

    dim_at_lower = None
    stabilized = False
    if degree_bound - 1 >= max_rel_deg:
        dim_at_lower = len(flat) - len(by_degree[degree_bound]) - rank_lower
        threshold = degree_bound - max_rel_deg
        events_ok = all(min(e.kept_degrees) > threshold for e in events)
        stabilized = (dim_at_lower == len(reps)) and events_ok

    qb = QuotientBasis(
        degree_bound=degree_bound,
        alphabet=n,
        generator_names=pres.names,
        representatives=reps,
        stabilized=stabilized,
        truncation_events=events,
        dim_at_lower=dim_at_lower,
        _rep_index={word_index[w]: i for i, w in enumerate(reps)},
        _echelon=elim,
        _word_index=word_index,
    )
    return qb


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


def generator_action(rho: dict, words) -> list:
    """act[i][j]: the Lyndon word words[i] acting on basis vector j, as sparse coordinates.

    rho maps each generator's word (g,) to its operator, a list of sparse columns
    over the basis.  A longer word w acts by the commutator [rho(u), rho(v)] of its
    standard factorization (u, v): ad[u, v] = [ad u, ad v] is the Jacobi identity.
    Only the words the basis factors through are computed.
    """
    ops = dict(rho)

    def op(w):
        if w not in ops:
            u, v = freelie.standard_factorization(w)
            ops[w] = _commutator(op(u), op(v))
        return ops[w]

    return [op(w) for w in words]


def action_table(names, act: list) -> StructureTable:
    """The table [e_i, e_j] = act[i] e_j over the named basis, read for i < j."""
    c = {(i, j, k): v for i, row in enumerate(act) for j in range(i + 1, len(act)) for k, v in row[j].items()}
    return StructureTable(names, c)


def lie_map(table: StructureTable, generator_images: list):
    """phi: free Lie polynomial -> sparse coordinates in the table.

    phi sends generator g to generator_images[g] and a Lyndon word w with
    standard factorization (u, v) to table.bracket(phi(u), phi(v)), so it is
    extended through the table's bracket alone.  Word images are memoized in the
    returned function, not across calls of lie_map.
    """
    words: dict = {(g,): v for g, v in enumerate(generator_images)}

    def image(w):
        if w not in words:
            u, v = freelie.standard_factorization(w)
            words[w] = table.bracket(image(u), image(v))
        return words[w]

    def phi(p) -> dict:
        acc: dict = {}
        for w, c in p.terms.items():
            for k, v in image(w).items():
                acc[k] = acc.get(k, 0) + c * v
        return {k: v for k, v in acc.items() if v}

    return phi


def _sparse(vec) -> dict:
    return {k: c for k, c in enumerate(vec) if c}


def _model(qb: QuotientBasis) -> tuple:
    """(act, table): the representatives' action and the model table it gives.

    act[i][j] is rep_i acting on rep_j, as sparse coordinates.  rho(x_g) has the
    columns qb.reduce([x_g, rep_j]), which needs every representative below the
    degree bound; a Lyndon word acts through its standard factorization, by the
    commutator of its factors' operators.
    """
    rho = {(g,): [_sparse(qb.reduce(LiePoly(freelie._bracket_words((g,), w)))) for w in qb.representatives]
           for g in range(qb.alphabet)}
    act = generator_action(rho, qb.representatives)
    return act, action_table((qb.representative_name(i) for i in range(qb.dim)), act)


class Certificate(FrozenRecord):
    """Outcome of certify: the model table with its evidence, or the first failed check."""
    __slots__ = (
        "table",   # the quotient over the representatives when certified, else None
        "detail",  # the evidence, or the check that failed
    )

    @property
    def ok(self) -> bool:
        return self.table is not None


def certify(pres: Presentation, qb: QuotientBasis) -> Certificate:
    """Prove dim L/I = qb.dim, where L/I is the algebra pres presents, or say why not.

    Upper bound: every representative has degree below the bound b.  Then
    [x_g, rep] lies in F_b = V + N, V the span of the representatives, and N lies
    in I; so V + I is closed under every ad(x_g), contains the generators and is
    all of L, and dim L/I <= #reps.

    Lower bound: the model table [e_i, e_j] = rho(rep_i) e_j must be
    antisymmetric and satisfy Jacobi, so it is a Lie algebra T.  The map phi from
    the free Lie algebra, fixed on the generators by their coordinates and
    extended through T's bracket alone, phi([u, v]) = [phi(u), phi(v)], is then a
    homomorphism.  When every relation maps to 0 it factors through L/I, and when
    every representative maps to its own basis vector it is onto T; so
    dim L/I >= dim T = #reps, and T is the quotient's table.
    """
    b = qb.degree_bound
    for i, w in enumerate(qb.representatives):
        if len(w) >= b:
            return Certificate(None, f"representative {qb.representative_name(i)} has degree "
                                     f"{len(w)}, not below the degree bound {b}")
    act, table = _model(qb)
    names = table.names
    for i in range(qb.dim):
        for j in range(i, qb.dim):
            if act[i][j] != {k: -v for k, v in act[j][i].items()}:
                return Certificate(None, f"model not antisymmetric at [{names[i]},{names[j]}]")
    violations = check_jacobi(table)
    if violations:
        i, j, k, _ = violations[0]
        return Certificate(None, f"model fails Jacobi at ({names[i]},{names[j]},{names[k]})")

    phi = lie_map(table, [_sparse(qb.reduce(LiePoly.generator(g))) for g in range(qb.alphabet)])
    for r, rel in enumerate(pres.relations, start=1):
        if phi(rel):
            return Certificate(None, f"relation {r} does not vanish in the model")
    for i, w in enumerate(qb.representatives):
        if phi(LiePoly.monomial(w)) != {i: 1}:
            return Certificate(None, f"representative {names[i]} does not map to its own basis vector")
    triples = qb.dim * (qb.dim - 1) * (qb.dim - 2) // 6
    return Certificate(table, f"every representative below degree {b}; model of dim {qb.dim} "
                              f"passes Jacobi on {triples} triples; all {len(pres.relations)} relations vanish")


def structure_table(pres: Presentation, names: dict | None = None,
                    degree_bound: int = 8, qb: QuotientBasis | None = None) -> StructureTable:
    """Bracket table of the quotient over named elements (default: the representatives).

    The table is the model that `certify` checks, built from the generators'
    action on the representatives (every representative must lie below the
    degree bound) and then `renamed`.
    """
    if qb is None:
        qb = quotient_closure(pres, degree_bound)
    return renamed(qb, _model(qb)[1], names)


def renamed(qb: QuotientBasis, model: StructureTable, names: dict | None) -> StructureTable:
    """model, the table over qb's representatives, renamed to names (name -> LiePoly, in basis order).

    None keeps the representatives; raises NamesNotBasisError if the names are not a basis.
    """
    if names is None:
        return model
    return model.rebased(names, (_sparse(qb.reduce(p)) for p in names.values()))
