"""Degree-truncated quotient of a free Lie algebra by the ideal of a presentation."""

from . import freelie
from .freelie import LiePoly, bracket_string
from .g2 import rewriter_applicable  # noqa: F401  perfbench/replay.py imports it from here
from .linalg import Echelon, add_scaled, compose, integer_scaled, solve
from .presentation import Presentation
from .record import Record
from .table import NamesNotBasisError, StructureTable, check_jacobi  # noqa: F401


class QuotientBasis(Record):
    """Reduced model of the truncated quotient F_b / N at one level b of `closure_levels`.

    F_b is the span of the Lyndon words of degree at most b = degree_bound, and N is
    the span of the consequence tree: the relations and their iterated ad(x_g)
    images, each expanded only while its top degree is below b.  Every tree node lies
    in the relation ideal I, and the representatives are a basis of F_b / N.  The
    climb reaches N without building the tree (see `closure_levels`).  This is not
    L/(I + L_{>b}), which for G2 is 0 (x1 lies in I + L_{>=4}, and iterating pushes it
    above any bound).  `certify(qb)` proves dim L/I = dim for `_presentation`, the
    presentation the level was climbed from, or names the check that fails.

    `stabilized`, read only by the benchmark's replay, is `certify`'s verdict on
    this level.  A level that certifies stays certified at every higher bound,
    with the same representatives and table: F_b = V + N_b, V the span of the
    representatives, and a certified V meets I only in 0, so I meets F_b in N_b.
    `truncation_events` serves only the replay's counter.

    A level is its rows: `_rows` is a copy of the climb's `Echelon.rows` dict at
    this level, whose pivots are exactly the non-representative words, and
    `reduce` eliminates against it.  The copy shares the row dicts, which the
    climb replaces and never edits.  The `_` fields stay out of repr.
    """
    __slots__ = (
        "degree_bound",
        "representatives",    # Lyndon words, increasing (degree, lex)
        "_presentation",      # the level's one copy of its presentation; `alphabet` reads it
        "_rep_index",
        "_rows",
        "_word_index",
    )

    @property
    def dim(self) -> int:
        return len(self.representatives)

    @property
    def alphabet(self) -> int:
        return len(self._presentation.names)

    @property
    def truncation_events(self) -> tuple:
        """The kept degrees of each truncated leaf of the consequence tree at this bound, in tree preorder.

        The one pass over the tree left, for the benchmark replay's counter; it counts
        the leaves under each child of a relation and computes no bracket.  A truncated
        leaf is a node of top degree b = degree_bound with a component below b, and
        its kept degrees, a sorted tuple, are those components' degrees plus one.  A
        node's component degrees follow from its parent's alone: [x_g, u_d] has degree
        d + 1 and vanishes only when u_d is a multiple of x_g, which needs d = 1, and
        only relations have components of degree 1.  So below a relation every child
        of a node of top degree t has its degrees shifted by one, and the
        n^(b - t) leaves under a child of top degree t are all alike.
        """
        n, b = self.alphabet, self.degree_bound
        events = []
        for rel in self._presentation.relations:
            degrees = {len(w) for w in rel.terms}
            if not degrees:
                continue
            if max(degrees) == b:
                subtrees = [(degrees, 0)]
            else:
                letters = {w for w in rel.terms if len(w) == 1}
                children = ({d + 1 for d in degrees if d > 1 or letters != {(g,)}} for g in range(n))
                subtrees = [(ch, b - max(ch)) for ch in children if ch]
            for ch, depth in subtrees:
                kept = tuple(sorted(d + depth + 1 for d in ch if d + depth < b))
                if kept:
                    events += [kept] * n ** depth
        return tuple(events)

    @property
    def stabilized(self) -> bool:
        return certify(self).ok

    def reduce(self, p: LiePoly) -> dict:
        """Sparse coordinates {representative index: Fraction} of p, zeros left out."""
        vec: dict = {}
        for w, c in p.terms.items():
            idx = self._word_index.get(w)
            if idx is None or len(w) > self.degree_bound:
                raise ValueError(f"monomial degree {len(w)} exceeds bound {self.degree_bound} or bad alphabet: {w}")
            vec[idx] = c
        return {self._rep_index[idx]: c for idx, c in solve(self._rows, vec).items()}

    def representative_name(self, i: int) -> str:
        return bracket_string(self.representatives[i], self._presentation.names)

    def dims_by_degree(self) -> dict:
        out: dict = {}
        for w in self.representatives:
            out[len(w)] = out.get(len(w), 0) + 1
        return out


def closure_levels(pres: Presentation, max_bound: int):
    """Yield the QuotientBasis at every bound from the relations' degree to max_bound.

    Raises ValueError unless max_bound is positive and reaches the relations'
    degree; the word budget is checked per level, so a climb that certifies below
    the budget's degree never meets it.

    Tree_b, the consequence tree at bound b, holds the relations and their
    iterated ad(x_g) images of top degree at most b: in a free Lie algebra
    [x_g, u] = 0 for a nonzero homogeneous u only when u is a multiple of x_g, so
    a nonzero child has top degree one above its parent's.  Its inner nodes are
    tree_{b-1}, so
        span(tree_b) = span(tree_{b-1}) + span(roots of top degree b)
                       + sum_g ad(x_g) span(tree_{b-1}),
    and ad(x_g) span(tree_{b-2}) already lies in span(tree_{b-1}).  The echelon
    rows whose pivots first appeared at level b - 1 complete span(tree_{b-2}) to
    span(tree_{b-1}): a nonzero combination of them has its top index at one of
    their pivots, which no element of span(tree_{b-2}) has.  So level b inserts
    only the roots of top degree b and [x_g, row] for those rows, into the one
    `Echelon` of the whole climb.  The span is that of the tree, and its reduced
    echelon form is unique, so every level equals the eager closure of the tree.

    The words, their index and the climb's bracket memo grow one degree per
    level, so a climb stopped at the relations' degree builds nothing above it:
    level b checks the word budget up to b and builds only the words of degree b.
    The memo is the climb's only bracket store: it holds each bracket once, in the
    orientation u < v, and `child` reads it for every term and applies the sign of
    a reversed pair.  Each level keeps its own copy of the rows dict, sharing the
    row dicts, and stays valid as the climb goes on.
    """
    if max_bound < 1:
        raise ValueError("degree bound must be positive")
    max_rel_deg = pres.max_relation_degree()
    if max_rel_deg > max_bound:
        raise ValueError(f"degree bound {max_bound} below max relation degree {max_rel_deg}")
    n = len(pres.names)
    by_top: dict = {}
    for rel in pres.relations:
        if rel.terms:
            by_top.setdefault(rel.max_degree(), []).append(rel)

    flat: list = []
    word_index: dict = {}
    brackets: dict = {}  # the climb's Lyndon bracket memo

    def child(row: dict, g: int) -> dict:
        """[x_g, row] for a row of degree below the current level."""
        out: dict = {}
        for i, c in row.items():
            # the memo holds [b_u, b_v] for u < v only; a word below (g,) flips the sign
            u, v = (g,), flat[i]
            if u > v:
                u, v, c = v, u, -c
            for w, k in freelie._bracket_words(u, v, brackets).items():
                j = word_index[w]
                nv = out.get(j, 0) + c * k
                if nv:
                    out[j] = nv
                else:
                    out.pop(j, None)
        return out

    elim = Echelon()
    fresh: list = []    # pivots that first appeared at the level below
    for b in range(1, max_bound + 1):
        freelie.check_word_budget(n, b)
        words = list(freelie.lyndon_words_of_degree(n, b))
        word_index.update(zip(words, range(len(flat), len(flat) + len(words))))
        flat += words

        new = []
        for rel in by_top.get(b, ()):
            _, ints = integer_scaled(rel.terms.values())
            new.append({word_index[w]: c for w, c in zip(rel.terms, ints)})
        # the fresh rows as the level below left them: nothing is inserted before this
        new += [ch for p in fresh for g in range(n) if (ch := child(elim.rows[p], g))]
        # in ascending order of top index a new pivot nearly always lies above every
        # existing one, which keeps back-substitution cheap; the order changes no row
        new.sort(key=max)
        fresh = [p for p in map(elim.add, new) if p is not None]

        if b >= max_rel_deg:
            reps = tuple(w for i, w in enumerate(flat) if i not in elim.rows)
            yield QuotientBasis(
                degree_bound=b,
                representatives=reps,
                _presentation=pres,
                _rep_index={word_index[w]: i for i, w in enumerate(reps)},
                _rows=dict(elim.rows),
                _word_index=word_index,
            )


def quotient_closure(pres: Presentation, degree_bound: int) -> QuotientBasis:
    """The quotient F_b / N at b = degree_bound: the last level of a `closure_levels` climb."""
    *_, qb = closure_levels(pres, degree_bound)
    return qb


def _commutator(a: list, b: list) -> list:
    out = compose(a, b)
    for x, y in zip(out, compose(b, a)):
        add_scaled(x, y, -1)
    return out


def _by_factorization(images: dict, combine):
    """image(w) = combine(image(u), image(v)) for w's standard factorization (u, v), memoized in images."""
    def image(w):
        if w not in images:
            u, v = freelie.standard_factorization(w)
            images[w] = combine(image(u), image(v))
        return images[w]

    return image


def lie_map(table: StructureTable, generator_images: list):
    """phi: free Lie polynomial -> sparse coordinates in the table.

    phi sends generator g to generator_images[g] and a Lyndon word w with
    standard factorization (u, v) to table.bracket(phi(u), phi(v)), so it is
    extended through the table's bracket alone.  Word images are memoized in the
    returned function, not across calls of lie_map.
    """
    image = _by_factorization({(g,): v for g, v in enumerate(generator_images)}, table.bracket)

    def phi(p) -> dict:
        acc: dict = {}
        for w, c in p.terms.items():
            add_scaled(acc, image(w), c)
        return acc

    return phi


def _model(qb: QuotientBasis) -> StructureTable:
    """The model table [e_i, e_j] = rep_i acting on rep_j, read for i < j: antisymmetric as built.

    The action is in sparse coordinates.  rho(x_g) has the columns
    qb.reduce([x_g, rep_j]), which needs every representative below the degree
    bound.  A longer Lyndon word w acts by the commutator [rho(u), rho(v)] of its
    standard factorization (u, v): ad[u, v] = [ad u, ad v] is the Jacobi identity.
    Only the words the representatives factor through are computed.
    """
    brackets: dict = {}
    rho = {(g,): [qb.reduce(LiePoly(freelie._bracket_words((g,), w, brackets))) for w in qb.representatives]
           for g in range(qb.alphabet)}
    op = _by_factorization(rho, _commutator)
    act = [op(w) for w in qb.representatives]
    c = {(i, j, k): v for i, row in enumerate(act) for j in range(i + 1, len(act)) for k, v in row[j].items()}
    return StructureTable((qb.representative_name(i) for i in range(qb.dim)), c)


class Certificate(Record):
    """Outcome of certify: the model table with its evidence, or the first failed check."""
    __slots__ = (
        "table",   # the quotient over the representatives when certified, else None
        "detail",  # the evidence, or the check that failed
    )

    @property
    def ok(self) -> bool:
        return self.table is not None


def certify(qb: QuotientBasis) -> Certificate:
    """Prove dim L/I = qb.dim, where L/I is the algebra qb's presentation presents, or say why not.

    Upper bound, which makes the certificate the level's own: every representative
    has degree below the bound b.  Then [x_g, rep] lies in F_b = V + N, V the span
    of the representatives, and N lies in I only for the presentation qb was
    climbed from; so V + I is closed under every ad(x_g), contains the generators
    and is all of L, and dim L/I <= #reps.

    Lower bound, from three checks on the model table [e_i, e_j] = rho(rep_i) e_j,
    which is read for i < j and so is antisymmetric as built.  When it satisfies
    Jacobi it is a Lie algebra T, and the map phi from the free Lie algebra, fixed
    on the generators by their coordinates and extended through T's bracket alone,
    phi([u, v]) = [phi(u), phi(v)], is a homomorphism.  When every relation maps to
    0 it factors through L/I, and when every representative maps to its own basis
    vector it is onto T; so dim L/I >= dim T = #reps, and T is the quotient's table.
    """
    pres, b = qb._presentation, qb.degree_bound
    for i, w in enumerate(qb.representatives):
        if len(w) >= b:
            return Certificate(None, f"representative {qb.representative_name(i)} has degree "
                                     f"{len(w)}, not below the degree bound {b}")
    table = _model(qb)
    names = table.names
    violations = check_jacobi(table)
    if violations:
        i, j, k, _ = violations[0]
        return Certificate(None, f"model fails Jacobi at ({names[i]},{names[j]},{names[k]})")

    phi = lie_map(table, [qb.reduce(LiePoly.generator(g)) for g in range(qb.alphabet)])
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

    The table is the model that `certify` checks, built from the generators' action
    on the representatives (each must lie below the degree bound) and `renamed`.
    A level qb must be pres's, or ValueError is raised; degree_bound is read only without one.
    """
    if qb is None:
        qb = quotient_closure(pres, degree_bound)
    elif qb._presentation != pres:
        raise ValueError("the level was climbed from another presentation")
    return renamed(qb, _model(qb), names)


def renamed(qb: QuotientBasis, model: StructureTable, names: dict | None) -> StructureTable:
    """model, the table over qb's representatives, renamed to names (name -> LiePoly, in basis order).

    None keeps the representatives; raises NamesNotBasisError if the names are not a basis.
    """
    if names is None:
        return model
    return model.rebased(names, (qb.reduce(p) for p in names.values()))
