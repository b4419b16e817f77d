"""The sl3 subalgebra of the named G2 basis, checked against its 3x3 matrix model.

A test helper, as dense.py is: the h and a elements must realize the traceless
3x3 matrices and the x and y spans must be modules over them.
"""

import itertools

from liepres.g2 import named_basis_free
from liepres.record import Record
from liepres.table import StructureTable


class Sl3Verdict(Record):
    __slots__ = (
        "ok",
        "closure_failures",     # pairs whose bracket leaves the subalgebra span
        "model_failures",       # pairs where the 3x3 matrix model disagrees
        "invariance_failures",  # (subalgebra name, module name) pairs
    )


def _e(i, j):
    return {(i - 1, j - 1): 1}


def _combine(terms) -> dict:
    """sum of c * m over (c, m) in terms, for 3x3 matrices as sparse maps {(r, c): x}."""
    acc: dict = {}
    for c, m in terms:
        for rc, x in m.items():
            acc[rc] = acc.get(rc, 0) + c * x
    return {rc: x for rc, x in acc.items() if x}


def _mul(a: dict, b: dict) -> dict:
    """The product ab of 3x3 matrices as sparse maps {(r, c): x}."""
    return _combine((x * y, {(r, c): 1}) for (r, l), x in a.items() for (m, c), y in b.items() if l == m)


def verify_sl3_subalgebra(t: StructureTable) -> Sl3Verdict:
    """Check h and a elements realize 3x3 traceless matrices and x, y spans are modules.

    a_ij maps to the elementary matrix E_ij, h1 to E11 - E22, h2 to E22 - E33.
    """
    basis = tuple(named_basis_free())
    names, modules = basis[:8], (basis[8:11], basis[11:])
    idx = {name: t.index_of(name) for name in names}
    model = dict(zip(names, (
        _combine([(1, _e(1, 1)), (-1, _e(2, 2))]),
        _combine([(1, _e(2, 2)), (-1, _e(3, 3))]),
        _e(1, 2), _e(1, 3), _e(2, 3), _e(2, 1), _e(3, 1), _e(3, 2),
    )))
    sub_idx = {idx[n]: n for n in names}

    closure_failures, model_failures = [], []
    for na, nb in itertools.combinations(names, 2):
        bmap = t.bracket_map(idx[na], idx[nb])
        if any(k not in sub_idx for k in bmap):
            closure_failures.append((na, nb))
            continue
        commutator = _combine([(1, _mul(model[na], model[nb])), (-1, _mul(model[nb], model[na]))])
        if _combine((c, model[sub_idx[k]]) for k, c in bmap.items()) != commutator:
            model_failures.append((na, nb))

    invariance_failures = []
    for na in names:
        for vnames in modules:
            vset = {t.index_of(n) for n in vnames}
            for vn in vnames:
                bmap = t.bracket_map(idx[na], t.index_of(vn))
                if any(k not in vset for k in bmap):
                    invariance_failures.append((na, vn))

    return Sl3Verdict(
        ok=not (closure_failures or model_failures or invariance_failures),
        closure_failures=tuple(closure_failures),
        model_failures=tuple(model_failures),
        invariance_failures=tuple(invariance_failures),
    )
