"""Chevalley–Serre presentations derived and classified end to end (`serre.py`)."""

import itertools
import json

import pytest
from serre import CARTAN, serre_text

from liepres import quotient
from liepres.cli import main


def derive_and_classify(tmp_path, capsys, monkeypatch, name) -> tuple:
    """(derive's report, classify's report, pivots at the certified level) for the Serre presentation of CARTAN[name]."""
    levels = []
    certify = quotient.certify
    monkeypatch.setattr(quotient, "certify", lambda qb: levels.append(qb) or certify(qb))
    lp, out = tmp_path / f"{name}.lp", tmp_path / f"{name}.json"
    lp.write_text(serre_text(CARTAN[name]), encoding="utf-8")
    assert main(["derive", str(lp), "--out", str(out)]) == 0
    derived = capsys.readouterr().out
    main(["classify", "--table", str(out)])
    return derived, capsys.readouterr().out, len(levels[-1]._rows)


def printed_cartan(classified) -> list:
    (line,) = [s for s in classified.splitlines() if s.startswith("cartan matrix: ")]
    return json.loads(line.removeprefix("cartan matrix: "))


def equal_up_to_permutation(a, b) -> bool:
    """a[p[i]][p[j]] == b[i][j] for one permutation p of the indices."""
    n = len(b)
    return len(a) == n and any(all(a[p[i]][p[j]] == b[i][j] for i in range(n) for j in range(n))
                               for p in itertools.permutations(range(n)))


@pytest.mark.parametrize("name, bound, dim", [("A1xA1", 3, 6), ("A2", 3, 8), ("B2", 4, 10), ("G2", 6, 14)])
def test_rank_2_serre_presentation_classifies_as_its_type(tmp_path, capsys, monkeypatch, name, bound, dim):
    derived, classified, _ = derive_and_classify(tmp_path, capsys, monkeypatch, name)
    assert f"degree bound: {bound}\ndim = {dim}\ncertified: yes (" in derived
    assert classified.splitlines()[-1] == f"type: {name}"


@pytest.mark.parametrize("name, bound, dim, pivots", [("A3", 4, 15, 391), ("B3", 6, 21, 9674), ("C3", 6, 21, 9674),
                                                      ("A4", 5, 24, 7740), ("D4", 6, 28, 51332)])
def test_rank_3_and_4_serre_presentation_has_its_cartan_matrix(tmp_path, capsys, monkeypatch, name, bound, dim, pivots):
    # classify prints 2(alpha_i, alpha_j)/(alpha_j, alpha_j), the transpose of the
    # Serre a_ij, with the simple roots in its own order; the catalog stops at
    # rank 2, so the type is left unchecked
    derived, classified, rows = derive_and_classify(tmp_path, capsys, monkeypatch, name)
    assert f"degree bound: {bound}\ndim = {dim}\ncertified: yes (" in derived
    assert rows == pivots
    assert equal_up_to_permutation(printed_cartan(classified), [list(col) for col in zip(*CARTAN[name])])


def test_b3_and_c3_print_different_cartan_matrices(tmp_path, capsys, monkeypatch):
    b3, c3 = (printed_cartan(derive_and_classify(tmp_path, capsys, monkeypatch, name)[1]) for name in ("B3", "C3"))
    assert not equal_up_to_permutation(b3, c3)
