"""Chevalley–Serre presentations derived and classified end to end (`serre.py`)."""

import itertools
import json

import pytest
from serre import CARTAN, serre_text

from liepres.cli import main


def derive_and_classify(tmp_path, capsys, name) -> tuple:
    """(derive's report, classify's report) for the Serre presentation of CARTAN[name]."""
    lp, out = tmp_path / f"{name}.lp", tmp_path / f"{name}.json"
    lp.write_text(serre_text(CARTAN[name]), encoding="utf-8")
    assert main(["derive", str(lp), "--out", str(out)]) == 0
    derived = capsys.readouterr().out
    main(["classify", "--table", str(out)])
    return derived, capsys.readouterr().out


@pytest.mark.parametrize("name, bound, dim", [("A2", 3, 8), ("B2", 4, 10), ("G2", 6, 14)])
def test_rank_2_serre_presentation_classifies_as_its_type(tmp_path, capsys, name, bound, dim):
    derived, classified = derive_and_classify(tmp_path, capsys, name)
    assert f"degree bound: {bound}\ndim = {dim}\ncertified: yes (" in derived
    assert classified.splitlines()[-1] == f"type: {name}"


def test_a3_serre_presentation_has_the_a3_cartan_matrix(tmp_path, capsys):
    # the catalog stops at rank 2, so the type stays unrecognized; the matrix is
    # A3's up to the order of the simple roots
    derived, classified = derive_and_classify(tmp_path, capsys, "A3")
    assert "dim = 15\ncertified: yes (" in derived
    (line,) = [s for s in classified.splitlines() if s.startswith("cartan matrix: ")]
    printed = json.loads(line.removeprefix("cartan matrix: "))
    a3 = CARTAN["A3"]
    assert any(all(printed[p[i]][p[j]] == a3[i][j] for i in range(3) for j in range(3))
               for p in itertools.permutations(range(3)))
