"""Command line tests: every subcommand and every exit code, run in process, except
the failed writes to standard output, which need a process of their own."""

import hashlib
import importlib.util
import io
import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from presentation_text import FALSE_STABLE, GROWING, format_presentation

import liepres
import liepres.table
from liepres import g2, quotient
from liepres.cli import _NOT_G2, main
from liepres.g2 import g2_presentation, named_basis_free
from liepres.presentation import Presentation, parse_presentation
from liepres.quotient import quotient_closure
from liepres.table import StructureTable
from liepres.tabledoc import load_table, save_table, to_csv

FIXTURES = Path(liepres.__file__).parent / "fixtures"
G2 = str(FIXTURES / "g2.lp")
SL2 = str(FIXTURES / "sl2.lp")
HEIS = str(FIXTURES / "heisenberg.lp")
SL3 = str(FIXTURES / "sl3.lp")
MUTANT = str(FIXTURES / "g2_mutated.lp")
GOLDEN = str(FIXTURES / "g2_table.json")


@pytest.fixture()
def run(capsys):
    def go(*argv):
        code = main(list(argv))
        captured = capsys.readouterr()
        return code, captured.out, captured.err
    return go


def test_derive_g2_certifies_and_writes_golden_bytes(run, tmp_path):
    out = tmp_path / "t.json"
    code, stdout, stderr = run("derive", G2, "--out", str(out))
    assert code == 0, stderr
    assert "degree bound: 4" in stdout
    assert "dim = 14" in stdout
    assert ("certified: yes (every representative below degree 4; model of dim 14 passes Jacobi "
            "on 364 triples; all 54 relations vanish)") in stdout
    assert "degree 4: 18 Lyndon words, 0 independent in the quotient" in stdout
    assert f"wrote {out}" in stdout
    assert out.read_bytes() == Path(GOLDEN).read_bytes()


def test_derive_closure_engine_matches_golden(run, tmp_path, family_member_text):
    # on input both engines accept, naming either prints and writes exactly what
    # the default does: --engine rewriter adds only its refusal of other input
    for lp in (G2, seeded_g2_variant(tmp_path)):
        default = tmp_path / "default.json"
        code, expected, _ = run("derive", lp, "--out", str(default))
        assert code == 0
        assert "degree 4: 18 Lyndon words, 0 independent in the quotient" in expected
        assert default.read_bytes() == Path(GOLDEN).read_bytes()
        for engine in ("both", "rewriter"):
            named = tmp_path / f"{engine}.json"
            code, stdout, stderr = run("derive", lp, "--engine", engine, "--out", str(named))
            assert (code, stderr) == (0, ""), (lp, engine)
            assert stdout == expected.replace(str(default), str(named)), (lp, engine)
            assert named.read_bytes() == default.read_bytes(), (lp, engine)
            assert "engine" not in stdout.replace(str(named), "PATH"), (lp, engine)
    # no report names an engine, whether or not the table is renamed to g2's basis
    member = tmp_path / "member.lp"
    member.write_text(family_member_text(1, 2, 3), encoding="utf-8")
    for lp in (SL2, HEIS, str(member)):
        code, stdout, stderr = run("derive", lp)
        assert (code, stderr) == (0, ""), lp
        assert "engine" not in stdout, lp


def test_derive_rewriter_engine_matches_golden(run, tmp_path):
    # the rewriter climbs to --max-degree like both, and certifies at bound 4
    out = tmp_path / "t.json"
    code, stdout, _ = run("derive", G2, "--engine", "rewriter", "--out", str(out))
    assert code == 0
    assert stdout == ("degree bound: 4\ndim = 14\n"
                      "certified: yes (every representative below degree 4; model of dim 14 passes "
                      "Jacobi on 364 triples; all 54 relations vanish)\n"
                      "degree 1: 3 Lyndon words, 3 independent in the quotient\n"
                      "degree 2: 3 Lyndon words, 3 independent in the quotient\n"
                      "degree 3: 8 Lyndon words, 8 independent in the quotient\n"
                      "degree 4: 18 Lyndon words, 0 independent in the quotient\n"
                      f"wrote {out}\n")
    assert out.read_bytes() == Path(GOLDEN).read_bytes()
    out.unlink()
    code, stdout, stderr = run("derive", G2, "--engine", "rewriter", "--max-degree", "2", "--out", str(out))
    assert (code, stdout) == (2, "")
    assert stderr == "error: degree bound 2 below max relation degree 4\n"
    assert not out.exists()


@pytest.mark.parametrize("engine, climbs", [("both", 1), ("rewriter", 1)])
def test_derive_g2_climbs_once_and_gates_the_certified_level(run, monkeypatch, engine, climbs):
    # both gates the level it certified, the rewriter the first level of the same
    # climb.  Either way g2.lp is parsed once and never climbed.
    calls = []

    def counted(name, f):
        return lambda *args: calls.append(name) or f(*args)

    monkeypatch.setattr(quotient, "closure_levels", counted("climb", quotient.closure_levels))
    monkeypatch.setattr(g2, "parse_presentation", counted("parse", g2.parse_presentation))
    code, stdout, _ = run("derive", G2, "--engine", engine)
    assert code == 0
    assert "certified: yes (" in stdout
    assert (calls.count("climb"), calls.count("parse")) == (climbs, 1)


def test_derive_engine_closure_and_rewriter_below_bound_4_exit_2(run):
    code, stdout, stderr = run("derive", G2, "--engine", "closure")
    assert (code, stdout) == (2, "")
    assert "argument --engine: invalid choice: 'closure'" in stderr
    code, stdout, stderr = run("derive", G2, "--engine", "rewriter", "--max-degree", "3")
    assert (code, stdout, stderr) == (2, "", "error: degree bound 3 below max relation degree 4\n")


def test_derive_sl2_skips_rewriter(run, tmp_path):
    # the table stays over the representatives, named after the generators
    out = tmp_path / "t.json"
    code, stdout, _ = run("derive", SL2, "--max-degree", "4", "--out", str(out))
    assert code == 0
    assert "dim = 3" in stdout
    assert load_table(str(out)).names == parse_presentation(Path(SL2).read_text(encoding="utf-8")).names


def test_derive_mutant_fails_to_stabilize(run, tmp_path):
    code, stdout, stderr = run("derive", MUTANT, "--max-degree", "6")
    assert code == 4
    assert stderr == "quotient not certified up to degree bound 6; rerun with a larger --max-degree\n"
    assert "degree bound: 6" in stdout
    assert "certified: no (relation 8 does not vanish in the model)" in stdout
    # at the default bound it is refused alike, and --out writes no table
    out = tmp_path / "m.json"
    code, stdout, stderr = run("derive", MUTANT, "--out", str(out))
    assert code == 4
    assert stderr == "quotient not certified up to degree bound 8; rerun with a larger --max-degree\n"
    assert "degree bound: 8" in stdout
    assert f"wrote {out}" not in stdout
    assert not out.exists()


def test_derive_mutant_certifies_dim_0_at_bound_9(run, tmp_path):
    out = tmp_path / "t.json"
    code, stdout, stderr = run("derive", MUTANT, "--max-degree", "9", "--out", str(out))
    assert code == 0, stderr
    assert "degree bound: 9\ndim = 0\ncertified: yes (" in stdout
    assert json.loads(out.read_text(encoding="utf-8")) == {
        "schema_version": "1", "dim": 0, "names": [], "brackets": []}
    code, stdout, stderr = run("classify", "--table", str(out))
    assert (code, stderr) == (1, "")
    assert stdout == ("jacobi: ok (0 triples)\nderived dim: 0\ncenter dim: 0\n"
                      "killing determinant: 1 (nonzero)\ntype: unrecognized (zero algebra)\n")


@pytest.mark.parametrize("bound", ["5", "6"])
def test_derive_false_stabilization_is_not_certified(run, tmp_path, bound):
    lp, out = tmp_path / "p.lp", tmp_path / "t.json"
    lp.write_text(FALSE_STABLE, encoding="utf-8")
    code, stdout, stderr = run("derive", str(lp), "--max-degree", bound, "--engine", "both", "--out", str(out))
    assert code == 4
    assert f"degree bound: {bound}\n" in stdout
    assert {
        "5": "certified: no (model fails Jacobi at (x1,[x1,x2],[[x1,x2],x2]))\n",
        "6": "certified: no (representative [[x1,x2],x2] does not map to its own basis vector)\n",
    }[bound] in stdout
    assert stderr == f"quotient not certified up to degree bound {bound}; rerun with a larger --max-degree\n"
    assert not out.exists()


def test_derive_false_stabilization_certifies_dim_1(run, tmp_path):
    lp, out = tmp_path / "p.lp", tmp_path / "t.json"
    lp.write_text(FALSE_STABLE, encoding="utf-8")
    code, stdout, stderr = run("derive", str(lp), "--max-degree", "7", "--engine", "both", "--out", str(out))
    assert code == 0, stderr
    assert "degree bound: 7\ndim = 1\ncertified: yes (" in stdout
    assert load_table(str(out)).names == ("x2",)


@pytest.mark.parametrize("engine", ["both"])
def test_derive_growing_quotient_is_not_certified(run, tmp_path, engine):
    lp, out = tmp_path / "p.lp", tmp_path / "t.json"
    lp.write_text(GROWING, encoding="utf-8")
    code, stdout, stderr = run("derive", str(lp), "--max-degree", "6", "--engine", engine, "--out", str(out))
    assert code == 4
    assert "certified: no (" in stdout
    assert "not certified" in stderr
    assert not out.exists()


def test_derive_without_relations_is_not_certified(run, tmp_path):
    # the free Lie algebra: no bound certifies it, and there are no relation degrees to list
    lp = tmp_path / "free.lp"
    lp.write_text("generators: a b\n", encoding="utf-8")
    code, stdout, stderr = run("derive", str(lp), "--max-degree", "3")
    assert code == 4
    assert stdout == ("degree bound: 3\ndim = 5\n"
                      "certified: no (representative [a,[a,b]] has degree 3, not below the degree bound 3)\n")
    assert "not certified up to degree bound 3" in stderr


def test_derive_rewriter_rejected_off_domain(run):
    refused = f"error: {_NOT_G2}; use --engine both\n"
    for path in (SL2, MUTANT):
        assert run("derive", path, "--engine", "rewriter") == (2, "", refused), path
    # the bound is checked before the climb, whose first level the rewriter gates
    code, stdout, stderr = run("derive", MUTANT, "--engine", "rewriter", "--max-degree", "3")
    assert (code, stdout, stderr) == (2, "", "error: degree bound 3 below max relation degree 4\n")


def test_derive_rewriter_refuses_by_shape_before_the_climb(run, monkeypatch, tmp_path):
    # 20 generators and a degree-5 relation: the first level would pass the word
    # budget, but the shape alone refuses it and nothing is climbed
    calls = []
    monkeypatch.setattr(quotient, "closure_levels", lambda *args: calls.append(args) or iter(()))
    path = tmp_path / "wide.lp"
    path.write_text("generators: " + " ".join(f"g{i}" for i in range(1, 21)) + "\n"
                    "relation: [g1,[g1,[g1,[g1,g2]]]] = 0\n")
    assert run("derive", str(path), "--engine", "rewriter") == (2, "", f"error: {_NOT_G2}; use --engine both\n")
    assert calls == []


def test_derive_parse_error_reports_line(run, tmp_path):
    bad = tmp_path / "bad.lp"
    bad.write_text("generators: a b\nrelation: [a,b = 0\n")
    code, _, stderr = run("derive", str(bad))
    assert code == 2
    assert "line 2" in stderr


def test_derive_deep_nesting_is_a_parse_error(run, tmp_path):
    nested = "x2"
    for _ in range(3000):
        nested = f"[x1,{nested}]"
    path = tmp_path / "nested.lp"
    path.write_text(f"generators: x1 x2\nrelation: {nested} = 0\n")
    code, stdout, stderr = run("derive", str(path))
    assert code == 2
    assert stdout == ""
    assert stderr == f"error: {path}: line 2, column 411: brackets nested deeper than 100\n"


@pytest.mark.parametrize("relation, col", [("{huge}*[a,b] = 0", 11), ("[a,b] = 1/{huge}*a", 21)],
                         ids=["numerator", "denominator"])
def test_derive_number_past_the_digit_limit_is_a_parse_error(run, tmp_path, relation, col):
    path = tmp_path / "huge.lp"
    path.write_text("generators: a b\nrelation: " + relation.format(huge="1" * 5000) + "\n")
    code, stdout, stderr = run("derive", str(path))
    assert code == 2
    assert stdout == ""
    assert stderr == f"error: {path}: line 2, column {col}: number of 5000 digits is too long\n"


def test_derive_missing_file(run, tmp_path):
    code, _, stderr = run("derive", str(tmp_path / "nope.lp"))
    assert code == 2
    assert "cannot read" in stderr


def test_derive_file_not_utf8_exits_2(run, tmp_path):
    path = tmp_path / "bad.lp"
    path.write_bytes(b"\xff\xfe")
    out = tmp_path / "t.json"
    code, stdout, stderr = run("derive", str(path), "--out", str(out))
    assert code == 2
    assert stdout == ""
    assert stderr.startswith(f"error: cannot read {path}: ")
    assert "Traceback" not in stderr
    assert not out.exists()


@pytest.mark.parametrize("where", ["missing directory", "directory"])
def test_derive_out_that_cannot_be_written_exits_2(run, tmp_path, where):
    out = tmp_path / "missing" / "t.json" if where == "missing directory" else tmp_path
    code, stdout, stderr = run("derive", G2, "--out", str(out))
    assert code == 2
    assert "dim = 14" in stdout
    assert f"wrote {out}" not in stdout
    assert stderr.startswith(f"error: cannot write {out}: ")
    assert "Traceback" not in stderr
    assert list(tmp_path.iterdir()) == []


def big_coefficient_text(k: int) -> str:
    """A dim-3 presentation with N = 10**k, whose certified table has the coefficient N**2 of 2k + 1 digits."""
    return (f"generators: a b c\nrelation: [a,b] = {10 ** k}*a\n"
            f"relation: [a,c] = {10 ** k}*[a,b]\nrelation: [b,c] = 0\n")


def test_derive_writes_no_table_that_the_reader_refuses(run, tmp_path):
    limit = sys.get_int_max_str_digits()
    if not limit:
        pytest.skip("integer string conversion is unlimited")
    lp, out = tmp_path / "p.lp", tmp_path / "t.json"
    lp.write_text(big_coefficient_text(limit // 2 + 1), encoding="utf-8")
    code, stdout, stderr = run("derive", str(lp), "--out", str(out))
    assert code == 2
    assert "dim = 3\ncertified: yes (" in stdout
    assert "wrote" not in stdout
    assert stderr.startswith(f"error: cannot write {out}: bad rational '1000")
    assert stderr.endswith(": too many digits\n")
    assert not out.exists()

    # N**2 of at most `limit` digits is read back
    lp.write_text(big_coefficient_text((limit - 1) // 2), encoding="utf-8")
    code, stdout, stderr = run("derive", str(lp), "--out", str(out))
    assert (code, stderr) == (0, "")
    assert stdout.endswith(f"wrote {out}\n")
    assert run("verify", "--table", str(out), "--golden", str(out))[0] == 0


def test_derive_bound_below_relation_degree(run):
    code, _, stderr = run("derive", G2, "--max-degree", "2")
    assert code == 2
    assert "error:" in stderr


@pytest.mark.parametrize("engine", ["both", "rewriter"])
def test_derive_bound_too_small_to_bracket_named_basis(run, tmp_path, engine):
    # the table comes from the model at the certifying bound 4, not from brackets
    # in the free algebra, so no bound is too small to bracket the named basis
    out = tmp_path / "t.json"
    code, stdout, stderr = run("derive", G2, "--max-degree", "5", "--engine", engine, "--out", str(out))
    assert code == 0, stderr
    assert "degree bound: 4" in stdout
    assert "certified: yes" in stdout
    assert out.read_bytes() == Path(GOLDEN).read_bytes()


def test_derive_relation_above_degree_cap(run, tmp_path):
    nested = "x2"
    for _ in range(12):
        nested = f"[x1,{nested}]"
    path = tmp_path / "deep.lp"
    path.write_text(f"generators: x1 x2\nrelation: {nested} = 0\n")
    code, stdout, stderr = run("derive", str(path))
    assert code == 2
    assert stdout == ""
    assert stderr == f"error: {path}: line 2, column 11: bracket degree 13 exceeds cap 12\n"


def test_derive_representatives_above_degree_cap(run, tmp_path):
    # The quotient keeps representatives of degree 7 and 8; their brackets in the
    # free algebra would pass the degree cap, but the model's table needs none.
    text = ("generators: a b\nrelation: [b,[a,b]] = 0\nrelation: [[a,b],[a,[a,b]]] = 0\n"
            "relation: [a,[a,[a,[a,[a,[a,[a,b]]]]]]] = 0\n")
    path, out = tmp_path / "filiform.lp", tmp_path / "t.json"
    path.write_text(text)
    code, stdout, stderr = run("derive", str(path), "--max-degree", "13", "--out", str(out))
    assert code == 0, stderr
    assert "degree bound: 10" in stdout
    assert "dim = 11" in stdout
    assert "certified: yes" in stdout
    assert load_table(str(out)).dim == 11 == quotient_closure(parse_presentation(text), 13).dim


def test_files_may_start_with_a_byte_order_mark(run, tmp_path):
    bom = b"\xef\xbb\xbf"
    lp, table, out = tmp_path / "g2.lp", tmp_path / "g2.json", tmp_path / "t.json"
    lp.write_bytes(bom + Path(G2).read_bytes())
    table.write_bytes(bom + Path(GOLDEN).read_bytes())
    code, _, stderr = run("derive", str(lp), "--out", str(out))
    assert code == 0, stderr
    assert out.read_bytes() == Path(GOLDEN).read_bytes()
    code, stdout, stderr = run("classify", "--table", str(table))
    assert code == 0, stderr
    assert stdout.endswith("type: G2\n")


def test_derive_bad_flag_values(run):
    code, _, stderr = run("derive", G2, "--max-degree", "0")
    assert code == 2
    assert "at least 1" in stderr
    code, _, stderr = run("derive", G2, "--max-degree", "x")
    assert code == 2


def test_derive_help_says_what_each_engine_does(run):
    code, stdout, _ = run("derive", "--help")
    assert code == 0
    assert ("--engine {rewriter,both} both (default) certifies any presentation and renames a G2 level "
            "to the named basis; rewriter also refuses input whose relations do not span those of g2.lp "
            "--out OUT") in " ".join(stdout.split())


def test_verify_agreement(run):
    code, stdout, _ = run("verify", "--table", GOLDEN, "--golden", GOLDEN)
    assert code == 0
    assert "tables agree on all 91 bracket pairs" in stdout


def test_verify_reports_differing_pair(run, tmp_path):
    golden = load_table(GOLDEN)
    c = dict(golden.c)
    x1, y1, h1 = golden.names.index("x1"), golden.names.index("y1"), golden.names.index("h1")
    assert c[(x1, y1, h1)] == 2
    c[(x1, y1, h1)] = Fraction(1)
    p = tmp_path / "mut.json"
    save_table(StructureTable(golden.names, c), str(p))
    code, stdout, _ = run("verify", "--table", str(p), "--golden", GOLDEN)
    assert code == 1
    assert "tables differ on 1 bracket pairs:" in stdout
    assert "  [x1,y1]: table has h1 + h2, golden has 2*h1 + h2" in stdout


def test_verify_name_mismatch(run, tmp_path):
    golden = load_table(GOLDEN)
    names = list(golden.names)
    names[0] = "z1"
    p = tmp_path / "renamed.json"
    save_table(StructureTable(names, dict(golden.c)), str(p))
    code, stdout, _ = run("verify", "--table", str(p), "--golden", GOLDEN)
    assert code == 1
    assert "basis names do not match" in stdout


def test_verify_schema_error(run, tmp_path):
    p = tmp_path / "bad.json"
    p.write_text('{"schema_version": "99", "dim": 0, "names": [], "brackets": []}')
    code, _, stderr = run("verify", "--table", str(p), "--golden", GOLDEN)
    assert code == 2
    assert "schema_version" in stderr


MALFORMED_TABLES = {
    "brackets-int": '{"schema_version": "1", "dim": 2, "names": ["a", "b"], "brackets": 5}',
    "coefficients-list": '{"schema_version": "1", "dim": 2, "names": ["a", "b"], '
                         '"brackets": [{"i": 0, "j": 1, "coefficients": [1]}]}',
    "value-true": '{"schema_version": "1", "dim": 2, "names": ["a", "b"], '
                  '"brackets": [{"i": 0, "j": 1, "coefficients": {"a": true}}]}',
    # sl2 with [e,f] stated twice: if the last value won, classify would print A1 and exit 0
    "bracket-twice": '{"schema_version": "1", "dim": 3, "names": ["h", "e", "f"], "brackets": ['
                     '{"i": 0, "j": 1, "coefficients": {"e": "2"}}, {"i": 0, "j": 2, "coefficients": {"f": "-2"}}, '
                     '{"i": 1, "j": 2, "coefficients": {"h": "1"}}, {"i": 1, "j": 2, "coefficients": {"h": "5"}}]}',
}


@pytest.mark.parametrize("command, case", [
    ("verify", "brackets-int"), ("classify", "coefficients-list"), ("export", "value-true"),
    ("classify", "bracket-twice")])
def test_malformed_table_exits_2(run, tmp_path, command, case):
    p = tmp_path / "bad.json"
    p.write_text(MALFORMED_TABLES[case])
    argv = {"verify": ("--golden", GOLDEN), "classify": (), "export": ("--format", "csv")}[command]
    code, stdout, stderr = run(command, "--table", str(p), *argv)
    assert code == 2
    assert stdout == ""
    assert stderr.startswith("error: ") and stderr.count("\n") == 1


def test_classify_long_coefficient_is_cut_in_the_message(run, tmp_path):
    p = tmp_path / "bad.json"
    p.write_text('{"schema_version": "1", "dim": 2, "names": ["a", "b"], '
                 '"brackets": [{"i": 0, "j": 1, "coefficients": {"a": "' + "7" * 5000 + '"}}]}')
    code, stdout, stderr = run("classify", "--table", str(p))
    assert code == 2
    assert stdout == ""
    assert stderr == "error: bad rational '" + "7" * 36 + "...: too many digits\n"


def test_verify_malformed_golden_exits_2(run, tmp_path):
    p = tmp_path / "bad.json"
    p.write_text(MALFORMED_TABLES["coefficients-list"])
    code, _, stderr = run("verify", "--table", GOLDEN, "--golden", str(p))
    assert code == 2
    assert stderr == "error: bad bracket record: {'i': 0, 'j': 1, 'coefficients': [1]}\n"


def test_classify_g2(run):
    code, stdout, _ = run("classify", "--table", GOLDEN)
    assert code == 0
    assert "jacobi: ok (364 triples)" in stdout
    assert "derived dim: 14" in stdout
    assert "center dim: 0" in stdout
    assert "killing determinant: 9618527719784448 (nonzero)" in stdout
    assert "cartan: h1 h2" in stdout
    assert "roots: 12 (multiplicities: 1)" in stdout
    assert "cartan matrix: [[2, -1], [-3, 2]]" in stdout
    assert "type: G2" in stdout


def test_classify_scales_the_table_to_integers_once(run, monkeypatch):
    # Jacobi and the Killing form share the table's integer ad maps, so the common
    # denominator of the loaded table is taken once
    calls = []
    scaled = liepres.table.integer_scaled
    monkeypatch.setattr(liepres.table, "integer_scaled", lambda values: calls.append(1) or scaled(values))
    code, stdout, _ = run("classify", "--table", GOLDEN)
    assert (code, stdout.splitlines()[-1]) == (0, "type: G2")
    assert len(calls) == 1


def test_classify_sl2(run, tmp_path):
    p = tmp_path / "sl2.json"
    assert run("derive", SL2, "--max-degree", "4", "--out", str(p))[0] == 0
    code, stdout, _ = run("classify", "--table", str(p))
    assert code == 0
    assert "killing determinant: -128 (nonzero)" in stdout
    assert "cartan matrix: [[2]]" in stdout
    assert "type: A1" in stdout


def test_classify_sl2_with_coefficients_of_1500_digits(run, tmp_path):
    # [e,f] = h, [e,h] = -N e, [f,h] = N f: K is 2N on e, f and 2N^2 on h, so
    # det K = -8 N^4, about 6000 digits, past the interpreter's str() limit
    N = 0
    for _ in range(1500):
        N = 10 * N + 7
    t = StructureTable(["e", "f", "h"], {(0, 1, 2): 1, (0, 2, 0): -N, (1, 2, 1): N})
    p = tmp_path / "big.json"
    save_table(t, p)
    assert load_table(p) == t
    det, digits = 8 * N ** 4, []
    while det:
        det, d = divmod(det, 10)
        digits.append(str(d))
    code, stdout, stderr = run("classify", "--table", str(p))
    assert (code, stderr) == (0, "")
    assert f"killing determinant: -{''.join(reversed(digits))} (nonzero)" in stdout.splitlines()
    assert "cartan matrix: [[2]]" in stdout
    assert stdout.splitlines()[-1] == "type: A1"


def test_classify_nilpotent(run, tmp_path):
    p = tmp_path / "heis.json"
    assert run("derive", HEIS, "--max-degree", "5", "--out", str(p))[0] == 0
    code, stdout, _ = run("classify", "--table", str(p))
    assert code == 1
    assert "killing determinant: 0 (zero: degenerate)" in stdout
    assert "type: unrecognized (nilpotent: Killing form degenerate)" in stdout


def test_classify_abelian_table_brackets_nothing(run, tmp_path, monkeypatch):
    # a degenerate table with no constants: [g, g] = 0 is read once and nothing is bracketed
    p = tmp_path / "abelian.json"
    save_table(StructureTable([f"a{i}" for i in range(40)], {}), str(p))
    calls = []
    for method in ("bracket", "bracket_map"):
        original = getattr(StructureTable, method)
        monkeypatch.setattr(StructureTable, method,
                            lambda t, a, b, method=method, original=original: calls.append(method) or original(t, a, b))
    code, stdout, _ = run("classify", "--table", str(p))
    assert code == 1
    assert "derived dim: 0\ncenter dim: 40\nkilling determinant: 0 (zero: degenerate)\n" in stdout
    assert stdout.splitlines()[-1] == "type: unrecognized (nilpotent: Killing form degenerate)"
    assert calls == []


def test_classify_jacobi_failure(run, tmp_path):
    golden = load_table(GOLDEN)
    c = dict(golden.c)
    h1, a12 = golden.names.index("h1"), golden.names.index("a12")
    c[(h1, a12, a12)] = Fraction(3)
    p = tmp_path / "broken.json"
    save_table(StructureTable(golden.names, c), str(p))
    code, _, stderr = run("classify", "--table", str(p))
    assert code == 5
    assert "jacobi: FAIL at (" in stderr
    assert "of 364 triples" in stderr


def test_export_json_is_fixed_point(run):
    code, stdout, _ = run("export", "--table", GOLDEN, "--format", "json")
    assert code == 0
    assert stdout == Path(GOLDEN).read_text(encoding="utf-8")


def test_export_csv(run):
    code, stdout, _ = run("export", "--table", GOLDEN, "--format", "csv")
    assert code == 0
    lines = stdout.splitlines()
    assert lines[0].startswith("i,j,h1,h2,")
    assert len(lines) == 92


CSV = {
    "sl2": "i,j,e,f,h\ne,f,0,0,1\ne,h,-2,0,0\nf,h,0,2,0\n",
    # a name with a comma is one quoted field
    "heisenberg": 'i,j,p,q,"[p,q]"\np,q,0,0,1\np,"[p,q]",0,0,0\nq,"[p,q]",0,0,0\n',
}


@pytest.mark.parametrize("name", ["g2", "sl2", "heisenberg"])
def test_export_csv_bytes(run, tmp_path, name):
    table = tmp_path / "t.json"
    code, _, _ = run("derive", str(FIXTURES / f"{name}.lp"), "--out", str(table))
    assert code == 0
    code, stdout, _ = run("export", "--table", str(table), "--format", "csv")
    assert code == 0
    if name == "g2":
        assert hashlib.sha256(stdout.encode()).hexdigest() == (
            "88d6ed6001978cc5ca83b61f844dfebea3fb454d1651a738a2d81966c34c528a")
    else:
        assert stdout == CSV[name]


def test_export_latex(run):
    code, stdout, _ = run("export", "--table", GOLDEN, "--format", "latex")
    assert code == 0
    assert "$2y_3$" in stdout
    assert stdout.startswith("\\begin{tabular}")


def test_export_latex_keeps_a_subscripted_name(run, tmp_path):
    lp = tmp_path / "sub.lp"
    lp.write_text("generators: x_1 x_2\nrelation: [x_1,[x_1,x_2]] = 0\nrelation: [x_2,[x_1,x_2]] = 0\n")
    table = tmp_path / "t.json"
    code, stdout, _ = run("derive", str(lp), "--out", str(table))
    assert code == 0 and "dim = 3" in stdout
    code, stdout, _ = run("export", "--table", str(table), "--format", "latex")
    assert code == 0
    assert "__" not in stdout
    assert "$x_1$" in stdout and "$[x_1,x_2]$" in stdout


def test_export_empty_table(run, tmp_path):
    p = tmp_path / "empty.json"
    p.write_text('{"schema_version": "1", "dim": 0, "names": [], "brackets": []}')
    code, _, stderr = run("export", "--table", str(p), "--format", "csv")
    assert code == 2
    assert "empty table" in stderr


class _RecordedWrites(io.StringIO):
    """Standard output that keeps the length of every write."""

    def __init__(self):
        super().__init__()
        self.sizes = []

    def write(self, s):
        self.sizes.append(len(s))
        return super().write(s)


def test_export_csv_writes_row_by_row(tmp_path, monkeypatch):
    # 100 elements and no brackets: about 1 MB of CSV, written one row at a time
    table = StructureTable([f"e{k}" for k in range(100)], {})
    path = tmp_path / "t.json"
    save_table(table, path)
    out = _RecordedWrites()
    monkeypatch.setattr(sys, "stdout", out)
    assert main(["export", "--table", str(path), "--format", "csv"]) == 0
    text = to_csv(table)
    assert out.getvalue() == text
    assert max(out.sizes) <= max(len(row) for row in text.splitlines(keepends=True))
    # the refusal of an empty table comes before any output
    path.write_text('{"schema_version": "1", "dim": 0, "names": [], "brackets": []}')
    out = _RecordedWrites()
    monkeypatch.setattr(sys, "stdout", out)
    assert main(["export", "--table", str(path), "--format", "csv"]) == 2
    assert out.sizes == []


def test_export_unknown_format(run):
    code, _, stderr = run("export", "--table", GOLDEN, "--format", "yaml")
    assert code == 2
    assert "invalid choice" in stderr


def test_free_counts(run):
    code, stdout, _ = run("free", "--alphabet", "3", "--max-degree", "3")
    assert code == 0
    assert stdout == "3 3 8, total 14\n"
    code, stdout, _ = run("free", "--alphabet", "3", "--max-degree", "6")
    assert stdout == "3 3 8 18 48 116, total 196\n"
    code, stdout, _ = run("free", "--alphabet", "2", "--max-degree", "4")
    assert stdout == "2 1 2 3, total 8\n"


def child_env(buffered):
    """The environment of a `python -m liepres.cli` child, its standard streams buffered or not."""
    env = {**os.environ, "PYTHONPATH": str(Path(liepres.__file__).parent.parent)}
    env.pop("PYTHONUNBUFFERED", None)
    if not buffered:
        env["PYTHONUNBUFFERED"] = "1"
    return env


def run_child(argv, stdout, buffered):
    """(exit code, stderr) of `python -m liepres.cli argv` writing to stdout, a file or PIPE."""
    proc = subprocess.Popen([sys.executable, "-m", "liepres.cli", *argv], stdout=stdout,
                            stderr=subprocess.PIPE, env=child_env(buffered), text=True)
    if stdout == subprocess.PIPE:
        proc.stdout.close()  # the reader is gone before the command writes
    err = proc.stderr.read()
    proc.stderr.close()
    return proc.wait(), err


@pytest.mark.parametrize("buffered", [True, False], ids=["buffered", "unbuffered"])
def test_failed_write_to_stdout_exits_2_without_traceback(buffered, tmp_path):
    if os.path.exists("/dev/full"):
        with open("/dev/full", "w") as full:
            code, err = run_child(["free", "--alphabet", "3", "--max-degree", "6"], full, buffered)
        assert code == 2
        assert err == "error: cannot write standard output: [Errno 28] No space left on device\n"
    code, err = run_child(["derive", G2, "--out", str(tmp_path / "t.json")], subprocess.PIPE, buffered)
    assert code == 2
    assert err == "error: cannot write standard output: [Errno 32] Broken pipe\n"


@pytest.mark.parametrize("buffered", [True, False], ids=["buffered", "unbuffered"])
def test_failed_write_to_stdout_writes_no_table(buffered, tmp_path):
    # the report is flushed before the table is written, so a failing stdout leaves no file
    out = tmp_path / "t.json"
    if os.path.exists("/dev/full"):
        with open("/dev/full", "w") as full:
            code, err = run_child(["derive", G2, "--out", str(out)], full, buffered)
        assert (code, err) == (2, "error: cannot write standard output: [Errno 28] No space left on device\n")
        assert not out.exists()
    code, err = run_child(["derive", G2, "--out", str(out)], subprocess.PIPE, buffered)
    assert (code, err) == (2, "error: cannot write standard output: [Errno 32] Broken pipe\n")
    assert not out.exists()


@pytest.mark.parametrize("buffered", [True, False], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("argv", [["--help"], ["derive", "--help"]], ids=["help", "derive-help"])
def test_help_into_a_failed_stdout_exits_2(buffered, argv):
    # argparse drops an OSError from its own writes; the one from standard output reaches main
    code, err = run_child(argv, subprocess.PIPE, buffered)
    assert (code, err) == (2, "error: cannot write standard output: [Errno 32] Broken pipe\n")
    if os.path.exists("/dev/full"):
        with open("/dev/full", "w") as full:
            code, err = run_child(argv, full, buffered)
        assert (code, err) == (2, "error: cannot write standard output: [Errno 28] No space left on device\n")


def run_with_failed_stderr(argv, buffered):
    """(exit code, stdout) of `python -m liepres.cli argv` with standard error on /dev/full."""
    with open("/dev/full", "w") as full:
        proc = subprocess.run([sys.executable, "-m", "liepres.cli", *argv], stdout=subprocess.PIPE,
                              stderr=full, env=child_env(buffered), text=True)
    return proc.returncode, proc.stdout


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("buffered", [True, False], ids=["buffered", "unbuffered"])
def test_failed_stderr_exits_2_without_traceback(buffered, tmp_path):
    # an uncaught error in the handler would exit 1, and a failed flush at shutdown 120
    assert run_with_failed_stderr(["derive", "missing.lp"], buffered) == (2, "")
    # argparse drops the failed write of its usage; the flush in main meets it
    assert run_with_failed_stderr(["derive", "--bogus"], buffered) == (2, "")
    # the report on standard output still goes out: a free algebra certifies at no bound
    free = tmp_path / "free.lp"
    free.write_text("generators: a b\n", encoding="utf-8")
    code, out = run_with_failed_stderr(["derive", str(free)], buffered)
    assert code == 2 and "certified: no (" in out
    # a command that writes nothing to standard error keeps its exit
    assert run_with_failed_stderr(["free", "--alphabet", "3", "--max-degree", "3"], buffered) == (
        0, "3 3 8, total 14\n")


def test_no_command_is_usage_error(run):
    code, _, _ = run()
    assert code == 2


def g2_variant(tmp_path, scales, drop=0):
    """g2.lp with its relations reversed, the first `drop` of them left out, each scaled."""
    pres = g2_presentation()
    rels = list(reversed(pres.relations))[drop:]
    scaled = tuple(scales[i % len(scales)] * r for i, r in enumerate(rels))
    path = tmp_path / "variant.lp"
    path.write_text(format_presentation(Presentation(pres.names, scaled)), encoding="utf-8")
    return str(path)


RESCALE = (Fraction(3, 2), Fraction(-7), Fraction(2, 5), Fraction(-1, 3))


def seeded_g2_variant(tmp_path):
    """The benchmark's G2 input: perfbench/gen.py's variant of g2.lp under seed 7, relations shuffled and scaled."""
    spec = importlib.util.spec_from_file_location("gen", Path(__file__).resolve().parents[1] / "perfbench" / "gen.py")
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    path = tmp_path / "variant.lp"
    text = gen.presentation_variant((FIXTURES / "g2.lp").read_text(encoding="utf-8"), random.Random(7))
    path.write_text(text, encoding="utf-8")
    return str(path)


@pytest.mark.parametrize("engine, seeded", [("rewriter", False), ("both", False), ("rewriter", True), ("both", True)],
                         ids=["rewriter", "both", "seeded-rewriter", "seeded-both"])
def test_derive_rescaled_shuffled_g2_writes_golden_bytes(run, tmp_path, engine, seeded):
    out = tmp_path / "t.json"
    lp = seeded_g2_variant(tmp_path) if seeded else g2_variant(tmp_path, RESCALE)
    code, stdout, stderr = run("derive", lp, "--engine", engine, "--out", str(out))
    assert code == 0, stderr
    # the report is g2.lp's, once its "wrote" line names the same path
    g2_out = tmp_path / "g2.json"
    g2_code, g2_stdout, _ = run("derive", G2, "--engine", engine, "--out", str(g2_out))
    assert g2_code == 0
    assert stdout == g2_stdout.replace(f"wrote {g2_out}\n", f"wrote {out}\n")
    assert out.read_bytes() == Path(GOLDEN).read_bytes()


def test_derive_rewriter_decides_by_relation_span(run, tmp_path):
    # every relation is a combination of the other 53: one dropped leaves the ideal alone
    out = tmp_path / "t.json"
    code, _, stderr = run("derive", g2_variant(tmp_path, RESCALE, drop=1), "--engine", "rewriter", "--out", str(out))
    assert code == 0, stderr
    assert out.read_bytes() == Path(GOLDEN).read_bytes()
    # the first 43 relations of the file do not span the last 11
    code, _, stderr = run("derive", g2_variant(tmp_path, RESCALE, drop=11), "--engine", "rewriter")
    assert code == 2
    assert "standard quadruple" in stderr



@pytest.mark.parametrize("coeffs", [(1, 2, 3), (0, 0, 0)], ids=["1-2-3", "0-0-0"])
def test_derive_non_g2_family_member_skips_rewriter(run, tmp_path, family_member_text, coeffs):
    # another member of the quadruple family: the rewriter does not implement it, and
    # the gate on the certified level and the rewriter's refusal decide alike
    lp, out = tmp_path / "member.lp", tmp_path / "t.json"
    lp.write_text(family_member_text(*coeffs), encoding="utf-8")
    code, stdout, stderr = run("derive", str(lp), "--max-degree", "6", "--out", str(out))
    assert code == 0, stderr
    assert "dim = 14" in stdout
    assert load_table(str(out)).names != tuple(named_basis_free())
    out.unlink()
    code, stdout, stderr = run("derive", str(lp), "--max-degree", "6", "--engine", "rewriter", "--out", str(out))
    assert (code, stdout) == (2, "")
    assert "standard quadruple" in stderr
    assert not out.exists()


@pytest.mark.parametrize("engine", ["both", "rewriter"])
def test_derive_named_basis_rejected_exits_3(run, tmp_path, monkeypatch, engine):
    names = dict(named_basis_free())
    names["h2"] = names["h1"]
    monkeypatch.setattr(g2, "named_basis_free", lambda: names)
    out = tmp_path / "t.json"
    code, _, stderr = run("derive", G2, "--max-degree", "6", "--engine", engine, "--out", str(out))
    assert code == 3
    assert stderr == "error: g2's named basis is not a basis of the certified quotient\n"
    assert not out.exists()

@pytest.mark.parametrize("argv", [
    ("derive", "free20.lp", "--max-degree", "40"),
    ("free", "--alphabet", "2", "--max-degree", "40"),
    ("free", "--alphabet", "1", "--max-degree", "200001"),
], ids=["derive-free-20-40", "free-2-40", "free-1-over-budget"])
def test_word_budget_exits_2_before_allocating(run, tmp_path, monkeypatch, argv):
    # 20 generators and no relations certify at no bound: the climb meets the
    # budget before building degree 5
    monkeypatch.chdir(tmp_path)
    Path("free20.lp").write_text("generators: " + " ".join(f"g{i}" for i in range(20)) + "\n")
    code, stdout, stderr = run(*argv)
    assert code == 2
    assert stderr.startswith("error: ") and "Lyndon word" in stderr
    assert stdout == ""


def test_word_budget_is_checked_per_level(run, tmp_path):
    # the budget is met only by a level the climb builds; at degree 40 it would refuse
    code, stdout, stderr = run("derive", HEIS, "--max-degree", "40")
    assert (code, stderr) == (0, "")
    assert "degree bound: 3\ndim = 3\ncertified: yes (" in stdout
    # six generators, past the budget at the default bound 8, certify at bound 3
    out = tmp_path / "sl3.json"
    code, stdout, stderr = run("derive", SL3, "--out", str(out))
    assert (code, stderr) == (0, "")
    assert "degree bound: 3\ndim = 8\ncertified: yes (" in stdout
    code, stdout, _ = run("classify", "--table", str(out))
    assert code == 0
    assert "cartan matrix: [[2, -1], [-1, 2]]" in stdout
    assert stdout.splitlines()[-1] == "type: A2"
