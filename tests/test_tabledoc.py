"""Serialization tests: JSON schema, CSV, LaTeX, rational formatting."""

import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

import liepres
from liepres.table import StructureTable
from liepres import tabledoc
from liepres.tabledoc import (
    SchemaError,
    document_to_table,
    format_rational,
    from_json_text,
    load_table,
    parse_rational,
    save_table,
    table_to_document,
    to_csv,
    to_json_text,
    to_latex,
)

FIXTURES = Path(liepres.__file__).parent / "fixtures"
GOLDEN_PATH = FIXTURES / "g2_table.json"


@pytest.fixture(scope="module")
def golden():
    return load_table(str(GOLDEN_PATH))


def test_format_rational():
    assert format_rational(Fraction(3)) == "3"
    assert format_rational(Fraction(-5)) == "-5"
    assert format_rational(Fraction(0)) == "0"
    assert format_rational(Fraction(2, 4)) == "1/2"
    assert format_rational(Fraction(-7, 3)) == "-7/3"


def decimal_digits(n: int) -> str:
    """The decimal string of n one digit at a time, without str() of the whole integer."""
    digits = []
    rest = abs(n)
    while True:
        rest, d = divmod(rest, 10)
        digits.append("0123456789"[d])
        if not rest:
            break
    return ("-" if n < 0 else "") + "".join(reversed(digits))


def from_digits(text: str) -> int:
    n = 0
    for ch in text.lstrip("-"):
        n = n * 10 + "0123456789".index(ch)
    return -n if text.startswith("-") else n


def test_format_rational_past_the_integer_string_limit():
    # past CPython's 4300-digit limit str() of an int raises; every digit must
    # come out, zeros inside and at the edges of the conversion chunks included
    rng = random.Random(10)
    texts = ["1" + "0" * 5000, "9" * 4301, "-" + "7" * 6000, "5" + "0" * 599 + "3" + "0" * 600]
    texts += [str(rng.randint(1, 9)) + "".join(rng.choice("0123456789") for _ in range(k))
              for k in (598, 599, 600, 1199, 1200, 9000)]
    for text in texts:
        n = from_digits(text)
        assert decimal_digits(n) == text
        assert format_rational(Fraction(n)) == text
    num, den = from_digits(texts[-1]), from_digits("3" * 5000)
    assert format_rational(Fraction(-num, den)) == f"-{decimal_digits(num)}/{decimal_digits(den)}"
    assert format_rational(Fraction(1, 10 ** 4400)) == "1/1" + "0" * 4400


def test_parse_rational_round_trip():
    vals = [Fraction(0), Fraction(17), Fraction(-4), Fraction(5, 6), Fraction(-11, 13)]
    for v in vals:
        assert parse_rational(format_rational(v)) == v
    # spellings that format_rational does not write but the pattern admits
    assert [parse_rational(s) for s in ("-0", "007", "4/6")] == [0, 7, Fraction(2, 3)]


def test_parse_rational_rejects_garbage():
    with pytest.raises(SchemaError):
        parse_rational("abc")
    with pytest.raises(SchemaError):
        parse_rational("1/0")
    with pytest.raises(SchemaError):
        parse_rational(1.5)


def test_golden_file_is_a_serialization_fixed_point(golden):
    assert to_json_text(golden) == GOLDEN_PATH.read_text(encoding="utf-8")


def test_json_round_trip_and_determinism(golden):
    text = to_json_text(golden)
    again = from_json_text(text)
    assert again.names == golden.names
    assert again.c == golden.c
    assert to_json_text(again) == text


def test_save_and_load(tmp_path, golden):
    p = tmp_path / "out.json"
    save_table(golden, str(p))
    assert load_table(str(p)).c == golden.c


def test_a_failed_write_leaves_no_file(tmp_path, golden, monkeypatch):
    class FullDisk:
        def __init__(self, f):
            self.f = f

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.f.close()

        def write(self, text):
            self.f.write(text[:10])
            raise OSError(28, "No space left on device")

    monkeypatch.setattr(tabledoc, "open", lambda *a, **k: FullDisk(open(*a, **k)), raising=False)
    path = tmp_path / "t.json"
    with pytest.raises(OSError):
        save_table(golden, str(path))
    assert list(tmp_path.iterdir()) == []


def test_document_shape(golden):
    doc = table_to_document(golden)
    assert doc["schema_version"] == "1"
    assert doc["dim"] == 14
    assert doc["names"][0] == "h1"
    pairs = [(rec["i"], rec["j"]) for rec in doc["brackets"]]
    assert pairs == sorted(pairs)
    assert all(i < j for i, j in pairs)


def make_doc(**overrides):
    doc = {
        "schema_version": "1",
        "dim": 2,
        "names": ["a", "b"],
        "brackets": [{"i": 0, "j": 1, "coefficients": {"a": "1"}}],
    }
    doc.update(overrides)
    return doc


def test_schema_rejections():
    with pytest.raises(SchemaError, match="JSON object"):
        document_to_table([1, 2])
    with pytest.raises(SchemaError, match="schema_version"):
        document_to_table(make_doc(schema_version="99"))
    with pytest.raises(SchemaError, match="missing field"):
        document_to_table({"schema_version": "1", "dim": 2, "names": ["a", "b"]})
    with pytest.raises(SchemaError, match="duplicate names"):
        document_to_table(make_doc(names=["a", "a"]))
    with pytest.raises(SchemaError, match="does not match"):
        document_to_table(make_doc(dim=3))
    with pytest.raises(SchemaError, match="0 <= i < j"):
        document_to_table(make_doc(brackets=[{"i": 1, "j": 0, "coefficients": {}}]))
    with pytest.raises(SchemaError, match="0 <= i < j"):
        document_to_table(make_doc(brackets=[{"i": 0, "j": 0, "coefficients": {}}]))
    with pytest.raises(SchemaError, match="unknown coefficient name"):
        document_to_table(make_doc(brackets=[{"i": 0, "j": 1, "coefficients": {"zz": "1"}}]))
    with pytest.raises(SchemaError, match="bad bracket record"):
        document_to_table(make_doc(brackets=[{"i": 0}]))


@pytest.mark.parametrize("overrides, match", [
    ({"brackets": 5}, "brackets must be a list"),
    ({"brackets": {"i": 0}}, "brackets must be a list"),
    ({"brackets": [{"i": 0, "j": 1, "coefficients": [1]}]}, "bad bracket record"),
    ({"brackets": [{"i": 0, "j": 1, "coefficients": "a"}]}, "bad bracket record"),
    ({"brackets": [{"i": 0, "j": 1, "coefficients": {"a": [1]}}]}, "bad rational"),
    ({"brackets": [{"i": 0, "j": 1, "coefficients": {"a": {"n": 1}}}]}, "bad rational"),
    ({"brackets": [{"i": 0, "j": 1, "coefficients": {"a": None}}]}, "bad rational"),
    ({"brackets": [{"i": 0, "j": 1, "coefficients": {"a": True}}]}, "bad rational"),
    ({"brackets": [{"i": False, "j": True, "coefficients": {"a": "1"}}]}, "0 <= i < j"),
    ({"dim": True, "names": ["a"], "brackets": []}, "does not match"),
    ({"brackets": [{"i": 0, "j": 1, "coefficients": {"a": "1"}}, {"i": 0, "j": 1, "coefficients": {"a": "5"}}]},
     r"bracket \(0, 1\) is stated twice"),
], ids=["brackets-int", "brackets-object", "coefficients-list", "coefficients-string",
        "value-list", "value-object", "value-null", "value-true", "indices-bool", "dim-true", "bracket-twice"])
def test_malformed_documents_are_schema_errors(overrides, match):
    with pytest.raises(SchemaError, match=match):
        from_json_text(json.dumps(make_doc(**overrides)))


@pytest.mark.parametrize("value", ["1e300000", "1.5", " 3/4 ", "3/4\n", "1_000", "+1", "3/-4", "\u0663", "0x10", ""])
def test_coefficients_only_in_the_written_form(value):
    # Fraction() alone would take all of these, "1e300000" at a cost superlinear in the exponent
    doc = make_doc(brackets=[{"i": 0, "j": 1, "coefficients": {"a": value}}])
    with pytest.raises(SchemaError, match="bad rational"):
        from_json_text(json.dumps(doc))


def test_long_values_are_cut_in_the_message():
    with pytest.raises(SchemaError) as exc:
        parse_rational("9" * 5000)
    assert str(exc.value) == "bad rational '" + "9" * 36 + "...: too many digits"
    with pytest.raises(SchemaError) as exc:
        parse_rational("x" * 5000)
    assert len(str(exc.value)) < 100
    with pytest.raises(SchemaError, match="zero denominator"):
        parse_rational("1/0")
    with pytest.raises(SchemaError, match="integer of 5000 digits is too long"):
        from_json_text(json.dumps(make_doc()).replace('"dim": 2', '"dim": ' + "9" * 5000))


def test_integer_coefficients_still_load():
    t = document_to_table(make_doc(brackets=[{"i": 0, "j": 1, "coefficients": {"a": 3, "b": "-1/2"}}]))
    assert t.bracket_map(0, 1) == {0: Fraction(3), 1: Fraction(-1, 2)}


def test_deeply_nested_json_is_a_schema_error():
    with pytest.raises(SchemaError, match="nested too deeply"):
        from_json_text("[" * 100_000 + "]" * 100_000)


@pytest.mark.parametrize("text", [
    '{"schema_version": "1", "dim": 2, "names": ["a", "b"], '
    '"brackets": [{"i": 0, "j": 1, "coefficients": {"a": "1", "a": "7"}}]}',
    '{"schema_version": "1", "dim": 2, "dim": 2, "names": ["a", "b"], "brackets": []}',
    '{"schema_version": "1", "dim": 2, "names": ["a", "b"], '
    '"brackets": [{"i": 0, "j": 1, "j": 1, "coefficients": {}}]}',
], ids=["coefficient", "top-level", "record"])
def test_a_key_stated_twice_in_one_object_is_refused(text):
    with pytest.raises(SchemaError, match="is stated twice in one object"):
        from_json_text(text)


def test_floats_rejected_at_json_layer():
    doc = make_doc()
    doc["brackets"][0]["coefficients"]["a"] = 0.5
    with pytest.raises(SchemaError, match="floats are not exact"):
        from_json_text(json.dumps(doc))
    with pytest.raises(SchemaError, match="not valid JSON"):
        from_json_text("{nope")


def test_csv_shape(golden):
    lines = to_csv(golden).splitlines()
    assert lines[0] == "i,j," + ",".join(golden.names)
    assert len(lines) == 1 + 91
    row = next(l for l in lines if l.startswith("x1,x2,"))
    vec = row.split(",")[2:]
    assert vec[golden.index_of("y3")] == "2"
    assert sum(1 for x in vec if x != "0") == 1


def test_latex_shape(golden):
    out = to_latex(golden)
    assert out.startswith("\\begin{tabular}")
    assert out.rstrip().endswith("\\end{tabular}")
    assert "$2y_3$" in out
    assert "$a_{12}$" in out
    body = [l for l in out.splitlines() if l.startswith("$")]
    assert len(body) == 14
    # last basis row has every off-diagonal cell blank to its left
    last = body[-1]
    assert last.split(" & ")[1:-1] == [""] * 13


def test_empty_table_rejected():
    empty = StructureTable((), {})
    with pytest.raises(ValueError, match="empty table"):
        to_csv(empty)
    with pytest.raises(ValueError, match="empty table"):
        to_latex(empty)


def test_latex_coefficient_spelling():
    t = StructureTable(("u", "v", "w"), {(0, 1, 2): Fraction(-1), (0, 2, 0): Fraction(1, 2)})
    out = to_latex(t)
    assert "$-w$" in out
    assert "$1/2u$" in out
    t2 = StructureTable(("u", "v", "w"), {(0, 1, 1): Fraction(1), (0, 1, 2): Fraction(3)})
    assert "$v+3w$" in to_latex(t2)
