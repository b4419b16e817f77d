"""Serialization of structure tables: JSON document, CSV, LaTeX."""

import json
import os
import re
from fractions import Fraction

from .table import StructureTable

SCHEMA_VERSION = "1"


class SchemaError(ValueError):
    """The document does not match the table schema."""


# Decimal digits per chunk: below the least limit on integer string conversion
# that the interpreter accepts (640), so any integer can be written.
_CHUNK_DIGITS = 600
_CHUNK = 10 ** _CHUNK_DIGITS


def _int_str(n: int) -> str:
    """The decimal digits of any integer, converted one chunk of _CHUNK_DIGITS at a time."""
    if -_CHUNK < n < _CHUNK:
        return str(n)
    chunks = []
    rest = abs(n)
    while rest:
        rest, low = divmod(rest, _CHUNK)
        chunks.append(low)
    sign = "-" if n < 0 else ""
    return sign + str(chunks[-1]) + "".join(str(c).zfill(_CHUNK_DIGITS) for c in reversed(chunks[:-1]))


def format_rational(x: int | Fraction) -> str:
    """Lowest-terms string: "p" for integers, "p/q" otherwise, exact at any number of digits."""
    num = _int_str(x.numerator)
    return num if x.denominator == 1 else f"{num}/{_int_str(x.denominator)}"


_RATIONAL = re.compile(r"-?[0-9]+(/[0-9]+)?")


def _excerpt(x) -> str:
    text = repr(x)
    return text if len(text) <= 40 else text[:37] + "..."


def parse_rational(s) -> Fraction:
    """A coefficient as format_rational writes it, "p" or "p/q" in ASCII digits, or a JSON integer."""
    if _is_int(s):
        return Fraction(s)
    if not isinstance(s, str) or not _RATIONAL.fullmatch(s):
        raise SchemaError(f"bad rational {_excerpt(s)}: coefficients must be strings \"p\" or \"p/q\"")
    try:
        return Fraction(s)
    except ZeroDivisionError:
        raise SchemaError(f"bad rational {_excerpt(s)}: zero denominator") from None
    except ValueError:  # past the interpreter's limit on digits
        raise SchemaError(f"bad rational {_excerpt(s)}: too many digits") from None


def table_to_document(t: StructureTable) -> dict:
    """Canonical JSON-shaped document: brackets sorted by (i, j), zero pairs omitted."""
    brackets = []
    for i, ad in enumerate(t.ad):
        for j in sorted(k for k in ad if k > i):
            coeffs = ad[j]
            brackets.append({
                "i": i,
                "j": j,
                "coefficients": {t.names[k]: format_rational(coeffs[k]) for k in sorted(coeffs)},
            })
    return {
        "schema_version": SCHEMA_VERSION,
        "dim": t.dim,
        "names": list(t.names),
        "brackets": brackets,
    }


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def document_to_table(doc) -> StructureTable:
    if not isinstance(doc, dict):
        raise SchemaError("document must be a JSON object")
    if doc.get("schema_version") != SCHEMA_VERSION:
        raise SchemaError(f"unsupported schema_version: {doc.get('schema_version')!r}")
    for field in ("dim", "names", "brackets"):
        if field not in doc:
            raise SchemaError(f"missing field: {field}")
    names = doc["names"]
    if not isinstance(names, list) or not all(isinstance(n, str) for n in names):
        raise SchemaError("names must be a list of strings")
    if not _is_int(doc["dim"]) or doc["dim"] != len(names):
        raise SchemaError(f"dim {doc['dim']} does not match {len(names)} names")
    index = {n: k for k, n in enumerate(names)}
    if len(index) != len(names):
        raise SchemaError("duplicate names")
    if not isinstance(doc["brackets"], list):
        raise SchemaError("brackets must be a list")
    c = {}
    pairs = set()
    for rec in doc["brackets"]:
        if (not isinstance(rec, dict) or not {"i", "j", "coefficients"} <= set(rec)
                or not isinstance(rec["coefficients"], dict)):
            raise SchemaError(f"bad bracket record: {rec!r}")
        i, j = rec["i"], rec["j"]
        if not (_is_int(i) and _is_int(j) and 0 <= i < j < len(names)):
            raise SchemaError(f"bracket indices must satisfy 0 <= i < j < dim: {(i, j)}")
        if (i, j) in pairs:
            raise SchemaError(f"bracket {(i, j)} is stated twice")
        pairs.add((i, j))
        for name, val in rec["coefficients"].items():
            if name not in index:
                raise SchemaError(f"unknown coefficient name {name!r}")
            c[(i, j, index[name])] = parse_rational(val)
    return StructureTable(names, c)


def to_json_text(t: StructureTable) -> str:
    """Byte-deterministic JSON serialization."""
    return json.dumps(table_to_document(t), indent=2, sort_keys=False) + "\n"


def _json_int(s: str) -> int:
    try:
        return int(s)
    except ValueError:  # past the interpreter's limit on digits
        raise SchemaError(f"integer of {len(s.lstrip('-'))} digits is too long") from None


def _json_object(pairs) -> dict:
    """A JSON object, refused when it states a key twice (json.loads alone keeps the last value)."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise SchemaError(f"key {_excerpt(key)} is stated twice in one object")
        obj[key] = value
    return obj


def from_json_text(text: str) -> StructureTable:
    try:
        doc = json.loads(text, parse_int=_json_int, object_pairs_hook=_json_object,
                         parse_float=lambda s: (_ for _ in ()).throw(SchemaError("floats are not exact")))
    except json.JSONDecodeError as e:
        raise SchemaError(f"not valid JSON: {e}") from None
    except RecursionError:
        raise SchemaError("JSON nested too deeply") from None
    return document_to_table(doc)


def load_table(path) -> StructureTable:
    with open(path, "r", encoding="utf-8-sig") as f:  # a leading BOM is dropped (RFC 8259, 8.1)
        return from_json_text(f.read())


def save_table(t: StructureTable, path) -> None:
    """Write t as JSON to path; a write that fails once the file is open removes it."""
    text = to_json_text(t)
    f = open(path, "w", encoding="utf-8")
    try:
        with f:
            f.write(text)
    except OSError:
        if os.path.isfile(path):  # a device path such as /dev/full is never removed
            os.remove(path)
        raise


def _csv_field(name: str) -> str:
    """A name as one CSV field: quoted, each inner quote doubled, if it holds a comma, quote, CR or LF (RFC 4180)."""
    return '"' + name.replace('"', '""') + '"' if any(ch in name for ch in ',"\r\n') else name


def csv_rows(t: StructureTable):
    """Header of names, then one row per unordered pair (zero brackets included): the
    CSV lines, each made when it is read.  An empty table raises ValueError at once."""
    if t.dim == 0:
        raise ValueError("empty table")
    names = [_csv_field(n) for n in t.names]

    def rows():
        yield "i,j," + ",".join(names) + "\n"
        for i in range(t.dim):
            for j in range(i + 1, t.dim):
                vec = t.bracket_map(i, j)
                cells = ",".join(format_rational(vec.get(k, 0)) for k in range(t.dim))
                yield f"{names[i]},{names[j]},{cells}\n"
    return rows()


def to_csv(t: StructureTable) -> str:
    """The table as one CSV string: the lines of `csv_rows`."""
    return "".join(csv_rows(t))


# & % # $ cannot be part of a math-mode name, so they are escaped; \ { } ^ ~ _ are kept,
# because a name may be written in LaTeX on purpose (x_1, \alpha)
_LATEX_ESCAPES = str.maketrans({"&": r"\&", "%": r"\%", "#": r"\#", "$": r"\$"})


def _latex_name(name: str) -> str:
    # x1 -> x_1, a12 -> a_{12}; a name with no trailing digits, or with a "_" (x_1), is emitted verbatim
    name = name.translate(_LATEX_ESCAPES)
    head = name.rstrip("0123456789")
    digits = name[len(head):]
    if not digits or "_" in name:
        return name
    return f"{head}_{digits}" if len(digits) == 1 else f"{head}_{{{digits}}}"


def _latex_cell(t: StructureTable, i: int, j: int) -> str:
    terms = t.bracket_map(i, j)
    if not terms:
        return "0"
    bits = []
    for k, v in sorted(terms.items()):
        coeff = "" if v == 1 else ("-" if v == -1 else format_rational(v))
        term = f"{coeff}{_latex_name(t.names[k])}"
        if bits and not term.startswith("-"):
            term = "+" + term
        bits.append(term)
    return "".join(bits)


def to_latex(t: StructureTable) -> str:
    """Upper-triangular bracket table as a LaTeX tabular."""
    if t.dim == 0:
        raise ValueError("empty table")
    cols = "c|" + "c" * t.dim
    lines = [
        "\\begin{tabular}{" + cols + "}",
        " & " + " & ".join(f"${_latex_name(n)}$" for n in t.names) + " \\\\",
        "\\hline",
    ]
    for i in range(t.dim):
        cells = []
        for j in range(t.dim):
            if j < i:
                cells.append("")
            elif j == i:
                cells.append("$0$")
            else:
                cells.append(f"${_latex_cell(t, i, j)}$")
        lines.append(f"${_latex_name(t.names[i])}$ & " + " & ".join(cells) + " \\\\")
    lines.append("\\end{tabular}")
    return "\n".join(lines) + "\n"
