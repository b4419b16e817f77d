"""Expected results and the output checker applied to every operation.

Expected results are the mathematically correct answers, written down or
formatted here without calling the program under test: the golden G2 table
bytes, the hand-checked sl2 and Heisenberg tables, and the CSV and LaTeX
renderings of the golden table.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from gen import fmt

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "src" / "liepres" / "fixtures"
GOLDEN_G2 = FIXTURES / "g2_table.json"

# [e,f] = h, [h,e] = 2e, [h,f] = -2f, stored for i < j.
SL2_TABLE = {
    "schema_version": "1", "dim": 3, "names": ["e", "f", "h"],
    "brackets": [
        {"i": 0, "j": 1, "coefficients": {"h": "1"}},
        {"i": 0, "j": 2, "coefficients": {"e": "-2"}},
        {"i": 1, "j": 2, "coefficients": {"f": "2"}},
    ],
}

# [p,q] is central; the quotient is spanned by p, q and [p,q].
HEISENBERG_TABLE = {
    "schema_version": "1", "dim": 3, "names": ["p", "q", "[p,q]"],
    "brackets": [{"i": 0, "j": 1, "coefficients": {"[p,q]": "1"}}],
}


def table_bytes(doc: dict) -> bytes:
    """The canonical file form of a table document."""
    return (json.dumps(doc, indent=2) + "\n").encode()


def _dense(doc: dict) -> dict:
    index = {n: k for k, n in enumerate(doc["names"])}
    out = {}
    for rec in doc["brackets"]:
        out[(rec["i"], rec["j"])] = {index[n]: Fraction(v) for n, v in rec["coefficients"].items()}
    return out


def csv_text(doc: dict) -> str:
    """Header of names, then one row per unordered pair with every coefficient."""
    names, pairs = doc["names"], _dense(doc)
    lines = ["i,j," + ",".join(names)]
    for i in range(len(names)):
        for j in range(i + 1, len(names)):
            row = pairs.get((i, j), {})
            lines.append(f"{names[i]},{names[j]}," + ",".join(fmt(row.get(k, Fraction(0))) for k in range(len(names))))
    return "\n".join(lines) + "\n"


def _latex_name(name: str) -> str:
    head = name.rstrip("0123456789")
    digits = name[len(head):]
    if not digits:
        return name
    return f"{head}_{digits}" if len(digits) == 1 else f"{head}_{{{digits}}}"


def latex_text(doc: dict) -> str:
    """Upper-triangular LaTeX tabular of the bracket table."""
    names, pairs = doc["names"], _dense(doc)
    n = len(names)
    lines = ["\\begin{tabular}{c|" + "c" * n + "}",
             " & " + " & ".join(f"${_latex_name(x)}$" for x in names) + " \\\\",
             "\\hline"]
    for i in range(n):
        cells = []
        for j in range(n):
            if j < i:
                cells.append("")
                continue
            terms = []
            for k, v in sorted(pairs.get((i, j), {}).items()):
                coeff = "" if v == 1 else ("-" if v == -1 else fmt(v))
                term = coeff + _latex_name(names[k])
                terms.append(term if not terms or term.startswith("-") else "+" + term)
            cells.append(f"${''.join(terms) or '0'}$")
        lines.append(f"${_latex_name(names[i])}$ & " + " & ".join(cells) + " \\\\")
    lines.append("\\end{tabular}")
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class Expect:
    """What a correct run of one command produces."""
    exit_code: int
    out_file: str | None = None      # the --out path of a derive
    out_bytes: bytes | None = None   # its bytes; None means no file may be written
    stdout: bytes | None = None      # the exact standard output
    line: str | None = None          # a line the standard output must hold


def check(expect: Expect, exit_code: int, stdout: bytes) -> str | None:
    """None when the output is correct, else the reason it is not."""
    if exit_code != expect.exit_code:
        return f"exit code {exit_code}, expected {expect.exit_code}"
    if expect.out_file is not None:
        path = Path(expect.out_file)
        if expect.out_bytes is None:
            if path.exists():
                return f"{path.name} was written, expected no table"
        elif not path.exists():
            return f"{path.name} was not written"
        elif path.read_bytes() != expect.out_bytes:
            return f"{path.name} differs from the expected table"
    if expect.stdout is not None and stdout != expect.stdout:
        return "standard output differs from the expected text"
    if expect.line is not None and expect.line not in stdout.decode(errors="replace").splitlines():
        return f"no line {expect.line!r} in the output"
    return None
