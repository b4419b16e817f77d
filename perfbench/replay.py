"""Traced replay of one liepres command, in a fresh interpreter.

    python perfbench/replay.py SPANS.json <liepres arguments...>

Replays the command's call sequence through the layers' public functions, in
the order the CLI calls them, and writes the same standard output lines the
checker reads, the same --out file and the same exit code. Each layer call is
wrapped in a span; spans never nest, so a span's duration is its self time.
At exit the spans and the exact work counters are written to SPANS.json.

The replay mirrors the CLI's flow only for the commands the benchmark runs:
derive (engines both and rewriter), classify, verify and export.
"""

from __future__ import annotations

import json
import sys
import time
from contextlib import contextmanager

SPANS: list = []
COUNTERS: dict = {}


@contextmanager
def span(name: str):
    start = time.perf_counter()
    try:
        yield
    finally:
        SPANS.append({"name": name, "start": start, "end": time.perf_counter()})


def count(name: str, n: int) -> None:
    COUNTERS[name] = COUNTERS.get(name, 0) + n


with span("cli.import"):
    from liepres import analysis
    from liepres import cli
    from liepres.freelie import lyndon_words
    from liepres.g2 import g2_relations, named_basis_free, rewriter_structure_table
    from liepres.linalg import det
    from liepres.presentation import ParseError, parse_presentation
    from liepres.quotient import NamesNotBasisError, quotient_closure, rewriter_applicable, structure_table
    from liepres.tabledoc import load_table, save_table, to_csv, to_json_text, to_latex


def witt_total(alphabet: int, bound: int) -> int:
    """Number of Lyndon words of length 1..bound over the alphabet (Witt's formula)."""
    def mobius(n: int) -> int:
        result, p = 1, 2
        while p * p <= n:
            if n % p == 0:
                n //= p
                if n % p == 0:
                    return 0
                result = -result
            p += 1
        return -result if n > 1 else result
    return sum(sum(mobius(e) * alphabet ** (d // e) for e in range(1, d + 1) if d % e == 0) // d
               for d in range(1, bound + 1))


def derive(args) -> int:
    with span("presentation.parse"):
        with open(args.presentation, encoding="utf-8") as fh:
            text = fh.read()
        try:
            pres = parse_presentation(text)
        except ParseError:
            return 2

    if args.engine == "rewriter":
        if not rewriter_applicable(pres) or set(pres.relations) != set(g2_relations()):
            return 2
        with span("g2.rewriter_table"):
            table = rewriter_structure_table()
        with span("tabledoc.save"):
            save_table(table, args.out)
        return 0
    if args.engine != "both":
        raise SystemExit(f"replay: engine {args.engine!r} is not replayed")

    with span("quotient.closure"):
        try:
            qb = quotient_closure(pres, args.max_degree)
        except ValueError:
            return 2
    words = witt_total(qb.alphabet, qb.degree_bound)
    count("freelie.lyndon_words", words)
    count("quotient.pivots", words - qb.dim)
    count("quotient.dim", qb.dim)
    count("quotient.truncation_events", len(qb.truncation_events))
    with span("freelie.lyndon_words"):
        lyndon_words(qb.alphabet, min(qb.degree_bound, pres.max_relation_degree()))
    if not qb.stabilized:
        return 4

    if not rewriter_applicable(pres):
        with span("quotient.structure_table"):
            table = structure_table(pres, None, args.max_degree, qb=qb)
    else:
        with span("g2.rewriter_table"):
            rew = rewriter_structure_table()
        with span("g2.named_basis"):
            names = named_basis_free()
        with span("quotient.structure_table"):
            try:
                table = structure_table(pres, names, args.max_degree, qb=qb)
            except NamesNotBasisError:
                return 3
        with span("table.diff"):
            if table.diff(rew):
                return 3
    count("table.nonzeros", len(table.c))
    with span("tabledoc.save"):
        save_table(table, args.out)
    return 0


def classify(args) -> int:
    with span("tabledoc.load"):
        table = load_table(args.table)
    count("table.nonzeros", len(table.c))
    with span("analysis.jacobi"):
        if analysis.check_jacobi(table):
            return 5
    with span("analysis.derived_center"):
        analysis.derived_subalgebra_and_center(table)
    with span("analysis.killing"):
        killing = analysis.killing_form(table)
    with span("linalg.det"):
        degenerate = det(killing) == 0
    if degenerate:
        print("type: unrecognized (Killing form degenerate)")
        return 1
    with span("analysis.cartan_search"):
        cartan = analysis.find_cartan_candidate(table)
    if not cartan:
        return 1
    with span("analysis.cartan_check"):
        if not analysis.cartan_check(table, cartan).ok:
            return 1
    with span("analysis.roots"):
        try:
            rd = analysis.root_decomposition(table, cartan)
        except ValueError:
            return 1
    count("analysis.roots", len(rd.roots))
    with span("analysis.cartan_type"):
        _, name = analysis.cartan_matrix_and_type(rd)
    print(f"type: {name}")
    return 0 if name != "unrecognized" else 1


def verify(args) -> int:
    with span("tabledoc.load"):
        table = load_table(args.table)
        golden = load_table(args.golden)
    if table.names != golden.names:
        return 1
    with span("table.diff"):
        diffs = table.diff(golden)
    if diffs:
        return 1
    print(f"tables agree on all {table.dim * (table.dim - 1) // 2} bracket pairs")
    return 0


def export(args) -> int:
    with span("tabledoc.load"):
        table = load_table(args.table)
    with span("tabledoc.export"):
        text = {"json": to_json_text, "csv": to_csv, "latex": to_latex}[args.format](table)
    sys.stdout.write(text)
    return 0


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    args = cli.build_parser().parse_args(argv)
    code = {"derive": derive, "classify": classify, "verify": verify, "export": export}[args.command](args)
    sys.stdout.flush()
    with open(spans_path, "w", encoding="utf-8") as fh:
        json.dump({"spans": SPANS, "counters": COUNTERS}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
