"""Command line front end: derive, verify, classify, export, free.

Every command runs in a fresh interpreter, so each imports the engine modules it
runs inside its own function: `import liepres.cli` loads no engine module, and
`classify`, for one, never loads the free Lie algebra or the closure.
"""

import argparse
import os
import sys

_NOT_G2 = "the rewriter engine needs 3 generators and relations spanning the standard quadruple relations"


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _vec_str(coeffs: dict, names) -> str:
    """Human form of a sparse coefficient map, e.g. 2*y3 - h1."""
    from .presentation import combination_text
    return combination_text((names[k], coeffs[k]) for k in sorted(coeffs))


def _load_presentation(path: str):
    from .presentation import ParseError, parse_presentation
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        print(f"error: cannot read {path}: {exc}", file=sys.stderr)
        return None
    try:
        return parse_presentation(text)
    except ParseError as exc:
        print(f"error: {path}: {exc}", file=sys.stderr)
        return None


def _load_table(path: str):
    """The table at path, or None after printing the error (a SchemaError is a ValueError)."""
    from .tabledoc import load_table
    try:
        return load_table(path)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return None


def _print_closure_report(qb, cert) -> None:
    from .freelie import lyndon_counts
    print(f"degree bound: {qb.degree_bound}")
    print(f"dim = {qb.dim}")
    print(f"certified: {'yes' if cert.ok else 'no'} ({cert.detail})")
    top = min(qb.degree_bound, qb._presentation.max_relation_degree())
    if top:
        survive = qb.dims_by_degree()
        for d, count in enumerate(lyndon_counts(qb.alphabet, top), start=1):
            if count:
                print(f"degree {d}: {count} Lyndon words, {survive.get(d, 0)} independent in the quotient")


def _write_table(table, out_path: str | None) -> int:
    """Write the table to out_path, if given; 2 after printing why it cannot be written or read back.

    The report goes out first: when standard output fails, its OSError reaches
    `main` before the table is written, in either buffering mode.
    """
    if out_path:
        from .tabledoc import SchemaError, save_table
        sys.stdout.flush()
        try:
            save_table(table, out_path)
        except (OSError, SchemaError) as exc:
            print(f"error: cannot write {out_path}: {exc}", file=sys.stderr)
            return 2
        print(f"wrote {out_path}")
    return 0


def cmd_derive(args) -> int:
    from .g2 import has_g2_shape, named_basis_free, spans_g2
    from .quotient import NamesNotBasisError, certify, closure_levels, renamed

    pres = _load_presentation(args.presentation)
    if pres is None:
        return 2
    rewriter = args.engine == "rewriter"
    if rewriter and not has_g2_shape(pres):
        print(f"error: {_NOT_G2}; use --engine both", file=sys.stderr)
        return 2

    # One closure climbs from the relations' degree to the ceiling and stops at the
    # first bound that certifies.  The rewriter needs its first level to be G2's,
    # which certifies, so its climb never passes that level.
    try:
        for qb in closure_levels(pres, args.max_degree):
            if rewriter and not spans_g2(qb):
                print(f"error: {_NOT_G2}; use --engine both", file=sys.stderr)
                return 2
            cert = certify(qb)
            if cert.ok:
                break
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    _print_closure_report(qb, cert)
    if not cert.ok:
        print(f"quotient not certified up to degree bound {qb.degree_bound}; "
              "rerun with a larger --max-degree", file=sys.stderr)
        return 4

    # A certified level that is g2.lp's is named over g2's basis; under the
    # rewriter the gate in the climb has shown that it is.
    names = named_basis_free() if rewriter or spans_g2(qb) else None
    try:
        table = renamed(qb, cert.table, names)
    except NamesNotBasisError:
        print("error: g2's named basis is not a basis of the certified quotient", file=sys.stderr)
        return 3
    return _write_table(table, args.out)


def cmd_verify(args) -> int:
    table = _load_table(args.table)
    golden = _load_table(args.golden) if table is not None else None
    if golden is None:
        return 2
    if table.names != golden.names:
        print("tables differ: basis names do not match")
        print(f"  table:  {' '.join(table.names)}")
        print(f"  golden: {' '.join(golden.names)}")
        return 1
    diffs = table.diff(golden)
    if not diffs:
        print(f"tables agree on all {table.dim * (table.dim - 1) // 2} bracket pairs")
        return 0
    print(f"tables differ on {len(diffs)} bracket pairs:")
    for i, j, mine, theirs in diffs:
        print(f"  [{table.names[i]},{table.names[j]}]: "
              f"table has {_vec_str(mine, table.names)}, "
              f"golden has {_vec_str(theirs, golden.names)}")
    return 1


def cmd_classify(args) -> int:
    from . import analysis
    from .linalg import det
    from .tabledoc import format_rational

    table = _load_table(args.table)
    if table is None:
        return 2
    n = table.dim
    violations = analysis.check_jacobi(table)
    triples = n * (n - 1) * (n - 2) // 6
    if violations:
        i, j, k, _ = violations[0]
        print(f"jacobi: FAIL at ({table.names[i]},{table.names[j]},{table.names[k]}) "
              f"and {len(violations) - 1} more of {triples} triples", file=sys.stderr)
        return 5
    print(f"jacobi: ok ({triples} triples)")
    dc = analysis.derived_subalgebra_and_center(table)
    print(f"derived dim: {len(dc.derived_basis)}")
    print(f"center dim: {len(dc.center_basis)}")
    K = analysis.killing_form(table)
    kd = det(K)
    print(f"killing determinant: {format_rational(kd)} ({'nonzero' if kd != 0 else 'zero: degenerate'})")
    if n == 0:
        print("type: unrecognized (zero algebra)")
        return 1
    if kd == 0:
        series = analysis.lower_central_dims(table)
        if series[-1] == 0:
            print("type: unrecognized (nilpotent: Killing form degenerate)")
        else:
            print("type: unrecognized (Killing form degenerate)")
        return 1
    cartan = analysis.find_cartan_candidate(table)
    if not cartan:
        print("type: unrecognized (no Cartan candidate among the basis elements)")
        return 1
    check = analysis.cartan_check(table, cartan)
    if not check.ok:
        print(f"type: unrecognized (candidate {[table.names[i] for i in cartan]} fails the Cartan check)")
        return 1
    print(f"cartan: {' '.join(table.names[i] for i in cartan)}")
    try:
        rd = analysis.root_decomposition(table, cartan)
    except ValueError as exc:
        print(f"type: unrecognized ({exc})")
        return 1
    mults = sorted({len(rd.root_spaces[r]) for r in rd.roots})
    print(f"roots: {len(rd.roots)} (multiplicities: {' '.join(str(m) for m in mults)})")
    A, name = analysis.cartan_matrix_and_type(rd)
    if A is not None:
        print("cartan matrix: " + "[" + ", ".join("[" + ", ".join(str(x) for x in row) + "]" for row in A) + "]")
    print(f"type: {name}")
    return 0 if name != "unrecognized" else 1


def cmd_export(args) -> int:
    from .tabledoc import csv_rows, to_json_text, to_latex

    table = _load_table(args.table)
    if table is None:
        return 2
    try:
        # csv rows are written as they are made; json and latex are one string each
        lines = (csv_rows(table) if args.format == "csv"
                 else [to_json_text(table) if args.format == "json" else to_latex(table)])
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    sys.stdout.writelines(lines)
    return 0


def cmd_free(args) -> int:
    from .freelie import check_word_budget, lyndon_counts

    try:
        check_word_budget(args.alphabet, args.max_degree)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    counts = list(lyndon_counts(args.alphabet, args.max_degree))
    print(f"{' '.join(str(c) for c in counts)}, total {sum(counts)}")
    return 0


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose help and usage on standard output may fail.

    argparse drops an OSError from writing a message; one from standard output
    goes on to `main`, as it does when the write is buffered and fails at the flush.
    """

    def _print_message(self, message, file=None):
        if message and file is sys.stdout:
            file.write(message)
        else:
            super()._print_message(message, file)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="liepres",
        description="Exact-arithmetic engine for finitely presented Lie algebras over the rationals.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("derive", help="derive the quotient table from a presentation file")
    p.add_argument("presentation", help="presentation file (.lp)")
    p.add_argument("--max-degree", type=_positive_int, default=8,
                   help="highest degree bound the closure climbs to (default 8)")
    p.add_argument("--engine", choices=("rewriter", "both"), default="both",
                   help="both (default) certifies any presentation and renames a G2 level to the named "
                        "basis; rewriter also refuses input whose relations do not span those of g2.lp")
    p.add_argument("--out", help="write the derived table as JSON to this path")
    p.set_defaults(func=cmd_derive)

    p = sub.add_parser("verify", help="compare a table against a golden table")
    p.add_argument("--table", required=True)
    p.add_argument("--golden", required=True)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("classify", help="certify a table and identify its type")
    p.add_argument("--table", required=True)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("export", help="print a table as json, csv, or latex")
    p.add_argument("--table", required=True)
    p.add_argument("--format", choices=("json", "csv", "latex"), required=True)
    p.set_defaults(func=cmd_export)

    p = sub.add_parser("free", help="per-degree Lyndon basis counts of the free Lie algebra")
    p.add_argument("--alphabet", type=_positive_int, required=True)
    p.add_argument("--max-degree", type=_positive_int, required=True)
    p.set_defaults(func=cmd_free)

    return parser


def main(argv=None) -> int:
    """Run one command; 2 after printing the error when standard output or error cannot be written.

    Each command reports the files it reads and writes itself, so an OSError
    that reaches here is a failed write to standard output or standard error: a
    full disk, or a reader that closed the pipe.  The final flushes meet it before
    exit, and each stream that still fails then points at devnull so that the
    flush at shutdown cannot fail again (the "Note on SIGPIPE" in the
    documentation of Python's `signal`).  When only standard error failed, the
    report still goes out and the error message goes nowhere.
    """
    parser = build_parser()
    try:
        try:
            args = parser.parse_args(argv)
        except SystemExit as exc:
            code = int(exc.code or 0)
        else:
            code = args.func(args)
        sys.stdout.flush()
        sys.stderr.flush()
    except OSError as exc:
        _write_or_drop(sys.stdout, "")
        _write_or_drop(sys.stderr, f"error: cannot write standard output: {exc}\n")
        return 2
    return code


def _write_or_drop(stream, text: str) -> None:
    """Write text to stream and flush it, or point the stream at devnull when it fails."""
    try:
        stream.write(text)
        stream.flush()
    except OSError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), stream.fileno())


if __name__ == "__main__":
    sys.exit(main())
