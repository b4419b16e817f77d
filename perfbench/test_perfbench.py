"""Self-tests of the benchmark: generators, checker, limits and metric names.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import random
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import gen  # noqa: E402
import run  # noqa: E402
from check import (FIXTURES, GOLDEN_G2, SL2_TABLE, Expect, check, csv_text, latex_text,  # noqa: E402
                   table_bytes)
from liepres import analysis  # noqa: E402
from liepres.presentation import parse_presentation  # noqa: E402
from liepres.quotient import quotient_closure, structure_table  # noqa: E402
from liepres.tabledoc import from_json_text, load_table, to_csv, to_json_text, to_latex  # noqa: E402

G2_TEXT = (FIXTURES / "g2.lp").read_text()
GOLDEN_DOC = json.loads(GOLDEN_G2.read_text())


def test_generators_are_deterministic_per_seed():
    for make in (lambda rng: gen.presentation_variant(G2_TEXT, rng),
                 lambda rng: gen.table_variant(GOLDEN_DOC, rng)):
        assert make(random.Random("7/x")) == make(random.Random("7/x"))
        assert make(random.Random("7/x")) != make(random.Random("8/x"))


def test_workload_streams_repeat_for_a_seed(tmp_path):
    for name, make in run.WORKLOADS.items():
        streams = []
        for side in ("a", "b"):
            work = tmp_path / f"{name}-{side}"
            work.mkdir()
            kinds = [op.kind for op, _ in zip(make(3, work), range(10))]
            streams.append((kinds, sorted(p.read_text() for p in work.iterdir())))
        assert streams[0] == streams[1]


def test_presentation_variant_scales_each_relation():
    original = parse_presentation(G2_TEXT).relations
    variant = parse_presentation(gen.presentation_variant(G2_TEXT, random.Random(1))).relations
    assert len(variant) == len(original)
    for rel in variant:
        w = next(iter(rel.terms))
        assert any(rel == (rel.terms[w] / o.terms[w]) * o for o in original if w in o.terms)


def test_table_variant_satisfies_jacobi(tmp_path):
    path = tmp_path / "v.json"
    path.write_text(gen.table_variant(GOLDEN_DOC, random.Random(2)))
    table = load_table(path)
    assert analysis.check_jacobi(table) == []
    assert len(table.c) == 60
    assert sorted(table.names) == sorted(GOLDEN_DOC["names"])


def test_unscaled_table_variant_is_a_relabelling():
    doc = json.loads(gen.table_variant(GOLDEN_DOC, random.Random(3), [Fraction(1)] * 14))
    golden = from_json_text(GOLDEN_G2.read_text())
    variant = from_json_text(json.dumps(doc))
    index = {n: k for k, n in enumerate(variant.names)}
    for (i, j, k), v in golden.c.items():
        a, b = index[golden.names[i]], index[golden.names[j]]
        sign = 1 if a < b else -1
        assert variant.c[(min(a, b), max(a, b), index[golden.names[k]])] == sign * v


def test_expected_texts_match_the_golden_rendering():
    golden = load_table(GOLDEN_G2)
    assert table_bytes(GOLDEN_DOC) == GOLDEN_G2.read_bytes()
    assert csv_text(GOLDEN_DOC) == to_csv(golden)
    assert latex_text(GOLDEN_DOC) == to_latex(golden)


def test_checker_accepts_the_golden_table(tmp_path):
    out = tmp_path / "t.json"
    out.write_bytes(GOLDEN_G2.read_bytes())
    assert check(Expect(0, str(out), GOLDEN_G2.read_bytes()), 0, b"") is None


def test_checker_rejects_a_corrupted_table(tmp_path):
    out = tmp_path / "t.json"
    doc = json.loads(GOLDEN_G2.read_text())
    doc["brackets"][0]["coefficients"] = {k: "3" for k in doc["brackets"][0]["coefficients"]}
    out.write_bytes(table_bytes(doc))
    assert check(Expect(0, str(out), GOLDEN_G2.read_bytes()), 0, b"") is not None
    out.unlink()
    assert check(Expect(0, str(out), GOLDEN_G2.read_bytes()), 0, b"") is not None


def test_checker_rejects_the_table_of_the_mutated_presentation(tmp_path):
    pres = parse_presentation((FIXTURES / "g2_mutated.lp").read_text())
    qb = quotient_closure(pres, 6)
    out = tmp_path / "mutated.json"
    out.write_text(to_json_text(structure_table(pres, None, qb=qb)))
    assert check(Expect(0, str(out), GOLDEN_G2.read_bytes()), 0, b"") is not None


def test_checker_rejects_a_wrong_type_line_and_exit_code():
    expect = Expect(0, line="type: G2")
    assert check(expect, 0, b"jacobi: ok (364 triples)\ntype: G2\n") is None
    assert check(expect, 0, b"jacobi: ok (364 triples)\ntype: B2\n") is not None
    assert check(expect, 0, b"type: G2 (unrecognized)\n") is not None
    assert check(expect, 1, b"type: G2\n") is not None
    assert check(Expect(4, "/nonexistent/out.json", None), 4, b"") is None


def test_sl2_expected_table_is_sl2(tmp_path):
    path = tmp_path / "sl2.json"
    path.write_bytes(table_bytes(SL2_TABLE))
    table = load_table(path)
    rd = analysis.root_decomposition(table, analysis.find_cartan_candidate(table))
    assert analysis.cartan_matrix_and_type(rd)[1] == "A1"


def test_spawn_kills_an_operation_at_the_limit(tmp_path):
    start = time.perf_counter()
    wall, _, _, timed_out = run.spawn([sys.executable, "-c", "import time; time.sleep(60)"],
                                      tmp_path / "out.txt", 0.5)
    assert timed_out
    assert 0.5 <= wall < 10 and time.perf_counter() - start < 10


def test_replay_counts_lyndon_words_by_witt_formula():
    import replay
    assert replay.witt_total(3, 8) == 1318
    assert replay.witt_total(3, 9) == 3502
    assert replay.witt_total(2, 3) == 5


def test_metric_names_match_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == run.per_layer_names()
    assert {w["name"] for w in spec["workloads"]} == set(run.TRACED)
