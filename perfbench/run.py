"""Benchmark of the liepres command line, one cold interpreter per command.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Every operation is one `liepres` command in a
fresh interpreter (`python -m liepres.cli`), so the engine's process-wide caches
start cold each time, as they do for a user. The loop is closed, with a single
client and one child at a time; latency is measured here, from spawn to exit.
Inputs are generated from --seed, and every output is checked against the
mathematically correct answer (check.py): a wrong answer or a run past
OP_LIMIT_S counts as a failed operation.

Workloads (see BENCHMARK.json for why each was chosen):
  derive-g2-b9    derive <G2 variant>.lp --max-degree 9, default engine both
  classify-g2     classify --table <permuted, rescaled G2 table>
  cli-mix         short commands: verify, export, classify sl2, small derives,
                  derive --engine rewriter
  known-defects   the inputs that fail today (not part of BENCHMARK.json)
  all             the four above, one after the other, so that the known
                  defects show in the overall failed count

Input properties:
- Relation order moves the closure's time (about 2.1 to 3.5 s per G2 derive at
  bound 9 with the same pivots), so every derive gets its own seeded order and
  a run's median is taken over about ten orders.
- Relation and basis rescales check that answers stay exact under scaling. The
  basis factors stay small (|s| <= 10, 1/2, 1/3): classify's rational-root
  search runs for minutes once an h element is scaled by 100, which the
  known-defects workload shows.
- cli-mix shuffles each pass of its eight commands, so no command always
  follows another, and stops only between passes, so every run has the same mix.

With --trace 0 the run reports the end-to-end metrics of BENCHMARK.json. With
--trace 1 it replays one pass of every workload through replay.py, each command
once untraced and once traced, and reports per-layer self times and exact work
counters named <workload>.<layer>. The last line of standard output is the
result as one JSON object.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import gen
from check import (FIXTURES, GOLDEN_G2, HEISENBERG_TABLE, ROOT, SL2_TABLE, Expect, check,
                   csv_text, latex_text, table_bytes)

HERE = Path(__file__).resolve().parent
OP_LIMIT_S = 30.0      # a G2 classify takes about 10 s; the x100 one runs for minutes
SETUP_SPAWNS = 5       # cold imports before the first operation; one more follows each pass
TAIL_MIN_BEYOND = 10   # latency_tail_s needs this many operations above it

END_TO_END = {"latency_p50_s": "s", "ops_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}

# Spans each workload's commands pass through, in replay.py's names, and the
# exact counters they report. Layers a workload never calls are left out.
DERIVE_LAYERS = ("presentation.parse", "quotient.closure", "freelie.lyndon_words",
                 "g2.rewriter_table", "g2.named_basis", "quotient.structure_table",
                 "table.diff", "tabledoc.save")
ANALYSIS_LAYERS = ("analysis.jacobi", "analysis.derived_center", "analysis.killing", "linalg.det",
                   "analysis.cartan_search", "analysis.cartan_check", "analysis.roots",
                   "analysis.cartan_type")
CLOSURE_COUNTERS = ("freelie.lyndon_words", "quotient.pivots", "quotient.dim",
                    "quotient.truncation_events", "table.nonzeros")
TRACED = {
    "derive-g2-b9": (("cli.import",) + DERIVE_LAYERS, CLOSURE_COUNTERS),
    "classify-g2": (("cli.import", "tabledoc.load") + ANALYSIS_LAYERS,
                    ("table.nonzeros", "analysis.roots")),
    "cli-mix": (("cli.import", "presentation.parse", "quotient.closure", "freelie.lyndon_words",
                 "g2.rewriter_table", "quotient.structure_table", "table.diff", "tabledoc.load",
                 "tabledoc.save", "tabledoc.export") + ANALYSIS_LAYERS,
                CLOSURE_COUNTERS + ("analysis.roots",)),
}
# Derived per-layer times: wall time outside every span, and traced minus untraced wall.
DERIVED_TIMES = ("cli.other", "trace.overhead")


def per_layer_names() -> list:
    """(name, unit) of every per-layer metric, in report order."""
    out = []
    for w, (layers, counters) in TRACED.items():
        out += [(f"{w}.{x}_s", "s") for x in layers + DERIVED_TIMES]
        out += [(f"{w}.{x}", "count") for x in counters]
    return out


@dataclass(frozen=True)
class Op:
    kind: str
    args: tuple      # the liepres arguments
    expect: Expect


@dataclass
class Result:
    op: Op
    wall_s: float
    rss_kb: int
    failure: str | None


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def spawn(argv: list, stdout_path: Path, limit: float) -> tuple:
    """Run argv to completion or kill it at the limit: (wall_s, exit_code, max_rss_kb, timed_out).

    The child is waited for with WNOWAIT first, so the clock stops the moment it
    exits and the kill timer can never signal a reaped (reusable) pid.
    """
    lock = threading.Lock()
    state = {"exited": False, "killed": False}
    with open(stdout_path, "wb") as out, open(stdout_path.with_suffix(".err"), "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=child_env(), cwd=ROOT)

    def kill():
        with lock:
            if not state["exited"]:
                os.kill(proc.pid, signal.SIGKILL)
                state["killed"] = True

    timer = threading.Timer(limit, kill)
    timer.start()
    try:
        os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
        wall = time.perf_counter() - start
        with lock:
            state["exited"] = True
    finally:
        timer.cancel()
        if not state["exited"]:   # interrupted: the child is still ours to kill
            os.kill(proc.pid, signal.SIGKILL)
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, proc.returncode, usage.ru_maxrss, state["killed"]


def run_op(op: Op, prefix: list, work: Path) -> Result:
    if op.expect.out_file:
        Path(op.expect.out_file).unlink(missing_ok=True)
    stdout_path = work / "stdout.txt"
    wall, code, rss_kb, timed_out = spawn(prefix + list(op.args), stdout_path, OP_LIMIT_S)
    if timed_out:
        failure = f"ran past the {OP_LIMIT_S:g} s limit"
    else:
        failure = check(op.expect, code, stdout_path.read_bytes())
        if failure:
            err = stdout_path.with_suffix(".err").read_text(errors="replace").strip().splitlines()
            failure += f" ({err[-1]})" if err else ""
    return Result(op, wall, rss_kb, failure)


CLI = [sys.executable, "-m", "liepres.cli"]


# --- workloads: endless seeded operation streams --------------------------------

def _g2_text() -> str:
    return (FIXTURES / "g2.lp").read_text(encoding="utf-8")


def derive_g2_b9(seed: int, work: Path):
    """G2 with shuffled relations, each scaled by a random rational; bound 9."""
    text, golden = _g2_text(), GOLDEN_G2.read_bytes()
    for k in itertools.count():
        rng = random.Random(f"{seed}/derive-g2-b9/{k}")
        lp, out = work / f"b9-{k}.lp", work / f"b9-{k}.json"
        lp.write_text(gen.presentation_variant(text, rng), encoding="utf-8")
        yield Op("derive-g2-b9", ("derive", str(lp), "--max-degree", "9", "--out", str(out)),
                 Expect(0, str(out), golden))


def classify_g2(seed: int, work: Path):
    """The golden G2 table in a permuted basis, each element rescaled by a small factor."""
    doc = json.loads(GOLDEN_G2.read_text(encoding="utf-8"))
    for k in itertools.count():
        rng = random.Random(f"{seed}/classify-g2/{k}")
        path = work / f"g2-{k}.json"
        path.write_text(gen.table_variant(doc, rng), encoding="utf-8")
        yield Op("classify-g2", ("classify", "--table", str(path)), Expect(0, line="type: G2"))


def cli_mix(seed: int, work: Path):
    """Passes of eight short commands, each pass in its own seeded order."""
    text, golden = _g2_text(), GOLDEN_G2.read_bytes()
    doc = json.loads(golden)
    table = work / "g2-table.json"
    table.write_bytes(golden)
    csv, latex = csv_text(doc).encode(), latex_text(doc).encode()
    for p in itertools.count():
        rng = random.Random(f"{seed}/cli-mix/{p}")
        shuffled, sl2 = work / f"mix-{p}.lp", work / f"mix-{p}-sl2.json"
        shuffled.write_text(gen.presentation_variant(text, rng, rescale=False), encoding="utf-8")
        sl2.write_text(gen.table_variant(SL2_TABLE, rng), encoding="utf-8")
        out = {k: str(work / f"mix-{p}-{k}.json") for k in ("heis", "sl2", "mut", "rew")}
        ops = [
            Op("verify", ("verify", "--table", str(table), "--golden", str(GOLDEN_G2)),
               Expect(0, line="tables agree on all 91 bracket pairs")),
            Op("export-csv", ("export", "--table", str(table), "--format", "csv"), Expect(0, stdout=csv)),
            Op("export-latex", ("export", "--table", str(table), "--format", "latex"), Expect(0, stdout=latex)),
            Op("classify-sl2", ("classify", "--table", str(sl2)), Expect(0, line="type: A1")),
            Op("derive-heisenberg", ("derive", str(FIXTURES / "heisenberg.lp"), "--out", out["heis"]),
               Expect(0, out["heis"], table_bytes(HEISENBERG_TABLE))),
            Op("derive-sl2", ("derive", str(FIXTURES / "sl2.lp"), "--out", out["sl2"]),
               Expect(0, out["sl2"], table_bytes(SL2_TABLE))),
            # the quotient collapses at bound 8, so the correct answer is "not stabilized"
            Op("derive-g2-mutated", ("derive", str(FIXTURES / "g2_mutated.lp"), "--out", out["mut"]),
               Expect(4, out["mut"], None)),
            Op("derive-rewriter", ("derive", str(shuffled), "--engine", "rewriter", "--out", out["rew"]),
               Expect(0, out["rew"], golden)),
        ]
        rng.shuffle(ops)
        yield from ops


def known_defects(seed: int, work: Path):
    """Inputs whose correct answer the program does not give today."""
    text, golden = _g2_text(), GOLDEN_G2.read_bytes()
    doc = json.loads(golden)
    rng = random.Random(f"{seed}/known-defects")
    scales = [s * rng.choice((1, -1)) for s in rng.choices(gen.SMALL_SCALES, k=doc["dim"])]
    scales[doc["names"].index("h1")] = gen.LARGE_SCALE
    path = work / "g2-x100.json"
    path.write_text(gen.table_variant(doc, rng, scales), encoding="utf-8")
    yield Op("classify-g2-x100", ("classify", "--table", str(path)), Expect(0, line="type: G2"))
    lp, out = work / "rescaled.lp", work / "rescaled.json"
    lp.write_text(gen.presentation_variant(text, rng), encoding="utf-8")
    yield Op("derive-rewriter-rescaled", ("derive", str(lp), "--engine", "rewriter", "--out", str(out)),
             Expect(0, str(out), golden))


WORKLOADS = {"derive-g2-b9": derive_g2_b9, "classify-g2": classify_g2, "cli-mix": cli_mix,
             "known-defects": known_defects}
PASS_OPS = {"derive-g2-b9": 1, "classify-g2": 1, "cli-mix": 8, "known-defects": 2}


# --- measurement ----------------------------------------------------------------

def import_time(work: Path) -> float:
    """Wall time of one cold interpreter importing liepres.cli."""
    wall, code, _, _ = spawn([sys.executable, "-c", "import liepres.cli"], work / "setup.txt", OP_LIMIT_S)
    if code != 0:
        err = (work / "setup.err").read_text(errors="replace").strip()
        raise SystemExit(f"error: cannot import liepres.cli from {ROOT / 'src'}: {err}")
    return wall


def report_failures(results: list) -> None:
    for r in results:
        if r.failure:
            print(f"  FAILED {r.op.kind}: {r.failure}")


def run_untraced(workload: str, seed: int, seconds: float, work: Path) -> dict:
    import_time(work)   # writes the bytecode caches, as a user's first command does
    setup = [import_time(work) for _ in range(SETUP_SPAWNS)]
    results = []
    start = time.perf_counter()
    for op in WORKLOADS[workload](seed, work):
        if results and len(results) % PASS_OPS[workload] == 0:
            # stop only between passes, so every run holds whole passes of the mix
            if time.perf_counter() - start >= seconds:
                break
            # this host has slow spells of about a second; sampling set-up between
            # passes spreads its samples over the whole run
            setup.append(import_time(work))
        results.append(run_op(op, CLI, work))
    elapsed = time.perf_counter() - start - sum(setup[SETUP_SPAWNS:])
    failed = sum(1 for r in results if r.failure)
    # a failed operation counts as missing every latency limit
    lat = sorted(r.wall_s if not r.failure else max(r.wall_s, OP_LIMIT_S) for r in results)
    metrics = {
        "latency_p50_s": statistics.median(lat),
        "ops_per_s": len(results) / elapsed,
        "setup_s": statistics.median(setup),
        "peak_rss_mb": max(r.rss_kb for r in results) / 1024,
    }
    print(f"workload {workload}, seed {seed}: {len(results)} operations in {elapsed:.2f} s, "
          f"{failed} failed (failed_ratio {failed / len(results):.4f})")
    for name, value in metrics.items():
        print(f"  {name:<16} {value:.6g} {END_TO_END[name]}")
    if len(lat) >= 2 * TAIL_MIN_BEYOND:
        pct = 100 * (len(lat) - TAIL_MIN_BEYOND) / len(lat)
        print(f"  latency_tail_s   {lat[-TAIL_MIN_BEYOND - 1]:.6g} s (p{pct:.1f} of {len(lat)} operations)")
    else:
        print(f"  latency_tail_s   not reported: {len(lat)} operations, needs {2 * TAIL_MIN_BEYOND}")
    for kind in sorted({r.op.kind for r in results}):
        walls = [r.wall_s for r in results if r.op.kind == kind]
        print(f"    {kind:<20} n={len(walls):<3} median {statistics.median(walls):.4f} s, "
              f"range {min(walls):.4f} to {max(walls):.4f} s")
    report_failures(results)
    return {"attempted": len(results), "failed": failed,
            "metrics": {k: {"value": v, "unit": END_TO_END[k]} for k, v in metrics.items()}}


def run_traced(seed: int, work: Path) -> dict:
    """One pass of every workload, each command untraced and then traced."""
    spans_path = work / "spans.json"
    replay = [sys.executable, str(HERE / "replay.py"), str(spans_path)]
    metrics, attempted, failed = {}, 0, 0
    for workload, (layers, counter_names) in TRACED.items():
        ops = itertools.islice(WORKLOADS[workload](seed, work), PASS_OPS[workload])
        self_s = {x: 0.0 for x in layers}
        counters = {x: 0 for x in counter_names}
        untraced_wall = traced_wall = 0.0
        results = []
        for op in ops:
            spans_path.unlink(missing_ok=True)
            plain, traced = run_op(op, CLI, work), run_op(op, replay, work)
            results += [plain, traced]
            untraced_wall += plain.wall_s
            traced_wall += traced.wall_s
            if spans_path.exists():
                record = json.loads(spans_path.read_text(encoding="utf-8"))
                for s in record["spans"]:
                    self_s[s["name"]] = self_s.get(s["name"], 0.0) + s["end"] - s["start"]
                for name, n in record["counters"].items():
                    counters[name] = counters.get(name, 0) + n
        extra = (set(self_s) - set(layers)) | (set(counters) - set(counter_names))
        if extra:
            raise SystemExit(f"error: {workload} reached layers not listed for it: {sorted(extra)}")
        self_s["cli.other"] = traced_wall - sum(self_s.values())
        self_s["trace.overhead"] = traced_wall - untraced_wall
        attempted += len(results)
        failed += sum(1 for r in results if r.failure)
        print(f"trace {workload}, seed {seed}: {len(results) // 2} operations, "
              f"traced {traced_wall:.3f} s, untraced {untraced_wall:.3f} s")
        for name, value in self_s.items():
            metrics[f"{workload}.{name}_s"] = {"value": value, "unit": "s"}
            print(f"  {name + '_s':<28} {value:.6f} s")
        for name, value in counters.items():
            metrics[f"{workload}.{name}"] = {"value": value, "unit": "count"}
            print(f"  {name:<28} {value}")
        report_failures(results)
    return {"attempted": attempted, "failed": failed, "metrics": metrics}


def environment() -> str:
    load = " ".join(f"{x:.2f}" for x in os.getloadavg())
    return (f"environment: python {platform.python_version()} ({platform.python_implementation()}), "
            f"nproc {len(os.sched_getaffinity(0))}, load average at start {load}, "
            f"{platform.platform()}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "liepres" / "cli.py").is_file():
        print(f"error: no liepres sources under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2

    print(environment())
    work = ROOT / ".perfbench-work" / str(os.getpid())
    work.mkdir(parents=True)
    try:
        if args.trace:
            result = run_traced(args.seed, work)
        elif args.workload == "all":
            parts = {w: run_untraced(w, args.seed, args.seconds, work) for w in WORKLOADS}
            result = {"attempted": sum(p["attempted"] for p in parts.values()),
                      "failed": sum(p["failed"] for p in parts.values()),
                      "metrics": {f"{w}.{k}": v for w, p in parts.items() for k, v in p["metrics"].items()}}
        else:
            result = run_untraced(args.workload, args.seed, args.seconds, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass
    print(json.dumps({"correct": result["failed"] == 0, **result}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
