"""Each command loads only the package modules it runs, and none of the heavier
modules of the standard library.

Every command starts a fresh interpreter, which compiles each module it imports
(no bytecode cache is assumed), so what a command imports is a fixed cost of
every run.  `import liepres.cli` loads no engine module: each command imports
its own, so `classify` never loads the free Lie algebra, the parser, G2 or the
closure, and `derive`, `verify` and `export` never load the analysis.  `free`
loads only the free Lie algebra: `freelie` defines no record, so it imports no
other package module.  The package also needs none of HEAVY: its records are plain `__slots__` classes (no
`dataclasses`, which pulls in `inspect`), and it reads the shipped G2 fixture by
path (no `importlib.resources`, which pulls in `typing`, `pathlib` and
`tempfile`).  No module has `from __future__ import annotations`: the package
needs Python 3.10 or later, which evaluates every annotation it writes, so
neither `import liepres.cli` nor any command loads `__future__`.

The check counts modules, so unlike a timing it does not vary between runs.
The child runs `python -S`, because a site hook may import some of these modules
before the package does.
"""

import os
import subprocess
import sys

import liepres

HEAVY = ("dataclasses", "inspect", "typing", "importlib.resources", "pathlib", "tempfile", "__future__")

FIXTURES = os.path.join(os.path.dirname(os.path.abspath(liepres.__file__)), "fixtures")
GOLDEN = os.path.join(FIXTURES, "g2_table.json")

TABLE_IO = {"cli", "linalg", "table", "tabledoc"}
DERIVE = TABLE_IO | {"freelie", "g2", "presentation", "quotient", "record"}

# command -> (its arguments, the liepres.* modules it loads); a bare `import liepres.cli` loads only cli
EXPECTED = {
    "derive": (["derive", os.path.join(FIXTURES, "g2.lp"), "--out", os.devnull], DERIVE),
    # the rewriter's table is the closure's, so each engine loads the same modules
    "derive --engine rewriter": (["derive", os.path.join(FIXTURES, "g2.lp"), "--engine", "rewriter",
                                  "--out", os.devnull], DERIVE),
    "classify": (["classify", "--table", GOLDEN], TABLE_IO | {"analysis", "record"}),
    "verify": (["verify", "--table", GOLDEN, "--golden", GOLDEN], TABLE_IO),
    "export": (["export", "--table", GOLDEN, "--format", "csv"], TABLE_IO),
    "free": (["free", "--alphabet", "3", "--max-degree", "6"], {"cli", "freelie"}),
}

CHILD = """
import sys, liepres.cli
if sys.argv[1:]:
    liepres.cli.main(sys.argv[1:])
print()
print(*sorted(m for m in sys.modules if m.startswith("liepres.")), "|",
      *(m for m in {heavy!r} if m in sys.modules))
"""


def modules_loaded(argv) -> tuple:
    """(liepres modules, HEAVY modules) in sys.modules after `liepres argv` in a fresh `python -S`.

    The package modules are given without their `liepres.` prefix; `liepres`
    itself is always loaded.  An empty argv only imports liepres.cli.
    """
    src = os.path.dirname(os.path.dirname(os.path.abspath(liepres.__file__)))
    proc = subprocess.run([sys.executable, "-S", "-c", CHILD.format(heavy=HEAVY), *argv],
                          capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src), timeout=120)
    if proc.returncode != 0:
        raise RuntimeError(proc.stderr)
    engine, heavy = proc.stdout.splitlines()[-1].split("|")
    return {m.removeprefix("liepres.") for m in engine.split()}, heavy.split()


def test_cli_import_loads_no_heavy_module():
    assert modules_loaded([]) == ({"cli"}, [])


def test_each_command_loads_only_its_modules():
    loaded = {name: modules_loaded(argv) for name, (argv, _) in EXPECTED.items()}
    assert loaded == {name: (expected, []) for name, (_, expected) in EXPECTED.items()}
