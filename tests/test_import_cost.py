"""Importing the command line loads none of the standard library's heavier modules.

Every cold command pays for what `liepres.cli` imports.  The package needs none
of these: its records are plain `__slots__` classes (no `dataclasses`, which
pulls in `inspect`), and it reads the shipped G2 fixture by path (no
`importlib.resources`, which pulls in `typing`, `pathlib` and `tempfile`).  The
check counts modules, so unlike a timing it does not vary between runs.  The
child runs `python -S`, because a site hook may import some of these modules
before the package does.

Run as a script, `PYTHONPATH=src python tests/test_import_cost.py` makes the
same check without pytest.
"""

import os
import subprocess
import sys

import liepres

HEAVY = ("dataclasses", "inspect", "typing", "importlib.resources", "pathlib", "tempfile")


def heavy_modules_loaded() -> list:
    """The HEAVY modules in sys.modules after `import liepres.cli` in a fresh `python -S`."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(liepres.__file__)))
    code = f"import sys, liepres.cli; print(*(m for m in {HEAVY!r} if m in sys.modules))"
    proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src), timeout=120)
    if proc.returncode != 0:
        raise RuntimeError(proc.stderr)
    return proc.stdout.split()


def test_cli_import_loads_no_heavy_module():
    assert heavy_modules_loaded() == []


if __name__ == "__main__":
    loaded = heavy_modules_loaded()
    print("heavy modules loaded by import liepres.cli:", ", ".join(loaded) or "none")
    sys.exit(1 if loaded else 0)
