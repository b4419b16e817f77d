"""Every liepres name that the benchmark's traced replay imports still exists.

perfbench/ has its own tests, outside this suite, so a rename in the package
would otherwise break `perfbench/run.py --trace 1` unnoticed.
"""

import ast
import importlib
from pathlib import Path

REPLAY = Path(__file__).resolve().parents[1] / "perfbench" / "replay.py"


def test_replay_imports_resolve():
    tree = ast.parse(REPLAY.read_text(encoding="utf-8"))
    imported = [(node.module, alias.name) for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "liepres"
                for alias in node.names]
    assert len(imported) > 10
    for module, name in imported:
        mod = importlib.import_module(module)
        assert hasattr(mod, name) or importlib.import_module(f"{module}.{name}"), (module, name)
