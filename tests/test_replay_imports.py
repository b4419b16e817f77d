"""The benchmark's traced replay still imports, derives and classifies.

perfbench/ has its own tests, outside this suite, so a rename in the package or
a change of what the replayed functions mean would otherwise break
`perfbench/run.py --trace 1` unnoticed.
"""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import liepres

REPLAY = Path(__file__).resolve().parents[1] / "perfbench" / "replay.py"
FIXTURES = Path(liepres.__file__).parent / "fixtures"
GOLDEN = FIXTURES / "g2_table.json"


def test_replay_imports_resolve():
    tree = ast.parse(REPLAY.read_text(encoding="utf-8"))
    imported = [(node.module, alias.name) for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "liepres"
                for alias in node.names]
    assert len(imported) > 10
    for module, name in imported:
        mod = importlib.import_module(module)
        assert hasattr(mod, name) or importlib.import_module(f"{module}.{name}"), (module, name)


def replay(tmp_path, *argv):
    env = dict(os.environ, PYTHONPATH=str(Path(liepres.__file__).parents[1]))
    spans = tmp_path / "spans.json"
    proc = subprocess.run([sys.executable, str(REPLAY), str(spans), *argv],
                          capture_output=True, text=True, env=env, timeout=120)
    assert spans.exists(), proc.stderr
    return proc


def test_replay_derive_writes_golden_bytes(tmp_path):
    out = tmp_path / "t.json"
    proc = replay(tmp_path, "derive", str(FIXTURES / "g2.lp"), "--max-degree", "6", "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    assert out.read_bytes() == GOLDEN.read_bytes()


def test_replay_classify_prints_type(tmp_path):
    proc = replay(tmp_path, "classify", "--table", str(GOLDEN))
    assert proc.returncode == 0, proc.stderr
    assert "type: G2" in proc.stdout
