"""No module of the package rebinds a module-level name from inside a function."""

import ast
from pathlib import Path

import liepres

SOURCES = sorted(Path(liepres.__file__).parent.glob("*.py"))


def test_no_global_statement_in_the_package():
    assert len(SOURCES) > 5
    found = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Global):
                found.append(f"{path.name}:{node.lineno}: global {', '.join(node.names)}")
    assert found == []
