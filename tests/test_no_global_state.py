"""No module of the package rebinds a module-level name from inside a function,
and no function keeps a process-wide cache except the named basis and the span
of the G2 relations."""

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


def _decorator_name(node) -> str | None:
    target = node.func if isinstance(node, ast.Call) else node
    if isinstance(target, ast.Attribute):
        return target.attr
    if isinstance(target, ast.Name):
        return target.id
    return None


def test_the_only_process_wide_caches_are_the_g2_span_and_named_basis():
    # A functools cache outlives every call; a new one needs a deliberate edit here.
    cached = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if any(_decorator_name(d) in ("lru_cache", "cache") for d in node.decorator_list):
                    cached.append(f"{path.stem}.{node.name}")
    assert cached == ["g2.g2_span", "g2.named_basis_free"]
