"""No module of the package rebinds a module-level name from inside a function or
fills a module-level container, and no function keeps a process-wide cache."""

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


def test_no_function_keeps_a_process_wide_cache():
    # A functools cache outlives every call; each caller owns its memos instead.
    cached = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if any(_decorator_name(d) in ("lru_cache", "cache") for d in node.decorator_list):
                    cached.append(f"{path.stem}.{node.name}")
    assert cached == []


_MUTABLE_DISPLAYS = (ast.Dict, ast.List, ast.Set, ast.DictComp, ast.ListComp, ast.SetComp)
_MUTATORS = {"append", "extend", "insert", "pop", "popitem", "remove", "clear", "update",
             "setdefault", "add", "discard", "sort", "reverse", "__setitem__", "__delitem__"}


def _module_containers(tree) -> set:
    """Names a module binds at top level to a dict, list or set."""
    names = set()
    for node in tree.body:
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AnnAssign):
            targets = [node.target]
        else:
            continue
        value = node.value
        if isinstance(value, _MUTABLE_DISPLAYS) or (isinstance(value, ast.Call) and isinstance(value.func, ast.Name)
                                                    and value.func.id in ("dict", "list", "set")):
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return names


def _locals(fn) -> set:
    args = fn.args
    params = args.posonlyargs + args.args + args.kwonlyargs + [a for a in (args.vararg, args.kwarg) if a]
    stored = {n.id for n in ast.walk(fn) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)}
    return {a.arg for a in params} | stored


def _container_writes(tree) -> list:
    """(line, name) of every store into, or mutating call on, a module-level container inside a function."""
    containers = _module_containers(tree)
    found = []
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        shared = containers - _locals(fn)
        for node in ast.walk(fn):
            if isinstance(node, ast.Subscript) and isinstance(node.ctx, (ast.Store, ast.Del)):
                target = node.value
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) \
                    and node.func.attr in _MUTATORS:
                target = node.func.value
            else:
                continue
            if isinstance(target, ast.Name) and target.id in shared:
                found.append((node.lineno, target.id))
    return found


def test_no_function_fills_a_module_level_container():
    found = [f"{path.name}:{line}: {name}" for path in SOURCES
             for line, name in _container_writes(ast.parse(path.read_text(encoding="utf-8")))]
    assert found == []


def test_the_container_check_sees_stores_and_mutating_calls():
    tree = ast.parse(
        "memo: dict = {}\nseen = set()\nkept = [1]\nconst = (1, 2)\n"
        "def f(k):\n    memo[k] = 1\n    seen.add(k)\n    del kept[0]\n    return const[0]\n"
        "def g(memo):\n    memo[0] = 1\n    local = {}\n    local[1] = 2\n    return seen.copy()\n")
    assert _container_writes(tree) == [(6, "memo"), (7, "seen"), (8, "kept")]
