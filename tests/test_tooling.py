"""Checks on the source itself."""

from __future__ import annotations

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).parent.parent
SRC = ROOT / "src" / "gbs"


def _cache_uses(tree: ast.AST):
    """(line, maxsize node or None) for every lru_cache reference; one that is
    not called (a bare decorator, 128 entries by default) names no maxsize."""
    called = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            size = node.args[0] if node.args else None
            for kw in node.keywords:
                if kw.arg == "maxsize":
                    size = kw.value
            called[id(node.func)] = size
    for node in ast.walk(tree):
        name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
        if isinstance(node, (ast.Name, ast.Attribute)) and name == "lru_cache":
            yield node.lineno, called.get(id(node))


def test_every_cache_is_bounded():
    uses, unbounded = 0, []
    for path in sorted(SRC.glob("*.py")):
        for line, size in _cache_uses(ast.parse(path.read_text(encoding="utf-8"))):
            uses += 1
            finite = isinstance(size, ast.Constant) and type(size.value) is int and size.value > 0
            if not finite:
                unbounded.append(f"{path.name}:{line}")
    assert uses >= 15, "the scan no longer finds the caches"
    assert unbounded == []


def _references(tree: ast.AST) -> Counter:
    """Names read in code: bare names and attribute names.  Strings, so
    docstrings and comments, never count."""
    refs = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            refs[node.id] += 1
        elif isinstance(node, ast.Attribute):
            refs[node.attr] += 1
    return refs


def _definitions(tree: ast.Module):
    """(name, node) for each module-level function, class and callable alias:
    a lower-case name bound to an attribute, a name or a decorated callable
    (`f = g(...)(h)`)."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node
        elif isinstance(node, ast.Assign) and len(node.targets) == 1:
            target, value = node.targets[0], node.value
            aliased = isinstance(value, (ast.Attribute, ast.Name)) or (
                isinstance(value, ast.Call) and isinstance(value.func, ast.Call)
            )
            if isinstance(target, ast.Name) and target.id.lstrip("_")[:1].islower() and aliased:
                yield target.id, node


def test_every_definition_is_used_by_the_program():
    # a helper only tests reach, or a second name for one job, is dead weight
    trees = {p: ast.parse(p.read_text(encoding="utf-8")) for p in sorted(SRC.glob("*.py"))}
    program = Counter()
    for path in sorted(trees) + sorted((ROOT / "perfbench").glob("*.py")):
        program += _references(trees.get(path) or ast.parse(path.read_text(encoding="utf-8")))
    defined, unused = 0, []
    for path, tree in trees.items():
        for name, node in _definitions(tree):
            defined += 1
            # uses inside the definition itself (recursion) do not count
            if program[name] - _references(node)[name] <= 0:
                unused.append(f"{path.name}:{node.lineno} {name}")
    assert defined >= 200, "the scan no longer finds the definitions"
    assert unused == []
