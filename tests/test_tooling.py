"""Checks on the source itself."""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).parent.parent / "src" / "gbs"


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
    assert uses >= 16, "the scan no longer finds the caches"
    assert unbounded == []
