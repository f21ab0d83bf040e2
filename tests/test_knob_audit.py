"""Every configuration field is read somewhere in the program.

A field that no code reads is a knob that changes nothing: setting it
perturbs no world, model or table, yet its docstring claims an effect.
This audit parses ``src/repro`` and fails on any field of the
configuration classes below that is never loaded as an attribute
outside its own class's ``__post_init__`` validation.
"""

from __future__ import annotations

import ast
from pathlib import Path

import repro

SRC = Path(repro.__file__).resolve().parent

CONFIG_CLASSES = (
    "ScaleConfig",
    "ServiceConfig",
    "GenerationParams",
    "MonitorConfig",
    "RetryPolicy",
    "LifecycleConfig",
    "RolloutConfig",
    "DriftConfig",
)


def _trees() -> list[ast.Module]:
    return [
        ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for path in sorted(SRC.rglob("*.py"))
    ]


def _fields(trees: list[ast.Module]) -> dict[str, list[str]]:
    fields: dict[str, list[str]] = {}
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef) and node.name in CONFIG_CLASSES:
                fields[node.name] = [
                    statement.target.id
                    for statement in node.body
                    if isinstance(statement, ast.AnnAssign)
                    and isinstance(statement.target, ast.Name)
                ]
    return fields


def _validators(trees: list[ast.Module]) -> set[ast.AST]:
    """Every node inside a configuration class's ``__post_init__``."""
    inside: set[ast.AST] = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef) and node.name in CONFIG_CLASSES:
                for method in node.body:
                    if (
                        isinstance(method, ast.FunctionDef)
                        and method.name == "__post_init__"
                    ):
                        inside.update(ast.walk(method))
    return inside


def _attribute_reads(trees: list[ast.Module]) -> set[str]:
    validators = _validators(trees)
    return {
        node.attr
        for tree in trees
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.ctx, ast.Load)
        and node not in validators
    }


def test_every_config_class_is_found():
    assert sorted(_fields(_trees())) == sorted(CONFIG_CLASSES)


def test_every_config_field_is_read():
    trees = _trees()
    reads = _attribute_reads(trees)
    unread = sorted(
        f"{cls}.{name}"
        for cls, names in _fields(trees).items()
        for name in names
        if name not in reads
    )
    assert unread == []
