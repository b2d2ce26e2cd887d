"""Every module-level private name in the package is used somewhere in it.

A helper whose last caller was folded away lingers silently in Python; this
stdlib ``ast`` pass finds it.  Uses inside the name's own definition (a
recursive call) do not count; uses from the tests do not either.
"""

import ast
from pathlib import Path

import steindelta

PACKAGE = Path(steindelta.__file__).parent


def _private_definitions(tree):
    """(name, node) for each module-level ``_name`` a def, class or assignment binds."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                yield name, node


def _uses(tree):
    """name -> the nodes of ``tree`` that read it (a load, an attribute or an import)."""
    uses = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names = [node.id]
        elif isinstance(node, ast.Attribute):
            names = [node.attr]
        elif isinstance(node, ast.ImportFrom):
            names = [alias.name for alias in node.names]
        else:
            continue
        for name in names:
            uses.setdefault(name, []).append(node)
    return uses


def test_no_dead_private_names():
    trees = {path: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    uses = {path: _uses(tree) for path, tree in trees.items()}
    dead = []
    for path, tree in trees.items():
        for name, node in _private_definitions(tree):
            inside = {id(n) for n in ast.walk(node)}
            if not any(
                id(use) not in inside for found in uses.values() for use in found.get(name, ())
            ):
                dead.append(f"{path.name}: {name}")
    assert dead == []
