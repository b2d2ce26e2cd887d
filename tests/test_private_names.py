"""Every module-level name in the package is used somewhere in it.

A helper whose last caller was folded away lingers silently in Python; this
stdlib ``ast`` pass finds it.  Uses inside the name's own definition (a
recursive call) do not count; uses from the tests do not either.  A public
name must also be read by package code other than ``__init__.py``: being
re-exported is not a use.
"""

import ast
from pathlib import Path

import steindelta

PACKAGE = Path(steindelta.__file__).parent

# Public names that no package code reads but that stay, each for its reason.
KEEP_PUBLIC = {
    # the exact reference distance that the Monte Carlo estimator is checked against
    "exact_distance",
    # the paper's lattice-floor side result: the point-mass distance at the normal limit
    "point_mass_check",
    # the exact identity check of the chain-rule enumeration that h_budget rests on
    "faa_di_bruno_checksum",
}


def _definitions(tree):
    """(name, node) for each module-level non-dunder name a def, class or assignment binds."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        for name in names:
            if not name.startswith("__"):
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


def _dead(private: bool) -> list[str]:
    """The module-level names of one kind that no package code reads outside their definition."""
    trees = {path: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    readers = {
        path: _uses(tree)
        for path, tree in trees.items()
        if private or path.name != "__init__.py"
    }
    dead = []
    for path, tree in trees.items():
        for name, node in _definitions(tree):
            if name.startswith("_") != private:
                continue
            inside = {id(n) for n in ast.walk(node)}
            if not any(
                id(use) not in inside for found in readers.values() for use in found.get(name, ())
            ):
                dead.append(f"{path.name}: {name}")
    return dead


def test_no_dead_private_names():
    assert _dead(private=True) == []


def test_no_dead_public_names():
    # the keep-list is exact: a kept name that gained a reader leaves it too
    dead = sorted(entry.split(": ")[1] for entry in _dead(private=False))
    assert dead == sorted(KEEP_PUBLIC)
