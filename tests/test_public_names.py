"""The one rule for public names: a module-level name without a leading
underscore is public, and every public name has a reader.

A reader is a load of the name (``ast.Name``), of an attribute of that name
(``ast.Attribute``) or an import of it, anywhere in ``src/feynlab``,
``perfbench/`` or the acceptance criteria, outside the name's own
definition.  Methods are not checked: attribute names collide across
classes.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "feynlab"
PUBLIC_MODULES = sorted(p for p in PACKAGE.glob("*.py") if not p.name.startswith("_"))
READERS = [*sorted(PACKAGE.glob("*.py")), *sorted((ROOT / "perfbench").rglob("*.py")),
           ROOT / "tests" / "test_acceptance.py"]

# Public for the invariants the tests hold them to, with no reader above:
# propagate(apply_box(u)) = u and the compactify round trip (ROADMAP, the
# correctness aim).
TEST_REFERENCES = {"propagators.apply_box", "bichar.compactify"}


def module_names(tree: ast.Module):
    """(name, node) of each function, class and assigned name of a module."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, ast.Name):
                    yield target.id, node


def names_read(tree: ast.AST, skip: ast.AST | None = None) -> set:
    """Every name a tree loads, loads as an attribute or imports, outside
    the subtree `skip`."""
    read = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            read.add(node.attr)
        elif isinstance(node, ast.alias):
            read.add(node.name.rpartition(".")[2])
        stack.extend(ast.iter_child_nodes(node))
    return read


TREES = {path: ast.parse(path.read_text(), str(path)) for path in READERS}
READS = {path: names_read(tree) for path, tree in TREES.items()}


@pytest.mark.parametrize("module", PUBLIC_MODULES, ids=lambda p: p.stem)
def test_every_public_name_has_a_reader(module):
    tree = TREES[module]
    elsewhere = set().union(*(read for path, read in READS.items() if path != module))
    unread = {
        f"{module.stem}.{name}"
        for name, node in module_names(tree)
        if not name.startswith("_") and name not in elsewhere | names_read(tree, skip=node)
    }
    assert unread == {name for name in TEST_REFERENCES if name.startswith(f"{module.stem}.")}


@pytest.mark.parametrize("module", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.stem)
def test_no_module_keeps_an_export_list(module):
    # the leading underscore is the one encoding of what is public
    assert "__all__" not in dict(module_names(TREES[module]))
