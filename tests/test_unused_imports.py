"""Every name a module in ``src/emot`` imports is read somewhere in it, and
every private module-level function or class, and every module-level
ALL_CAPS constant, is read by some module.

No linter is part of the toolchain, so this check stands in for one.
``__init__.py`` is skipped by the import check: its imports are the
package's public API.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "emot"
MODULES = sorted(SRC.glob("*.py"))


def names_read(tree: ast.Module) -> set:
    annotations = [node.annotation for node in ast.walk(tree) if isinstance(node, (ast.arg, ast.AnnAssign))]
    annotations += [node.returns for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)]
    # a quoted annotation such as -> "DiscreteMeasure" reads the names inside it
    quoted = [ast.parse(a.value, mode="eval") for a in annotations if isinstance(a, ast.Constant)]
    # a name bound by an assignment is not read there
    return {
        node.id
        for root in [tree, *quoted]
        for node in ast.walk(root)
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)
    }


def unused_imports(tree: ast.Module) -> list:
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    read = names_read(tree)
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in read)


def module_definitions(tree: ast.Module):
    """(name, line) of each module-level ``_name`` function or class
    (dunders aside) and each module-level ALL_CAPS constant."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            if node.name.startswith("_") and not node.name.endswith("__"):
                yield node.name, node.lineno
        elif isinstance(node, ast.Assign):
            yield from ((t.id, node.lineno) for t in node.targets if isinstance(t, ast.Name) and t.id.isupper())


def unread_private_definitions(trees: dict) -> list:
    """Module-level definitions of ``module_definitions`` that no module
    reads, by name or as a module attribute."""
    read = set()
    for tree in trees.values():
        read |= names_read(tree)
        read |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    return sorted(
        f"{name}: {defined} (line {line})"
        for name, tree in trees.items()
        for defined, line in module_definitions(tree)
        if defined not in read
    )


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "__init__.py"], ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(ast.parse(path.read_text())) == []


def test_no_unread_private_definitions():
    assert unread_private_definitions({p.name: ast.parse(p.read_text()) for p in MODULES}) == []


def test_unread_constant_is_flagged():
    trees = {p.name: ast.parse(p.read_text()) for p in MODULES}
    text = (SRC / "lp_core.py").read_text() + "\nUNREAD_TOL = 1e-8\n"
    trees["lp_core.py"] = ast.parse(text)
    assert unread_private_definitions(trees) == [f"lp_core.py: UNREAD_TOL (line {len(text.splitlines())})"]
