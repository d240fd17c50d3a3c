"""Every name a module in ``src/emot`` imports is read somewhere in it, and
every private module-level function or class, and every module-level
ALL_CAPS constant, is read by some module.  A public module-level function,
or a public method of a module-level class, that no module calls is named
in ``UNCALLED_PUBLIC`` with its reason.  No two functions or methods have
the same body.

No linter is part of the toolchain, so this check stands in for one.
``__init__.py`` is skipped by the import check: its imports are the
package's public API.  Its re-exports do not count as calls.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "emot"
MODULES = sorted(SRC.glob("*.py"))

# public functions and methods that no module in src/emot calls, each with the reason it stays
UNCALLED_PUBLIC = {
    "DiscreteMeasure.integrate": "the integral of a payoff against a measure, the tests' closed-form price (criterion 06)",
    "LiftedMeasure.u_marginal": "the label marginal of a lifted measure, for callers and the copula-lift tests",
    "LPSolution.nit": "the iteration count `benchmarks/tracing.py` reads",
    "vix_primal_lp": "exact portfolio LP, oracle for the repaired duals",
    "check_martingale": "a coupling's martingale residual, for callers and the tests of every solver",
    "report_from_csv": "reads a stability CSV emission back, exactly",
    "w1_binary": "closed-form W1 between binary kernels (criterion 12)",
    "wasserstein_coupling": "flat W_p, the lower bound on adapted W_p (criterion 12)",
    "barrier_monotonicity_violation": "the nesting of shadow barriers (criterion 11)",
    "left_monotone_violation": "the left-monotone support of a shadow coupling (criterion 11)",
}


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


def names_read_anywhere(trees: dict) -> set:
    """Names some module reads, by name or as a module attribute."""
    read = set()
    for tree in trees.values():
        read |= names_read(tree)
        read |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    return read


def unread_private_definitions(trees: dict) -> list:
    """Module-level definitions of ``module_definitions`` that no module
    reads."""
    read = names_read_anywhere(trees)
    return sorted(
        f"{name}: {defined} (line {line})"
        for name, tree in trees.items()
        for defined, line in module_definitions(tree)
        if defined not in read
    )


def public_definitions(tree: ast.Module):
    """(reported name, called name) of each public module-level function
    and each public method of a module-level class."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            yield node.name, node.name
        elif isinstance(node, ast.ClassDef):
            for f in node.body:
                if isinstance(f, ast.FunctionDef) and not f.name.startswith("_"):
                    yield f"{node.name}.{f.name}", f.name


def unread_public_functions(trees: dict) -> list:
    """Public functions and methods of ``public_definitions`` that no module
    other than ``__init__.py`` reads."""
    trees = {name: tree for name, tree in trees.items() if name != "__init__.py"}
    read = names_read_anywhere(trees)
    return sorted(
        reported
        for tree in trees.values()
        for reported, called in public_definitions(tree)
        if called not in read
    )


def duplicated_bodies(trees: dict) -> list:
    """The functions and methods, nested ones too, that share a body with
    another: one "module: name (line)" list per body, compared by
    ``ast.dump`` after the docstring."""
    places = {}
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                body = node.body[1:] if ast.get_docstring(node) is not None else node.body
                key = "\n".join(ast.dump(stmt) for stmt in body)
                places.setdefault(key, []).append(f"{module}: {node.name} (line {node.lineno})")
    return sorted(found for found in places.values() if len(found) > 1)


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


def test_uncalled_public_functions_are_listed():
    assert unread_public_functions({p.name: ast.parse(p.read_text()) for p in MODULES}) == sorted(UNCALLED_PUBLIC)


def test_uncalled_public_function_is_flagged():
    trees = {p.name: ast.parse(p.read_text()) for p in MODULES}
    trees["measures.py"] = ast.parse((SRC / "measures.py").read_text() + "\ndef unused_helper():\n    pass\n")
    # a re-export from __init__ is not a call
    trees["__init__.py"] = ast.parse((SRC / "__init__.py").read_text() + "\nfrom .measures import unused_helper\n")
    assert unread_public_functions(trees) == sorted([*UNCALLED_PUBLIC, "unused_helper"])


def test_uncalled_public_method_is_flagged():
    trees = {p.name: ast.parse(p.read_text()) for p in MODULES}
    text = (SRC / "measures.py").read_text().replace(
        "    def first_moment(self)", "    def unread_moment(self):\n        return 0.0\n\n    def first_moment(self)"
    )
    trees["measures.py"] = ast.parse(text)
    assert unread_public_functions(trees) == sorted([*UNCALLED_PUBLIC, "DiscreteMeasure.unread_moment"])


def test_no_duplicated_bodies():
    assert duplicated_bodies({p.name: ast.parse(p.read_text()) for p in MODULES}) == []


def test_duplicated_body_is_flagged():
    trees = {p.name: ast.parse(p.read_text()) for p in MODULES}
    text = (SRC / "measures.py").read_text()
    source = ast.parse(text)
    mean_def = next(node for node in source.body if isinstance(node, ast.FunctionDef) and node.name == "mean")
    copy = ast.get_source_segment(text, mean_def).replace("def mean(", "def mean_again(")
    trees["measures.py"] = ast.parse(text + "\n\n" + copy + "\n")
    line = len(text.splitlines()) + 3
    assert duplicated_bodies(trees) == [[f"measures.py: mean (line {mean_def.lineno})", f"measures.py: mean_again (line {line})"]]
