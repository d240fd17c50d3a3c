"""Every name a module in ``src/emot`` imports is read somewhere in it, and
every private module-level function or class, and every module-level
ALL_CAPS constant, is read by some module.  A public module-level function,
or a public method of a module-level class, that no module calls is named
in ``UNCALLED_PUBLIC`` with its reason.  Every defaulted parameter of such
a function or method is passed, by position or by keyword, by some call in
a module, unless the function is in ``UNCALLED_PUBLIC`` or ``UNSET_EXEMPT``.
Every parameter of a named function or method, nested ones too, is read
by its body; a method's self or cls is exempt, and so is a lambda, which
implements a fixed callback signature such as the ``COSTS`` entries.
No two functions or methods have the same body.  No module but
``lp_core.py`` imports from ``scipy.optimize``, which holds HiGHS's binding
and the assignment solver, so every solver call, LP or assignment, stays
behind ``lp_core``.

No linter is part of the toolchain, so this check stands in for one.
``__init__.py`` is skipped by the import check: its imports are the
package's public API.  Its re-exports do not count as calls.
"""

import ast
import collections
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "emot"
MODULES = sorted(SRC.glob("*.py"))

# public functions and methods that no module in src/emot calls, each with the reason it stays
UNCALLED_PUBLIC = {
    "LPSolution.nit": "the iteration count `benchmarks/tracing.py` reads",
    "vix_primal_lp": "exact portfolio LP, oracle for the repaired duals",
    "check_martingale": "a coupling's martingale residual, for callers and the tests of every solver",
    "convex_min": "the general convex-order minimum: acceptance criterion 05 and the oracle of the approximation's "
    "window minimum",
    "min_cost_martingale_rearrangement": "the rearrangement with its own order check, for callers; the approximation "
    "checks the pair in its window loop and calls `_rearrangement`",
}

# functions whose defaulted parameters no module passes, each with the reason they stay
UNSET_EXEMPT = {
    "main": "cli.main(argv): the console script calls it with no argument, so argparse reads sys.argv",
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


SOLVERS = "scipy.optimize"


def solver_imports(trees: dict) -> list:
    """"module (line)" of each import of ``SOLVERS``, of a module in it or
    of a name in it, by a module other than ``lp_core.py``."""
    found = []
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module:
                names = [f"{node.module}.{alias.name}" for alias in node.names]
            else:
                continue
            if module != "lp_core.py" and any(n == SOLVERS or n.startswith(SOLVERS + ".") for n in names):
                found.append(f"{module} (line {node.lineno})")
    return found


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


def defaulted_parameters(tree: ast.Module):
    """(reported name, called name, parameter, position) of each defaulted
    parameter of a module-level function or of a method of a module-level
    class.  A keyword-only parameter has no position; a method's positions
    count from the argument after self or cls, and ``__init__`` is called
    by its class's name."""
    functions = [(f.name, f.name, f, 0) for f in tree.body if isinstance(f, ast.FunctionDef)]
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            for f in node.body:
                if isinstance(f, ast.FunctionDef):
                    static = any(isinstance(d, ast.Name) and d.id == "staticmethod" for d in f.decorator_list)
                    called = node.name if f.name == "__init__" else f.name
                    functions.append((f"{node.name}.{f.name}", called, f, 0 if static else 1))
    for reported, called, f, skip in functions:
        positional = f.args.posonlyargs + f.args.args
        for i in range(len(positional) - len(f.args.defaults), len(positional)):
            yield reported, called, positional[i].arg, i - skip
        for arg, default in zip(f.args.kwonlyargs, f.args.kw_defaults):
            if default is not None:
                yield reported, called, arg.arg, None


def passed_arguments(trees: dict) -> dict:
    """For each called name, a plain name or an attribute, the positions and
    keywords that some call passes; "*" and "**" stand for a starred
    argument, which may pass any position or keyword."""
    passed = collections.defaultdict(set)
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and isinstance(node.func, (ast.Name, ast.Attribute)):
                args = passed[node.func.id if isinstance(node.func, ast.Name) else node.func.attr]
                args.update(range(len(node.args)))
                args.update("*" for a in node.args if isinstance(a, ast.Starred))
                args.update(k.arg or "**" for k in node.keywords)
    return passed


def unset_parameters(trees: dict) -> list:
    """The defaulted parameters of ``defaulted_parameters`` that no call
    passes, as "module: function(parameter)"."""
    passed = passed_arguments(trees)
    return sorted(
        f"{module}: {reported}({param})"
        for module, tree in trees.items()
        for reported, called, param, pos in defaulted_parameters(tree)
        if reported not in UNCALLED_PUBLIC and reported not in UNSET_EXEMPT
        and not ({param, "**"} | ({pos, "*"} if pos is not None else set())) & passed[called]
    )


def unread_parameters(trees: dict) -> list:
    """"module: function(parameter)" for each parameter of a named function
    or method, nested ones too, that its body never reads.  The first
    parameter of a method that is not a ``staticmethod`` is skipped."""
    found = []
    for module, tree in trees.items():
        methods = {
            f for node in ast.walk(tree) if isinstance(node, ast.ClassDef) for f in node.body
            if isinstance(f, ast.FunctionDef)
            and not any(isinstance(d, ast.Name) and d.id == "staticmethod" for d in f.decorator_list)
        }
        for f in ast.walk(tree):
            if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef)):
                a = f.args
                params = a.posonlyargs + a.args + a.kwonlyargs + [p for p in (a.vararg, a.kwarg) if p]
                params = params[1:] if f in methods else params
                read = {
                    n.id for stmt in f.body for n in ast.walk(stmt)
                    if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Store)
                }
                found += [f"{module}: {f.name}({p.arg})" for p in params if p.arg not in read]
    return sorted(found)


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


def test_no_unset_parameters():
    assert unset_parameters({p.name: ast.parse(p.read_text()) for p in MODULES}) == []


def test_unset_parameter_is_flagged():
    trees = {p.name: ast.parse(p.read_text()) for p in MODULES}
    text = (SRC / "measures.py").read_text()
    planted = text.replace("def mean(m: DiscreteMeasure) -> float:", "def mean(m: DiscreteMeasure, ddof: int = 0) -> float:")
    assert planted != text
    trees["measures.py"] = ast.parse(planted)
    assert unset_parameters(trees) == ["measures.py: mean(ddof)"]


def test_no_unread_parameters():
    assert unread_parameters({p.name: ast.parse(p.read_text()) for p in MODULES}) == []


def test_unread_parameter_is_flagged():
    trees = {p.name: ast.parse(p.read_text()) for p in MODULES}
    text = (SRC / "approximation.py").read_text()
    planted = text.replace("def _window_min(ys, w,", "def _window_min(ys, scale, w,")
    assert planted != text
    trees["approximation.py"] = ast.parse(planted)
    assert unread_parameters(trees) == ["approximation.py: _window_min(scale)"]


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


def test_highs_binding_is_imported_by_lp_core_only():
    """HiGHS's binding, like every other name in ``SOLVERS``, is imported by
    ``lp_core.py`` alone."""
    trees = {p.name: ast.parse(p.read_text()) for p in MODULES}
    assert any(SOLVERS in ast.dump(node) for node in ast.walk(trees["lp_core.py"]))
    assert solver_imports(trees) == []


@pytest.mark.parametrize("planted", [
    "from scipy.optimize._highspy._core import _Highs",
    "from scipy.optimize._highspy import _core",
    "from scipy.optimize import _highspy",
    "import scipy.optimize._highspy._core as core",
    "from scipy.optimize import linear_sum_assignment",
    "from scipy import optimize",
    "import scipy.optimize",
])
def test_highs_binding_import_is_flagged(planted):
    trees = {p.name: ast.parse(p.read_text()) for p in MODULES}
    text = (SRC / "solvers.py").read_text() + "\n" + planted + "\n"
    trees["solvers.py"] = ast.parse(text)
    assert solver_imports(trees) == [f"solvers.py (line {len(text.splitlines())})"]
