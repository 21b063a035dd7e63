"""Dead-code and dependency checks on the package source, read as syntax trees.

Every `src/starlattice` module except `__init__.py` (whose imports are the
public re-exports) must use each name it imports, and every module-level
private function or class must be referenced somewhere in the package
outside its own definition. No function takes a string-literal default,
the mark of a route selected by name: each oracle is a function of its own.
`__init__.__all__` lists each name that `__init__` imports, once. Only
`transforms` and `floatmode` name the Pascal-rule map `newton_to_lattice`:
every exact map divides its Newton-space integers back through
`transforms.ScaledNewton`. Only `rational` names the private `Fraction`
slots `_numerator` and `_denominator`, in `coprime_fraction`, the one place
that builds a `Fraction` without its gcd. `transforms`, `odes`,
`galois.map_solution` and `rational.parse_rational` call `Fraction` with
no integer pair: their quotients go through `rational.reduced_fraction`
(one gcd) or `coprime_fraction`. Every module imports only the standard library
and the package itself, and no test imports numpy. No check imports the
modules. Every edit in the mutation list of `tools/mutants.py` still
applies to exactly one place, so the list cannot go stale unnoticed.
"""

from __future__ import annotations

import ast
import importlib.util
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "starlattice"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _names(node: ast.AST) -> set[str]:
    """Bare names read anywhere in node."""
    return {sub.id for sub in ast.walk(node) if isinstance(sub, ast.Name)}


def _referenced(node: ast.AST) -> set[str]:
    """Bare and attribute names read anywhere in node."""
    return _names(node) | {sub.attr for sub in ast.walk(node) if isinstance(sub, ast.Attribute)}


def _imported(tree: ast.Module) -> list[str]:
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names += [alias.asname or alias.name.partition(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names += [alias.asname or alias.name for alias in node.names]
    return names


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_imported_name_is_used(path):
    tree = _tree(path)
    used = _names(tree)
    assert [name for name in _imported(tree) if name not in used] == []


def test_every_private_function_and_class_is_referenced():
    statements = [(path.name, stmt) for path in MODULES + [PACKAGE / "__init__.py"] for stmt in _tree(path).body]
    references = [_referenced(stmt) for _, stmt in statements]
    unreferenced = []
    for i, (module, stmt) in enumerate(statements):
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) and stmt.name.startswith("_"):
            if not any(stmt.name in refs for j, refs in enumerate(references) if j != i):
                unreferenced.append(f"{module}:{stmt.name}")
    assert unreferenced == []


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_function_has_a_string_default(path):
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
    functions = [node for node in ast.walk(_tree(path)) if isinstance(node, kinds)]
    flagged = [
        getattr(node, "name", "<lambda>")
        for node in functions
        for default in node.args.defaults + [d for d in node.args.kw_defaults if d is not None]
        if isinstance(default, ast.Constant) and isinstance(default.value, str)
    ]
    assert flagged == []


def test_init_exports_exactly_its_imports():
    tree = _tree(PACKAGE / "__init__.py")
    (exported,) = [
        [element.value for element in node.value.elts]
        for node in tree.body
        if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
    ]
    assert len(exported) == len(set(exported))
    assert sorted(exported) == sorted(_imported(tree))


def test_only_transforms_and_floatmode_name_newton_to_lattice():
    # floatmode keeps the name because the benchmark's tracer looks it up there.
    naming = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = _tree(path)
        imported = [alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) for alias in node.names]
        if "newton_to_lattice" in _referenced(tree) | set(imported):
            naming.append(path.name)
    assert naming == ["floatmode.py", "transforms.py"]


def test_only_rational_touches_the_fraction_slots():
    # An attribute, or a string as getattr/setattr would take it, counts alike.
    slots = {"_numerator", "_denominator"}
    naming = []
    for path in sorted(PACKAGE.glob("*.py")):
        nodes = list(ast.walk(_tree(path)))
        names = {node.attr for node in nodes if isinstance(node, ast.Attribute)}
        names |= {node.value for node in nodes if isinstance(node, ast.Constant) and isinstance(node.value, str)}
        if names & slots:
            naming.append(path.name)
    assert naming == ["rational.py"]


def test_exact_readouts_build_no_fraction_from_an_integer_pair():
    scopes = {"transforms.py": None, "odes.py": None, "galois.py": "map_solution", "rational.py": "parse_rational"}
    pairs = []
    for name, function in scopes.items():
        tree = _tree(PACKAGE / name)
        if function is not None:
            (tree,) = [node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name == function]
        pairs += [
            f"{name}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Call) and _names(node.func) == {"Fraction"} and len(node.args) == 2
        ]
    assert pairs == []


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_package_imports_only_the_standard_library(path):
    # The package has no runtime dependency: every import is stdlib or the package itself.
    modules = []
    for node in ast.walk(_tree(path)):
        if isinstance(node, ast.Import):
            modules += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules.append(node.module)
    top = {name.partition(".")[0] for name in modules}
    assert sorted(top - set(sys.stdlib_module_names) - {"starlattice"}) == []


def test_tests_do_not_import_numpy():
    for path in sorted(PACKAGE.parents[1].joinpath("tests").glob("*.py")):
        tree = _tree(path)
        names = [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import) for alias in node.names]
        names += [node.module or "" for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)]
        assert not any(name.partition(".")[0] == "numpy" for name in names), path.name


def test_every_listed_mutant_applies_to_exactly_one_place():
    root = PACKAGE.parents[1]
    spec = importlib.util.spec_from_file_location("mutants", root / "tools" / "mutants.py")
    mutants = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = mutants  # dataclasses look their module up there
    try:
        spec.loader.exec_module(mutants)
    finally:
        del sys.modules[spec.name]
    assert len({m.name for m in mutants.MUTANTS}) == len(mutants.MUTANTS) >= 34
    for m in mutants.MUTANTS:
        assert (root / m.file).read_text(encoding="utf-8").count(m.old) == 1, m.name
        assert m.tests and all((root / t.partition("::")[0]).is_file() for t in m.tests), m.name
