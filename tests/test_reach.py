"""Static reach guard: code that nothing reaches cannot come back.

Reads the sources with ast and runs nothing of them.  A name counts as
referenced where it is loaded (a Name or an Attribute) or imported with
``from ... import``; text in docstrings and comments does not count.
"""

import ast
from pathlib import Path
from types import ModuleType

import fracharm

ROOT = Path(__file__).resolve().parents[1]
SRC = sorted(Path(fracharm.__file__).parent.glob("*.py"))
TESTS = sorted(Path(__file__).parent.glob("*.py"))
PERFBENCH = sorted((ROOT / "perfbench").glob("*.py"))

# Public names that no run path, acceptance test or perfbench script calls.
# They are objects of the thesis and stay public as library functions.
LIBRARY_ONLY = ("hardy_duality_check", "holder_seminorm",
                "riesz_potential_commutator", "tent_pairing_bound_check",
                "frac_laplacian_tail_bound")


def _references(paths, strings=False):
    """The names loaded or imported in the files; with strings, also every
    string constant that is an identifier, as the benchmark's tracer names
    the functions it wraps."""
    names = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif (isinstance(node, ast.Attribute)
                  and isinstance(node.ctx, ast.Load)):
                names.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                names.update(alias.name for alias in node.names)
                names.update((node.module or "").split("."))
            elif (strings and isinstance(node, ast.Constant)
                  and isinstance(node.value, str)
                  and node.value.isidentifier()):
                names.add(node.value)
    return names


def _private_definitions(paths, top_level_only=False):
    """(file, name) of each function, method or class whose name has one
    leading underscore."""
    found = []
    for path in paths:
        tree = ast.parse(path.read_text())
        for node in tree.body if top_level_only else ast.walk(tree):
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef))
                    and node.name.startswith("_")
                    and not node.name.startswith("__")):
                found.append((path.name, node.name))
    return found


def _public_methods(paths):
    """(file, class, name) of each method on a class whose name has no
    leading underscore."""
    found = []
    for path in paths:
        for cls in ast.walk(ast.parse(path.read_text())):
            if isinstance(cls, ast.ClassDef):
                found += [(path.name, cls.name, node.name) for node in cls.body
                          if isinstance(node, (ast.FunctionDef,
                                               ast.AsyncFunctionDef))
                          and not node.name.startswith("_")]
    return found


def _callers():
    """The names that src/ (but its re-exports), the acceptance tests and
    the perfbench scripts reference."""
    return (_references([p for p in SRC if p.name != "__init__.py"])
            | _references([ROOT / "tests" / "test_acceptance.py"])
            | _references(PERFBENCH, strings=True))


def test_every_private_definition_in_src_is_referenced():
    used = _references(SRC)
    dead = [d for d in _private_definitions(SRC) if d[1] not in used]
    assert not dead, f"unreferenced private definitions in src/: {dead}"


def test_every_top_level_test_helper_is_referenced():
    used = _references(TESTS)
    dead = [d for d in _private_definitions(TESTS, top_level_only=True)
            if d[1] not in used]
    assert not dead, f"unreferenced helpers in tests/: {dead}"


def test_every_public_name_has_a_caller_or_is_library_only():
    callers = _callers()
    uncalled = {n for n in fracharm.__all__ if n not in callers}
    assert uncalled == set(LIBRARY_ONLY), (
        f"without a caller and not library-only: "
        f"{sorted(uncalled - set(LIBRARY_ONLY))}; library-only but "
        f"called or not public: {sorted(set(LIBRARY_ONLY) - uncalled)}")


def test_every_public_method_in_src_has_a_caller():
    callers = _callers()
    uncalled = [m for m in _public_methods(SRC) if m[2] not in callers]
    assert not uncalled, f"public methods without a caller: {uncalled}"


def test_no_public_name_is_a_module():
    # from fracharm import * binds the library's names, not its submodules
    modules = [n for n in fracharm.__all__
               if isinstance(getattr(fracharm, n), ModuleType)]
    assert not modules, f"submodules in fracharm.__all__: {modules}"
