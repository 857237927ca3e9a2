"""Static reach guard: code that nothing reaches cannot come back.

Reads the sources with ast and runs nothing of them.  A name counts as
referenced where it is loaded (a Name or an Attribute) or imported with
``from ... import``; text in docstrings and comments does not count.  A
setting (a parameter or dataclass field with a default) counts as used
where a call of its name passes it.
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


def _settings(paths):
    """(file, name, setting, position, field) of each parameter with a
    default of a function or method, and of each dataclass field with a
    default.  The position counts past self or cls; a keyword-only
    parameter has none."""
    found = []
    for path in paths:
        tree = ast.parse(path.read_text())
        classes = [c for c in ast.walk(tree) if isinstance(c, ast.ClassDef)]
        methods = {id(f) for c in classes for f in c.body}
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                a = node.args
                bound = id(node) in methods and not any(
                    isinstance(d, ast.Name) and d.id == "staticmethod"
                    for d in node.decorator_list)
                args = (a.posonlyargs + a.args)[bound:]
                first = len(args) - len(a.defaults)
                found += [(path.name, node.name, p.arg, i, False)
                          for i, p in enumerate(args) if i >= first]
                found += [(path.name, node.name, p.arg, None, False)
                          for p, d in zip(a.kwonlyargs, a.kw_defaults)
                          if d is not None]
        for cls in classes:
            if any("dataclass" in ast.unparse(d) for d in cls.decorator_list):
                fields = [f for f in cls.body if isinstance(f, ast.AnnAssign)]
                found += [(path.name, cls.name, f.target.id, i, True)
                          for i, f in enumerate(fields) if f.value is not None]
    return found


def _passed(paths):
    """Per called name (a Name or an Attribute), what its calls pass: each
    keyword, each argument position, and "*" where a call spreads *args or
    **kwargs, which passes everything."""
    passed: dict[str, set] = {}
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call) and isinstance(
                    node.func, (ast.Name, ast.Attribute)):
                name = getattr(node.func, "id", None) or node.func.attr
                got = passed.setdefault(name, set())
                got.update(range(len(node.args)))
                got.update(k.arg or "*" for k in node.keywords)
                if any(isinstance(a, ast.Starred) for a in node.args):
                    got.add("*")
    return passed


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


def test_every_setting_has_a_caller():
    passed = _passed(SRC + TESTS + PERFBENCH)
    # the keywords of replace(...) set fields; its spread **kw names none
    replaced = passed.get("replace", set())
    unset = [s[:4] for s in _settings(SRC)
             if not {"*", s[2], s[3]} & passed.get(s[1], set())
             and not (s[4] and s[2] in replaced)]
    assert not unset, f"settings that no call passes: {unset}"


def test_no_public_name_is_a_module():
    # from fracharm import * binds the library's names, not its submodules
    modules = [n for n in fracharm.__all__
               if isinstance(getattr(fracharm, n), ModuleType)]
    assert not modules, f"submodules in fracharm.__all__: {modules}"
