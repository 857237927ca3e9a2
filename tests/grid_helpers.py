"""Helpers shared by the test modules."""

import ast
from pathlib import Path

import numpy as np

import fracharm


def coords(spec):
    """Coordinate arrays x_j = j h of full grid shape, one per axis."""
    x = np.arange(spec.N) * spec.h
    return np.meshgrid(*(x,) * spec.n, indexing="ij")


def mention_sites(names: set[str]) -> set[tuple[str, str]]:
    """(module, function) of every mention in the package of a name in
    names: a call, an attribute, an alias or an import.  The module prefix
    of a dotted name such as np.fft.rfftn is not a mention of fft."""
    sites = set()
    for path in sorted(Path(fracharm.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        funcs = [f for f in ast.walk(tree) if isinstance(f, ast.FunctionDef)]
        prefixes = {id(node.value) for node in ast.walk(tree)
                    if isinstance(node, ast.Attribute)}
        for node in ast.walk(tree):
            if id(node) in prefixes:
                continue
            found = {getattr(node, "attr", None), getattr(node, "id", None)}
            found |= {a.name for a in getattr(node, "names", ())
                      if isinstance(a, ast.alias)}
            if not found & names:
                continue
            owners = [f for f in funcs
                      if f.lineno <= node.lineno <= f.end_lineno]
            owner = max(owners, key=lambda f: f.lineno, default=None)
            sites.add((path.stem, owner.name if owner else "<module>"))
    return sites
