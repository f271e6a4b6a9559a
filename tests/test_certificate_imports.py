from __future__ import annotations

import ast
import importlib
from pathlib import Path

from symcanon.poly import coprime_on_a_line

FORBIDDEN = {"symcanon.ideals", "symcanon.canonical"}


def _symcanon_imports(module_name: str) -> set:
    # the symcanon modules one module imports, read from its source
    path = Path(importlib.import_module(module_name).__file__)
    found = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            found.update(a.name for a in node.names if a.name.startswith("symcanon"))
        elif isinstance(node, ast.ImportFrom):
            if node.level == 0:
                if node.module and node.module.startswith("symcanon"):
                    found.add(node.module)
                continue
            base = module_name.rsplit(".", node.level)[0]
            if node.module:
                found.add(f"{base}.{node.module}")
            else:
                found.update(f"{base}.{a.name}" for a in node.names)
    return {name for name in found if name != "symcanon"}


def test_grade_certificate_imports_no_ideal_engine():
    # a replay of the line certificate must need poly and univariate alone,
    # so its module reaches neither the ideal engine nor the verification
    # battery, through any chain of symcanon imports
    home = coprime_on_a_line.__module__
    seen, todo = set(), [home]
    while todo:
        name = todo.pop()
        if name not in seen:
            seen.add(name)
            todo.extend(_symcanon_imports(name))
    assert home == "symcanon.poly"
    assert "symcanon.univariate" in seen
    assert not seen & FORBIDDEN


def test_point_analysis_draws_no_seed():
    # the zero-dimensional analysis is seedless, so a replay of its trace
    # Gram matrix needs no random stream: ideals imports neither the
    # univariate helpers nor DetRng
    assert "symcanon.univariate" not in _symcanon_imports("symcanon.ideals")
    tree = ast.parse(Path(importlib.import_module("symcanon.ideals").__file__).read_text())
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.ImportFrom):
            names.update(a.name for a in node.names)
    assert "DetRng" not in names
