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
