from __future__ import annotations

import importlib
import inspect
import pkgutil

import symcanon


def _functions():
    # every function and method defined in a symcanon module, by name
    for info in pkgutil.iter_modules(symcanon.__path__):
        module = importlib.import_module(f"symcanon.{info.name}")
        for name, obj in vars(module).items():
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj):
                yield f"{module.__name__}.{name}", obj
            elif inspect.isclass(obj):
                for attr, method in inspect.getmembers(obj, inspect.isfunction):
                    yield f"{module.__name__}.{name}.{attr}", method


def test_no_function_takes_a_budget():
    # the budgets are module constants (ideals.DEGREE_BUDGET,
    # ideals.PAIR_BUDGET, basechange.TRIAL_BUDGET), so every computation
    # runs under the same bound whichever entry point reaches it
    found = [
        f"{where}({param})"
        for where, fn in _functions()
        for param in inspect.signature(fn).parameters
        if param == "config" or param.endswith("_budget")
    ]
    assert not found
    assert sum(1 for _ in _functions()) > 100
