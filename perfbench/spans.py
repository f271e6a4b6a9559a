"""Spans around calls into the symcanon layers, and the per-layer metrics.

The tracer replaces each traced function by a wrapper that records one span
(name, start, end, parent) per call.  ``from .ideals import saturate``
leaves a separate binding of the same function in every importing module,
so the wrapper is bound in place of every module global that *is* that
function object, in every ``symcanon.*`` module and in the benchmark's own
workload module; methods are patched on their class.  Spans stay in memory
until the run ends.

Not traced, on purpose: ``orders.key`` and the scalar operations of
``fields``.  Each op makes millions of those calls, so a wrapper would
swamp what it measures; their cost shows up as the self time of the
callers that are traced (``_normal_form_terms``, ``Polynomial.__mul__``).
"""

from __future__ import annotations

import functools
import json
import sys
from collections import defaultdict
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

# (module, attribute, reported statistics, measure).  The span is named
# "<module>.<attribute>"; ``measure(args, result)`` returns the numbers a
# span carries besides its times.
TARGETS: List[Tuple[str, str, Tuple[str, ...], Optional[Callable]]] = [
    ("ideals", "_buchberger", ("calls", "self_s"),
     lambda a, r: (len(r), max((f.degree() for f in r), default=0))),
    ("ideals", "groebner_basis", ("calls",), None),
    ("ideals", "_normal_form_terms", ("calls", "self_s"), None),
    ("ideals", "saturate", ("total_s",), None),
    ("ideals", "ideal_intersection", ("total_s",), None),
    ("ideals", "ideal_quotient", ("total_s",), None),
    ("ideals", "codimension", ("total_s",), None),
    ("ideals", "zero_dim_analysis", ("total_s",), None),
    ("poly", "Polynomial.__mul__", ("calls", "self_s"),
     lambda a, r: len(a[0].terms) * len(a[1].terms)),
    ("poly", "Polynomial.__add__", ("calls", "self_s"), None),
    ("tableau", "check_symmetry", ("calls", "total_s"), None),
    ("tableau", "apply_op", ("calls", "total_s"), None),
    ("tableau", "fitting_ideal", ("total_s",), None),
    ("tableau", "degeneracy_scheme", ("total_s",), None),
    ("linalg", "_np_rref", ("calls", "self_s"),
     lambda a, r: (a[0].shape[0] * a[0].shape[1], len(r[1]))),
    ("linalg", "solve_particular", ("calls", "total_s"), None),
    ("linalg", "rref", ("calls", "total_s"), None),
    ("linalg", "nullspace", ("calls", "total_s"), None),
    ("canonical", "verify_instance", ("total_s",), None),
    ("canonical", "acyclicity_check", (), None),
    ("canonical", "ring_condition_check", (), None),
    ("canonical", "multiplication_table", ("total_s",), None),
    ("canonical", "associativity_check", ("total_s",), None),
    ("normalform", "reduce_k11", ("total_s",), lambda a, r: len(r.witness_moves)),
    ("normalform", "factor_symplectic", ("total_s",), None),
    ("normalform", "_special_directions", ("total_s",), None),
    ("basechange", "is_nzd_mod", ("calls", "total_s"), lambda a, r: bool(r)),
    ("basechange", "make_koszul_type", ("total_s",), lambda a, r: len(r.moves)),
    ("basechange", "BaseChangeCert.reverify", ("total_s",), None),
    ("serialize", "tableau_from_json", ("total_s",), None),
    ("serialize", "render_report", ("total_s",), None),
    ("serialize", "dumps", ("total_s",), None),
    ("paramgen", "sample", ("total_s",), None),
    ("paramgen", "realize", ("total_s",), None),
]
# checks of verify_instance, reported by the span's time under it
VERIFY_CHECKS = ("check_symmetry", "acyclicity_check", "degeneracy_scheme", "ring_condition_check")
UNITS = {"calls": "calls/op", "total_s": "s/op", "self_s": "s/op"}

LAYERS = ("ideals", "poly", "tableau", "linalg", "canonical", "normalform", "basechange", "serialize")
OP, SETUP = "bench.op", "bench.setup"


class Tracer:
    """Records spans in parallel lists; index -1 as parent means a root."""

    def __init__(self) -> None:
        self.name: List[str] = []
        self.start: List[float] = []
        self.end: List[float] = []
        self.parent: List[int] = []
        self.extra: List[object] = []
        self._stack: List[int] = [-1]
        self._patches: List[Tuple[object, str, object]] = []

    def _open(self, name: str) -> int:
        idx = len(self.name)
        self.name.append(name)
        self.parent.append(self._stack[-1])
        self.extra.append(None)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self._stack.pop()

    def span(self, name: str, fn: Callable, *args):
        """Run ``fn(*args)`` inside a root-level span of the benchmark."""
        idx = self._open(name)
        try:
            return fn(*args)
        finally:
            self._close(idx)

    def _wrap(self, name: str, fn: Callable, measure: Optional[Callable]) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if measure is not None:
                self.extra[idx] = measure(args, result)
            return result

        return traced

    def install(self, extra_modules=()) -> None:
        modules = [m for n, m in sys.modules.items() if n.startswith("symcanon")]
        modules += list(extra_modules)
        for mod_name, attr, _, measure in TARGETS:
            span_name = f"{mod_name}.{attr}"
            home = sys.modules[f"symcanon.{mod_name}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(home, cls_name)
                original = cls.__dict__[meth]
                self._patches.append((cls, meth, original))
                setattr(cls, meth, self._wrap(span_name, original, measure))
                continue
            original = getattr(home, attr)
            wrapper = self._wrap(span_name, original, measure)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, key, original))
                        setattr(mod, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {"name": self.name, "start": self.start, "end": self.end, "parent": self.parent},
                fh,
            )

    # -- aggregation ----------------------------------------------------------

    def metrics(self) -> Dict[str, Tuple[float, str]]:
        """Per-layer metrics: per op over the op spans, per set-up pass over
        the set-up span."""
        n = len(self.name)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child_time = [0.0] * n
        root = list(range(n))
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child_time[p] += dur[i]
                root[i] = root[p]
        ops = [i for i in range(n) if self.parent[i] < 0 and self.name[i] == OP]
        setups = [i for i in range(n) if self.parent[i] < 0 and self.name[i] == SETUP]
        n_ops = max(len(ops), 1)
        op_wall = sum(dur[i] for i in ops) or 1.0

        calls: Dict[str, int] = defaultdict(int)
        total: Dict[str, float] = defaultdict(float)
        self_s: Dict[str, float] = defaultdict(float)
        spans_of: Dict[str, List[int]] = defaultdict(list)
        setup_total: Dict[str, float] = defaultdict(float)
        for i in range(n):
            name = self.name[i]
            if self.parent[i] < 0:
                continue
            if self.name[root[i]] == SETUP:
                setup_total[name] += dur[i]
                continue
            calls[name] += 1
            total[name] += dur[i]
            self_s[name] += dur[i] - child_time[i]
            spans_of[name].append(i)

        children: Dict[int, List[int]] = defaultdict(list)
        for i in range(n):
            if self.parent[i] >= 0:
                children[self.parent[i]].append(i)

        def extras(name):
            return [self.extra[i] for i in spans_of[name] if self.extra[i] is not None]

        out: Dict[str, Tuple[float, str]] = {}

        def per_op(key, value, unit):
            out[key] = (value / n_ops, unit)

        def ratio(key, hits, base):
            out[key] = (hits / base if base else 0.0, "ratio")

        stats = {"calls": calls, "total_s": total, "self_s": self_s}
        for mod_name, attr, reported, _ in TARGETS:
            span_name = f"{mod_name}.{attr}"
            if mod_name == "paramgen":
                out[f"{span_name}.total_s"] = (setup_total[span_name] / max(len(setups), 1), "s")
                continue
            for stat in reported:
                per_op(f"{span_name}.{stat}", stats[stat][span_name], UNITS[stat])

        gb = extras("ideals._buchberger")
        per_op("ideals._buchberger.basis_size_sum", sum(e[0] for e in gb), "count/op")
        out["ideals._buchberger.max_degree"] = (max((e[1] for e in gb), default=0), "degree")
        gb_calls = spans_of["ideals.groebner_basis"]
        hits = sum(
            1 for i in gb_calls
            if not any(self.name[c] == "ideals._buchberger" for c in children[i])
        )
        ratio("ideals.gb_cache_hit_ratio", hits, len(gb_calls))
        per_op("poly.Polynomial.__mul__.term_pairs", sum(extras("poly.Polynomial.__mul__")), "pairs/op")
        rr = extras("linalg._np_rref")
        per_op("linalg._np_rref.cells", sum(e[0] for e in rr), "cells/op")
        per_op("linalg._np_rref.rank_sum", sum(e[1] for e in rr), "count/op")
        verify_spans = set(spans_of["canonical.verify_instance"])
        for check in VERIFY_CHECKS:
            t = sum(
                dur[i]
                for mod_name, attr, _, _ in TARGETS
                if attr == check
                for i in spans_of[f"{mod_name}.{attr}"]
                if self.parent[i] in verify_spans
            )
            per_op(f"canonical.verify_instance.{check}.total_s", t, "s/op")
        per_op("normalform.witness_moves", sum(extras("normalform.reduce_k11")), "moves/op")
        nzd = extras("basechange.is_nzd_mod")
        ratio("basechange.is_nzd_mod.true_ratio", sum(nzd), len(nzd))
        per_op("basechange.cert_moves", sum(extras("basechange.make_koszul_type")), "moves/op")
        for layer in LAYERS:
            s = sum(v for k, v in self_s.items() if k.startswith(layer + "."))
            out[f"layer.{layer}.self_share"] = (s / op_wall, "ratio")
        return out
