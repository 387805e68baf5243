"""Spans around the public functions of each malgebra module, from outside.

``install`` wraps the functions named in ``SPANS`` in every module that
binds them (``order``, ``connectives``, ``logic`` and ``cli`` import them by
name, so patching the defining module alone would miss their calls), plus a
few methods on their classes.  Each call records a span (name, parent, start,
end, argument key, item count) in flat arrays that ``dump`` writes out when
the process ends.  Table actions are the one exception: a run makes tens of
millions of them, so each adds its count and time to the enclosing span
instead of a span of its own.

``Stats`` reads the dumped spans back and derives calls, self time (span
time minus the time of its child spans and of the table actions inside it),
total time (outermost spans of a name only), distinct argument keys and item
counts per name.
"""

from __future__ import annotations

import json
import os
import sys
from array import array
from time import perf_counter

_FIELDS = (("name", "H"), ("parent", "i"), ("start", "d"), ("end", "d"),
           ("key", "i"), ("items", "q"), ("nested", "b"),
           ("leaf_calls", "q"), ("leaf_time", "d"))


def _proj_key(args):
    sub, ray = args[0], args[1]
    return sub.basis, ray.direction


def _mask_key(args):
    return args[1].name


def _check_name(args, kwargs):
    return "core.check." + (args[1] if len(args) > 1 else kwargs["property_id"])


# (span name, module, attribute, argument key, item count)
SPANS = (
    ("ratlin.rref", "ratlin", "rref", None, None),
    ("ratlin.projection_matrix", "ratlin", "projection_matrix", None, None),
    ("ratlin.mat_mul", "ratlin", "mat_mul", None, None),
    ("ratlin.window", "ratlin", "primitive_vectors", None, len),
    ("ratlin.window", "ratlin", "subspace_rays", None, len),
    ("core.preserves", "core", "preserves", None, None),
    ("core.commutes", "core", "commutes", None, None),
    ("core.membership", "core", "membership", None, None),
    ("core.compose_raw", "core", "compose_raw", None, None),
    ("core.negation_of", "core", "negation_of", None, None),
    ("core.point_measurement", "core", "point_measurement", None, None),
    ("core.extent", "core", "extent", None, None),
    (_check_name, "core", "check_axiom", None, None),
    ("core.lemma_suite", "core", "lemma_suite", None, None),
    ("models.load_model", "models", "load_model", None, None),
    ("models.build_table", "models", "build_table", None, None),
    ("models.build_propositional", "models", "build_propositional", None, None),
    ("models.build_ray", "models", "build_ray", None, None),
    ("order.bounds_check", "order", "bounds_check", None, None),
    ("order.orthomodular_check", "order", "orthomodular_check", None, None),
    ("order.strong_sep_check", "order", "strong_sep_check", None, None),
    ("order.leq", "order", "leq", None, None),
    ("connectives.conjunction", "connectives", "conjunction", None, None),
    ("connectives.disjunction", "connectives", "disjunction", None, None),
    ("connectives.implication", "connectives", "implication", None, None),
    ("formulas.enumerate_formulas", "formulas", "enumerate_formulas", None, len),
    ("formulas.essential_function", "formulas", "essential_function", None, None),
    ("formulas.entails", "formulas", "entails", None, None),
    ("formulas.parse_formula", "formulas", "parse_formula", None, None),
    ("logic.verify_tautology_theorem", "logic", "verify_tautology_theorem", None, None),
    ("logic.verify_schemes", "logic", "verify_schemes", None, None),
    ("cli.format_report", "cli", "format_report", None, None),
)

# (span name, module, class, method, argument key)
METHOD_SPANS = (
    ("ratlin.project_ray", "ratlin", "Subspace", "project_ray", _proj_key),
    ("ratlin.intersect", "ratlin", "Subspace", "intersect", None),
    ("core.action", "core", "ProjectionMeasurement", "__call__", None),
    ("core.fp_mask", "core", "FiniteAlgebra", "fp_mask", _mask_key),
    ("core.z_mask", "core", "FiniteAlgebra", "z_mask", _mask_key),
    ("connectives.commuting_set", "connectives", "CommutingSet", "__init__", None),
)


class Tracer:
    """In-memory span store; one per traced process."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self._keys: dict = {}
        self._open: list[int] = []
        self.stack = [-1]
        self.cols = {f: array(t) for f, t in _FIELDS}
        self.root_leaf_calls = 0
        self.root_leaf_time = 0.0

    def _name_id(self, name):
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self._open.append(0)
        return nid

    def wrap(self, name, fn, key=None, items=None):
        cols, stack, opened = self.cols, self.stack, self._open
        c_name, c_parent, c_start, c_end = cols["name"], cols["parent"], cols["start"], cols["end"]
        c_key, c_items, c_nested = cols["key"], cols["items"], cols["nested"]
        c_leaf_calls, c_leaf_time = cols["leaf_calls"], cols["leaf_time"]
        keys = self._keys
        fixed = None if callable(name) else self._name_id(name)

        def traced(*args, **kwargs):
            nid = fixed if fixed is not None else self._name_id(name(args, kwargs))
            idx = len(c_name)
            c_name.append(nid)
            c_parent.append(stack[-1])
            c_key.append(keys.setdefault((nid, key(args)), len(keys)) if key else -1)
            c_items.append(0)
            c_nested.append(opened[nid] > 0)
            c_leaf_calls.append(0)
            c_leaf_time.append(0.0)
            c_start.append(0.0)
            c_end.append(0.0)
            stack.append(idx)
            opened[nid] += 1
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                c_end[idx] = perf_counter()
                c_start[idx] = start
                opened[nid] -= 1
                stack.pop()
            if items is not None:
                c_items[idx] = items(result)
            return result

        return traced

    def wrap_leaf(self, fn):
        """Count and time a call in the enclosing span; records no span."""
        stack, c_leaf_calls, c_leaf_time = self.stack, self.cols["leaf_calls"], self.cols["leaf_time"]

        def counted(*args):
            start = perf_counter()
            result = fn(*args)
            elapsed = perf_counter() - start
            parent = stack[-1]
            if parent >= 0:
                c_leaf_calls[parent] += 1
                c_leaf_time[parent] += elapsed
            else:
                self.root_leaf_calls += 1
                self.root_leaf_time += elapsed
            return result

        return counted

    def dump(self, directory):
        os.makedirs(directory, exist_ok=True)
        for field, col in self.cols.items():
            with open(os.path.join(directory, field + ".bin"), "wb") as handle:
                col.tofile(handle)
        header = {"names": self.names, "spans": len(self.cols["name"]),
                  "root_leaf_calls": self.root_leaf_calls,
                  "root_leaf_time": self.root_leaf_time}
        with open(os.path.join(directory, "header.json"), "w", encoding="utf-8") as handle:
            json.dump(header, handle)


def install() -> Tracer:
    """Wrap the functions and methods above in every loaded malgebra module."""
    import malgebra  # noqa: F401  (loads every submodule)

    tracer = Tracer()
    modules = [m for n, m in list(sys.modules.items())
               if n == "malgebra" or n.startswith("malgebra.")]
    for name, module, attr, key, items in SPANS:
        original = getattr(sys.modules["malgebra." + module], attr)
        wrapped = tracer.wrap(name, original, key, items)
        for mod in modules:
            for binding, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, binding, wrapped)
    for name, module, cls_name, method, key in METHOD_SPANS:
        cls = getattr(sys.modules["malgebra." + module], cls_name)
        setattr(cls, method, tracer.wrap(name, getattr(cls, method), key))
    subspace = sys.modules["malgebra.ratlin"].Subspace
    built = subspace.__dict__["from_generators"].__func__
    subspace.from_generators = classmethod(tracer.wrap("ratlin.subspace", built))
    table = sys.modules["malgebra.core"].TableMeasurement
    table.__call__ = tracer.wrap_leaf(table.__call__)
    return tracer


class Stats:
    """Per-name totals derived from the spans of one or more processes."""

    def __init__(self):
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.total_s: dict[str, float] = {}
        self.keys: dict[str, int] = {}
        self.items: dict[str, int] = {}
        self.spans = 0

    def add(self, name, field, value):
        table = getattr(self, field)
        table[name] = table.get(name, 0) + value

    def load(self, directory):
        """Fold in the spans one traced process wrote to ``directory``."""
        with open(os.path.join(directory, "header.json"), encoding="utf-8") as handle:
            header = json.load(handle)
        cols = {}
        for field, code in _FIELDS:
            col = array(code)
            with open(os.path.join(directory, field + ".bin"), "rb") as handle:
                col.fromfile(handle, header["spans"])
            cols[field] = col
        names = header["names"]
        n = header["spans"]
        self.spans += n
        dur = [cols["end"][i] - cols["start"][i] for i in range(n)]
        child = list(cols["leaf_time"])
        parent = cols["parent"]
        for i in range(n):
            if parent[i] >= 0:
                child[parent[i]] += dur[i]
        distinct: dict[int, set] = {}
        leaf_calls = header["root_leaf_calls"]
        leaf_time = header["root_leaf_time"]
        for i in range(n):
            name = names[cols["name"][i]]
            self.add(name, "calls", 1)
            self.add(name, "self_s", dur[i] - child[i])
            if not cols["nested"][i]:
                self.add(name, "total_s", dur[i])
            if cols["key"][i] >= 0:
                distinct.setdefault(cols["name"][i], set()).add(cols["key"][i])
            self.add(name, "items", cols["items"][i])
            leaf_calls += cols["leaf_calls"][i]
            leaf_time += cols["leaf_time"][i]
        for nid, keys in distinct.items():
            self.add(names[nid], "keys", len(keys))
        self.add("core.action", "calls", leaf_calls)
        self.add("core.action", "self_s", leaf_time)
        self.add("core.action", "total_s", leaf_time)
