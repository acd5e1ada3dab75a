"""Span recorder for the traced run: wraps the public functions of each layer.

Every wrapped call records one span (name, parent, start, end) in memory.
The functions are wrapped in every namespace of the `harmonica` package that
binds them (module globals and module-level dispatch dicts such as the suite
table in `verify`), and `wrapped()` puts the originals back when it exits.
The spans are summarised into per-layer metrics: call counts, inclusive time
per function, and self time per layer, where a span's self time is its
duration minus the part its child spans cover.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from collections import Counter
from contextlib import contextmanager
from typing import Dict, List, Sequence

PACKAGE = "harmonica"
LAYERS = ("linalg", "superpoly", "spaces", "operators", "structure", "verify", "cache", "cli")

SUITES = (
    "dims", "duality", "operator-theorem", "cogeneration", "hamiltonian", "lefschetz",
    "phi", "vanishing", "differentials", "oracle-catalan", "figure1",
)

# (span name, harmonica module, attribute); "Class.method" wraps a method.
# Several attributes may share a span name.
TARGETS = (
    ("linalg.insert", "linalg", "RrefAccumulator.insert"),
    ("linalg.reduce", "linalg", "RrefAccumulator.reduce"),
    ("linalg.reduce", "linalg", "RrefAccumulator.reduce_with_coeffs"),
    ("linalg.rref", "linalg", "rref"),
    ("linalg.kernel_basis", "linalg", "kernel_basis"),
    ("linalg.membership", "linalg", "membership"),
    ("superpoly.act", "superpoly", "act"),
    ("superpoly.alt", "superpoly", "alt"),
    ("superpoly.apply_op", "superpoly", "apply_op"),
    ("superpoly.pairing", "superpoly", "pairing"),
    ("spaces.even_block", "spaces", "_build_even_block"),
    ("spaces.harmonic_piece", "spaces", "_build_harmonic_piece"),
    ("spaces.hook_block", "spaces", "_build_hook_block"),
    ("spaces.sign_block", "spaces", "_sign_quotient_block"),
    ("spaces.ideal_tower", "spaces", "_IdealTower._build"),
    # The space builders only attribute their own loop time to `spaces`.
    ("spaces.coinvariants", "spaces", "coinvariants"),
    ("spaces.harmonics", "spaces", "harmonics"),
    ("spaces.hook_component", "spaces", "hook_component"),
    ("spaces.sign_component", "spaces", "sign_component"),
    ("spaces.antisymmetric_ideal", "spaces", "antisymmetric_ideal"),
    ("spaces.ideal_quotient_series", "spaces", "ideal_quotient_series"),
    ("operators.matrix_of", "operators", "matrix_of"),
    ("operators.check_preserves", "operators", "check_preserves"),
    ("operators.diff_operator", "operators", "OperatorSpec.diff_operator"),
    ("structure.model", "structure", "model"),
    ("structure.cogeneration_search", "structure", "cogeneration_search"),
    ("structure.export_homology", "structure", "export_homology"),
    ("verify.run_suite", "verify", "run_suite"),
    *((f"verify.{s}", "verify", "suite_" + s.replace("-", "_")) for s in SUITES),
    ("cache.load", "cache", "load_quotient"),
    ("cache.load", "cache", "load_subspace"),
    ("cache.save", "cache", "save_quotient"),
    ("cache.save", "cache", "save_subspace"),
    ("cli.main", "cli", "main"),
)

# Span name -> which of its calls count ("calls") and inclusive time ("s")
# are reported.  Spans not listed here still carry their layer's self time.
REPORTED = {
    "linalg.insert": ("calls", "s"),
    "linalg.reduce": ("calls", "s"),
    "linalg.rref": ("calls", "s"),
    "linalg.kernel_basis": ("calls", "s"),
    "linalg.membership": ("calls", "s"),
    "superpoly.act": ("calls", "s"),
    "superpoly.alt": ("calls", "s"),
    "superpoly.apply_op": ("calls", "s"),
    "superpoly.pairing": ("calls", "s"),
    "spaces.even_block": ("calls", "s"),
    "spaces.harmonic_piece": ("calls", "s"),
    "spaces.hook_block": ("calls", "s"),
    "spaces.sign_block": ("calls", "s"),
    "spaces.ideal_tower": ("calls", "s"),
    "operators.matrix_of": ("calls", "s"),
    "operators.check_preserves": ("calls", "s"),
    "operators.diff_operator": ("calls",),
    "structure.model": ("s",),
    "structure.cogeneration_search": ("s",),
    "structure.export_homology": ("s",),
    **{f"verify.{s}": ("s",) for s in SUITES},
    "cache.load": ("calls", "s"),
    "cache.save": ("calls", "s"),
}

# Counts taken inside the wrappers, with their units.
COUNTERS = {
    "linalg.insert.independent": "count",  # inserts that returned a pivot
    "linalg.insert.nnz_in": "count",  # nonzero entries of the inserted vectors
    "spaces.even_block.distinct": "count",  # distinct (n, a, b)
    "operators.matrix_of.distinct": "count",  # distinct (spec, kind, n, deg)
    "cache.load.hits": "count",
    "cache.bytes_read": "B",
    "cache.bytes_written": "B",
}


def metric_units() -> Dict[str, str]:
    """Every per-layer metric of the traced run, in report order, with its unit."""
    units: Dict[str, str] = {}
    for span, kinds in REPORTED.items():
        for kind in kinds:
            units[f"{span}.{kind}"] = "count" if kind == "calls" else "s"
    units.update(COUNTERS)
    units.update({f"{layer}.self_s": "s" for layer in LAYERS})
    units["trace.overhead"] = "ratio"
    return units


class Recorder:
    """Spans in four parallel arrays, in start order; parents precede children."""

    def __init__(self):
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("q")
        self.span_end = array("q")
        self._stack: List[int] = []
        self.counts: Counter = Counter()
        self.distinct: Dict[str, set] = {}

    def wrap(self, name: str, fn, note=None):
        """`fn` recording a span per call; `note(rec, args, kwargs, result)` counts."""
        nid = self._ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        stack = self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.span_name)
            self.span_name.append(nid)
            self.span_parent.append(stack[-1] if stack else -1)
            self.span_start.append(0)
            self.span_end.append(0)
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                self.span_start[idx] = start
                self.span_end[idx] = end
            if note is not None:
                note(self, args, kwargs, result)
            return result

        return traced

    def add_distinct(self, name: str, key) -> None:
        self.distinct.setdefault(name, set()).add(key)

    def spans_json(self) -> dict:
        """All spans, column by column, with times in ns from the first start."""
        t0 = self.span_start[0] if self.span_start else 0
        return {
            "names": self.names,
            "name": self.span_name.tolist(),
            "parent": self.span_parent.tolist(),
            "start_ns": [t - t0 for t in self.span_start],
            "end_ns": [t - t0 for t in self.span_end],
        }


def summarize(names: Sequence[str], span_name, span_parent, span_start, span_end) -> dict:
    """Calls and inclusive seconds per span name, self seconds per layer.

    Inclusive time counts only the outermost of nested spans of one name, so
    recursion is not counted twice.  A layer is the part of a name before
    its first dot.
    """
    n = len(span_name)
    child_ns = [0] * n
    for i in range(n):
        p = span_parent[i]
        if p >= 0:
            child_ns[p] += span_end[i] - span_start[i]
    calls: Counter = Counter()
    inclusive: Counter = Counter()
    self_ns: Counter = Counter()
    open_names: Counter = Counter()
    stack: List[int] = []
    layer_of = [name.split(".", 1)[0] for name in names]
    for i in range(n):
        p = span_parent[i]
        while stack and stack[-1] != p:
            open_names[span_name[stack.pop()]] -= 1
        nid = span_name[i]
        dur = span_end[i] - span_start[i]
        calls[nid] += 1
        if not open_names[nid]:
            inclusive[nid] += dur
        self_ns[layer_of[nid]] += dur - child_ns[i]
        stack.append(i)
        open_names[nid] += 1
    return {
        "calls": {names[k]: v for k, v in calls.items()},
        "inclusive_s": {names[k]: v / 1e9 for k, v in inclusive.items()},
        "self_s": {layer: v / 1e9 for layer, v in self_ns.items()},
    }


def layer_metrics(rec: Recorder) -> Dict[str, float]:
    """The per-layer metrics of `metric_units()`, except `trace.overhead`."""
    summary = summarize(rec.names, rec.span_name, rec.span_parent, rec.span_start, rec.span_end)
    out: Dict[str, float] = {}
    for span, kinds in REPORTED.items():
        for kind in kinds:
            table = summary["calls"] if kind == "calls" else summary["inclusive_s"]
            out[f"{span}.{kind}"] = table.get(span, 0)
    for name in COUNTERS:
        if name.endswith(".distinct"):
            out[name] = len(rec.distinct.get(name, ()))
        else:
            out[name] = rec.counts[name]
    for layer in LAYERS:
        out[f"{layer}.self_s"] = summary["self_s"].get(layer, 0.0)
    return out


# --- what the wrappers count besides spans ---------------------------------


def _arg(args, kwargs, pos: int, key: str):
    return args[pos] if len(args) > pos else kwargs[key]


def _note_insert(rec, args, kwargs, result):
    rec.counts["linalg.insert.nnz_in"] += len(_arg(args, kwargs, 1, "vec"))
    if result is not None:
        rec.counts["linalg.insert.independent"] += 1


def _note_even_block(rec, args, kwargs, result):
    key = tuple(_arg(args, kwargs, i, k) for i, k in enumerate(("n", "a", "b")))
    rec.add_distinct("spaces.even_block.distinct", key)


def _note_matrix_of(rec, args, kwargs, result):
    spec, space = _arg(args, kwargs, 0, "spec"), _arg(args, kwargs, 1, "space")
    deg = tuple(_arg(args, kwargs, 2, "deg"))
    rec.add_distinct("operators.matrix_of.distinct", (spec, space.kind, space.n, deg))


def _note_load(cache_module):
    def note(rec, args, kwargs, result):
        path = cache_module.cache_path(*args[:3], **kwargs)
        if path.is_file():
            rec.counts["cache.bytes_read"] += path.stat().st_size
        if result is not None:
            rec.counts["cache.load.hits"] += 1

    return note


def _note_save(rec, args, kwargs, result):
    rec.counts["cache.bytes_written"] += result.stat().st_size


def _notes(modules) -> dict:
    return {
        "linalg.insert": _note_insert,
        "spaces.even_block": _note_even_block,
        "operators.matrix_of": _note_matrix_of,
        "cache.load": _note_load(modules.get("cache")),
        "cache.save": _note_save,
    }


def _namespaces():
    """Module globals and module-level dicts of every loaded harmonica module."""
    for modname, module in list(sys.modules.items()):
        if module is None or not (modname == PACKAGE or modname.startswith(PACKAGE + ".")):
            continue
        namespace = vars(module)
        yield namespace
        for value in list(namespace.values()):
            if isinstance(value, dict) and value is not namespace:
                yield value


_INHERITED = object()


@contextmanager
def wrapped(rec: Recorder):
    """Wrap every target while the block runs; yields the targets not found.

    The caller imports every harmonica module first, so no later import
    binds an unwrapped original.
    """
    modules = {name.rsplit(".", 1)[-1]: mod for name, mod in sys.modules.items()
               if mod is not None and name.startswith(PACKAGE + ".")}
    notes = _notes(modules)
    saved = []  # (owner, key, original), restored in reverse order
    missing = []
    try:
        for span, modname, attr in TARGETS:
            module = modules.get(modname)
            owner_name, _, method = attr.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            original = getattr(owner, method, None) if owner is not None else None
            if original is None:
                missing.append(f"{modname}.{attr}")
                continue
            wrapper = rec.wrap(span, original, notes.get(span))
            if owner_name:
                # An inherited method is restored by deleting the wrapper.
                saved.append((owner, method, vars(owner).get(method, _INHERITED)))
                setattr(owner, method, wrapper)
                continue
            for namespace in _namespaces():
                for key, value in list(namespace.items()):
                    if value is original:
                        saved.append((namespace, key, value))
                        namespace[key] = wrapper
        yield missing
    finally:
        for owner, key, original in reversed(saved):
            if isinstance(owner, dict):
                owner[key] = original
            elif original is _INHERITED:
                delattr(owner, key)
            else:
                setattr(owner, key, original)


def uncalled(rec: Recorder) -> List[str]:
    """Wrapped span names that recorded no call."""
    seen = set(rec.span_name)
    return [name for k, name in enumerate(rec.names) if k not in seen]
