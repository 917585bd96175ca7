"""Per-layer spans for the traced run, recorded from the benchmark's side.

install() rebinds the public functions of each layer, in every narybands
module that holds a reference to them, with wrappers that record a span:
stage, start, end, parent span and op id.  Spans stay in a list in memory
until the worker writes them out at the end of its run; aggregate() turns
them into per-stage calls, self time and counts.  Nothing in src/ changes.
"""

import time
from math import comb

# stage -> functions of the module named by the stage's first part
STAGES = {
    "optable.axioms": ("check_associative", "check_symmetric", "check_idempotent",
                       "band_violation", "require_band"),
    "optable.canonical": ("canonical_form", "relabel"),
    "optable.extend": ("extend",),
    "optable.codec": ("table_from_json", "table_to_json", "table_from_doc", "table_to_doc"),
    "bandcore.sigma": ("sigma_partition", "lambda_table", "associated_band"),
    "bandcore.quotient": ("quotient",),
    "bandcore.classify": ("classify",),
    "structure.decompose": ("decompose",),
    "structure.class_group": ("class_group", "invariant_factors"),
    "structure.hom_maps": ("hom_maps",),
    "structure.validate": ("validate_system",),
    "structure.codec": ("system_from_json", "system_to_json", "system_from_doc", "system_to_doc"),
    "compose.compose": ("compose",),
    "compose.enumerate": ("enumerate_bands",),
    "compose.brute": ("brute_force_bands",),
    "reduce.decide": ("decide_reducible",),
    "reduce.build": ("build_reduction",),
    "reduce.verify": ("verify_reduction",),
    "cli.main": ("main",),
    "cli.emit": ("_emit_catalog", "_emit"),
}

# The op span the worker opens around each operation; its self time is the
# part of an op that no wrapped function covers.
OTHER = "other"


def _cells(t) -> int:
    return t.size**t.arity


def _text_bytes(name, args, result) -> int:
    if name.endswith("from_json"):
        return len(args[0])
    if name.endswith("to_json"):
        return len(result)
    return 0


def _brute_candidates(args) -> int:
    m, n = args[0], args[1]
    return m ** (comb(m + n - 1, n) - m)


# stage -> count name -> f(function name, args, result); counted at the
# outermost span of a stage only, so nested calls are not counted twice
COUNTS = {
    "optable.axioms": {"table_cells": lambda f, a, r: _cells(a[0])},
    "optable.canonical": {"table_cells": lambda f, a, r: _cells(a[0])},
    "optable.extend": {"cells_out": lambda f, a, r: _cells(r)},
    "optable.codec": {"bytes": _text_bytes},
    "structure.codec": {"bytes": _text_bytes},
    "compose.compose": {"cells_out": lambda f, a, r: _cells(r)},
    "compose.enumerate": {"labeled": lambda f, a, r: r.labeled},
    "compose.brute": {
        "candidates": lambda f, a, r: _brute_candidates(a),
        "kept": lambda f, a, r: r.labeled,
    },
    "reduce.decide": {"irreducible": lambda f, a, r: 0 if r.reducible else 1},
}


class Tracer:
    def __init__(self):
        self.spans = []  # [stage, start, end, parent, op, counts]
        self._stack = []
        self.op = None

    def span(self, stage, fn, name):
        counters = COUNTS.get(stage, {})

        def wrapper(*args, **kwargs):
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            record = [stage, 0.0, 0.0, parent, self.op, None]
            self.spans.append(record)
            self._stack.append(index)
            record[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                self._stack.pop()
            if counters:
                record[5] = {k: f(name, args, result) for k, f in counters.items()}
            return result

        return wrapper

    def op_span(self, op_id, fn, *args):
        """Run fn(*args) as the root span of one op."""
        self.op = op_id
        try:
            return self.span(OTHER, fn, "op")(*args)
        finally:
            self.op = None

    def install(self, package) -> None:
        import importlib

        modules = [package] + [
            importlib.import_module(f"{package.__name__}.{name}")
            for name in ("optable", "bandcore", "structure", "compose", "reduce", "cli")
        ]
        for stage, names in STAGES.items():
            home = importlib.import_module(f"{package.__name__}.{stage.split('.')[0]}")
            for name in names:
                original = getattr(home, name)
                wrapped = self.span(stage, original, name)
                for module in modules:
                    if getattr(module, name, None) is original:
                        setattr(module, name, wrapped)


def aggregate(spans) -> tuple[dict, float, dict]:
    """Per-stage {"calls", "self_ms", counts...}, the root spans' total ms,
    and each stage's self ms split by the stage that called into it.

    calls counts entries into a stage from outside it; self time is a
    span's duration minus the durations of its direct children.  Parents
    precede their children in the list.
    """
    child_ms = [0.0] * len(spans)
    for stage, start, end, parent, _, _ in spans:
        if parent >= 0:
            child_ms[parent] += (end - start) * 1000
    stats: dict = {}
    by_caller: dict = {}
    callers = []
    root_ms = 0.0
    for i, (stage, start, end, parent, _, counts) in enumerate(spans):
        ms = (end - start) * 1000
        if parent < 0:
            caller = "-"
            root_ms += ms
        elif spans[parent][0] != stage:
            caller = spans[parent][0]
        else:
            caller = callers[parent]
        callers.append(caller)
        entry = stats.setdefault(stage, {"calls": 0, "self_ms": 0.0})
        entry["self_ms"] += ms - child_ms[i]
        split = by_caller.setdefault(stage, {})
        split[caller] = split.get(caller, 0.0) + ms - child_ms[i]
        if parent >= 0 and spans[parent][0] == stage:
            continue
        entry["calls"] += 1
        for key, value in (counts or {}).items():
            entry[key] = entry.get(key, 0) + value
    return stats, root_ms, by_caller
