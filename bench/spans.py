"""Per-layer tracing by wrapping closureops entry points at run time.

Nothing under ``src/`` changes: :func:`install` replaces each entry point
below with a wrapper that records a span (metric name, parent span, start,
end) and, after the clock stops, the layer's work counts.  A span's self time
is its duration minus the time of its child spans (including the children's
bookkeeping), so over one call the self times plus the bookkeeping add up to
the call's wall time exactly.

Only coarse entry points are wrapped: functions called a bounded number of
times per generator or per report, never per subset (``closure_bits``,
``SubsetMask.__le__`` and the like), so the wrappers do not change which
layer dominates.  An entry point that a later version of the package no
longer has is skipped and reported, and its metrics stay 0.
"""

from __future__ import annotations

import functools
import importlib
import sys
from collections import defaultdict
from time import perf_counter

LAYERS = ("cli", "jsonio", "core", "poset", "generators", "complexity", "labeling", "menus")

# (module, attribute path, span name)
ENTRY_POINTS = (
    ("cli", "main", "cli.self"),
    ("jsonio", "topology_from", "jsonio.parse"),
    ("jsonio", "operator_table_from", "jsonio.parse"),
    ("jsonio", "generators_from", "jsonio.parse"),
    ("jsonio", "labeling_from", "jsonio.parse"),
    ("jsonio", "preference_from", "jsonio.parse"),
    ("jsonio", "topology_doc", "jsonio.emit"),
    ("jsonio", "validation_doc", "jsonio.emit"),
    ("jsonio", "weak_order_doc", "jsonio.emit"),
    ("jsonio", "binary_doc", "jsonio.emit"),
    ("jsonio", "profile_doc", "jsonio.emit"),
    ("jsonio", "generation_doc", "jsonio.emit"),
    ("jsonio", "labeling_doc", "jsonio.emit"),
    ("jsonio", "axioms_doc", "jsonio.emit"),
    ("jsonio", "kreps_doc", "jsonio.emit"),
    ("jsonio", "additive_doc", "jsonio.emit"),
    ("jsonio", "mobius_doc", "jsonio.emit"),
    ("jsonio", "hasse_doc", "jsonio.emit"),
    ("core", "Topology.__post_init__", "core.topology"),
    ("core", "ClosureOperator.tabulate_bits", "core.tabulate"),
    ("core", "ClosureOperator.from_table", "core.table"),
    ("core", "ClosureOperator.table", "core.table"),
    ("core", "ClosureOperator.closed_sets", "core.table"),
    ("core", "validate_closure", "core.table"),
    ("core", "Topology.depth", "core.depth"),
    ("poset", "FinitePoset.from_leq", "poset.build"),
    ("poset", "FinitePoset.min_chain_cover", "poset.chain_cover"),
    ("poset", "FinitePoset.mobius", "poset.mobius"),
    ("poset", "FinitePoset.mobius_invert", "poset.mobius"),
    ("poset", "FinitePoset.sum_below", "poset.mobius"),
    ("poset", "FinitePoset.hasse", "poset.hasse"),
    ("poset", "to_dot", "poset.hasse"),
    ("generators", "check_generation", "generators.check"),
    ("generators", "intersect_generate", "generators.intersect"),
    ("generators", "WeakOrder.from_chain", "generators.build"),
    ("generators", "WeakOrder.operator", "generators.build"),
    ("generators", "BinaryClassifier.operator", "generators.build"),
    ("complexity", "complexity_profile", "complexity.profile"),
    ("complexity", "meet_irreducibles", "complexity.irreducibles"),
    ("labeling", "Labeling.classifier", "labeling.classifier"),
    ("labeling", "canonical_labeling", "labeling.labelings"),
    ("labeling", "minimal_labeling", "labeling.labelings"),
    ("menus", "check_axioms", "menus.axioms"),
    ("menus", "kreps_operator", "menus.kreps"),
    ("menus", "kreps_representation", "menus.kreps_rep"),
    ("menus", "additive_representation", "menus.additive"),
    ("menus", "respects", "menus.additive"),
)

SPAN_NAMES = tuple(dict.fromkeys(name for _, _, name in ENTRY_POINTS))

COUNTS = (
    "cli.calls",
    "jsonio.subsets_in",
    "jsonio.subsets_out",
    "core.topology_pairs",
    "core.images_tabulated",
    "poset.pairs",
    "generators.checked",
    "generators.verify_images",
    "generators.verify_reads",
    "menus.axiom_triples",
)

# Every metric a traced run reports, with its unit, in report order.
PER_LAYER = (
    [(f"{name}_ms", "ms") for name in SPAN_NAMES]
    + [("cli.call_ms", "ms"), ("complexity.verify_ms", "ms")]
    + [(name, "count") for name in COUNTS]
    + [("generators.verify_waste", "ratio"), ("complexity.verify_share", "ratio")]
    + [(f"{layer}.errors", "count") for layer in LAYERS]
    + [("trace.overhead_s", "s")]
)

_SKIPPED_KEYS = {"elements", "labels", "phi", "summary", "state_utilities"}
_SUBSET_KEYS = {"from", "to", "lower", "upper", "closed_set", "cutoff", "menu",
                "submenu", "a", "b", "c"}


def count_subsets(doc, key=None, in_list=False) -> int:
    """Element-name arrays (subsets of X) in a report document."""
    if isinstance(doc, dict):
        return sum(count_subsets(v, k) for k, v in doc.items() if k not in _SKIPPED_KEYS)
    if isinstance(doc, list):
        if all(isinstance(x, str) for x in doc) and (doc or in_list or key in _SUBSET_KEYS):
            return 1
        return sum(count_subsets(x, key, True) for x in doc)
    return 0


def _subsets_in(doc) -> int:
    if not isinstance(doc, dict):
        return 0
    for key, per_entry in (("closed_sets", 1), ("map", 2), ("utilities", 1), ("phi", 1)):
        if isinstance(doc.get(key), (list, dict)):
            return per_entry * len(doc[key])
    weak = doc.get("weak_orders", [])
    return len(doc.get("binary", [])) + sum(
        len(w.get("classes_worst_first", [])) for w in weak if isinstance(w, dict)
    )


def _axiom_triples(preference) -> int:
    """Triples (A, B, C) whose C loop ``check_axioms`` enters."""
    values = preference.values
    size = len(values)
    entered = sum(1 for a in range(1, size) for b in range(size) if values[a | b] == values[a])
    return entered * size


class Tracer:
    """Span stack and per-layer accumulators for one worker process."""

    def __init__(self) -> None:
        self.stack: list[list] = []  # [child seconds, span index, span name]
        self.spans: list = []  # (name, parent index, start, end) for the current call
        self.self_s: dict[str, float] = defaultdict(float)
        self.incl_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.bookkeeping_s = 0.0
        self.suspended = False
        self._counted: set[int] = set()

    def inside(self, name: str) -> bool:
        return any(frame[2] == name for frame in self.stack)

    def start_call(self) -> None:
        self.spans = []
        self._counted = set()

    def nesting_ok(self) -> bool:
        """Exactly one root span; every span lies inside its parent."""
        roots = 0
        for name, parent, start, end in self.spans:
            if parent is None:
                roots += 1
                continue
            _, _, p_start, p_end = self.spans[parent]
            if not p_start <= start <= end <= p_end:
                return False
        return roots == 1

    def _hook(self, name, args, result) -> None:
        counts = self.counts
        if name == "cli.self":
            counts["cli.calls"] += 1
            if result:
                counts["cli.errors"] += 1
        elif name == "jsonio.parse":
            counts["jsonio.subsets_in"] += _subsets_in(args[0] if args else None)
        elif name == "jsonio.emit":
            if not self.inside("jsonio.emit"):
                counts["jsonio.subsets_out"] += count_subsets(result)
        elif name == "core.topology":
            m = len(args[0].closed)
            counts["core.topology_pairs"] += m * (m - 1) // 2
        elif name == "core.tabulate":
            if not getattr(args[0], "is_table_backed", False):
                counts["core.images_tabulated"] += len(result)
                if self.inside("generators.check"):
                    counts["generators.verify_images"] += len(result)
        elif name == "poset.build":
            counts["poset.pairs"] += len(args[1]) ** 2
        elif name == "generators.check":
            f, generators = args[0], args[1]
            counts["generators.checked"] += len(generators)
            counts["generators.verify_reads"] += len(f.closed_sets()) * len(generators)
        elif name == "menus.axioms":
            counts["menus.axiom_triples"] += _axiom_triples(args[0])

    def wrap(self, fn, name: str):
        layer = name.partition(".")[0]
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer.suspended:
                return fn(*args, **kwargs)
            stack = tracer.stack
            parent = stack[-1][1] if stack else None
            frame = [0.0, len(tracer.spans), name]
            tracer.spans.append(None)
            stack.append(frame)
            error = None
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                error = exc
                result = None
                raise
            finally:
                end = perf_counter()
                stack.pop()
                tracer.spans[frame[1]] = (name, parent, start, end)
                tracer.self_s[name] += end - start - frame[0]
                if not tracer.inside(name):
                    tracer.incl_s[name] += end - start
                tracer.suspended = True
                try:
                    if error is not None:
                        if id(error) not in tracer._counted:
                            tracer._counted.add(id(error))
                            tracer.counts[f"{layer}.errors"] += 1
                    else:
                        tracer._hook(name, args, result)
                finally:
                    tracer.suspended = False
                done = perf_counter()
                tracer.bookkeeping_s += done - end
                if stack:
                    stack[-1][0] += done - start

        return traced


def layer_metrics(self_s: dict, incl_s: dict, counts: dict, overhead_s: float) -> dict:
    """Every per-layer metric, named as in :data:`PER_LAYER`, from one
    worker's accumulators (times in seconds)."""
    values: dict[str, float] = {}
    for name in SPAN_NAMES:
        values[f"{name}_ms"] = self_s.get(name, 0.0) * 1e3
    call_ms = incl_s.get("cli.self", 0.0) * 1e3
    verify_ms = incl_s.get("generators.check", 0.0) * 1e3
    values["cli.call_ms"] = call_ms
    values["complexity.verify_ms"] = verify_ms
    for name in COUNTS:
        values[name] = counts.get(name, 0)
    reads = counts.get("generators.verify_reads", 0)
    values["generators.verify_waste"] = (
        counts.get("generators.verify_images", 0) / reads if reads else 0.0
    )
    values["complexity.verify_share"] = verify_ms / call_ms if call_ms else 0.0
    for layer in LAYERS:
        values[f"{layer}.errors"] = counts.get(f"{layer}.errors", 0)
    values["trace.overhead_s"] = overhead_s
    return values


def install(tracer: Tracer) -> list[str]:
    """Wrap every entry point; returns the ones this package version lacks."""
    skipped = []
    replaced: dict[int, tuple] = {}  # id(original) -> (original, wrapper)
    for module_name, path, name in ENTRY_POINTS:
        module = importlib.import_module(f"closureops.{module_name}")
        owner_name, _, attr = path.rpartition(".")
        owner = getattr(module, owner_name, None) if owner_name else module
        raw = vars(owner).get(attr) if owner is not None else None
        if raw is None:
            skipped.append(f"{module_name}.{path}")
            continue
        if isinstance(raw, classmethod):
            setattr(owner, attr, classmethod(tracer.wrap(raw.__func__, name)))
        else:
            wrapped = tracer.wrap(raw, name)
            setattr(owner, attr, wrapped)
            if not owner_name:
                replaced[id(raw)] = (raw, wrapped)
    # Names imported with ``from .module import f`` still point at the
    # original functions: rebind them in every closureops module.
    for module_name, module in list(sys.modules.items()):
        if module_name == "closureops" or module_name.startswith("closureops."):
            for key, value in list(vars(module).items()):
                if id(value) in replaced and replaced[id(value)][0] is value:
                    setattr(module, key, replaced[id(value)][1])
    return skipped
