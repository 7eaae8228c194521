"""JSON wire formats for every value the library exchanges with the CLI.

Parsing is strict: structural problems (wrong types, unknown element names,
missing table entries, inexact numbers) raise
:class:`~closureops.errors.SchemaError` or one of the structural construction
errors, never produce a half-built value.  Mathematical problems (a family
that is not intersection-closed, a table violating the closure axioms) surface
as the library's own typed errors so callers can distinguish "malformed" from
"well-formed but wrong".

Formats (subsets are always arrays of element names, in ground-set order):

* ground set        ``{"elements": ["a", "b"]}``
* topology          ``{"elements": [...], "closed_sets": [[], ["a"], ...]}``
* operator table    ``{"elements": [...], "map": [{"from": [...], "to": [...]}, ...]}``
* weak order        ``{"classes_worst_first": [["c"], ["a", "b"]]}``
* binary classifier ``{"cutoff": ["a", "b"]}``
* generator list    ``{"elements": [...], "weak_orders": [...], "binary": [...]}``
* labeling          ``{"labels": [...], "phi": {"a": ["dog"], ...}}``
  (optionally with ``"elements"`` fixing the element order; otherwise the
  ``phi`` key order is used)
* preference        ``{"elements": [...], "utilities": [{"menu": ["a"], "value": "3/2"}, ...]}``

Utilities are exact rationals: JSON strings (``"3/2"``, ``"1.5"``) or integers.
Floats are rejected — binary floating point is not exact.

Emitters return plain dicts/lists with deterministic key and element order,
so serializing equal values yields byte-equal JSON.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Any

from .complexity import ComplexityProfile
from .core import (
    ClosureOperator,
    GroundSet,
    SubsetMask,
    Topology,
    ValidationReport,
)
from .errors import SchemaError
from .generators import BinaryClassifier, GenerationReport, WeakOrder
from .labeling import Labeling
from .menus import (
    AdditiveRepresentation,
    AxiomReport,
    KrepsRepresentation,
    MenuPreference,
)
from .poset import MobiusTable

__all__ = [
    "ground_from",
    "subset_from",
    "topology_from",
    "operator_table_from",
    "weak_order_from",
    "binary_from",
    "generators_from",
    "labeling_from",
    "preference_from",
    "subset_doc",
    "topology_doc",
    "validation_doc",
    "profile_doc",
    "generation_doc",
    "weak_order_doc",
    "binary_doc",
    "labeling_doc",
    "axioms_doc",
    "kreps_doc",
    "additive_doc",
    "mobius_doc",
    "hasse_doc",
    "fraction_str",
    "fraction_from",
    "MAX_RATIONAL_DIGITS",
]


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise SchemaError(message)


def _require_dict(value: Any, what: str) -> dict:
    _require(isinstance(value, dict), f"{what} must be a JSON object")
    return value


def _require_list(value: Any, what: str) -> list:
    _require(isinstance(value, list), f"{what} must be a JSON array")
    return value


def _name_list(value: Any, what: str) -> list[str]:
    names = _require_list(value, what)
    for name in names:
        _require(isinstance(name, str), f"{what} must contain strings")
    return names


def fraction_str(value: Fraction) -> str:
    """Exact decimal-free rendering: ``"3"`` or ``"3/2"``."""
    return str(value)


#: Most digits, and largest absolute decimal exponent, that a rational string
#: may carry: ``Fraction("1e1000000")`` alone builds a 3.3M-bit integer.
MAX_RATIONAL_DIGITS = 1000


def fraction_from(value: Any, what: str) -> Fraction:
    """Parse an exact rational from a JSON string or integer (never a float).

    Strings with more than :data:`MAX_RATIONAL_DIGITS` digits, or with a
    decimal exponent beyond it in absolute value, raise :class:`SchemaError`.
    """
    if isinstance(value, bool):
        raise SchemaError(f"{what} must be a rational string or integer")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        digits = sum(ch.isdigit() for ch in value)
        _, marker, exponent = value.lower().partition("e")
        scale = 0
        if marker and digits <= MAX_RATIONAL_DIGITS:
            try:
                scale = int(exponent)
            except ValueError:
                pass  # not an exponent; Fraction rejects the string below
        if digits > MAX_RATIONAL_DIGITS or abs(scale) > MAX_RATIONAL_DIGITS:
            raise SchemaError(
                f"{what} exceeds {MAX_RATIONAL_DIGITS} digits or exponent "
                f"{MAX_RATIONAL_DIGITS}: {value[:40]!r}"
            )
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise SchemaError(f"{what} is not a valid rational: {value!r}") from exc
    if isinstance(value, float):
        raise SchemaError(
            f"{what} must be exact; write the rational as a string, not a float"
        )
    raise SchemaError(f"{what} must be a rational string or integer")


# ---------------------------------------------------------------- parsing


def ground_from(doc: Any) -> GroundSet:
    doc = _require_dict(doc, "ground set document")
    _require("elements" in doc, 'ground set document needs an "elements" array')
    names = _name_list(doc["elements"], '"elements"')
    try:
        return GroundSet(tuple(names))
    except ValueError as exc:
        raise SchemaError(str(exc)) from exc


def subset_from(ground: GroundSet, value: Any, what: str = "subset") -> SubsetMask:
    names = _name_list(value, what)
    return ground.subset(names)


def topology_from(doc: Any) -> Topology:
    doc = _require_dict(doc, "topology document")
    ground = ground_from(doc)
    _require("closed_sets" in doc, 'topology document needs a "closed_sets" array')
    sets = _require_list(doc["closed_sets"], '"closed_sets"')
    masks = tuple(subset_from(ground, s, "closed set") for s in sets)
    return Topology(ground, masks)


def operator_table_from(doc: Any) -> tuple[GroundSet, dict[SubsetMask, SubsetMask]]:
    doc = _require_dict(doc, "operator table document")
    ground = ground_from(doc)
    _require("map" in doc, 'operator table document needs a "map" array')
    table: dict[SubsetMask, SubsetMask] = {}
    for entry in _require_list(doc["map"], '"map"'):
        entry = _require_dict(entry, "map entry")
        _require(
            "from" in entry and "to" in entry, 'map entries need "from" and "to"'
        )
        key = subset_from(ground, entry["from"], '"from"')
        _require(key not in table, f"duplicate map entry for {key.label()}")
        table[key] = subset_from(ground, entry["to"], '"to"')
    return ground, table


def weak_order_from(ground: GroundSet, doc: Any) -> WeakOrder:
    doc = _require_dict(doc, "weak order document")
    _require(
        "classes_worst_first" in doc,
        'weak order document needs a "classes_worst_first" array',
    )
    classes = _require_list(doc["classes_worst_first"], '"classes_worst_first"')
    masks = tuple(subset_from(ground, c, "indifference class") for c in classes)
    try:
        return WeakOrder(ground, masks)
    except ValueError as exc:
        raise SchemaError(str(exc)) from exc


def binary_from(ground: GroundSet, doc: Any) -> BinaryClassifier:
    doc = _require_dict(doc, "binary classifier document")
    _require("cutoff" in doc, 'binary classifier document needs a "cutoff" array')
    try:
        return BinaryClassifier(subset_from(ground, doc["cutoff"], '"cutoff"'))
    except ValueError as exc:
        raise SchemaError(str(exc)) from exc


def generators_from(
    doc: Any,
) -> tuple[GroundSet, list[WeakOrder], list[BinaryClassifier]]:
    doc = _require_dict(doc, "generator list document")
    ground = ground_from(doc)
    weak_orders = [
        weak_order_from(ground, entry)
        for entry in _require_list(doc.get("weak_orders", []), '"weak_orders"')
    ]
    binary = [
        binary_from(ground, entry)
        for entry in _require_list(doc.get("binary", []), '"binary"')
    ]
    return ground, weak_orders, binary


def labeling_from(doc: Any) -> Labeling:
    doc = _require_dict(doc, "labeling document")
    _require("labels" in doc, 'labeling document needs a "labels" array')
    _require("phi" in doc, 'labeling document needs a "phi" object')
    labels = _name_list(doc["labels"], '"labels"')
    phi = _require_dict(doc["phi"], '"phi"')
    if "elements" in doc:
        element_names = _name_list(doc["elements"], '"elements"')
        _require(
            set(element_names) == set(phi),
            '"phi" must assign labels to exactly the listed elements',
        )
    else:
        element_names = list(phi)
    try:
        ground = GroundSet(tuple(element_names))
    except ValueError as exc:
        raise SchemaError(str(exc)) from exc
    assignment = {
        element: _name_list(phi[element], f'labels of "{element}"')
        for element in element_names
    }
    try:
        return Labeling.from_names(ground, labels, assignment)
    except ValueError as exc:
        raise SchemaError(str(exc)) from exc


def preference_from(doc: Any) -> MenuPreference:
    doc = _require_dict(doc, "preference document")
    ground = ground_from(doc)
    _require("utilities" in doc, 'preference document needs a "utilities" array')
    values: list[Fraction | None] = [None] * (ground.full_bits + 1)
    for entry in _require_list(doc["utilities"], '"utilities"'):
        entry = _require_dict(entry, "utility entry")
        _require(
            "menu" in entry and "value" in entry,
            'utility entries need "menu" and "value"',
        )
        menu = subset_from(ground, entry["menu"], '"menu"')
        _require(
            values[menu.bits] is None, f"duplicate utility for menu {menu.label()}"
        )
        values[menu.bits] = fraction_from(entry["value"], f"value of {menu.label()}")
    missing = next((bits for bits in range(1, len(values)) if values[bits] is None), None)
    _require(
        missing is None,
        "preference must cover every nonempty menu; missing "
        + (ground.mask(missing).label() if missing is not None else ""),
    )
    return MenuPreference(ground, tuple(values))


# ---------------------------------------------------------------- emitting


def subset_doc(mask: SubsetMask) -> list[str]:
    return list(mask.members())


def topology_doc(topology: Topology) -> dict:
    return {
        "elements": list(topology.ground.elements),
        "closed_sets": [subset_doc(m) for m in topology.closed],
    }


def validation_doc(report: ValidationReport) -> dict:
    return {
        "elements": list(report.ground.elements),
        "ok": report.ok,
        "fixes_empty": report.fixes_empty,
        "violations": {
            "extensivity": [subset_doc(m) for m in report.extensivity],
            "idempotence": [subset_doc(m) for m in report.idempotence],
            "monotonicity": [
                {"lower": subset_doc(a), "upper": subset_doc(b)}
                for a, b in report.monotonicity
            ],
        },
        "summary": report.summary(),
    }


def weak_order_doc(order: WeakOrder) -> dict:
    return {"classes_worst_first": [subset_doc(c) for c in order.classes]}


def binary_doc(classifier: BinaryClassifier) -> dict:
    return {"cutoff": subset_doc(classifier.cutoff)}


def profile_doc(profile: ComplexityProfile) -> dict:
    ground = profile.irreducibles.topology.ground
    return {
        "elements": list(ground.elements),
        "class_count": profile.class_count,
        "depth_s": profile.depth_s,
        "width_s": profile.width_s,
        "mnwo": profile.mnwo,
        "mnbc": profile.mnbc,
        "p_of_f": [subset_doc(m) for m in profile.irreducibles.p_of_f],
        "b_of_f": [subset_doc(m) for m in profile.irreducibles.b_of_f],
        "weak_order_witness": [weak_order_doc(w) for w in profile.weak_order_witness],
        "binary_witness": [binary_doc(b) for b in profile.binary_witness],
    }


def generation_doc(report: GenerationReport) -> dict:
    return {
        "generates": report.generates,
        "condition1_ok": report.condition1_ok,
        "condition1_witnesses": [
            {"generator": position, "closed_set": subset_doc(m)}
            for position, m in report.condition1_witnesses
        ],
        "condition2_ok": report.condition2_ok,
        "condition2_witnesses": [
            {"closed_set": subset_doc(m), "element": name}
            for m, name in report.condition2_witnesses
        ],
        "pointwise_equal": report.pointwise_equal,
    }


def labeling_doc(labeling: Labeling) -> dict:
    return {
        "elements": list(labeling.ground.elements),
        "labels": list(labeling.labels),
        "phi": {
            element: list(labeling.label_set(element))
            for element in labeling.ground
        },
    }


def axioms_doc(report: AxiomReport) -> dict:
    return {
        "ok": report.ok,
        "flexibility_ok": report.flexibility_ok,
        "flexibility_witnesses": [
            {"menu": subset_doc(a), "submenu": subset_doc(b)}
            for a, b in report.flexibility_witnesses
        ],
        "submodularity_ok": report.submodularity_ok,
        "submodularity_witnesses": [
            {"a": subset_doc(a), "b": subset_doc(b), "c": subset_doc(c)}
            for a, b, c in report.submodularity_witnesses
        ],
        "summary": report.summary(),
    }


def kreps_doc(representation: KrepsRepresentation) -> dict:
    ground = representation.ground
    aggregator = sorted(
        representation.ranks.items(), key=lambda item: (item[1], item[0])
    )
    return {
        "elements": list(ground.elements),
        "style": "kreps",
        "state_count": representation.state_count,
        "states": [
            {"state": f"s{i + 1}", **weak_order_doc(order)}
            for i, order in enumerate(representation.states)
        ],
        "state_utilities": {
            element: [
                representation.state_utility(element, s)
                for s in range(representation.state_count)
            ]
            for element in ground
        },
        "aggregator": [
            {"signature": list(signature), "rank": rank}
            for signature, rank in aggregator
        ],
    }


def additive_doc(representation: AdditiveRepresentation) -> dict:
    def states(side: tuple) -> list[dict]:
        return [
            {
                "state": state.name,
                "closed_set": subset_doc(state.carrier),
                "weight": fraction_str(state.weight),
            }
            for state in side
        ]

    return {
        "elements": list(representation.ground.elements),
        "style": "additive",
        "state_count": representation.state_count,
        "positive_states": states(representation.positive_states),
        "negative_states": states(representation.negative_states),
    }


def mobius_doc(topology: Topology, table: MobiusTable) -> dict:
    return {
        "elements": list(topology.ground.elements),
        "closed_sets": [subset_doc(m) for m in topology.closed],
        "entries": [
            {"from": subset_doc(x), "to": subset_doc(y), "mu": value}
            for x, y, value in table.pairs()
        ],
    }


def hasse_doc(
    topology: Topology, covers: tuple[tuple[SubsetMask, SubsetMask], ...]
) -> dict:
    return {
        "elements": list(topology.ground.elements),
        "edges": [
            {"lower": subset_doc(a), "upper": subset_doc(b)} for a, b in covers
        ],
    }
