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

Every array of element names, in every document, is read into a bit pattern
by one routine, :func:`_bits_from`, which ORs the names' bit weights, counting
a repeated name once, and reads an array that fails that (an unknown or
non-string name, a non-array) name by name, raising the error naming the
fault.  Reading and validating a topology builds no
:class:`~closureops.core.SubsetMask`.  An operator table is read into one
array of images indexed by bit pattern (:func:`operator_images_from`), which
the validation reads as it is.  The other readers wrap the patterns in masks
where the values they return hold masks.  An error message names a subset by
its label, which is built only when the error is raised.

Utilities are exact rationals: JSON strings (``"3/2"``, ``"1.5"``) or integers.
Floats are rejected — binary floating point is not exact.  Each distinct
value of a preference is parsed once, and its ``Fraction`` shared by the
menus that carry it.

Element and label names must be encodable as UTF-8: a lone surrogate, which
JSON's ``\\ud800`` escape can carry, is a :class:`SchemaError`.

Emitters (``*_doc``) return the report as text, byte-identical to
``json.dumps(doc, indent=2, ensure_ascii=False)`` of the document they
describe, with deterministic key and element order, so equal values yield
byte-equal reports.  They render straight to text instead of building the
document: each element name is escaped once per report, each subset's name
array once per indentation depth, and each object from a ``%``-template of
its fixed keys.
"""

from __future__ import annotations

import functools
from bisect import bisect_left
from collections.abc import Callable, Iterable, Mapping, Sequence
from fractions import Fraction
from json.encoder import encode_basestring as _string
from typing import Any, TypeVar

from .complexity import ComplexityProfile
from .core import MAX_RATIONAL_DIGITS, GroundSet, SubsetMask, Topology, ValidationReport
from .core import _exact_fraction
from .errors import SchemaError
from .generators import BinaryClassifier, GenerationReport, WeakOrder
from .labeling import Labeling
from .menus import (
    AdditiveRepresentation,
    AxiomReport,
    KrepsRepresentation,
    MenuPreference,
)

__all__ = [
    "ground_from",
    "subset_from",
    "topology_from",
    "operator_images_from",
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
    "decomposition_doc",
    "flat_doc",
    "verified_doc",
    "fraction_from",
    "MAX_RATIONAL_DIGITS",
]


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise SchemaError(message)


_T = TypeVar("_T")


def _checked(make: Callable[..., _T], *args: Any) -> _T:
    """``make(*args)``, its ValueError reported as a SchemaError with the
    same message: a constructor's check is the reader's check."""
    try:
        return make(*args)
    except ValueError as exc:
        raise SchemaError(str(exc)) from exc


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


def _encodable(names: list[str], what: str) -> list[str]:
    """The names, if UTF-8 can encode every one (no lone surrogates), so a
    report naming them can be written."""
    for name in names:
        try:
            name.encode("utf-8")
        except UnicodeEncodeError:
            raise SchemaError(f"{what} must be encodable as UTF-8, got {name!r}") from None
    return names


def fraction_from(value: Any, what: str) -> Fraction:
    """Parse an exact rational from a JSON string or integer (never a float).

    Strings with more than :data:`MAX_RATIONAL_DIGITS` digits, or with a
    decimal exponent beyond it in absolute value, raise :class:`SchemaError`.
    """
    if isinstance(value, float):
        raise SchemaError(
            f"{what} must be exact; write the rational as a string, not a float"
        )
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        raise SchemaError(f"{what} must be a rational string or integer")
    return _checked(_exact_fraction, value, what)


# ---------------------------------------------------------------- parsing


def _ground(names: list[str], what: str) -> GroundSet:
    """The ground set of a list of element names, each encodable."""
    _encodable(names, what)
    return _checked(GroundSet, tuple(names))


def ground_from(doc: Any) -> GroundSet:
    doc = _require_dict(doc, "ground set document")
    _require("elements" in doc, 'ground set document needs an "elements" array')
    return _ground(_name_list(doc["elements"], '"elements"'), '"elements"')


def _bits_from(ground: GroundSet, value: Any, what: str) -> int:
    """The bit pattern of an array of element names: the only reader of one.

    The names' bit weights are ORed from the ground set's one name map, so a
    repeated name counts once.  An array that fails that (an unknown or
    non-string name) and a non-array are read by :meth:`GroundSet.subset`,
    which raises the error naming the first fault: a :class:`SchemaError`
    for a non-array or a non-string entry anywhere, else a
    :class:`~closureops.errors.ForeignMask` for the first unknown name."""
    if type(value) is list:  # a dict or string would iterate
        bit = ground._bit
        bits = 0
        try:
            for name in value:
                bits |= bit[name]
            return bits
        except (KeyError, TypeError):
            pass
    return ground.subset(_name_list(value, what)).bits


def subset_from(ground: GroundSet, value: Any, what: str = "subset") -> SubsetMask:
    return ground.mask(_bits_from(ground, value, what))


def topology_from(doc: Any) -> Topology:
    doc = _require_dict(doc, "topology document")
    ground = ground_from(doc)
    _require("closed_sets" in doc, 'topology document needs a "closed_sets" array')
    sets = _require_list(doc["closed_sets"], '"closed_sets"')
    return Topology(ground, [_bits_from(ground, s, "closed set") for s in sets])


def operator_images_from(doc: Any) -> tuple[GroundSet, list[int]]:
    """An operator table document as images indexed by bit pattern, −1
    where the map lacks a subset, read without building a mask.  Each
    entry's ``"from"`` is read by :func:`_bits_from` and checked for a
    repeat, a :class:`SchemaError`, before its ``"to"`` is read, so a
    repeated subset is reported before a bad image.  A lacking subset is
    left to the validation, which raises
    :class:`~closureops.errors.MissingEntry`."""
    doc = _require_dict(doc, "operator table document")
    ground = ground_from(doc)
    _require("map" in doc, 'operator table document needs a "map" array')
    images = [-1] * (ground.full_bits + 1)
    for entry in _require_list(doc["map"], '"map"'):
        try:
            source, target = entry["from"], entry["to"]
        except (KeyError, TypeError):
            _require_dict(entry, "map entry")
            raise SchemaError('map entries need "from" and "to"') from None
        key = _bits_from(ground, source, '"from"')
        if images[key] != -1:
            raise SchemaError(f"duplicate map entry for {ground.mask(key).label()}")
        images[key] = _bits_from(ground, target, '"to"')
    return ground, images


def weak_order_from(ground: GroundSet, doc: Any) -> WeakOrder:
    doc = _require_dict(doc, "weak order document")
    _require(
        "classes_worst_first" in doc,
        'weak order document needs a "classes_worst_first" array',
    )
    classes = _require_list(doc["classes_worst_first"], '"classes_worst_first"')
    masks = tuple(subset_from(ground, c, "indifference class") for c in classes)
    return _checked(WeakOrder, ground, masks)


def binary_from(ground: GroundSet, doc: Any) -> BinaryClassifier:
    doc = _require_dict(doc, "binary classifier document")
    _require("cutoff" in doc, 'binary classifier document needs a "cutoff" array')
    return _checked(BinaryClassifier, subset_from(ground, doc["cutoff"], '"cutoff"'))


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
    """A labeling document's :class:`Labeling`.  Every ``"phi"`` entry goes to
    :meth:`Labeling.from_names`, which rejects a missing element
    (:class:`SchemaError` here) and a foreign one (:class:`ForeignMask`)."""
    doc = _require_dict(doc, "labeling document")
    _require("labels" in doc, 'labeling document needs a "labels" array')
    _require("phi" in doc, 'labeling document needs a "phi" object')
    labels = _encodable(_name_list(doc["labels"], '"labels"'), '"labels"')
    phi = _require_dict(doc["phi"], '"phi"')
    element_names = (
        _name_list(doc["elements"], '"elements"') if "elements" in doc else list(phi)
    )
    ground = _ground(element_names, "element names")
    assignment = {
        element: _name_list(names, f'labels of "{element}"')
        for element, names in phi.items()
    }
    return _checked(Labeling.from_names, ground, labels, assignment)


def preference_from(doc: Any) -> MenuPreference:
    doc = _require_dict(doc, "preference document")
    ground = ground_from(doc)
    _require("utilities" in doc, 'preference document needs a "utilities" array')
    values: list[Fraction | None] = [None] * (ground.full_bits + 1)
    # Each distinct raw value is parsed once, and its Fraction shared by every
    # menu that carries it.  The type is part of the key: True == 1 == 1.0.
    parsed: dict[tuple[type, Any], Fraction] = {}
    for entry in _require_list(doc["utilities"], '"utilities"'):
        try:
            if not isinstance(entry, dict):
                raise TypeError
            names, raw = entry["menu"], entry["value"]
        except (KeyError, TypeError):
            _require_dict(entry, "utility entry")
            raise SchemaError('utility entries need "menu" and "value"') from None
        menu = _bits_from(ground, names, '"menu"')
        if values[menu] is not None:
            raise SchemaError(f"duplicate utility for menu {ground.mask(menu).label()}")
        key = (type(raw), raw)
        try:
            value = parsed[key]
        except (KeyError, TypeError):  # not parsed yet, or unhashable
            try:
                value = fraction_from(raw, "value")
            except SchemaError:
                # Parse again to name the menu: its label is built only on failure.
                fraction_from(raw, f"value of {ground.mask(menu).label()}")
                raise
            parsed[key] = value
        values[menu] = value
    # The constructor names the first nonempty menu left without a value.
    return _checked(MenuPreference, ground, tuple(values))


# ---------------------------------------------------------------- emitting
#
# Every emitter returns the text ``json.dumps(doc, indent=2,
# ensure_ascii=False)`` would give for its document, built directly: a value
# whose opening bracket sits at indentation depth d has its members on lines
# indented d + 1 levels and its closing bracket on a line indented d levels.


def _block(opening: str, items: list[str], closing: str, depth: int) -> str:
    """Items already rendered at ``depth + 1``, in brackets opening at ``depth``."""
    if not items:
        return opening + closing
    inner = "\n" + "  " * (depth + 1)
    return opening + inner + ("," + inner).join(items) + "\n" + "  " * depth + closing


def _array(items: list[str], depth: int) -> str:
    return _block("[", items, "]", depth)


def _object(fields: list[tuple[str, str]], depth: int) -> str:
    """An object from (escaped key, rendered value) pairs."""
    return _block("{", [key + ": " + value for key, value in fields], "}", depth)


@functools.cache
def _template(keys: tuple[str, ...], depth: int) -> str:
    """``%``-template of an object with these keys opening at ``depth``; each
    ``%s`` takes a value rendered at ``depth + 1``.  Keys are fixed field
    names, never data, so they hold no ``%``."""
    return _object([(_string(key), "%s") for key in keys], depth)


def _nest(text: str, depth: int) -> str:
    """A document rendered at depth 0, re-indented to open at ``depth``.

    Exact because rendered strings escape every newline they hold."""
    return text.replace("\n", "\n" + "  " * depth)


def _strings(values: Iterable[str], depth: int) -> str:
    return _array([_string(value) for value in values], depth)


def _ints(values: Iterable[int], depth: int) -> str:
    return _array([str(value) for value in values], depth)


_BOOL = ("false", "true")


def _scalar(value: bool | int | str) -> str:
    if isinstance(value, bool):
        return _BOOL[value]
    if isinstance(value, int):
        return str(value)
    return _string(value)


class _Writer:
    """Renders the subsets of one report over one ground set: each element
    name is escaped once, and each subset's name array once per depth."""

    __slots__ = ("names", "_arrays")

    def __init__(self, ground: GroundSet | None = None) -> None:
        # Without a ground set, the names come from the first subset rendered.
        self.names = None if ground is None else [_string(name) for name in ground]
        self._arrays: dict[tuple[int, int], str] = {}

    def elements(self, depth: int) -> str:
        return _array(self.names, depth)

    def subset(self, mask: SubsetMask, depth: int) -> str:
        if self.names is None:
            self.names = [_string(name) for name in mask.ground]
        return self.pattern(mask.bits, depth)

    def pattern(self, bits: int, depth: int) -> str:
        """The name array of a subset given as a bit pattern."""
        key = (bits, depth)
        text = self._arrays.get(key)
        if text is None:
            members = [name for i, name in enumerate(self.names) if bits >> i & 1]
            text = self._arrays[key] = _array(members, depth)
        return text

    def subsets(self, masks: Iterable[SubsetMask], depth: int) -> str:
        return _array([self.subset(mask, depth + 1) for mask in masks], depth)

    def weak_order(self, order: WeakOrder, depth: int) -> str:
        return _template(("classes_worst_first",), depth) % self.subsets(
            order.classes, depth + 1
        )

    def binary(self, classifier: BinaryClassifier, depth: int) -> str:
        return _template(("cutoff",), depth) % self.subset(classifier.cutoff, depth + 1)


def subset_doc(mask: SubsetMask) -> str:
    """A subset: the array of its member names, in ground-set order."""
    return _Writer(mask.ground).subset(mask, 0)


def topology_doc(topology: Topology) -> str:
    writer = _Writer(topology.ground)
    return _template(("elements", "closed_sets"), 0) % (
        writer.elements(1),
        _array([writer.pattern(bits, 2) for bits in topology.bits], 1),
    )


def validation_doc(report: ValidationReport) -> str:
    writer = _Writer(report.ground)
    subset = writer.subset
    pair = _template(("lower", "upper"), 3)
    violations = _template(("extensivity", "idempotence", "monotonicity"), 1) % (
        writer.subsets(report.extensivity, 2),
        writer.subsets(report.idempotence, 2),
        _array([pair % (subset(a, 4), subset(b, 4)) for a, b in report.monotonicity], 2),
    )
    return _template(("elements", "ok", "fixes_empty", "violations", "summary"), 0) % (
        writer.elements(1),
        _BOOL[report.ok],
        _BOOL[report.fixes_empty],
        violations,
        _strings(report.summary(), 1),
    )


def weak_order_doc(order: WeakOrder) -> str:
    return _Writer(order.ground).weak_order(order, 0)


def binary_doc(classifier: BinaryClassifier) -> str:
    return _Writer(classifier.cutoff.ground).binary(classifier, 0)


def profile_doc(profile: ComplexityProfile) -> str:
    writer = _Writer(profile.irreducibles.topology.ground)
    keys = ("elements", "class_count", "depth_s", "width_s", "mnwo", "mnbc",
            "p_of_f", "b_of_f", "weak_order_witness", "binary_witness")
    return _template(keys, 0) % (
        writer.elements(1),
        profile.class_count,
        profile.depth_s,
        profile.width_s,
        profile.mnwo,
        profile.mnbc,
        writer.subsets(profile.irreducibles.p_of_f, 1),
        writer.subsets(profile.irreducibles.b_of_f, 1),
        _array([writer.weak_order(w, 2) for w in profile.weak_order_witness], 1),
        _array([writer.binary(b, 2) for b in profile.binary_witness], 1),
    )


def generation_doc(report: GenerationReport) -> str:
    subset = _Writer().subset
    first = _template(("generator", "closed_set"), 2)
    second = _template(("closed_set", "element"), 2)
    keys = ("generates", "condition1_ok", "condition1_witnesses", "condition2_ok",
            "condition2_witnesses", "pointwise_equal")
    return _template(keys, 0) % (
        _BOOL[report.generates],
        _BOOL[report.condition1_ok],
        _array([first % (i, subset(m, 3)) for i, m in report.condition1_witnesses], 1),
        _BOOL[report.condition2_ok],
        _array(
            [second % (subset(m, 3), _string(x)) for m, x in report.condition2_witnesses],
            1,
        ),
        _BOOL[report.pointwise_equal],
    )


def labeling_doc(labeling: Labeling) -> str:
    writer = _Writer(labeling.ground)
    labels = [_string(label) for label in labeling.labels]
    phi = [
        (name, _array([labels[i] for i in sorted(indices)], 2))
        for name, indices in zip(writer.names, labeling.phi)
    ]
    return _template(("elements", "labels", "phi"), 0) % (
        writer.elements(1),
        _array(labels, 1),
        _object(phi, 1),
    )


def axioms_doc(report: AxiomReport) -> str:
    subset = _Writer().subset
    pair = _template(("menu", "submenu"), 2)
    triple = _template(("a", "b", "c"), 2)
    keys = ("ok", "flexibility_ok", "flexibility_witnesses", "submodularity_ok",
            "submodularity_witnesses", "summary")
    return _template(keys, 0) % (
        _BOOL[report.ok],
        _BOOL[report.flexibility_ok],
        _array([pair % (subset(a, 3), subset(b, 3)) for a, b in report.flexibility_witnesses], 1),
        _BOOL[report.submodularity_ok],
        _array(
            [
                triple % (subset(a, 3), subset(b, 3), subset(c, 3))
                for a, b, c in report.submodularity_witnesses
            ],
            1,
        ),
        _strings(report.summary(), 1),
    )


def kreps_doc(representation: KrepsRepresentation) -> str:
    writer = _Writer(representation.ground)
    count = representation.state_count
    state = _template(("state", "classes_worst_first"), 2)
    entry = _template(("signature", "rank"), 2)
    aggregator = sorted(
        representation.ranks.items(), key=lambda item: (item[1], item[0])
    )
    utilities = [
        (name, _ints([representation.state_utility(element, s) for s in range(count)], 2))
        for name, element in zip(writer.names, representation.ground)
    ]
    keys = ("elements", "style", "state_count", "states", "state_utilities", "aggregator")
    return _template(keys, 0) % (
        writer.elements(1),
        _string("kreps"),
        count,
        _array(
            [
                state % (_string(f"s{i + 1}"), writer.subsets(order.classes, 3))
                for i, order in enumerate(representation.states)
            ],
            1,
        ),
        _object(utilities, 1),
        _array([entry % (_ints(sig, 3), rank) for sig, rank in aggregator], 1),
    )


def additive_doc(representation: AdditiveRepresentation) -> str:
    writer = _Writer(representation.ground)
    state = _template(("state", "closed_set", "weight"), 2)

    def states(side: tuple) -> str:
        return _array(
            [
                state % (
                    _string(s.name),
                    writer.subset(s.carrier, 3),
                    _string(str(s.weight)),
                )
                for s in side
            ],
            1,
        )

    keys = ("elements", "style", "state_count", "positive_states", "negative_states")
    return _template(keys, 0) % (
        writer.elements(1),
        _string("additive"),
        representation.state_count,
        states(representation.positive_states),
        states(representation.negative_states),
    )


def mobius_doc(
    topology: Topology, rows: Iterable[tuple[list[int], Sequence[tuple[int, int]]]]
) -> str:
    """The closed sets of ``topology`` and the entries of its Möbius rows,
    read as :meth:`FinitePoset.mobius_walk` yields them: per closed set A,
    the ascending indices of the closed sets C ⊇ A and the (index, μ) pairs
    where μ(A, C) is not (−1)^|C∖A|.  No dict row is built.

    Each closed set's name array is rendered once, and so is the text of
    each entry from its ``"to"`` array on, with the sign it takes under
    either parity of |A|.  A row is then one join of those texts on a lead
    that holds the row's ``"from"`` array; only a corrected entry is
    formatted on its own."""
    writer = _Writer(topology.ground)
    closed = topology.bits
    listed = [writer.pattern(bits, 2) for bits in closed]
    names = [_nest(text, 1) for text in listed]
    head, middle, before_mu, tail = _template(("from", "to", "mu"), 2).split("%s")
    targets = [name + before_mu for name in names]
    signed: tuple[list[str], list[str]] = ([], [])  # per parity of |A|
    for target, c in zip(targets, closed):
        odd = c.bit_count() & 1
        signed[odd].append(target + "1")
        signed[1 - odd].append(target + "-1")
    between = tail + ",\n" + "  " * 2 + head  # from one entry to the next
    start, before_sets, before_entries, end = _template(
        ("elements", "closed_sets", "entries"), 0
    ).split("%s")
    opening, closing = _array(["%s"], 1).split("%s")
    pieces = [start, writer.elements(1), before_sets, _array(listed, 1), before_entries]
    for a, name, (above, corrections) in zip(closed, names, rows):
        lead = between + name + middle
        texts = list(map(signed[a.bit_count() & 1].__getitem__, above))
        for j, mu in corrections:
            texts[bisect_left(above, j)] = targets[j] + str(mu)
        pieces += (lead, lead.join(texts))
    pieces[5] = opening + head + names[0] + middle  # the first entry follows no other
    pieces.append(tail + closing + end)
    return "".join(pieces)


def hasse_doc(topology: Topology, covers: Sequence[Sequence[int]]) -> str:
    """The covering pairs of ``topology``'s closed sets, from the indices of their
    upper covers (``FinitePoset.upper_cover_indices()``), each named once.  The
    edges of one lower set are one join of its covers' names on a lead that
    ends in its own."""
    writer = _Writer(topology.ground)
    names = [writer.pattern(bits, 3) for bits in topology.bits]
    head, middle, tail = _template(("lower", "upper"), 2).split("%s")
    between = tail + ",\n" + "  " * 2
    edges = []
    for name, above in zip(names, covers):
        if above:
            lead = head + name + middle
            edges.append(lead + (between + lead).join(map(names.__getitem__, above)) + tail)
    return _template(("elements", "edges"), 0) % (writer.elements(1), _array(edges, 1))


def decomposition_doc(
    ground: GroundSet,
    kind: str,
    generators: Sequence[WeakOrder | BinaryClassifier],
    report: GenerationReport,
) -> str:
    """The generators of a decomposition, rendered in place by one writer,
    with the :func:`generation_doc` of their check as the ``verification``."""
    writer = _Writer(ground)
    rendered = [
        writer.weak_order(g, 2) if isinstance(g, WeakOrder) else writer.binary(g, 2)
        for g in generators
    ]
    base = _template(("elements", "kind", "count", "generators"), 0) % (
        writer.elements(1),
        _string(kind),
        len(rendered),
        _array(rendered, 1),
    )
    return verified_doc(base, generation_doc(report))


def flat_doc(fields: Mapping[str, bool | int | str | SubsetMask]) -> str:
    """An object of booleans, integers, strings and subsets, in the given key
    order: the error documents and the ``menu-rep`` verification blocks."""
    return _object(
        [
            (
                _string(key),
                _nest(subset_doc(value), 1)
                if isinstance(value, SubsetMask)
                else _scalar(value),
            )
            for key, value in fields.items()
        ],
        0,
    )


def verified_doc(document: str, verification: str) -> str:
    """A report object with the document ``verification`` appended to it as
    its last field, ``"verification"``."""
    return document[:-2] + ',\n  "verification": ' + _nest(verification, 1) + "\n}"
