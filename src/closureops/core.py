"""Ground sets, subset masks, and closure operators with their closed sets.

A closure operator on a finite ground set X is a map f: 2^X -> 2^X that is
extensive (A ⊆ f(A), with f(∅) = ∅), idempotent (f(f(A)) = f(A)) and monotone
(A ⊆ B implies f(A) ⊆ f(B)).  Its closed sets S(f) = {A : f(A) = A} always form
an intersection-closed family containing ∅ and X, and conversely every such
family S induces the unique closure operator

    f_S(A) = ⋂ {B ∈ S : A ⊆ B},

so closure operators and these families ("topologies" below, by loose analogy)
are two encodings of the same object.  This module holds both in one class,
:class:`Topology` (also exported as ``ClosureOperator``), which stores S(f)
and is called as f.  It is built from closed sets, as bit patterns or as
masks (:meth:`Topology.from_masks`), validating intersection closure, or from
an operator's images, as a mask-keyed table (:meth:`Topology.from_table`) or
as an array indexed by bit pattern (:meth:`Topology._validated`), validating
the closure axioms with complete witness reports.  It also provides the
lattice operations (meet = intersection, join = closure of the union).

Intersection closure of a family S is decided by the pair loop, the superset
recursion (:func:`_superset_dp`, whose table the topology keeps as its image
cache) or the words (:func:`~closureops._words._missing_meets`), whichever
:mod:`closureops._words` counts cheapest; on failure the pair loop names the
pair.  Closed sets taken from images already known to satisfy the axioms are
not validated again (:meth:`Topology._trusted`).  The closure axioms of an
operator table are checked on its n bit-planes (:func:`_validate_images`).

Every other image table built from a family of sets comes from one routine,
:func:`_meet_images`, f(A) = ⋂{C ∈ F : A ⊆ C} for any family F of bit
patterns: S(f) for a topology without its table, the union of the
generators' closed sets, or a labeling's extents.

Subsets are machine words: a :class:`SubsetMask` stores one bit per element of
its :class:`GroundSet`, which caps ground sets at 20 elements and makes the
canonical ordering of subsets (ascending numeric mask value) a linear extension
of inclusion.  A :class:`Topology` stores its closed sets one way only, as the
ascending tuple of their bit patterns, and its images as one tuple indexed
by bit pattern; the algorithms of the package read those.  Masks are made at
the API edge only: taken apart by :meth:`Topology.from_masks` and
:meth:`Topology.from_table`, made by :attr:`Topology.closed`, iteration,
calls and :meth:`Topology.table`, and for witnesses and results.  All values
are immutable up to the image cache; all functions are pure.
"""

from __future__ import annotations

import re
from bisect import bisect_left
from collections.abc import Iterable, Iterator, Mapping, Sequence
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import compress
from operator import ne

from ._words import _above, _checked_recursion_steps, _element_words, _fill_steps
from ._words import _image_planes, _missing_meet_steps, _missing_meets, _pair_steps
from ._words import _recursion_steps, _set_bits
from .errors import (
    ForeignMask,
    GroundSetMismatch,
    GroundSetTooLarge,
    InvalidClosureTable,
    MissingEntry,
    MissingTopBottom,
    NotClosed,
    NotIntersectionClosed,
    WitnessVerificationFailed,
)

__all__ = [
    "MAX_ELEMENTS",
    "GroundSet",
    "SubsetMask",
    "Topology",
    "ValidationReport",
    "ClosureOperator",
    "validate_closure",
]

#: Hard cap on ground-set size: every algorithm here enumerates subsets of X at
#: least once, and one machine word per subset keeps worst cases tractable.
MAX_ELEMENTS = 20

#: Most digits, and largest absolute decimal exponent, that a rational string
#: may carry: ``Fraction("1e1000000")`` alone builds a 3.3M-bit integer.
MAX_RATIONAL_DIGITS = 1000


def _exact_fraction(value: Fraction | int | str, what: str) -> Fraction:
    """An exact rational from a Fraction, an int or a string, named ``what``
    in errors.  A bool or any other type (a float, a ``Decimal``) raises
    TypeError, and a string ValueError if it has more than
    :data:`MAX_RATIONAL_DIGITS` digits or a larger decimal exponent, or lies
    outside 3.10's ``Fraction`` grammar (no ``_``, no space next to ``/``)."""
    if isinstance(value, bool) or not isinstance(value, (Fraction, int, str)):
        raise TypeError(f"{what} must be exact: pass a Fraction, an int or a string")
    if not isinstance(value, str):
        return Fraction(value)
    digits = sum(ch.isdigit() for ch in value)
    _, marker, exponent = value.lower().partition("e")
    scale = 0
    if marker and digits <= MAX_RATIONAL_DIGITS:
        try:
            scale = int(exponent)
        except ValueError:
            pass  # not an exponent; Fraction rejects the string below
    if digits > MAX_RATIONAL_DIGITS or abs(scale) > MAX_RATIONAL_DIGITS:
        raise ValueError(
            f"{what} exceeds {MAX_RATIONAL_DIGITS} digits or exponent "
            f"{MAX_RATIONAL_DIGITS}: {value[:40]!r}"
        )
    try:  # Fraction takes "_" from 3.11 and spaces around "/" from 3.12
        if "_" in value or re.search(r"\s/|/\s", value):
            raise ValueError(value)
        return Fraction(value)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"{what} is not a valid rational: {value!r}") from exc


@dataclass(frozen=True)
class GroundSet:
    """An ordered finite set of named elements.

    The element order is fixed at construction and determines bit positions in
    every :class:`SubsetMask` over this ground set.  Two ground sets compare
    equal iff they list the same names in the same order.

    Attributes:
        elements: the element names, in bit-position order.
    """

    elements: tuple[str, ...]
    _bit: dict[str, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        elements = tuple(self.elements)
        object.__setattr__(self, "elements", elements)
        if not elements:
            raise ValueError("ground set must be nonempty")
        if len(elements) > MAX_ELEMENTS:
            raise GroundSetTooLarge(
                f"ground set has {len(elements)} elements; the cap is {MAX_ELEMENTS}"
            )
        bit: dict[str, int] = {}  # each name's bit weight, 1 << position
        for i, name in enumerate(elements):
            if not isinstance(name, str) or not name:
                raise ValueError(f"element names must be nonempty strings, got {name!r}")
            if name in bit:
                raise ValueError(f"duplicate element name {name!r}")
            bit[name] = 1 << i
        object.__setattr__(self, "_bit", bit)

    @property
    def size(self) -> int:
        return len(self.elements)

    @property
    def full_bits(self) -> int:
        """Bit pattern of the full ground set."""
        return (1 << len(self.elements)) - 1

    @property
    def empty(self) -> SubsetMask:
        return SubsetMask(self, 0)

    @property
    def full(self) -> SubsetMask:
        return SubsetMask(self, self.full_bits)

    def index(self, name: str) -> int:
        """Bit position of ``name``, or :class:`ForeignMask` if unknown."""
        try:
            return self._bit[name].bit_length() - 1
        except KeyError:
            raise ForeignMask(f"element {name!r} is not in the ground set") from None

    def mask(self, bits: int) -> SubsetMask:
        """Wrap a raw bit pattern as a subset of this ground set."""
        return SubsetMask(self, bits)

    def subset(self, names: Iterable[str]) -> SubsetMask:
        """The subset holding exactly ``names`` (order and repeats ignored)."""
        bits = 0
        for name in names:
            bits |= 1 << self.index(name)
        return SubsetMask(self, bits)

    def singleton(self, name: str) -> SubsetMask:
        return SubsetMask(self, 1 << self.index(name))

    def subsets(self) -> Iterator[SubsetMask]:
        """All 2^|X| subsets in canonical (ascending mask) order."""
        for bits in range(self.full_bits + 1):
            yield SubsetMask(self, bits)

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self) -> Iterator[str]:
        return iter(self.elements)

    def __contains__(self, name: object) -> bool:
        return name in self._bit


def _misfit(ground: GroundSet, bits: int) -> ForeignMask:
    return ForeignMask(
        f"bit pattern {bits:#x} does not fit a ground set of {ground.size} elements"
    )


@dataclass(frozen=True, repr=False)
class SubsetMask:
    """An immutable subset of a :class:`GroundSet`, stored as a bit pattern.

    Bit i is set iff element i (in the ground set's order) is a member.  The
    comparison operators implement the inclusion partial order, like
    :class:`frozenset`; use :attr:`bits` as a sort key for the canonical total
    order.  Set algebra (``&``, ``|``, ``-``) requires both operands to share
    one ground set and raises :class:`GroundSetMismatch` otherwise.

    Attributes:
        ground: the ground set this subset lives in.
        bits: the bit pattern.
    """

    ground: GroundSet
    bits: int

    def __post_init__(self) -> None:
        if not 0 <= self.bits <= self.ground.full_bits:
            raise _misfit(self.ground, self.bits)

    def _check(self, other: SubsetMask) -> None:
        if not isinstance(other, SubsetMask):
            raise TypeError(f"expected a SubsetMask, got {type(other).__name__}")
        if other.ground != self.ground:
            raise GroundSetMismatch("subsets live in different ground sets")

    def members(self) -> tuple[str, ...]:
        """Member names in ground-set order."""
        return tuple(
            name for i, name in enumerate(self.ground.elements) if self.bits >> i & 1
        )

    def label(self) -> str:
        """Human-readable set notation: ``∅`` or ``{a,b}``."""
        if not self.bits:
            return "∅"
        return "{" + ",".join(self.members()) + "}"

    def complement(self) -> SubsetMask:
        return SubsetMask(self.ground, self.ground.full_bits & ~self.bits)

    def __and__(self, other: SubsetMask) -> SubsetMask:
        self._check(other)
        return SubsetMask(self.ground, self.bits & other.bits)

    def __or__(self, other: SubsetMask) -> SubsetMask:
        self._check(other)
        return SubsetMask(self.ground, self.bits | other.bits)

    def __sub__(self, other: SubsetMask) -> SubsetMask:
        self._check(other)
        return SubsetMask(self.ground, self.bits & ~other.bits)

    def __le__(self, other: SubsetMask) -> bool:
        self._check(other)
        return self.bits & ~other.bits == 0

    def __lt__(self, other: SubsetMask) -> bool:
        return self <= other and self.bits != other.bits

    def __ge__(self, other: SubsetMask) -> bool:
        self._check(other)
        return other.bits & ~self.bits == 0

    def __gt__(self, other: SubsetMask) -> bool:
        return self >= other and self.bits != other.bits

    def __contains__(self, name: object) -> bool:
        if not isinstance(name, str) or name not in self.ground:
            return False
        return self.bits >> self.ground.index(name) & 1 == 1

    def __iter__(self) -> Iterator[str]:
        return iter(self.members())

    def __len__(self) -> int:
        return self.bits.bit_count()

    def __bool__(self) -> bool:
        return self.bits != 0

    def __repr__(self) -> str:
        return f"SubsetMask({self.label()})"


@dataclass(frozen=True, repr=False)
class Topology:
    """A closure operator f on a finite ground set, held as its closed sets.

    S(f) is an intersection-closed family containing ∅ and X, and it
    determines f: :meth:`closure_of` maps a subset to its smallest closed
    superset.  The family is stored one way only, as the ascending tuple of
    its bit patterns: construction drops duplicates, sorts, and validates the
    invariants eagerly, by the cheapest of the pair loop, the superset
    recursion and the words (:mod:`closureops._words`).  :meth:`from_masks`
    builds one from :class:`SubsetMask` values, and :meth:`from_table` from
    an operator table.  ``ClosureOperator`` is another name for this class.

    Call the operator like a function: ``f(mask)`` returns the closure, read
    from the table of all 2^n images.  The superset recursion leaves that
    table behind, an operator built from images starts with them, and
    otherwise :func:`_meet_images` builds it from the closed sets when first
    needed, in min(Σ_{C ≠ X} 2^|C|, n·2^(n−1)) steps.  Equality and hashing
    read the ground set and the closed sets, so they build no table.

    Attributes:
        ground: the underlying ground set.
        bits: the closed sets' bit patterns, ascending.
    """

    ground: GroundSet
    bits: tuple[int, ...]
    _images: tuple[int, ...] | None = field(
        init=False, default=None, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        given = tuple(self.bits)
        bitset = frozenset(given)
        closed = tuple(sorted(bitset))
        full = self.ground.full_bits
        if closed and (closed[0] < 0 or closed[-1] > full):
            raise _misfit(self.ground, next(b for b in given if not 0 <= b <= full))
        object.__setattr__(self, "bits", closed)
        if 0 not in bitset:
            raise MissingTopBottom("the empty set must be closed")
        if full not in bitset:
            raise MissingTopBottom("the full ground set must be closed")
        size = self.ground.size
        count = len(closed)
        pairs = _pair_steps(count)
        missing: list[int] = []
        if _checked_recursion_steps(size) < pairs:
            images = _superset_dp(full, bitset)
            if bitset.issuperset(images):
                object.__setattr__(self, "_images", images)
                return
            missing = [m for m, image in enumerate(images) if m == image and m not in bitset]
        elif _missing_meet_steps(size, count) < pairs:
            missing = _missing_meets(size, closed)
            if not missing:
                return
        # The pair loop decides small families and names the first missing
        # intersection whenever the recursion or the words have found that
        # one is missing: DP(a ∩ b) ⊆ a ∩ b, so a ∩ b ∉ S iff it is in
        # ``missing``, and only rows a above a missing set can hold a pair.
        rows = _above(size, missing) if missing else b""
        for i, a in enumerate(closed):
            if rows and not rows[a >> 3] >> (a & 7) & 1:
                continue
            for b in closed[i + 1 :]:
                if a & b not in bitset:
                    raise NotIntersectionClosed(self.ground.mask(a), self.ground.mask(b))

    @classmethod
    def from_masks(cls, ground: GroundSet, masks: Iterable[SubsetMask]) -> Topology:
        """The topology of closed sets given as masks over ``ground``."""
        masks = tuple(masks)
        if any(m.ground != ground for m in masks):
            raise GroundSetMismatch("closed set lives in a different ground set")
        return cls(ground, [m.bits for m in masks])

    @classmethod
    def from_table(
        cls, ground: GroundSet, table: Mapping[SubsetMask, SubsetMask]
    ) -> Topology:
        """Build an operator from a full table, validating the closure axioms.

        Raises :class:`InvalidClosureTable` (carrying the full
        :class:`ValidationReport`) if any axiom fails.
        """
        return cls._validated(ground, _images_from_table(ground, table))

    @classmethod
    def _validated(cls, ground: GroundSet, images: Sequence[int]) -> Topology:
        """The operator with these images, indexed by bit pattern (−1 where
        the table lacks one), once :func:`_validate_images` finds every
        axiom holding; :class:`InvalidClosureTable` otherwise."""
        images = tuple(images)
        report = _validate_images(ground, images)
        if not report.ok:
            raise InvalidClosureTable(report)
        return cls._trusted(ground, images)

    @classmethod
    def _trusted(cls, ground: GroundSet, images: tuple[int, ...]) -> Topology:
        """The fixed points of images already known to be a closure operator,
        built without validation: they are intersection-closed and hold ∅ and
        X by the axioms.  The images become the topology's table."""
        bits = tuple(b for b, image in enumerate(images) if b == image)
        topology = object.__new__(cls)
        object.__setattr__(topology, "ground", ground)
        object.__setattr__(topology, "bits", bits)
        object.__setattr__(topology, "_images", images)
        return topology

    @property
    def closed(self) -> tuple[SubsetMask, ...]:
        """The closed sets as masks, ascending, built on each read."""
        return tuple(map(self.ground.mask, self.bits))

    def __len__(self) -> int:
        return len(self.bits)

    def __iter__(self) -> Iterator[SubsetMask]:
        return map(self.ground.mask, self.bits)

    def __contains__(self, mask: object) -> bool:
        if not isinstance(mask, SubsetMask):
            return False
        return mask.ground == self.ground and self.contains_bits(mask.bits)

    def contains_bits(self, bits: int) -> bool:
        closed = self.bits
        i = bisect_left(closed, bits)
        return i < len(closed) and closed[i] == bits

    def __call__(self, mask: SubsetMask) -> SubsetMask:
        if mask.ground != self.ground:
            raise GroundSetMismatch("argument lives in a different ground set")
        return self.ground.mask(self.image_bits(mask.bits))

    def image_bits(self, bits: int) -> int:
        """Closure of a raw bit pattern, read from the image table."""
        return self.tabulate_bits()[bits]

    def tabulate_bits(self) -> tuple[int, ...]:
        """All images, indexed by subset bit pattern, built once."""
        if self._images is None:
            object.__setattr__(self, "_images", _meet_images(self.ground.size, self.bits))
        return self._images

    def table(self) -> dict[SubsetMask, SubsetMask]:
        """The operator as an explicit mask-keyed table, in canonical order."""
        mask = self.ground.mask
        return {mask(bits): mask(img) for bits, img in enumerate(self.tabulate_bits())}

    def closure_of(self, mask: SubsetMask) -> SubsetMask:
        """The smallest closed superset of ``mask``, by :func:`_first_superset`."""
        if mask.ground != self.ground:
            raise GroundSetMismatch("mask lives in a different ground set")
        return self.ground.mask(self.closure_bits(mask.bits))

    def closure_bits(self, bits: int) -> int:
        return _first_superset(self.bits, bits)

    def meet(self, a: SubsetMask, b: SubsetMask) -> SubsetMask:
        """Lattice meet of two closed sets: their intersection."""
        self._require_closed(a)
        self._require_closed(b)
        return a & b

    def join(self, a: SubsetMask, b: SubsetMask) -> SubsetMask:
        """Lattice join of two closed sets: the closure of their union."""
        self._require_closed(a)
        self._require_closed(b)
        return self.closure_of(a | b)

    def _require_closed(self, mask: SubsetMask) -> None:
        if mask not in self:
            raise NotClosed(f"{mask.label()} is not a closed set of this topology")

    def operator(self) -> Topology:
        """This object, read as the closure operator f whose closed sets are
        this family: one class holds both."""
        return self

    def closed_sets(self) -> Topology:
        """This object, read as the closed sets S(f) = {A : f(A) = A} of the
        operator: one class holds both."""
        return self

    def __repr__(self) -> str:
        return f"Topology({len(self.bits)} closed sets on {{{','.join(self.ground.elements)}}})"


#: The closure operator and its closed sets are one object.
ClosureOperator = Topology


def _first_superset(family: Sequence[int], bits: int) -> int:
    """The one closure scan: the first member of an ascending family containing
    ``bits``, the least one in S(f) or a chain, as that order extends inclusion."""
    for c in family:
        if bits & ~c == 0:
            return c
    raise WitnessVerificationFailed("unreachable: the full ground set is closed")


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of closure-axiom validation of an operator table.

    Collects *all* violations rather than stopping at the first, so a report is
    a complete diagnosis: the table is a closure operator iff :attr:`ok`.
    Monotonicity witnesses are adjacent pairs (A, A ∪ {x}); if monotonicity
    fails for any pair A ⊆ B it fails for an adjacent pair along a chain from
    A to B, so adjacent pairs suffice to detect every failure.

    Attributes:
        ground: the ground set of the validated table.
        extensivity: subsets A with A ⊄ f(A).
        idempotence: subsets A with f(f(A)) ≠ f(A).
        monotonicity: adjacent pairs (A, B) with A ⊂ B but f(A) ⊄ f(B).
        fixes_empty: whether f(∅) = ∅.
    """

    ground: GroundSet
    extensivity: tuple[SubsetMask, ...]
    idempotence: tuple[SubsetMask, ...]
    monotonicity: tuple[tuple[SubsetMask, SubsetMask], ...]
    fixes_empty: bool

    @property
    def ok(self) -> bool:
        return (
            self.fixes_empty
            and not self.extensivity
            and not self.idempotence
            and not self.monotonicity
        )

    def summary(self) -> list[str]:
        """One human-readable line per violated axiom."""
        lines: list[str] = []
        if not self.fixes_empty:
            lines.append("f(∅) ≠ ∅")
        if self.extensivity:
            lines.append(
                "extensivity fails at "
                + ", ".join(m.label() for m in self.extensivity)
            )
        if self.idempotence:
            lines.append(
                "idempotence fails at "
                + ", ".join(m.label() for m in self.idempotence)
            )
        if self.monotonicity:
            lines.append(
                "monotonicity fails at "
                + ", ".join(f"({a.label()}, {b.label()})" for a, b in self.monotonicity)
            )
        if not lines:
            lines.append("all closure axioms hold")
        return lines


def _images_from_table(
    ground: GroundSet, table: Mapping[SubsetMask, SubsetMask]
) -> list[int]:
    """Flatten a mask-keyed table into images indexed by bit pattern, −1
    where the table lacks an entry."""
    images = [-1] * (ground.full_bits + 1)
    for key, value in table.items():
        if key.ground != ground or value.ground != ground:
            raise ForeignMask(
                f"table entry {key.label()} -> {value.label()} does not live in the "
                f"stated ground set"
            )
        images[key.bits] = value.bits
    return images


def validate_closure(
    ground: GroundSet, table: Mapping[SubsetMask, SubsetMask]
) -> ValidationReport:
    """Check a full operator table against the closure axioms.

    The table must have exactly one entry per subset of the ground set
    (:class:`MissingEntry` otherwise) and every mask must live in ``ground``
    (:class:`ForeignMask` otherwise).  The returned report lists every violated
    axiom with concrete witnesses; see :class:`ValidationReport`.
    """
    return _validate_images(ground, _images_from_table(ground, table))


def _validate_images(ground: GroundSet, images: Sequence[int]) -> ValidationReport:
    """The closure axioms checked on images indexed by bit pattern.  An
    image of −1 marks a subset the table lacks: :class:`MissingEntry` names
    the first in canonical order.

    The table is read as n bit-planes, P_e holding the A with e ∈ f(A)
    (:func:`_image_planes`), and checked word-parallel in O(n²) operations
    on 2^n-bit words:

    * extensivity fails at the set bits of ⋃_e (M_e ∧ ¬P_e);
    * monotonicity fails at (A, A ∪ {x}) for the set bits A of
      ⋃_e (P_e ∧ ¬(P_e >> 2^x)) ∧ ¬M_x, as bit A of P_e >> 2^x is bit
      A ∪ {x} of P_e when x ∉ A;
    * idempotence fails where f(f(A)) ≠ f(A), read by one ``map`` over the
      images.

    Each witness list comes out in canonical order, the pairs by A and then
    by x.
    """
    if -1 in images:
        label = ground.mask(images.index(-1)).label()
        raise MissingEntry(f"table lacks an image for {label}")
    size = ground.size
    elements = _element_words(size)
    planes = _image_planes(size, images)
    outside = 0
    for m, plane in zip(elements, planes):
        outside |= m & ~plane
    rising = []
    for x, m in enumerate(elements):
        shift = 1 << x
        drops = 0
        for plane in planes:
            drops |= plane & ~(plane >> shift)
        rising += [(a, a | shift) for a in _set_bits(drops & ~m, size)]
    rising.sort()
    unstable = map(ne, images, map(images.__getitem__, images))
    mask = ground.mask
    return ValidationReport(
        ground=ground,
        extensivity=tuple(map(mask, _set_bits(outside, size))),
        idempotence=tuple(map(mask, compress(range(len(images)), unstable))),
        monotonicity=tuple((mask(a), mask(b)) for a, b in rising),
        fixes_empty=images[0] == 0,
    )


def _meet_images(size: int, family: Iterable[int]) -> tuple[int, ...]:
    """f(A) = ⋂{C ∈ family : A ⊆ C} for every A ⊆ X, |X| = ``size``, with
    f(∅) = ∅ and X where no member holds A, for any bit patterns in any
    order, by the submask fill or the superset recursion, whichever
    :mod:`closureops._words` counts cheaper once ∅ and X are added."""
    full = (1 << size) - 1
    family = {0, full}.union(family)
    if _recursion_steps(size) < _fill_steps(size, family):
        return _superset_dp(full, family)
    return _submask_fill(full, family)


def _submask_fill(full: int, family: Iterable[int]) -> tuple[int, ...]:
    """Start every image at X and ∅ at ∅, then AND each member C ≠ X into
    every nonempty submask of C.

    Each nonempty A ends as X ∩ ⋂{C ∈ family : A ⊆ C}, since exactly those
    C reach A; intersection is order-free, so any family in any order will do.
    """
    images = [full] * (full + 1)
    images[0] = 0
    for c in family:
        if c == full:
            continue
        sub = c
        while sub:
            images[sub] &= c
            sub = (sub - 1) & c
    return tuple(images)


def _superset_dp(full: int, family: Iterable[int]) -> tuple[int, ...]:
    """DP(A) = ⋂ {C ∈ family : A ⊆ C} for every A, for any family of bit
    patterns that contains X: DP(A) = A for A in the family, otherwise
    DP(A) = ⋂_{x ∉ A} DP(A ∪ {x}).

    A member C ⊋ A contains some A ∪ {x}, so for A outside the family the
    members above A are exactly those above some A ∪ {x}, and the recursion
    holds.  Every A ∪ {x} has a larger mask value, so it is done before A.
    The family is intersection-closed iff every DP(A) lies in it: DP(A) is
    an intersection of members, and for members C, D the members above
    C ∩ D meet in C ∩ D itself.  Then DP is the closure operator the family
    induces.
    """
    is_closed = bytearray(full + 1)
    for c in family:
        is_closed[c] = 1
    images = [0] * (full + 1)
    for a in range(full, -1, -1):
        if is_closed[a]:
            images[a] = a
            continue
        image = full
        rest = full & ~a
        while rest:
            x = rest & -rest
            rest ^= x
            image &= images[a | x]
        images[a] = image
    return tuple(images)
