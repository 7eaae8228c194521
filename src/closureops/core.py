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

Intersection closure of a family S is decided by whichever of three exact
routes takes fewest steps.  The pair loop tests |S|(|S|−1)/2 pairs.  The
superset recursion (:func:`_superset_dp`) computes DP(A) = ⋂{C ∈ S : A ⊆ C}
for all 2^n subsets in n·2^(n−1) steps and checks that each lies in S,
(n + 2)·2^(n−1) steps in all.  The two agree: S is intersection-closed iff
every DP(A) lies in S, since DP(A) is an intersection of members, and for
members C and D the members above C ∩ D meet in C ∩ D.  On success the
recursion's result is the closure operator's image table, which the topology
keeps as its only image cache, so the recursion decides whenever it is
cheaper than the pair loop.  Otherwise the word route (:func:`_missing_meets`)
runs where it counts fewer steps than the pair loop: it treats S as one
2^n-bit word and finds the subsets A ∉ S with DP(A) = A in n(3n + 7)
operations on such words, with no table.  That is the same set the
recursion reads off its table as ``missing``, the A ∉ S equal to the meet of
the members above them.  On failure of either the pair loop runs as well,
so :class:`NotIntersectionClosed` names the same pair whichever route
decided, trying only members above a missing set (:func:`_above`, one byte
read per member): a ∩ b ∉ S iff a ∩ b is missing, as DP(a ∩ b) ⊆ a ∩ b.  Closed sets taken from images already known
to satisfy the axioms are not validated again (:meth:`Topology._trusted`).

The closure axioms of an operator table are checked word-parallel too
(:func:`_validate_images`): the images become n bit-planes, and each axiom's
witnesses are the set bits of a few words.  The word kernel (M_x, D, down
and the bit listing) is at the end of this module; the meet-irreducibles of
:mod:`closureops.complexity` use it as well.

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
import struct
from collections.abc import Callable, Iterable, Iterator, Mapping, Sequence
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import compress
from operator import ne

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
    _index: dict[str, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        elements = tuple(self.elements)
        object.__setattr__(self, "elements", elements)
        if not elements:
            raise ValueError("ground set must be nonempty")
        if len(elements) > MAX_ELEMENTS:
            raise GroundSetTooLarge(
                f"ground set has {len(elements)} elements; the cap is {MAX_ELEMENTS}"
            )
        index: dict[str, int] = {}
        for i, name in enumerate(elements):
            if not isinstance(name, str) or not name:
                raise ValueError(f"element names must be nonempty strings, got {name!r}")
            if name in index:
                raise ValueError(f"duplicate element name {name!r}")
            index[name] = i
        object.__setattr__(self, "_index", index)

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
            return self._index[name]
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
        return name in self._index


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
    recursion and the word route (module docstring).  :meth:`from_masks`
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
    _bitset: frozenset[int] = field(init=False, repr=False, compare=False)
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
        object.__setattr__(self, "_bitset", bitset)
        if 0 not in bitset:
            raise MissingTopBottom("the empty set must be closed")
        if full not in bitset:
            raise MissingTopBottom("the full ground set must be closed")
        size = self.ground.size
        count = len(closed)
        pairs = count * (count - 1) // 2
        missing: list[int] = []
        if (size + 2) << (size - 1) < pairs:
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
        object.__setattr__(topology, "_bitset", frozenset(bits))
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
        return mask.ground == self.ground and mask.bits in self._bitset

    def contains_bits(self, bits: int) -> bool:
        return bits in self._bitset

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
        sets = ", ".join(m.label() for m in self)
        return f"Topology([{sets}])"


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
    order, by the route :func:`_meet_route` picks once ∅ and X are added."""
    full = (1 << size) - 1
    family = {0, full}.union(family)
    route = _meet_route(size, family)[1]
    return route(full, family)


def _meet_route(size: int, family: Iterable[int]) -> tuple[int, Callable]:
    """The steps and the routine of the cheaper exact route to the meet
    images of a family holding ∅ and X:

    * submask fill, Σ_{C ≠ X} 2^|C| steps (:func:`_submask_fill`), for
      sparse families such as chains, binary generators and most labelings;
    * superset recursion, n·2^(n−1) steps (:func:`_superset_dp`), for dense
      families; on the discrete family the fill would take 3^n − 2^n steps.
    """
    full = (1 << size) - 1
    fill = sum(1 << c.bit_count() for c in family if c != full)
    recursion = size << (size - 1)
    if fill <= recursion:
        return fill, _submask_fill
    return recursion, _superset_dp


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


# Word-parallel kernel.  A family of subsets of X, |X| = n, is one 2^n-bit
# integer whose bit A is set iff A is in the family.  CPython works on such
# integers a machine word at a time, so one AND, OR or shift of a whole
# family costs about as much as a Python step while the words are short,
# and grows with 2^n beyond (:data:`_WORD_SHIFT`).

#: Step counts that compare routes of different kinds are in pair tests,
#: one ``a & b not in S`` of the pair loop (about 50 ns on CPython 3.11).
#: An AND, OR or shift of 2^n-bit words counts as 2 + 2^n >> _WORD_SHIFT of
#: them: twice a pair test up to about a thousand bits, and growing with the
#: words' length beyond, as measured for n = 4-20.
_WORD_SHIFT = 11

#: Per byte value, the positions of its set bits, ascending.
_BYTE_BITS = tuple(tuple(b for b in range(8) if byte >> b & 1) for byte in range(256))

#: Per bit b, the table mapping a byte to the digit "1" if bit b is set,
#: else "0": runs of 2^b zeros and 2^b ones.
_PLANE_DIGITS = tuple((b"0" * (1 << b) + b"1" * (1 << b)) * (128 >> b) for b in range(8))


def _word_steps(size: int, ops: int) -> int:
    """Pair tests that ``ops`` operations on 2^size-bit words take
    (:data:`_WORD_SHIFT`)."""
    return ops * (2 + ((1 << size) >> _WORD_SHIFT))


def _element_words(size: int) -> list[int]:
    """M_x for every element x: the 2^size-bit word of the subsets that hold
    x, built by doubling its period of 2^(x+1) bits, never by division."""
    length = 1 << size
    words = []
    for x in range(size):
        span = 1 << x
        word = ((1 << span) - 1) << span
        span <<= 1
        while span < length:
            word |= word << span
            span <<= 1
        words.append(word)
    return words


def _indicator(size: int, family: Iterable[int]) -> int:
    """D: the 2^size-bit word of a family's bit patterns, set in a
    ``bytearray`` in one step per member and read as one integer."""
    buffer = bytearray(((1 << size) + 7) >> 3)
    for c in family:
        buffer[c >> 3] |= 1 << (c & 7)
    return int.from_bytes(buffer, "little")


def _down(word: int, elements: Sequence[int]) -> int:
    """The subsets of the members of ``word``: for each element x, every
    member holding x adds itself without x (n shift-OR steps)."""
    for x, m in enumerate(elements):
        word |= (word & m) >> (1 << x)
    return word


def _above(size: int, family: Iterable[int]) -> bytes:
    """The 2^size-bit word of the supersets of a family's members, as
    little-endian bytes, so that bit A is one byte read: for each element x,
    every set lacking x adds itself with x (n shift-OR steps)."""
    word = _indicator(size, family)
    for x, m in enumerate(_element_words(size)):
        word |= (word & ~m) << (1 << x)
    return word.to_bytes(((1 << size) + 7) >> 3, "little")


def _set_bits(word: int, size: int) -> list[int]:
    """The set bits of a 2^size-bit word, ascending, read through
    ``to_bytes`` (never by ``x & -x`` on the word): the nonzero bytes are
    found at C speed, and only they take Python steps."""
    if not word:
        return []
    data = word.to_bytes(((1 << size) + 7) >> 3, "little")
    nonzero = compress(range(len(data)), data)
    return [i << 3 | b for i in nonzero for b in _BYTE_BITS[data[i]]]


def _image_planes(size: int, images: Sequence[int]) -> list[int]:
    """P_e for every element e: the 2^size-bit word of the A with e ∈ f(A),
    for images indexed by bit pattern.  The images are packed as
    little-endian 4-byte integers, and each byte lane becomes eight planes
    through one ``bytes.translate`` table per bit, read as a binary
    numeral."""
    raw = struct.pack(f"<{len(images)}I", *images)
    lanes = [raw[k::4] for k in range((size + 7) >> 3)]
    digits = (lanes[e >> 3].translate(_PLANE_DIGITS[e & 7]) for e in range(size))
    return [int(plane[::-1], 2) for plane in digits]


def _missing_meet_steps(size: int, count: int) -> int:
    """Steps of :func:`_missing_meets` on a family of ``count`` members:
    one per member for D, and n(3n + 7) word operations."""
    return count + _word_steps(size, size * (3 * size + 7))


def _missing_meets(size: int, family: Iterable[int]) -> list[int]:
    """The subsets A outside a family holding X that equal the meet of the
    members above them, ascending: ¬D ∧ ¬⋃_y (¬M_y ∧ ¬Q_y), with
    Q_y = down(D ∧ ¬M_y) the subsets of the members that lack y.

    For y ∉ A, A ∈ Q_y iff some member above A lacks y, so A escapes no
    ¬M_y ∧ ¬Q_y iff every y ∉ A is left out by a member above A, that is iff
    A is the meet of the members above it: A = DP(A) in the terms of
    :func:`_superset_dp`.  The family is intersection-closed iff the list is
    empty.
    """
    every = (1 << (1 << size)) - 1
    elements = _element_words(size)
    closed = _indicator(size, family)
    escapes = 0
    for m in elements:
        escapes |= every ^ (m | _down(closed & ~m, elements))
    return _set_bits(every ^ (closed | escapes), size)


def _irreducible_steps(size: int, count: int) -> int:
    """Steps of :func:`_irreducible_words` on ``count`` closed sets: one per
    closed set for D, and n(7n + 2) word operations."""
    return count + _word_steps(size, size * (7 * size + 2))


def _irreducible_words(size: int, closed: Iterable[int]) -> list[int]:
    """P(f), the meet-irreducible closed sets, ascending, from the closed
    sets of f alone: {X} ∪ ⋃_y W_y with

        W_y = D ∧ ¬M_y ∧ ⋀_{x ≠ y} (M_x ∨ ((¬Q_y ∧ M_x) >> 2^x)),

    Q_y = down(D ∧ ¬M_y).  Bit A of (¬Q_y ∧ M_x) >> 2^x, for x ∉ A, says
    that no closed set above A ∪ {x} lacks y, i.e. y ∈ f(A ∪ {x}).  So W_y
    holds the closed A ∌ y with y ∈ f(A ∪ {x}) for every x ∉ A, and a
    closed A ≠ X is meet-irreducible iff some such y exists: if C alone
    covers A, every f(A ∪ {x}) contains C, so any y ∈ C ∖ A will do; if C
    and C′ both cover A, a y ∉ A misses one of them, say C, and then
    y ∉ f(A ∪ {x}) = C for x ∈ C ∖ A.
    """
    every = (1 << (1 << size)) - 1
    elements = _element_words(size)
    family = _indicator(size, closed)
    irreducible = 1 << ((1 << size) - 1)
    for y, m in enumerate(elements):
        lacking = family & ~m
        beyond = every ^ _down(lacking, elements)
        word = lacking
        for x, mx in enumerate(elements):
            if x != y:
                word &= mx | ((beyond & mx) >> (1 << x))
        irreducible |= word
    return _set_bits(irreducible, size)
