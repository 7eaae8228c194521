"""Weak orders, binary classifiers, and generation by intersection.

Two families of primitive closure operators generate everything:

* A weak order ⪰ on X (an ordered partition into indifference classes, worst
  class first) induces the half-space operator f_⪰ that sends a nonempty menu
  A to the union of all classes weakly below A's best class — equivalently the
  smallest prefix of classes containing A, so S(f_⪰) is the chain
  {∅, C_1, C_1 ∪ C_2, …, X}.  Conversely every topology that is a single chain
  arises this way from exactly one weak order.

* A binary classifier with proper nonempty cutoff C sends ∅ to ∅, any A ⊆ C to
  C, and everything else to X, so S(f_C) = {∅, C, X}.

Each generator keeps its chain of closed sets in ``bits``, ascending bit
patterns as in :attr:`Topology.bits`; its closures and class indices scan
that chain, and :func:`_chain_classes` alone turns a chain into classes.

A family g_1, …, g_k *generates* f when f(A) = ⋂_i g_i(A) for every A.  Both
functions here read each generator as its closed sets alone, by the union
identity ⋂_i g_i(A) = ⋂{C ∈ ⋃_i S(g_i) : A ⊆ C}, and build no operator per
generator.  :func:`intersect_generate` tabulates the intersection as the meet
images of the union, as :class:`Topology` tabulates its own closed sets.
:func:`check_generation` decides the equation through two structural
conditions — every S(g_i) ⊆ S(f), and every x ∉ A ∈ S(f) is excluded by some
g_i — which hold exactly when it does, and builds no 2^n table.

The intersection of an *empty* family is, by the usual convention, the trivial
operator (∅ ↦ ∅, everything else ↦ X); an empty generator list is therefore
accepted exactly for the trivial operator.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field
from fractions import Fraction

from .core import GroundSet, SubsetMask, Topology, _exact_fraction, _first_superset
from .core import _meet_images
from .errors import BadEndpoints, GroundSetMismatch, NotAChain

__all__ = [
    "WeakOrder",
    "BinaryClassifier",
    "GenerationReport",
    "intersect_generate",
    "check_generation",
    "is_single_chain",
]


def _chain_classes(ground: GroundSet, chain: Sequence[int]) -> tuple[SubsetMask, ...]:
    """The classes of a strictly increasing chain of bit patterns from ∅ to
    X: the differences of consecutive links, worst first, as masks."""
    return tuple(ground.mask(upper ^ lower) for lower, upper in zip(chain, chain[1:]))


@dataclass(frozen=True, repr=False)
class WeakOrder:
    """A weak order on the ground set: an ordered partition, worst class first.

    ``classes[0]`` holds the least-preferred elements and ``classes[-1]`` the
    most-preferred; elements within one class are indifferent.  The classes
    must be nonempty, pairwise disjoint, and cover the ground set.

    Attributes:
        ground: the underlying ground set.
        classes: the indifference classes, worst first.
        bits: the half-space chain ∅, C_1, C_1 ∪ C_2, …, X as bit patterns.
    """

    ground: GroundSet
    classes: tuple[SubsetMask, ...]
    bits: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        classes = tuple(self.classes)
        object.__setattr__(self, "classes", classes)
        if not classes:
            raise ValueError("a weak order needs at least one class")
        chain = [0]
        for c in classes:
            if c.ground != self.ground:
                raise GroundSetMismatch("class lives in a different ground set")
            if not c.bits:
                raise ValueError("indifference classes must be nonempty")
            if chain[-1] & c.bits:
                raise ValueError("indifference classes must be disjoint")
            chain.append(chain[-1] | c.bits)
        if chain[-1] != self.ground.full_bits:
            raise ValueError("indifference classes must cover the ground set")
        object.__setattr__(self, "bits", tuple(chain))

    @classmethod
    def from_chain(cls, chain: Sequence[SubsetMask]) -> WeakOrder:
        """The weak order whose half-space chain is ∅ = B_0 ⊂ B_1 ⊂ … ⊂ B_k = X.

        The classes are the successive differences B_1, B_2 ∖ B_1, …, worst
        first (:func:`_chain_classes`).  Raises :class:`BadEndpoints` unless
        the chain starts at ∅ and ends at X, and :class:`NotAChain` unless
        each link's bit pattern is a strict subset of the next one's.
        """
        chain = tuple(chain)
        if not chain:
            raise BadEndpoints("chain must run from ∅ to the full ground set")
        ground = chain[0].ground
        for m in chain:
            if m.ground != ground:
                raise GroundSetMismatch("chain links live in different ground sets")
        if chain[0].bits != 0 or chain[-1].bits != ground.full_bits:
            raise BadEndpoints("chain must run from ∅ to the full ground set")
        for lower, upper in zip(chain, chain[1:]):
            if lower.bits & ~upper.bits or lower.bits == upper.bits:
                raise NotAChain(
                    f"{lower.label()} is not a strict subset of {upper.label()}"
                )
        return cls(ground, _chain_classes(ground, [m.bits for m in chain]))

    @classmethod
    def from_utilities(
        cls, ground: GroundSet, utilities: Mapping[str, Fraction | int | str]
    ) -> WeakOrder:
        """Group elements by exact utility, read by
        :func:`~closureops.core._exact_fraction`, ascending (worst class first);
        :class:`~closureops.errors.ForeignMask` for a name outside the ground
        set."""
        for name in utilities:
            ground.index(name)
        missing = [name for name in ground if name not in utilities]
        if missing:
            raise ValueError(f"no utility given for {missing[0]!r}")
        level = {
            name: _exact_fraction(utilities[name], f"utility of {name!r}")
            for name in ground
        }
        classes = [
            ground.subset(n for n in ground if level[n] == value)
            for value in sorted(set(level.values()))
        ]
        return cls(ground, tuple(classes))

    @property
    def class_count(self) -> int:
        return len(self.classes)

    def class_index(self, name: str) -> int:
        """0-based class index of an element (0 = worst): the position of the
        first link of the chain holding it, less one."""
        chain = self.bits
        return chain.index(_first_superset(chain, 1 << self.ground.index(name))) - 1

    def at_least(self, a: str, b: str) -> bool:
        """Whether a ⪰ b."""
        return self.class_index(a) >= self.class_index(b)

    def support_set(self, menu: SubsetMask) -> SubsetMask:
        """The ⪰-best elements of a menu: those outside the link below its
        half-space.  Below ∅ the chain wraps to X, so ∅ maps to ∅."""
        if menu.ground != self.ground:
            raise GroundSetMismatch("menu lives in a different ground set")
        chain = self.bits
        below = chain[chain.index(_first_superset(chain, menu.bits)) - 1]
        return self.ground.mask(menu.bits & ~below)

    def half_space(self, menu: SubsetMask) -> SubsetMask:
        """Everything weakly below the menu's best class; the closure f_⪰(A).

        The empty menu maps to ∅; a nonempty menu maps to the union of classes
        up to and including the highest class the menu touches.
        """
        if menu.ground != self.ground:
            raise GroundSetMismatch("menu lives in a different ground set")
        return self.ground.mask(_first_superset(self.bits, menu.bits))

    def operator(self) -> Topology:
        """The half-space closure operator f_⪰."""
        return Topology(self.ground, self.bits)

    def __repr__(self) -> str:
        parts = " < ".join(c.label() for c in self.classes)
        return f"WeakOrder({parts})"


@dataclass(frozen=True, repr=False)
class BinaryClassifier:
    """A two-outcome classifier with proper nonempty cutoff set C.

    Its closure operator sends ∅ to ∅, any nonempty A ⊆ C to C, and everything
    else to X, so the closed sets are exactly {∅, C, X}.  It coincides with the
    half-space operator of the two-class weak order (C worst, X ∖ C best).

    Attributes:
        cutoff: the cutoff set C (must be a proper nonempty subset).
    """

    cutoff: SubsetMask

    def __post_init__(self) -> None:
        if not self.cutoff.bits:
            raise ValueError("cutoff must be nonempty")
        if self.cutoff.bits == self.cutoff.ground.full_bits:
            raise ValueError("cutoff must be a proper subset of the ground set")

    @property
    def ground(self) -> GroundSet:
        return self.cutoff.ground

    @property
    def bits(self) -> tuple[int, int, int]:
        return (0, self.cutoff.bits, self.ground.full_bits)

    def closure(self, menu: SubsetMask) -> SubsetMask:
        if menu.ground != self.ground:
            raise GroundSetMismatch("menu lives in a different ground set")
        return self.ground.mask(_first_superset(self.bits, menu.bits))

    def as_weak_order(self) -> WeakOrder:
        """The two-class weak order (cutoff worst) with the same operator."""
        return WeakOrder(self.ground, (self.cutoff, self.cutoff.complement()))

    def operator(self) -> Topology:
        return Topology(self.ground, self.bits)

    def __repr__(self) -> str:
        return f"BinaryClassifier(cutoff={self.cutoff.label()})"


def intersect_generate(
    ground: GroundSet, generators: Sequence[Topology | WeakOrder | BinaryClassifier]
) -> Topology:
    """The pointwise intersection A ↦ ⋂_i g_i(A) of generators read through
    ``ground`` and ``bits``: each S(g_i) is intersection-closed and holds X,
    so ⋂_i g_i(A) = ⋂{C ∈ ⋃_i S(g_i) : A ⊆ C}, the meet images of the union
    (:func:`~closureops.core._meet_images`).  The empty family yields the
    trivial operator."""
    for g in generators:
        if g.ground != ground:
            raise GroundSetMismatch("generator lives in a different ground set")
    union = {c for g in generators for c in g.bits}
    return Topology._trusted(ground, _meet_images(ground.size, union))


@dataclass(frozen=True)
class GenerationReport:
    """Outcome of the two-condition test for f = ⋂_i g_i.

    Condition 1: every closed set of every generator is closed under f.
    Condition 2: for every nonempty closed set A of f and every x ∉ A, some
    generator excludes x from its closure of A.  Both conditions together are
    equivalent to the pointwise equation (proof at :func:`check_generation`),
    so :attr:`pointwise_equal` is set from them.

    Attributes:
        condition1_witnesses: pairs (generator position, closed set ∉ S(f)).
        condition2_witnesses: pairs (closed set A, element x) with no generator
            excluding x from the closure of A.
        pointwise_equal: whether ⋂_i g_i literally equals f on every subset.
    """

    condition1_witnesses: tuple[tuple[int, SubsetMask], ...]
    condition2_witnesses: tuple[tuple[SubsetMask, str], ...]
    pointwise_equal: bool

    @property
    def condition1_ok(self) -> bool:
        return not self.condition1_witnesses

    @property
    def condition2_ok(self) -> bool:
        return not self.condition2_witnesses

    @property
    def generates(self) -> bool:
        return self.condition1_ok and self.condition2_ok


def check_generation(
    f: Topology, generators: Sequence[Topology | WeakOrder | BinaryClassifier]
) -> GenerationReport:
    """Test whether the generators intersect to f; see :class:`GenerationReport`.

    A generator is read through ``ground`` and ``bits`` only.  Condition 1
    lists (i, C) for the closed sets C of g_i outside S(f), by position, then
    in g_i's canonical order.  Condition 2 lists (A, x) for the nonempty
    closed A of f in canonical order and the x of (⋂_i g_i(A)) ∖ A in ground
    order, in |S(f)|·|U| steps: S(g_i) is intersection-closed and holds X, so
    g_i(A) = ⋂{C ∈ S(g_i) : A ⊆ C} and ⋂_i g_i(A) = ⋂{C ∈ U : A ⊆ C} for
    U = ⋃_i S(g_i) ∖ {∅, X} (∅ holds no nonempty A, X is the empty
    intersection, and intersection is order-free, so U is a plain set).

    The conditions hold iff ⋂_i g_i = f.  "If" is proved in
    :mod:`closureops.complexity`.  "Only if": a closed C of g_i has
    f(C) = ⋂_j g_j(C) ⊆ g_i(C) = C, so C ∈ S(f); and a nonempty closed A of
    f has ⋂_i g_i(A) = f(A) = A, so nothing is left to list.
    """
    ground = f.ground
    for g in generators:
        if g.ground != ground:
            raise GroundSetMismatch("generator lives in a different ground set")
    condition1 = tuple(
        (position, ground.mask(closed))
        for position, g in enumerate(generators)
        for closed in g.bits
        if not f.contains_bits(closed)
    )
    full = ground.full_bits
    union = {c for g in generators for c in g.bits} - {0, full}  # U
    condition2: list[tuple[SubsetMask, str]] = []
    for closed in f.bits[1:]:  # the nonempty closed sets
        kept = full ^ closed
        for c in union:
            if closed & c == closed:
                kept &= c
        while kept:
            x = kept & -kept
            kept ^= x
            condition2.append((ground.mask(closed), ground.elements[x.bit_length() - 1]))
    return GenerationReport(
        condition1_witnesses=condition1,
        condition2_witnesses=tuple(condition2),
        pointwise_equal=not condition1 and not condition2,
    )


def is_single_chain(topology: Topology) -> WeakOrder | None:
    """The weak order behind a topology, if its closed sets form one chain.

    Returns None when two closed sets are incomparable.  On a chain the
    reconstruction inverts :meth:`WeakOrder.operator` exactly.
    """
    bits = topology.bits  # canonical order extends inclusion
    for lower, upper in zip(bits, bits[1:]):
        if lower & ~upper:
            return None
    return WeakOrder(topology.ground, _chain_classes(topology.ground, bits))
