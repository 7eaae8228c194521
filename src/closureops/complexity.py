"""Complexity measures for closure operators.

How hard is a classifier to express with primitive parts?  Two counts answer
that for the generators of :mod:`closureops.generators`:

* MNWO — the minimum number of weak orders whose half-space operators
  intersect to f.  It equals the width (largest antichain) of P(f), the
  meet-irreducible closed sets of f, and a minimum chain cover of P(f) turns
  directly into an optimal witness list: each chain, padded with ∅ and X,
  is the closed-set chain of one weak order.

* MNBC — the minimum number of binary classifiers that intersect to f.  It
  equals |B(f)| where B(f) = P(f) ∖ {∅, X}: one classifier per proper
  meet-irreducible, and no fewer can work.

A closed set A is *meet-irreducible* when it is not the intersection of its
strict closed supersets (the ground set X, with no strict supersets, counts).
Every closed set is the intersection of the meet-irreducibles above it, which
is why these sets alone decide both measures.  So P(f) is the closed sets
with at most one upper cover: if C alone covers A, every strict superset
contains C; if C ≠ D both cover A, then A ⊆ C ∩ D ⊊ C forces C ∩ D = A.

:func:`meet_irreducibles` finds P(f) by the covers walked on the inclusion
rows of S(f), keeping the closed sets with at most one upper cover, or by
the words (:func:`~closureops._words._irreducible_words`), which build no
cover, as :func:`~closureops._words._irreducible_route` chooses.

The profile also records coarser shape statistics of S(f): its width and depth
as a lattice and the number of nonempty closed sets (distinguishable classes).
All three of P(f), the width and the depth are read from the closed sets' bit
patterns: no mask is built for S(f) beyond the members of P(f).  One choice
picks their route (:func:`_shape`), the one
:func:`~closureops._words._profile_route` returns.  On the table route, the
indicator word D of S(f) is built once, P(f) and the depth
(:func:`~closureops._words._depth_words`) are read from it, and the width's
greedy reads the table, so the n·2^(n−1) covers of the discrete family are
never built.  On the covers route, the inclusion rows of S(f) and the
upper covers walked on them are built once, and give P(f), the greedy's
links, the depth and, if the bounds miss, the matching.  The width is a number, certified by
Dilworth's theorem (:func:`_width`): the largest cardinality level is an
antichain, a greedy cover linking each closed set to a strict superset gives
as many chains, and only when the two differ does the matching
(:func:`~closureops.poset._matched_cover`) run, on the rows of S(f), started
from the greedy chains.  No chain of S(f) is kept, and the rows of S(f) are
built at most once per profile: on the table route only if the matching
runs.  On the discrete family the bounds meet at C(n, ⌊n/2⌋), so S(f) costs
O(n·2^n) steps where the matching over its 3^n comparable pairs cost O(3^n).
The weak-order witnesses come from a minimum chain cover of P(f) by the
same matching, on P(f)'s bit patterns and inclusion rows, so their chains
do not depend on which route settled the width.
Both witness lists are verified before they are returned, by the two
generation conditions evaluated at the closed sets of f only:

1. every closed set of every g_i lies in S(f);
2. for every nonempty closed A of f, (⋂_i g_i(A)) ∖ A is empty, ⋂_i g_i(A)
   being the intersection of all the g_i's closed sets that contain A.

Together they prove ⋂_i g_i = f (:func:`~closureops.generators.check_generation`
evaluates them and proves the converse).  By 1, g_i(A) is closed in g_i,
hence in f, and contains A, so g_i(A) ⊇ f(A) for every A and ⋂_i g_i ⊇ f.
By 2 and extensivity, ⋂_i g_i(A) = A at every nonempty closed A.  Any
nonempty B has B ⊆ f(B), a nonempty closed set, so monotonicity of each g_i
gives ⋂_i g_i(B) ⊆ ⋂_i g_i(f(B)) = f(B); and both sides map ∅ to ∅.  The
check reads the witnesses' chains as they are built, one scan of their
union per closed set of f, and builds no 2^n table and no operator.  Each
witness has one stage that builds its list and checks it
(:func:`_weak_order_witness`, :func:`_binary_witness`).  The profile runs
both and keeps both reports.  ``decompose`` runs only the stage of its kind
and the Kreps representation only the weak-order stage, on the P(f) of
:func:`meet_irreducibles` alone, without the width or depth of S(f), and so
without the covers whenever P(f) takes the words.  So each report
verifies exactly the witness it prints, once.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Sequence
from dataclasses import dataclass

from ._words import _depth_words, _indicator, _irreducible_route, _irreducible_words
from ._words import _profile_route
from .core import SubsetMask, Topology
from .errors import GroundSetMismatch, WitnessVerificationFailed
from .generators import BinaryClassifier, GenerationReport, WeakOrder, check_generation
from .generators import _chain_classes
from .poset import _inclusion_rows, _matched_cover, _walked_covers

__all__ = [
    "IrreducibleSet",
    "ComplexityProfile",
    "ComplexityComparison",
    "meet_irreducibles",
    "complexity_profile",
    "more_complex",
]


@dataclass(frozen=True)
class IrreducibleSet:
    """The meet-irreducible closed sets of a topology.

    Attributes:
        topology: the source topology S(f).
        p_of_f: all meet-irreducibles P(f), canonically sorted.
        b_of_f: the proper meet-irreducibles B(f) = P(f) ∖ {∅, X}.
    """

    topology: Topology
    p_of_f: tuple[SubsetMask, ...]
    b_of_f: tuple[SubsetMask, ...]


def meet_irreducibles(topology: Topology) -> IrreducibleSet:
    """Compute P(f) and B(f) for a topology; see :class:`IrreducibleSet`.

    Takes the words or the upper covers of S(f) walked on its inclusion
    rows, as :func:`~closureops._words._irreducible_route` chooses."""
    size, closed = topology.ground.size, topology.bits
    if _irreducible_route(size, closed) == "words":
        return _irreducible_set(topology, _irreducible_words(size, _indicator(size, closed)))
    covers = _walked_covers(_inclusion_rows(closed))
    return _irreducible_set(topology, [a for a, above in zip(closed, covers) if len(above) <= 1])


def _irreducible_set(topology: Topology, p_of_f: Sequence[int]) -> IrreducibleSet:
    """The :class:`IrreducibleSet` of P(f), given as ascending bit patterns."""
    ground = topology.ground
    p = tuple(map(ground.mask, p_of_f))
    full = ground.full_bits
    b_of_f = tuple(m for m in p if m.bits not in (0, full))
    return IrreducibleSet(topology=topology, p_of_f=p, b_of_f=b_of_f)


def _width(closed: Sequence[int], links: dict[int, int], rows: Sequence[int] | None) -> int:
    """The width of S(f), certified by Dilworth's theorem, from its closed
    sets, the greedy's ``links`` and its inclusion ``rows`` if built (else
    ``None``: the matching builds them if it runs).

    Closed sets of one cardinality are an antichain, so the largest level
    bounds the width from below.  A greedy cover bounds it from above: the
    sets, taken by descending cardinality, each hang below the first chain
    whose bottom is a strict superset on their list and is still free
    (:func:`_image_links`, :func:`_cover_links`).  Each chain ends at a top
    that found no such chain, so the chains number the sets without a
    successor.  If the bounds meet, that is the width.  Otherwise the
    matching finishes the job, started from the greedy links (each is a
    strict inclusion, so they form a matching of the strict order), and its
    König antichain certifies the width it returns.
    """
    widest = max(Counter(map(int.bit_count, closed)).values())
    if len(closed) - len(links) == widest:
        return widest
    index = {a: i for i, a in enumerate(closed)}
    pairs = ((index[a], index[c]) for a, c in links.items())
    return _matched_cover(closed, rows or _inclusion_rows(closed), pairs).width


def _image_links(closed: Sequence[int], images: Sequence[int]) -> dict[int, int]:
    """The greedy's links, by bit pattern, from the image table: each closed
    A, by descending cardinality, links to the first f(A ∪ {y}), y ascending
    outside A, that has no predecessor yet.  f(A ∪ {y}) is a closed strict
    superset of A, so no cover is needed."""
    full = closed[-1]
    free = bytearray(full + 1)  # chain bottoms nothing hangs below yet
    succ = {}
    for a in sorted(closed, key=int.bit_count, reverse=True):
        rest = full ^ a
        while rest:
            y = rest & -rest
            rest ^= y
            c = images[a | y]
            if free[c]:
                free[c] = 0
                succ[a] = c
                break
        free[a] = 1
    return succ


def _cover_links(closed: Sequence[int], covers: Sequence[Sequence[int]]) -> dict[int, int]:
    """The greedy's links, by bit pattern, along the upper covers: each
    closed set, by descending cardinality, links to its first upper cover
    that has no predecessor yet."""
    sizes = [a.bit_count() for a in closed]
    free = bytearray(len(closed))
    succ = {}
    for i in sorted(range(len(closed)), key=sizes.__getitem__, reverse=True):
        for j in covers[i]:
            if free[j]:
                free[j] = 0
                succ[closed[i]] = closed[j]
                break
        free[i] = 1
    return succ


def _depth(covers: Sequence[Sequence[int]]) -> int:
    """Longest chain of nonempty closed sets: the longest path of covers from
    ∅ to X, relaxed in the canonical order of S(f), which extends inclusion."""
    longest = [0] * len(covers)
    for i, above in enumerate(covers):
        for j in above:
            longest[j] = max(longest[j], longest[i] + 1)
    return longest[-1]


def _shape(f: Topology) -> tuple[IrreducibleSet, int, int]:
    """P(f), ``width_s`` and ``depth_s``: from the indicator word of S(f)
    and the image table, or from the covers of S(f) walked on its rows, as
    :func:`~closureops._words._profile_route` chooses."""
    size, closed = f.ground.size, f.bits
    if _profile_route(size, closed, f._images is not None) == "table":
        family = _indicator(size, closed)
        width = _width(closed, _image_links(closed, f._images), None)
        p_of_f, depth = _irreducible_words(size, family), _depth_words(size, family)
    else:
        rows = _inclusion_rows(closed)
        covers = _walked_covers(rows)
        width = _width(closed, _cover_links(closed, covers), rows)
        p_of_f = [a for a, above in zip(closed, covers) if len(above) <= 1]
        depth = _depth(covers)
    return _irreducible_set(f, p_of_f), width, depth


@dataclass(frozen=True)
class ComplexityProfile:
    """The complexity measures of one closure operator, with verified witnesses.

    Attributes:
        mnwo: minimum number of weak orders generating f (= width of P(f)).
        mnbc: minimum number of binary classifiers generating f (= |B(f)|).
        width_s: width of the full closed-set lattice S(f) under inclusion.
        depth_s: longest chain of nonempty closed sets in S(f).
        class_count: number of nonempty closed sets (distinguishable classes).
        weak_order_witness: mnwo weak orders that intersect-generate f.
        binary_witness: mnbc binary classifiers that intersect-generate f.
        irreducibles: P(f) and B(f).
        weak_order_check: the generation check the weak-order witness passed.
        binary_check: the generation check the binary witness passed.
    """

    mnwo: int
    mnbc: int
    width_s: int
    depth_s: int
    class_count: int
    weak_order_witness: tuple[WeakOrder, ...]
    binary_witness: tuple[BinaryClassifier, ...]
    irreducibles: IrreducibleSet
    weak_order_check: GenerationReport
    binary_check: GenerationReport


def complexity_profile(f: Topology) -> ComplexityProfile:
    """Compute both complexity measures of f together with optimal witnesses.

    Reads P(f), the width and the depth of S(f) on one route
    (:func:`_shape`), then runs both witness stages
    (:func:`_weak_order_witness` and :func:`_binary_witness`) on P(f).  Each
    stage verifies its list at the closed sets of f (proof in the module
    docstring); a failure would be an implementation bug and raises
    :class:`WitnessVerificationFailed`.  The profile keeps both reports.
    """
    irreducibles, width_s, depth_s = _shape(f)
    weak_orders, weak_order_check = _weak_order_witness(irreducibles)
    binary, binary_check = _binary_witness(irreducibles)
    return ComplexityProfile(
        mnwo=len(weak_orders),
        mnbc=len(binary),
        width_s=width_s,
        depth_s=depth_s,
        class_count=len(f) - 1,
        weak_order_witness=weak_orders,
        binary_witness=binary,
        irreducibles=irreducibles,
        weak_order_check=weak_order_check,
        binary_check=binary_check,
    )


def _weak_order_witness(
    irreducibles: IrreducibleSet,
) -> tuple[tuple[WeakOrder, ...], GenerationReport]:
    """MNWO weak orders that intersect-generate f, and the check they passed.

    A minimum chain cover of P(f), over its bit patterns, gives one weak
    order per chain: the chain, padded with 0 and X, is a half-space chain.
    """
    f = irreducibles.topology
    ground = f.ground
    p = tuple(m.bits for m in irreducibles.p_of_f)
    weak_orders = []
    for chain in _matched_cover(p, _inclusion_rows(p), ()).chains:
        # padded with ∅ and X; ascending bit order is the chain's own order
        links = sorted({0, ground.full_bits, *chain})
        weak_orders.append(WeakOrder(ground, _chain_classes(ground, links)))
    return tuple(weak_orders), _verified(f, weak_orders, "weak-order")


def _binary_witness(
    irreducibles: IrreducibleSet,
) -> tuple[tuple[BinaryClassifier, ...], GenerationReport]:
    """MNBC binary classifiers that intersect-generate f, one per member of
    B(f), and the check they passed."""
    binary = tuple(BinaryClassifier(cutoff) for cutoff in irreducibles.b_of_f)
    return binary, _verified(irreducibles.topology, binary, "binary")


def _verified(f: Topology, generators: Sequence, kind: str) -> GenerationReport:
    report = check_generation(f, generators)
    if not report.generates:
        raise WitnessVerificationFailed(f"{kind} witness does not generate f")
    return report


@dataclass(frozen=True)
class ComplexityComparison:
    """How two operators' closed-set families relate by inclusion.

    f is *at least as complex* as g when S(g) ⊆ S(f): f can draw every
    distinction g can.  The comparison is a partial order, so two operators
    may be incomparable; the witnesses name a closed set present on one side
    only.

    Attributes:
        f_at_least_g: whether S(g) ⊆ S(f).
        g_at_least_f: whether S(f) ⊆ S(g).
        missing_from_f: a member of S(g) ∖ S(f), if any.
        missing_from_g: a member of S(f) ∖ S(g), if any.
    """

    f_at_least_g: bool
    g_at_least_f: bool
    missing_from_f: SubsetMask | None
    missing_from_g: SubsetMask | None

    @property
    def relation(self) -> str:
        """One of ``"equal"``, ``"f-more-complex"``, ``"g-more-complex"``,
        ``"incomparable"``."""
        if self.f_at_least_g and self.g_at_least_f:
            return "equal"
        if self.f_at_least_g:
            return "f-more-complex"
        if self.g_at_least_f:
            return "g-more-complex"
        return "incomparable"


def more_complex(f: Topology, g: Topology) -> ComplexityComparison:
    """Compare two operators on one ground set by S(g) ⊆ S(f) and conversely."""
    if f.ground != g.ground:
        raise GroundSetMismatch("operators live in different ground sets")
    mask = f.ground.mask
    missing_from_f = next((mask(b) for b in g.bits if not f.contains_bits(b)), None)
    missing_from_g = next((mask(b) for b in f.bits if not g.contains_bits(b)), None)
    return ComplexityComparison(
        f_at_least_g=missing_from_f is None,
        g_at_least_f=missing_from_g is None,
        missing_from_f=missing_from_f,
        missing_from_g=missing_from_g,
    )
