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

:func:`meet_irreducibles` finds P(f) by the covers, keeping the closed sets
with at most one upper cover, or by the words
(:func:`~closureops._words._irreducible_words`), which build no cover and
win on the discrete family, where the covers number n·2^(n−1); whichever
:mod:`closureops._words` counts cheaper.

The profile also records coarser shape statistics of S(f): its width and depth
as a lattice and the number of nonempty closed sets (distinguishable classes).
In the profile the covers of S(f), from the inclusion order
:meth:`~closureops.poset.FinitePoset.from_topology` keeps, give P(f), the
width and the depth, all three read from the closed sets' bit patterns: no
mask is built for S(f) beyond the members of P(f).  The width is certified by
Dilworth's theorem (:func:`_width_cover`): the largest cardinality level is
an antichain, a greedy cover along the covers gives as many chains, and only
when the two differ does the matching run, on the rows of that same order,
started from the greedy chains.  So the rows of S(f) are built at most once
per profile: for the covers when f holds no image table, else for the
matching if it runs.  On the discrete family the bounds meet at
C(n, ⌊n/2⌋), so S(f) costs O(n·2^n) steps where the matching over its 3^n
comparable pairs cost O(3^n).  The weak-order witnesses come from a minimum
chain cover of P(f) by the matching itself, so their chains do not depend on
which route settled the width.
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
without the covers whenever the words are cheaper.  So each report
verifies exactly the witness it prints, once.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

from ._words import _cover_steps, _irreducible_steps, _irreducible_words
from .core import SubsetMask, Topology
from .errors import GroundSetMismatch, WitnessVerificationFailed
from .generators import BinaryClassifier, GenerationReport, WeakOrder, check_generation
from .generators import _chain_classes
from .poset import ChainCover, FinitePoset, _inclusion_rows

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

    Takes the words or the upper covers of S(f), whichever
    :mod:`closureops._words` counts cheaper."""
    size, closed = topology.ground.size, topology.bits
    tabulated = topology._images is not None
    if _irreducible_steps(size, len(closed)) < _cover_steps(size, closed, tabulated):
        return _irreducible_set(topology, _irreducible_words(size, closed))
    covers = FinitePoset.from_topology(topology).upper_cover_indices()
    return _irreducibles(topology, covers)


def _irreducibles(topology: Topology, covers: Sequence[Sequence[int]]) -> IrreducibleSet:
    """P(f) and B(f), read from the upper covers of S(f) (module docstring)."""
    return _irreducible_set(
        topology, [a for a, above in zip(topology.bits, covers) if len(above) <= 1]
    )


def _irreducible_set(topology: Topology, p_of_f: Sequence[int]) -> IrreducibleSet:
    """The :class:`IrreducibleSet` of P(f), given as ascending bit patterns."""
    ground = topology.ground
    p = tuple(map(ground.mask, p_of_f))
    full = ground.full_bits
    b_of_f = tuple(m for m in p if m.bits not in (0, full))
    return IrreducibleSet(topology=topology, p_of_f=p, b_of_f=b_of_f)


def _width_cover(bits: Sequence[int], poset: FinitePoset) -> ChainCover:
    """A minimum chain cover of S(f), over its bit patterns ``bits``,
    certified by Dilworth's theorem.  ``poset`` is the inclusion order of
    S(f) from :meth:`FinitePoset.from_topology`: the greedy reads its covers,
    and the matching its rows.

    Closed sets of one cardinality are an antichain, so the largest level
    bounds the width from below.  A greedy cover bounds it from above: the
    sets, taken by ascending cardinality, each extend the first chain whose
    top is one of their lower covers and is still free.  If the bounds meet,
    the greedy chains and the level are the cover and its certificate.
    Otherwise the matching of :meth:`FinitePoset.min_chain_cover` finishes
    the job, started from the greedy links (each is a cover pair, so they
    form a matching of the strict order).
    """
    lower: list[list[int]] = [[] for _ in bits]
    for i, above in enumerate(poset.upper_cover_indices()):
        for j in above:
            lower[j].append(i)
    levels: dict[int, list[int]] = {}
    for i, a in enumerate(bits):
        levels.setdefault(a.bit_count(), []).append(i)
    free = bytearray(len(bits))  # chain tops not yet extended
    succ = [-1] * len(bits)
    for size in sorted(levels):
        for i in levels[size]:
            for j in lower[i]:
                if free[j]:
                    free[j] = 0
                    succ[j] = i
                    break
            free[i] = 1
    widest = max(levels.values(), key=len)
    starts = set(range(len(bits))) - set(succ)
    if len(starts) != len(widest):
        over_bits = FinitePoset._trusted(bits, poset.up)
        return over_bits._matched_cover((j, i) for j, i in enumerate(succ) if i >= 0)
    chains = []
    for i in sorted(starts):
        chain = [bits[i]]
        while succ[i] >= 0:
            i = succ[i]
            chain.append(bits[i])
        chains.append(tuple(chain))
    return ChainCover(chains=tuple(chains), antichain=tuple(bits[i] for i in widest))


def _depth(covers: Sequence[Sequence[int]]) -> int:
    """Longest chain of nonempty closed sets: the longest path of covers from
    ∅ to X, relaxed in the canonical order of S(f), which extends inclusion."""
    longest = [0] * len(covers)
    for i, above in enumerate(covers):
        for j in above:
            longest[j] = max(longest[j], longest[i] + 1)
    return longest[-1]


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

    Runs both witness stages (:func:`_weak_order_witness` and
    :func:`_binary_witness`) on P(f), then the width and depth of S(f) from
    the same covers.  Each stage verifies its list at the closed sets of f
    (proof in the module docstring); a failure would be an implementation
    bug and raises :class:`WitnessVerificationFailed`.  The profile keeps
    both reports.
    """
    poset = FinitePoset.from_topology(f)
    covers = poset.upper_cover_indices()
    irreducibles = _irreducibles(f, covers)
    weak_orders, weak_order_check = _weak_order_witness(irreducibles)
    binary, binary_check = _binary_witness(irreducibles)
    return ComplexityProfile(
        mnwo=len(weak_orders),
        mnbc=len(binary),
        width_s=_width_cover(f.bits, poset).width,
        depth_s=_depth(covers),
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
    for chain in FinitePoset._trusted(p, _inclusion_rows(p)).min_chain_cover().chains:
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
