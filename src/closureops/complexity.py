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

The profile also records coarser shape statistics of S(f): its width and depth
as a lattice and the number of nonempty closed sets (distinguishable classes).
One poset of S(f) gives P(f), the width and the depth, all three from its
covers.  The width is certified by Dilworth's theorem (:func:`_width_cover`):
the largest cardinality level is an antichain, a greedy cover along the covers
gives as many chains, and only when the two differ does the matching run,
started from the greedy chains.  On the discrete family the bounds meet at
C(n, ⌊n/2⌋), so S(f) costs O(n·2^n) steps where the matching over its 3^n
comparable pairs cost O(3^n).  The weak-order witnesses come from a minimum
chain cover of P(f) by the matching itself, so their chains do not depend on
which route settled the width.
Both witness lists are verified before they are returned, by the two
generation conditions evaluated at the closed sets of f only:

1. every closed set of every g_i lies in S(f);
2. for every nonempty closed A of f, (⋂_i g_i(A)) ∖ A is empty, with g_i(A)
   read from g_i's own closed sets.

Together they prove ⋂_i g_i = f (:func:`~closureops.generators.check_generation`
evaluates them and proves the converse).  By 1, g_i(A) is closed in g_i,
hence in f, and contains A, so g_i(A) ⊇ f(A) for every A and ⋂_i g_i ⊇ f.
By 2 and extensivity, ⋂_i g_i(A) = A at every nonempty closed A.  Any
nonempty B has B ⊆ f(B), a nonempty closed set, so monotonicity of each g_i
gives ⋂_i g_i(B) ⊆ ⋂_i g_i(f(B)) = f(B); and both sides map ∅ to ∅.  The
check reads |S(f)| images per generator and builds no 2^n table.

:func:`oracle_mnwo` and :func:`oracle_mnbc` recompute both measures by brute
force from the definition alone (exact minimum set cover over all candidate
generators), without touching P(f) or chain covers, so tests can compare the
two routes on small ground sets.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

from .core import ClosureOperator, GroundSet, SubsetMask, Topology
from .errors import GroundSetMismatch, GroundSetTooLarge, WitnessVerificationFailed
from .generators import BinaryClassifier, WeakOrder, check_generation, iter_weak_orders
from .poset import ChainCover, FinitePoset

__all__ = [
    "ORACLE_MAX_ELEMENTS",
    "IrreducibleSet",
    "ComplexityProfile",
    "ComplexityComparison",
    "meet_irreducibles",
    "complexity_profile",
    "more_complex",
    "oracle_mnwo",
    "oracle_mnbc",
]

#: Brute-force oracles enumerate all weak orders on X (75 at four elements,
#: 541 at five) and search subsets; four elements keeps them instant.
ORACLE_MAX_ELEMENTS = 4


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
    """Compute P(f) and B(f) for a topology; see :class:`IrreducibleSet`."""
    return _irreducibles(topology, FinitePoset.from_topology(topology))


def _irreducibles(topology: Topology, poset: FinitePoset) -> IrreducibleSet:
    """P(f) and B(f), read from the upper covers of S(f) (module docstring)."""
    covers = poset.upper_cover_indices()
    ground = topology.ground
    p = tuple(ground.mask(a) for a, above in zip(topology.bits, covers) if len(above) <= 1)
    full = ground.full_bits
    b_of_f = tuple(m for m in p if m.bits not in (0, full))
    return IrreducibleSet(topology=topology, p_of_f=p, b_of_f=b_of_f)


def _width_cover(poset: FinitePoset) -> ChainCover:
    """A minimum chain cover of S(f), certified by Dilworth's theorem.

    Closed sets of one cardinality are an antichain, so the largest level
    bounds the width from below.  A greedy cover bounds it from above: the
    sets, taken by ascending cardinality, each extend the first chain whose
    top is one of their lower covers and is still free.  If the bounds meet,
    the greedy chains and the level are the cover and its certificate.
    Otherwise the matching of :meth:`FinitePoset.min_chain_cover` finishes
    the job, started from the greedy links (each is a cover pair, so they
    form a matching of the strict order).
    """
    items = poset.items
    lower: list[list[int]] = [[] for _ in items]
    for i, above in enumerate(poset.upper_cover_indices()):
        for j in above:
            lower[j].append(i)
    levels: dict[int, list[int]] = {}
    for i, mask in enumerate(items):
        levels.setdefault(mask.bits.bit_count(), []).append(i)
    free = bytearray(len(items))  # chain tops not yet extended
    succ = [-1] * len(items)
    for size in sorted(levels):
        for i in levels[size]:
            for j in lower[i]:
                if free[j]:
                    free[j] = 0
                    succ[j] = i
                    break
            free[i] = 1
    widest = max(levels.values(), key=len)
    starts = set(range(len(items))) - set(succ)
    if len(starts) != len(widest):
        return poset._matched_cover((j, i) for j, i in enumerate(succ) if i >= 0)
    chains = []
    for i in sorted(starts):
        chain = [items[i]]
        while succ[i] >= 0:
            i = succ[i]
            chain.append(items[i])
        chains.append(tuple(chain))
    return ChainCover(chains=tuple(chains), antichain=tuple(items[i] for i in widest))


def _depth(poset: FinitePoset) -> int:
    """Longest chain of nonempty closed sets: the longest path of covers from
    ∅ to X, relaxed in the canonical order of S(f), which extends inclusion."""
    longest = [0] * poset.size
    for i, above in enumerate(poset.upper_cover_indices()):
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
    """

    mnwo: int
    mnbc: int
    width_s: int
    depth_s: int
    class_count: int
    weak_order_witness: tuple[WeakOrder, ...]
    binary_witness: tuple[BinaryClassifier, ...]
    irreducibles: IrreducibleSet


def complexity_profile(f: ClosureOperator) -> ComplexityProfile:
    """Compute both complexity measures of f together with optimal witnesses.

    The weak-order witness comes from a minimum chain cover of P(f): each
    chain is padded with ∅ and X and read as a half-space chain.  The binary
    witness is one classifier per member of B(f).  Both witness lists are
    verified at the closed sets of f (proof in the module docstring); a
    failure would be an implementation bug and raises
    :class:`WitnessVerificationFailed`.
    """
    ground = f.ground
    topology = f.closed_sets()
    s_poset = FinitePoset.from_topology(topology)
    irreducibles = _irreducibles(topology, s_poset)
    p_poset = FinitePoset.from_masks(irreducibles.p_of_f)
    cover = p_poset.min_chain_cover()
    weak_orders = []
    for chain in cover.chains:
        masks = list(chain)
        if masks[0].bits != 0:
            masks.insert(0, ground.empty)
        if masks[-1].bits != ground.full_bits:
            masks.append(ground.full)
        weak_orders.append(WeakOrder.from_chain(masks))
    binary = tuple(BinaryClassifier(cutoff) for cutoff in irreducibles.b_of_f)
    if not check_generation(f, [w.operator() for w in weak_orders]).generates:
        raise WitnessVerificationFailed("weak-order witness does not generate f")
    if not check_generation(f, [b.operator() for b in binary]).generates:
        raise WitnessVerificationFailed("binary witness does not generate f")
    return ComplexityProfile(
        mnwo=cover.width,
        mnbc=len(binary),
        width_s=_width_cover(s_poset).width,
        depth_s=_depth(s_poset),
        class_count=len(topology) - 1,
        weak_order_witness=tuple(weak_orders),
        binary_witness=binary,
        irreducibles=irreducibles,
    )


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


def more_complex(f: ClosureOperator, g: ClosureOperator) -> ComplexityComparison:
    """Compare two operators on one ground set by S(g) ⊆ S(f) and conversely."""
    if f.ground != g.ground:
        raise GroundSetMismatch("operators live in different ground sets")
    s_f = f.closed_sets()
    s_g = g.closed_sets()
    mask = f.ground.mask
    missing_from_f = next((mask(b) for b in s_g.bits if not s_f.contains_bits(b)), None)
    missing_from_g = next((mask(b) for b in s_f.bits if not s_g.contains_bits(b)), None)
    return ComplexityComparison(
        f_at_least_g=missing_from_f is None,
        g_at_least_f=missing_from_g is None,
        missing_from_f=missing_from_f,
        missing_from_g=missing_from_g,
    )


def _require_oracle_size(ground: GroundSet) -> None:
    if ground.size > ORACLE_MAX_ELEMENTS:
        raise GroundSetTooLarge(
            f"oracles brute-force all generator subsets and are capped at "
            f"{ORACLE_MAX_ELEMENTS} elements; got {ground.size}"
        )


def _exclusion_pairs(f_images: Sequence[int], full: int) -> list[tuple[int, int]]:
    """All (menu bits, element bit) with the element outside the closure.

    The empty menu is skipped: every closure operator fixes ∅, so those pairs
    hold for any intersection, including the empty one.
    """
    pairs = []
    for bits in range(1, full + 1):
        outside = full & ~f_images[bits]
        while outside:
            x = outside & -outside
            outside ^= x
            pairs.append((bits, x))
    return pairs


def _minimum_generator_count(
    f: ClosureOperator,
    candidates: Sequence[ClosureOperator],
    *,
    allow_empty: bool,
) -> int:
    """Exact minimum number of candidates whose intersection equals f.

    Works straight from the definition: a family generates f iff every member
    dominates f pointwise (g(A) ⊇ f(A) for all A — anything else shrinks the
    intersection below f somewhere) and every exclusion pair (A, x ∉ f(A)) is
    realized by some member.  That is an exact minimum set cover, solved by
    iterative deepening with a fewest-options-first branching rule.
    """
    ground = f.ground
    full = ground.full_bits
    f_images = f.tabulate_bits()
    pairs = _exclusion_pairs(f_images, full)
    pair_index = {pair: i for i, pair in enumerate(pairs)}
    covers: list[int] = []
    for candidate in candidates:
        images = candidate.tabulate_bits()
        if any(f_images[bits] & ~images[bits] for bits in range(full + 1)):
            continue  # does not dominate f; can never appear in a generating family
        mask = 0
        for bits in range(1, full + 1):
            # dominance gives f(A) ⊆ g(A), so everything outside g's closure is
            # an exclusion pair of f
            rest = full & ~images[bits]
            while rest:
                x = rest & -rest
                rest ^= x
                mask |= 1 << pair_index[(bits, x)]
        covers.append(mask)
    universe = (1 << len(pairs)) - 1
    if universe == 0:
        if allow_empty:
            return 0
        if not covers:
            raise WitnessVerificationFailed("no candidate dominates the operator")
        return 1  # any dominating candidate already equals f here

    per_pair: list[list[int]] = [[] for _ in pairs]
    for c, mask in enumerate(covers):
        rest = mask
        while rest:
            i = (rest & -rest).bit_length() - 1
            rest ^= rest & -rest
            per_pair[i].append(c)

    def can_cover(uncovered: int, budget: int) -> bool:
        if not uncovered:
            return True
        if budget == 0:
            return False
        # fail-first: branch on the uncovered pair with fewest covering options
        best_i = -1
        best_options: list[int] = []
        rest = uncovered
        while rest:
            i = (rest & -rest).bit_length() - 1
            rest ^= rest & -rest
            options = [c for c in per_pair[i] if covers[c] & uncovered]
            if best_i < 0 or len(options) < len(best_options):
                best_i, best_options = i, options
                if not options:
                    return False
        return any(
            can_cover(uncovered & ~covers[c], budget - 1) for c in best_options
        )

    lower = 0 if allow_empty else 1
    for k in range(lower, len(covers) + 1):
        if can_cover(universe, k):
            return k
    raise WitnessVerificationFailed("no candidate subset generates the operator")


def oracle_mnwo(f: ClosureOperator) -> int:
    """MNWO by brute force (definition only; capped at four elements).

    Enumerates every weak order on X and finds the smallest family whose
    half-space operators intersect to f.  At least one weak order is always
    needed: the empty intersection is the trivial operator, which the single
    one-class weak order already generates.
    """
    _require_oracle_size(f.ground)
    candidates = [w.operator() for w in iter_weak_orders(f.ground)]
    return _minimum_generator_count(f, candidates, allow_empty=False)


def oracle_mnbc(f: ClosureOperator) -> int:
    """MNBC by brute force (definition only; capped at four elements).

    Enumerates every proper nonempty cutoff and finds the smallest family of
    binary classifiers that intersects to f; zero classifiers (the empty
    intersection) account for the trivial operator.
    """
    _require_oracle_size(f.ground)
    ground = f.ground
    candidates = [
        BinaryClassifier(ground.mask(bits)).operator()
        for bits in range(1, ground.full_bits)
    ]
    return _minimum_generator_count(f, candidates, allow_empty=True)
