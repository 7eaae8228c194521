"""Shared test helpers: reference fixtures, seeded random builders, and
independent brute-force oracles.

Everything random is driven by an explicit ``random.Random(seed)`` so every
test is deterministic.  The oracles recompute results straight from the
definitions (set intersections, antichain enumeration, exhaustive search)
without touching the code paths they check.
"""

from __future__ import annotations

import atexit
import random
import tempfile
import warnings
from collections import Counter, deque
from collections.abc import Iterator, Mapping, Sequence
from fractions import Fraction

import pytest
from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

from closureops import (
    AdditiveRepresentation,
    AdditiveState,
    AxiomReport,
    BinaryClassifier,
    ChainCover,
    ClosureOperator,
    ComplexityProfile,
    FinitePoset,
    GenerationReport,
    GroundSet,
    GroundSetTooLarge,
    KrepsRepresentation,
    Labeling,
    MenuPreference,
    SubsetMask,
    Topology,
    ValidationReport,
    WeakOrder,
    WitnessVerificationFailed,
)
from closureops import poset as poset_module
from closureops.errors import ForeignMask, SchemaError
from closureops.jsonio import fraction_from

# Property tests draw the same examples on every run and keep no example
# database, so tier-1 is deterministic.  Hypothesis still caches what it reads
# from the source files; that cache goes to a temporary directory, removed at
# exit, so the tests write nothing into the checkout.
settings.register_profile("tier1", derandomize=True, database=None)
settings.load_profile("tier1")
_hypothesis_home = tempfile.TemporaryDirectory(prefix="hypothesis-")
set_hypothesis_home_dir(_hypothesis_home.name)
atexit.register(_hypothesis_home.cleanup)

# When a property test fails, Hypothesis's pytest plugin imports its patch
# writer, and through it libcst, whose import can warn that
# mypy_extensions.TypedDict is deprecated.  Under ``-W error`` that warning
# stops the whole session, so the writer is imported here, once, with only
# that warning ignored; every other warning stays an error.
with warnings.catch_warnings():
    warnings.filterwarnings(
        "ignore", r"mypy_extensions\.TypedDict is deprecated", DeprecationWarning
    )
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:  # no libcst: the plugin then writes no patch
        pass

ABCD = ("a", "b", "c", "d")
XYZ = ("x", "y", "z")


@pytest.fixture
def routes(monkeypatch):
    """Counts the calls of each Möbius route of :mod:`closureops.poset`."""
    calls: Counter = Counter()
    for name in ("_rota_walk", "_interval_rows"):

        def spy(*args, _route=getattr(poset_module, name), _name=name):
            calls[_name] += 1
            return _route(*args)

        monkeypatch.setattr(poset_module, name, spy)
    return calls


# ---------------------------------------------------------------- builders


def ground(names) -> GroundSet:
    return GroundSet(tuple(names))


def sub(g: GroundSet, names) -> SubsetMask:
    """Subset from a compact string of single-character element names."""
    return g.subset(tuple(names))


def topo(g: GroundSet, *sets: str) -> Topology:
    return Topology.from_masks(g, tuple(sub(g, s) for s in sets))


def order(g: GroundSet, *classes: str) -> WeakOrder:
    """Weak order from compact class strings, worst class first."""
    return WeakOrder(g, tuple(sub(g, c) for c in classes))


# ------------------------------------------------------- reference fixtures
#
# Small operators with known complexity numbers, used across the suite.
# All expected values are derived by hand from the definitions and re-checked
# against the brute-force oracles where the ground set allows.


def atoms_topology() -> Topology:
    """Two incomparable singleton atoms: {∅,{a},{b},X} on four elements."""
    g = ground(ABCD)
    return topo(g, "", "a", "b", "abcd")


def chain_topology() -> Topology:
    """A three-step chain {∅,{a},{a,b},X} on four elements."""
    g = ground(ABCD)
    return topo(g, "", "a", "ab", "abcd")


def fork_topology() -> Topology:
    """A chain forking once: {∅,{a},{a,b},{a,c},X} on four elements."""
    g = ground(ABCD)
    return topo(g, "", "a", "ab", "ac", "abcd")


def tall_chain_topology() -> Topology:
    """A maximal chain {∅,{a},{a,b},{a,b,c},X} on four elements."""
    g = ground(ABCD)
    return topo(g, "", "a", "ab", "abc", "abcd")


def wide_topology() -> Topology:
    """Width-three family on {a,b,c} that two weak orders still generate.

    S = {∅,{a},{b},{c},{a,b},{b,c},X}; the middle {b} equals {a,b} ∩ {b,c},
    so it is meet-reducible and the irreducibles have width two.
    """
    g = ground("abc")
    return topo(g, "", "a", "b", "c", "ab", "bc", "abc")


def crown_topology() -> Topology:
    """Three atoms with one extra join: {∅,{a},{b},{c},{a,b},X} on {a,b,c}."""
    g = ground("abc")
    return topo(g, "", "a", "b", "c", "ab", "abc")


def animals_labeling() -> Labeling:
    """The dog/cat/car labeling of four data points a, b, c, d."""
    g = ground(ABCD)
    return Labeling.from_names(
        g,
        ("dog", "cat", "black", "white", "female", "male", "car"),
        {
            "a": ("dog", "black", "female"),
            "b": ("dog", "black", "male"),
            "c": ("cat", "white", "female"),
            "d": ("car", "black"),
        },
    )


def animals_topology() -> Topology:
    """The closed sets induced by :func:`animals_labeling`."""
    g = ground(ABCD)
    return topo(g, "", "a", "b", "c", "d", "ab", "ac", "abd", "abcd")


def sum_of_maxes(g: GroundSet, orders) -> MenuPreference:
    """U(A) = Σ_i max_{a∈A} (1-based class index of a in order i).

    This form satisfies both menu axioms by construction, so it is the
    standard recipe for axiom-satisfying random preferences.
    """
    ranks = [
        [o.class_index(name) + 1 for name in g.elements] for o in orders
    ]
    values: list[Fraction | None] = [None] * (g.full_bits + 1)
    for bits in range(1, g.full_bits + 1):
        members = [i for i in range(g.size) if bits >> i & 1]
        values[bits] = Fraction(
            sum(max(row[i] for i in members) for row in ranks)
        )
    return MenuPreference(g, tuple(values))


def alice_preference() -> MenuPreference:
    """Ranks alternatives x ≻ y ≻ z and values a menu by its best element."""
    g = ground(XYZ)
    return sum_of_maxes(g, [order(g, "z", "y", "x")])


def bob_preference() -> MenuPreference:
    """Values a menu as the sum of its maxima under x ≻ y ≻ z and y ≻ x ≻ z."""
    g = ground(XYZ)
    return sum_of_maxes(g, [order(g, "z", "y", "x"), order(g, "z", "x", "y")])


# ------------------------------------------------------- seeded random data


def random_topology(rng: random.Random, g: GroundSet) -> Topology:
    """A random intersection-closed family containing ∅ and X."""
    full = g.full_bits
    bits = {0, full}
    for _ in range(rng.randrange(0, full + 1)):
        bits.add(rng.randrange(1, full + 1))
    changed = True
    while changed:
        changed = False
        for a in tuple(bits):
            for b in tuple(bits):
                if a & b not in bits:
                    bits.add(a & b)
                    changed = True
    return Topology(g, sorted(bits))


def random_operator(rng: random.Random, g: GroundSet) -> ClosureOperator:
    return random_topology(rng, g).operator()


def random_family_bits(rng: random.Random, n: int) -> list[int]:
    """The intersection closure of random picks, plus ∅, in ascending order.

    Picks are random subsets or, for dense families, complements of one or
    two elements; their number ranges from one to a few hundred, so the
    families run from chains of a few sets to most of 2^X.
    """
    full = (1 << n) - 1
    co_small = rng.random() < 0.4
    family = {full}
    for _ in range(rng.choice((1, 2, 3, 5, 8, 13, 21, 34, 55, 144, 377))):
        if co_small:
            pick = full & ~(1 << rng.randrange(n) | 1 << rng.randrange(n))
        else:
            pick = rng.getrandbits(n)
        family |= {pick & other for other in family}
    family.add(0)
    return sorted(family)


def labeling_bits(rng: random.Random, n: int) -> list[int]:
    """S(f) of a random labeling: the intersections of 20 random label
    extents, with ∅ and X, ascending (|S| ≈ 600 at n = 20)."""
    family = {(1 << n) - 1}
    for _ in range(20):
        extent = rng.getrandbits(n)
        family |= {extent & other for other in family}
    family.add(0)
    return sorted(family)


def chain_bits(rng: random.Random, n: int) -> list[int]:
    """A random chain ∅ ⊂ B_1 ⊂ … ⊂ X with 1 to n − 1 proper links."""
    order = list(range(n))
    rng.shuffle(order)
    cuts = sorted(rng.sample(range(1, n), rng.randint(1, n - 1)))
    links = [sum(1 << order[i] for i in range(cut)) for cut in cuts]
    return [0, *links, (1 << n) - 1]


def truncated_bits(n: int) -> list[int]:
    """Every subset of at most n − 2 elements, and X: each (n − 1)-subset
    closes to X, so μ(A, X) is not (−1)^|X∖A| for any |A| ≤ n − 2."""
    return [b for b in range(1 << n) if b.bit_count() <= n - 2 or b == (1 << n) - 1]


def crown_bits(n: int) -> list[int]:
    """∅, the singletons, the cyclic pairs {x_i, x_(i+1)} and X (n ≥ 4).

    Ordered by inclusion the proper part is a crown: MNWO = MNBC =
    width = n and depth 3.
    """
    pairs = [1 << i | 1 << (i + 1) % n for i in range(n)]
    return sorted({0, (1 << n) - 1, *(1 << i for i in range(n)), *pairs})


def random_weak_order(rng: random.Random, g: GroundSet) -> WeakOrder:
    names = list(g.elements)
    rng.shuffle(names)
    classes = []
    start = 0
    while start < len(names):
        take = rng.randrange(1, len(names) - start + 1)
        classes.append(g.subset(names[start : start + take]))
        start += take
    return WeakOrder(g, tuple(classes))


def random_binary(rng: random.Random, g: GroundSet) -> BinaryClassifier:
    return BinaryClassifier(g.mask(rng.randrange(1, g.full_bits)))


def random_fraction(rng: random.Random) -> Fraction:
    return Fraction(rng.randrange(-30, 31), rng.randrange(1, 12))


def respecting_preference(rng: random.Random, f: ClosureOperator) -> MenuPreference:
    """A random preference with U(A) = U(f(A)): one value per nonempty closed set."""
    per_closed = {
        m.bits: random_fraction(rng) for m in f.closed_sets() if m.bits
    }
    values: list[Fraction | None] = [None] * (f.ground.full_bits + 1)
    for bits in range(1, f.ground.full_bits + 1):
        values[bits] = per_closed[f.image_bits(bits)]
    return MenuPreference(f.ground, tuple(values))


def random_poset(rng: random.Random, n: int, p: float = 0.3) -> FinitePoset:
    """A random poset on items 0..n−1, oriented along the index order."""
    up = [1 << i for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < p:
                up[i] |= 1 << j
    for i in range(n - 1, -1, -1):  # indices only point upward, so this closes
        rest = up[i] & ~(1 << i)
        acc = up[i]
        while rest:
            j = (rest & -rest).bit_length() - 1
            rest &= rest - 1
            acc |= up[j]
        up[i] = acc
    return FinitePoset(tuple(range(n)), tuple(up))


def permuted_poset(rng: random.Random, poset: FinitePoset) -> FinitePoset:
    """The same order with its items listed in a random order, so that item
    order need not be a linear extension."""
    perm = list(range(poset.size))
    rng.shuffle(perm)
    rows = []
    for old in perm:
        row = 0
        for new, other in enumerate(perm):
            if poset.up[old] >> other & 1:
                row |= 1 << new
        rows.append(row)
    return FinitePoset(tuple(poset.items[old] for old in perm), tuple(rows))


# ------------------------------------------------------------------ oracles


def closure_by_common_supersets(topology: Topology, mask: SubsetMask) -> SubsetMask:
    """Closure as the literal intersection of every closed superset."""
    acc = topology.ground.full_bits
    for m in topology:
        if mask.bits & ~m.bits == 0:
            acc &= m.bits
    return topology.ground.mask(acc)


def brute_width(masks) -> int:
    """Largest antichain among the given subsets, by full enumeration."""
    masks = tuple(masks)
    n = len(masks)
    assert n <= 16, "brute-force width is exponential in the family size"
    best = 0
    for pick in range(1 << n):
        chosen = [masks[i] for i in range(n) if pick >> i & 1]
        if all(
            not (a <= b or b <= a)
            for i, a in enumerate(chosen)
            for b in chosen[i + 1 :]
        ):
            best = max(best, len(chosen))
    return best


def brute_poset_width(poset: FinitePoset) -> int:
    """Largest antichain of a poset, by full enumeration."""
    n = poset.size
    assert n <= 14, "brute-force width is exponential in the poset size"
    items = poset.items
    best = 0
    for pick in range(1 << n):
        chosen = [i for i in range(n) if pick >> i & 1]
        if all(
            not (poset.leq(items[i], items[j]) or poset.leq(items[j], items[i]))
            for a, i in enumerate(chosen)
            for j in chosen[a + 1 :]
        ):
            best = max(best, len(chosen))
    return best


def brute_depth(masks) -> int:
    """Longest strict-inclusion chain among the nonempty given subsets."""
    nonempty = sorted((m for m in masks if m.bits), key=lambda m: m.bits)
    longest: dict[int, int] = {}
    for m in nonempty:
        below = [
            longest[o.bits] for o in nonempty if o.bits != m.bits and o < m
        ]
        longest[m.bits] = 1 + max(below, default=0)
    return max(longest.values(), default=0)


def brute_meet_reducible(topology: Topology, mask: SubsetMask) -> bool:
    """Whether a closed set equals an intersection of two strict closed supersets.

    In an intersection-closed family this pairwise test is equivalent to being
    the intersection of *all* strict supersets, so it gives an independent
    route to the meet-irreducibles.
    """
    strict = [m for m in topology if m.bits != mask.bits and mask < m]
    return any(
        (a.bits & b.bits) == mask.bits for a in strict for b in strict
    )


def oracle_scan_images(full: int, closed) -> tuple[int, ...]:
    """Every image as the first closed superset in ascending mask order,
    found by a scan of the closed sets per subset (O(2^n·|S|))."""
    ordered = sorted(closed)
    return tuple(
        next(c for c in ordered if bits & ~c == 0) for bits in range(full + 1)
    )


def oracle_check_generation(
    f: ClosureOperator, generators
) -> GenerationReport:
    """The two conditions and the pointwise equation on full tables, every
    image read one subset at a time."""
    ground = f.ground
    full = ground.full_bits
    topology = f.closed_sets()
    condition1 = []
    for position, g in enumerate(generators):
        for closed in g.closed_sets():
            if not topology.contains_bits(closed.bits):
                condition1.append((position, closed))
    tables = [[g.image_bits(bits) for bits in range(full + 1)] for g in generators]
    condition2 = []
    for closed in topology:
        if not closed.bits:
            continue
        for i in range(ground.size):
            x = 1 << i
            if not closed.bits & x and all(t[closed.bits] & x for t in tables):
                condition2.append((closed, ground.elements[i]))
    pointwise = True
    for bits in range(full + 1):
        image = full if bits else 0
        for t in tables:
            image &= t[bits]
        pointwise = pointwise and image == f.image_bits(bits)
    return GenerationReport(tuple(condition1), tuple(condition2), pointwise)


def oracle_from_leq(items, leq) -> FinitePoset:
    """The order with a ≤ b iff ``leq(a, b)``, by one predicate call per pair,
    through the checked constructor."""
    items = tuple(items)
    return FinitePoset(
        items, tuple(sum(1 << j for j, b in enumerate(items) if leq(a, b)) for a in items)
    )


def oracle_from_masks(masks) -> FinitePoset:
    """The inclusion order by one ``SubsetMask.__le__`` call per pair."""
    return oracle_from_leq(masks, lambda a, b: a <= b)


def hasse_pairs(poset: FinitePoset) -> tuple[tuple, ...]:
    """The Hasse arrows (a, b), read from the poset's cover indices: ordered
    by the index of the lower item, then of the upper."""
    items = poset.items
    return tuple(
        (items[i], items[j]) for i, above in enumerate(poset.upper_cover_indices()) for j in above
    )


def oracle_hasse(poset: FinitePoset) -> tuple[tuple, ...]:
    """Covering pairs by the strict-up/strict-down test: i < j is a cover iff
    no item lies strictly above i and strictly below j; ordered by the index
    of the lower item, then of the upper."""
    n = poset.size
    strict_up = [poset.up[i] & ~(1 << i) for i in range(n)]
    strict_down = [0] * n
    for i, row in enumerate(strict_up):
        while row:
            j = (row & -row).bit_length() - 1
            row &= row - 1
            strict_down[j] |= 1 << i
    covers = []
    for i in range(n):
        row = strict_up[i]
        while row:
            j = (row & -row).bit_length() - 1
            row &= row - 1
            if strict_up[i] & strict_down[j] == 0:
                covers.append((poset.items[i], poset.items[j]))
    return tuple(covers)


def oracle_mobius(topology: Topology) -> dict[tuple[int, int], int]:
    """μ(A, C) on every pair of closed sets A ⊆ C, keyed by bit patterns in
    canonical order, by the interval loop of the definition: μ(A, A) = 1
    and μ(A, C) = −Σ{μ(A, Z) : A ⊆ Z ⊊ C}.  Ascending bit pattern extends
    inclusion, so every μ(A, Z) is known before it is summed."""
    mu: dict[tuple[int, int], int] = {}
    for a in topology.bits:
        above = [c for c in topology.bits if a & ~c == 0]
        for k, c in enumerate(above):
            mu[a, c] = 1 if k == 0 else -sum(
                mu[a, z] for z in above[:k] if z & ~c == 0
            )
    return mu


def oracle_validate_images(ground: GroundSet, images) -> ValidationReport:
    """The closure axioms checked on images indexed by bit pattern, one
    subset and one adjacent pair (A, A ∪ {x}) at a time, in canonical order
    of A and then of x."""
    full = ground.full_bits
    extensivity = []
    idempotence = []
    monotonicity = []
    for bits in range(full + 1):
        img = images[bits]
        if bits & ~img:
            extensivity.append(ground.mask(bits))
        if images[img] != img:
            idempotence.append(ground.mask(bits))
        rest = full & ~bits
        while rest:
            x = rest & -rest
            rest ^= x
            if img & ~images[bits | x]:
                monotonicity.append((ground.mask(bits), ground.mask(bits | x)))
    return ValidationReport(
        ground=ground,
        extensivity=tuple(extensivity),
        idempotence=tuple(idempotence),
        monotonicity=tuple(monotonicity),
        fixes_empty=images[0] == 0,
    )


def oracle_missing_intersection(bits) -> tuple[int, int] | None:
    """The first pair (a, b) of a family, in ascending order, whose
    intersection is missing, by testing every pair."""
    family = sorted(set(bits))
    present = set(family)
    for i, a in enumerate(family):
        for b in family[i + 1 :]:
            if a & b not in present:
                return a, b
    return None


def oracle_min_chain_cover(poset: FinitePoset) -> ChainCover:
    """A minimum chain cover by augmenting-path matching on neighbor lists,
    one step per comparable pair, with the antichain read by König."""
    n = poset.size
    adj = [
        [j for j in range(n) if j != i and poset.up[i] >> j & 1] for i in range(n)
    ]
    match_l = [-1] * n
    match_r = [-1] * n
    for start in range(n):
        parent: dict[int, int] = {}
        queue = deque([start])
        seen_left = {start}
        goal = -1
        while queue and goal < 0:
            u = queue.popleft()
            for v in adj[u]:
                if v in parent:
                    continue
                parent[v] = u
                w = match_r[v]
                if w < 0:
                    goal = v
                    break
                if w not in seen_left:
                    seen_left.add(w)
                    queue.append(w)
        v = goal
        while v >= 0:
            u = parent[v]
            previous = match_l[u]
            match_l[u] = v
            match_r[v] = u
            v = previous
    unmatched = [u for u in range(n) if match_l[u] < 0]
    z_left = set(unmatched)
    z_right: set[int] = set()
    queue = deque(unmatched)
    while queue:
        u = queue.popleft()
        for v in adj[u]:
            if v in z_right or match_l[u] == v:
                continue
            z_right.add(v)
            w = match_r[v]
            if w >= 0 and w not in z_left:
                z_left.add(w)
                queue.append(w)
    chains = []
    for i in range(n):
        if match_r[i] < 0:
            chain = [poset.items[i]]
            j = match_l[i]
            while j >= 0:
                chain.append(poset.items[j])
                j = match_l[j]
            chains.append(tuple(chain))
    return ChainCover(
        chains=tuple(chains),
        antichain=tuple(
            poset.items[i] for i in range(n) if i in z_left and i not in z_right
        ),
    )


def check_chain_cover(poset: FinitePoset, cover: ChainCover) -> None:
    """Assert that the chains partition the items, each chain rises strictly,
    and the antichain is one of the same size."""
    seen = [item for chain in cover.chains for item in chain]
    assert sorted(map(repr, seen)) == sorted(map(repr, poset.items))
    for chain in cover.chains:
        for a, b in zip(chain, chain[1:]):
            assert poset.leq(a, b) and a != b
    for i, a in enumerate(cover.antichain):
        for b in cover.antichain[i + 1 :]:
            assert not poset.leq(a, b) and not poset.leq(b, a)
    assert cover.width == len(cover.chains) == len(cover.antichain)


def oracle_classifier_images(labeling: Labeling) -> tuple[int, ...]:
    """The induced images, each from the common labels of its own members."""
    ground = labeling.ground
    label_bits = [sum(1 << j for j in labels) for labels in labeling.phi]
    all_labels = (1 << len(labeling.labels)) - 1
    images = [0]
    for bits in range(1, ground.full_bits + 1):
        common = all_labels
        for i in range(ground.size):
            if bits >> i & 1:
                common &= label_bits[i]
        image = 0
        for i in range(ground.size):
            if common & ~label_bits[i] == 0:
                image |= 1 << i
        images.append(image)
    return tuple(images)


def oracle_axioms(preference: MenuPreference) -> AxiomReport:
    """Both menu axioms checked straight from their definitions, every
    (A, B) and (A, B, C) in ascending order (O(8^n))."""
    ground = preference.ground
    values = preference.values
    full = ground.full_bits
    flexibility = []
    for a in range(1, full + 1):
        b = (a - 1) & a
        while b:
            if values[b] > values[a]:
                flexibility.append((ground.mask(a), ground.mask(b)))
            b = (b - 1) & a
    submodularity = []
    for a in range(1, full + 1):
        for b in range(full + 1):
            if values[a | b] != values[a]:
                continue
            for c in range(full + 1):
                if values[a | b | c] != values[a | c]:
                    submodularity.append(
                        (ground.mask(a), ground.mask(b), ground.mask(c))
                    )
    return AxiomReport(tuple(flexibility), tuple(submodularity))


def oracle_kreps_images(preference: MenuPreference) -> tuple[int, ...]:
    """The Kreps images by the per-element test x ∈ f(A) ⟺ U(A ∪ {x}) = U(A),
    f(∅) = ∅, on every menu, whether or not the axioms hold."""
    ground, values = preference.ground, preference.values
    return (0,) + tuple(
        sum(1 << i for i in range(ground.size) if values[a | 1 << i] == values[a])
        for a in range(1, ground.full_bits + 1)
    )


def oracle_adjacent_submodular(values) -> bool:
    """Ordinal submodularity of a flexible preference by the adjacent
    criterion: the Kreps map g(A) = {x : U(A ∪ {x}) = U(A)} satisfies
    g(A) ⊆ g(A ∪ {x}) for every nonempty A and x ∉ A (O(n²·2^n))."""
    full = len(values) - 1
    size = full.bit_length()

    def g(a: int) -> int:
        return a | sum(1 << i for i in range(size) if values[a | 1 << i] == values[a])

    return all(
        g(a) & ~g(a | 1 << x) == 0
        for a in range(1, full + 1)
        for x in range(size)
        if not a >> x & 1
    )


def oracle_kreps_consequences(values, images) -> bool:
    """Respect, indifference ⟺ closure containment and strict increase of U
    over closures, each checked on every pair of menus (O(4^n))."""
    full = len(values) - 1
    for a in range(1, full + 1):
        if values[images[a]] != values[a]:
            return False
        for b in range(full + 1):
            contained = images[b] & ~images[a] == 0
            if (values[a | b] == values[a]) != contained:
                return False
            if b and contained and images[b] != images[a] and values[a] <= values[b]:
                return False
    return True


def oracle_bits_from(ground: GroundSet, value, what: str) -> int:
    """The bit pattern of an array of element names, read name by name, with
    the errors of :func:`closureops.jsonio._bits_from`: a non-array or a
    non-string entry anywhere is a SchemaError before the first unknown name
    is a ForeignMask; a repeated name counts once."""
    if not isinstance(value, list):
        raise SchemaError(f"{what} must be a JSON array")
    if not all(isinstance(name, str) for name in value):
        raise SchemaError(f"{what} must contain strings")
    bits = 0
    for name in value:
        if name not in ground.elements:
            raise ForeignMask(f"element {name!r} is not in the ground set")
        bits |= 1 << ground.elements.index(name)
    return bits


def oracle_checked_images(ground: GroundSet, entries: list) -> list[int]:
    """An operator table map read entry by entry through the name-by-name
    reader, with the errors of :func:`closureops.jsonio.operator_images_from`:
    the first bad entry in map order is named, a repeated subset before a
    bad image."""
    images = [-1] * (ground.full_bits + 1)
    for entry in entries:
        if not isinstance(entry, dict):
            raise SchemaError("map entry must be a JSON object")
        if "from" not in entry or "to" not in entry:
            raise SchemaError('map entries need "from" and "to"')
        key = oracle_bits_from(ground, entry["from"], '"from"')
        if images[key] != -1:
            raise SchemaError(f"duplicate map entry for {ground.mask(key).label()}")
        images[key] = oracle_bits_from(ground, entry["to"], '"to"')
    return images


def oracle_topology(ground: GroundSet, sets: list) -> Topology:
    """The closed sets of a topology document read one by one through the
    name-by-name reader."""
    return Topology(ground, [oracle_bits_from(ground, s, "closed set") for s in sets])


def oracle_preference(ground: GroundSet, entries: list) -> MenuPreference:
    """The utilities of a preference document read entry by entry through
    the name-by-name reader, with the errors of
    :func:`closureops.jsonio.preference_from`: each value is parsed on its
    own, under its menu's name."""
    values: list[Fraction | None] = [None] * (ground.full_bits + 1)
    for entry in entries:
        if not isinstance(entry, dict):
            raise SchemaError("utility entry must be a JSON object")
        if "menu" not in entry or "value" not in entry:
            raise SchemaError('utility entries need "menu" and "value"')
        menu = oracle_bits_from(ground, entry["menu"], '"menu"')
        label = ground.mask(menu).label()
        if values[menu] is not None:
            raise SchemaError(f"duplicate utility for menu {label}")
        values[menu] = fraction_from(entry["value"], f"value of {label}")
    try:
        return MenuPreference(ground, tuple(values))
    except ValueError as exc:
        raise SchemaError(str(exc)) from exc


def oracle_signatures(utilities, size: int) -> list:
    """σ(A) = (max_{a∈A} U(a, s))_s, straight from the members of A."""
    signatures = [()]
    for bits in range(1, 1 << size):
        members = [i for i in range(size) if bits >> i & 1]
        signatures.append(tuple(max(row[i] for i in members) for row in utilities))
    return signatures


def oracle_signatures_ok(values, images, signatures) -> bool:
    """Signatures separate exactly the closures, menus sharing a signature
    share a utility, and the utility of achieved signatures is strictly
    increasing in the product order, each checked on every pair (O(4^n))."""
    full = len(values) - 1
    by_signature = {}
    for a in range(1, full + 1):
        if by_signature.setdefault(signatures[a], values[a]) != values[a]:
            return False
        for b in range(1, full + 1):
            if (signatures[a] == signatures[b]) != (images[a] == images[b]):
                return False
    for sig_a, value_a in by_signature.items():
        for sig_b, value_b in by_signature.items():
            dominates = all(x >= y for x, y in zip(sig_a, sig_b))
            if dominates and sig_a != sig_b and value_a <= value_b:
                return False
    return True


def oracle_ranks_ok(by_signature, ranks) -> bool:
    """rank σ ≥ rank σ' ⟺ U-value σ ≥ U-value σ', on every pair."""
    return all(
        (ranks[sig_a] >= ranks[sig_b]) == (value_a >= value_b)
        for sig_a, value_a in by_signature.items()
        for sig_b, value_b in by_signature.items()
    )


def oracle_additive_ok(
    preference: MenuPreference, representation: AdditiveRepresentation
) -> bool:
    """Literal sum-of-maxes evaluation equals U on every nonempty menu."""
    ground = preference.ground
    return all(
        representation.evaluate(ground.mask(bits)) == preference.values[bits]
        for bits in range(1, ground.full_bits + 1)
    )


def oracle_additive_weights(
    preference: MenuPreference, f: ClosureOperator
) -> dict[SubsetMask, Fraction]:
    """The weights h with U(A) = Σ{h(B) : A ⊆ B ∈ S(f)}, by Möbius inversion
    over the nonempty closed sets under reversed inclusion (O(|S|²))."""
    closed = [m for m in f.closed_sets() if m.bits]
    reversed_poset = oracle_from_leq(closed, lambda a, b: b <= a)
    return reversed_poset.mobius_invert({m: preference.utility(m) for m in closed})


def oracle_superset_transform(
    values: list[Fraction], *, inverse: bool
) -> list[Fraction]:
    """The superset zeta transform A ↦ Σ{values[B] : A ⊆ B}, or with
    ``inverse`` its Möbius inverse, in place, on Fractions (Yates)."""
    step = 1
    while step < len(values):
        for block in range(0, len(values), 2 * step):
            for a in range(block, block + step):
                term = values[a + step]
                if term:
                    values[a] = values[a] - term if inverse else values[a] + term
        step *= 2
    return values


def oracle_additive_representation(
    preference: MenuPreference, f: ClosureOperator
) -> AdditiveRepresentation:
    """The additive states of a preference respecting f, with the Möbius
    weights computed on the Fraction utilities themselves."""
    weights = oracle_superset_transform(
        [Fraction(0), *preference.values[1:]], inverse=True
    )
    closed = [m for m in f.closed_sets() if m.bits]
    return AdditiveRepresentation(
        preference.ground,
        tuple(
            AdditiveState(f"p{i + 1}", m, max(Fraction(0), -weights[m.bits]))
            for i, m in enumerate(closed)
        ),
        tuple(
            AdditiveState(f"n{i + 1}", m, max(Fraction(0), weights[m.bits]))
            for i, m in enumerate(closed)
        ),
    )


def oracle_evaluate(
    representation: AdditiveRepresentation, menu: SubsetMask
) -> Fraction:
    """Sum-of-maxes evaluation through each state's named utility."""
    names = menu.members()
    total = Fraction(0)
    for state in representation.positive_states:
        total += max(state.utility(a) for a in names)
    for state in representation.negative_states:
        total -= max(state.utility(a) for a in names)
    return total


# ---------------------------------------------- report documents as dicts
#
# The documents the ``jsonio`` emitters describe, built as plain dicts and
# lists: ``json.dumps(oracle_*_doc(x), indent=2, ensure_ascii=False)`` is the
# text the matching ``*_doc`` must return.


def oracle_subset_doc(mask: SubsetMask) -> list[str]:
    return list(mask.members())


def oracle_topology_doc(topology: Topology) -> dict:
    return {
        "elements": list(topology.ground.elements),
        "closed_sets": [oracle_subset_doc(m) for m in topology.closed],
    }


def oracle_validation_doc(report: ValidationReport) -> dict:
    return {
        "elements": list(report.ground.elements),
        "ok": report.ok,
        "fixes_empty": report.fixes_empty,
        "violations": {
            "extensivity": [oracle_subset_doc(m) for m in report.extensivity],
            "idempotence": [oracle_subset_doc(m) for m in report.idempotence],
            "monotonicity": [
                {"lower": oracle_subset_doc(a), "upper": oracle_subset_doc(b)}
                for a, b in report.monotonicity
            ],
        },
        "summary": report.summary(),
    }


def oracle_weak_order_doc(order: WeakOrder) -> dict:
    return {"classes_worst_first": [oracle_subset_doc(c) for c in order.classes]}


def oracle_binary_doc(classifier: BinaryClassifier) -> dict:
    return {"cutoff": oracle_subset_doc(classifier.cutoff)}


def oracle_profile_doc(profile: ComplexityProfile) -> dict:
    ground = profile.irreducibles.topology.ground
    return {
        "elements": list(ground.elements),
        "class_count": profile.class_count,
        "depth_s": profile.depth_s,
        "width_s": profile.width_s,
        "mnwo": profile.mnwo,
        "mnbc": profile.mnbc,
        "p_of_f": [oracle_subset_doc(m) for m in profile.irreducibles.p_of_f],
        "b_of_f": [oracle_subset_doc(m) for m in profile.irreducibles.b_of_f],
        "weak_order_witness": [
            oracle_weak_order_doc(w) for w in profile.weak_order_witness
        ],
        "binary_witness": [oracle_binary_doc(b) for b in profile.binary_witness],
    }


def oracle_generation_doc(report: GenerationReport) -> dict:
    return {
        "generates": report.generates,
        "condition1_ok": report.condition1_ok,
        "condition1_witnesses": [
            {"generator": position, "closed_set": oracle_subset_doc(m)}
            for position, m in report.condition1_witnesses
        ],
        "condition2_ok": report.condition2_ok,
        "condition2_witnesses": [
            {"closed_set": oracle_subset_doc(m), "element": name}
            for m, name in report.condition2_witnesses
        ],
        "pointwise_equal": report.pointwise_equal,
    }


def oracle_labeling_doc(labeling: Labeling) -> dict:
    return {
        "elements": list(labeling.ground.elements),
        "labels": list(labeling.labels),
        "phi": {
            element: list(labeling.label_set(element))
            for element in labeling.ground
        },
    }


def oracle_axioms_doc(report: AxiomReport) -> dict:
    return {
        "ok": report.ok,
        "flexibility_ok": report.flexibility_ok,
        "flexibility_witnesses": [
            {"menu": oracle_subset_doc(a), "submenu": oracle_subset_doc(b)}
            for a, b in report.flexibility_witnesses
        ],
        "submodularity_ok": report.submodularity_ok,
        "submodularity_witnesses": [
            {
                "a": oracle_subset_doc(a),
                "b": oracle_subset_doc(b),
                "c": oracle_subset_doc(c),
            }
            for a, b, c in report.submodularity_witnesses
        ],
        "summary": report.summary(),
    }


def oracle_kreps_doc(representation: KrepsRepresentation) -> dict:
    ground = representation.ground
    aggregator = sorted(
        representation.ranks.items(), key=lambda item: (item[1], item[0])
    )
    return {
        "elements": list(ground.elements),
        "style": "kreps",
        "state_count": representation.state_count,
        "states": [
            {"state": f"s{i + 1}", **oracle_weak_order_doc(order)}
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


def oracle_additive_doc(representation: AdditiveRepresentation) -> dict:
    def states(side: tuple) -> list[dict]:
        return [
            {
                "state": state.name,
                "closed_set": oracle_subset_doc(state.carrier),
                "weight": str(state.weight),
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


def oracle_mobius_doc(topology: Topology, mu: Mapping[tuple[int, int], int]) -> dict:
    """The ``mobius`` report of ``topology`` from μ keyed by pairs of bit
    patterns, in the order of :func:`oracle_mobius`."""
    names = {m.bits: oracle_subset_doc(m) for m in topology.closed}
    return {
        "elements": list(topology.ground.elements),
        "closed_sets": list(names.values()),
        "entries": [
            {"from": names[a], "to": names[c], "mu": value} for (a, c), value in mu.items()
        ],
    }


def oracle_hasse_doc(topology: Topology, covers) -> dict:
    return {
        "elements": list(topology.ground.elements),
        "edges": [
            {"lower": oracle_subset_doc(a), "upper": oracle_subset_doc(b)}
            for a, b in covers
        ],
    }


def oracle_decomposition_doc(
    ground: GroundSet, kind: str, generators, report: GenerationReport
) -> dict:
    return {
        "elements": list(ground.elements),
        "kind": kind,
        "count": len(generators),
        "generators": [
            oracle_weak_order_doc(g) if isinstance(g, WeakOrder) else oracle_binary_doc(g)
            for g in generators
        ],
        "verification": oracle_generation_doc(report),
    }


def oracle_flat_doc(fields: dict) -> dict:
    return {
        key: oracle_subset_doc(value) if isinstance(value, SubsetMask) else value
        for key, value in fields.items()
    }


def iter_topologies(g: GroundSet):
    """Every intersection-closed family containing ∅ and X (small grounds only)."""
    assert g.size <= 4, "enumeration is doubly exponential in the ground size"
    full = g.full_bits
    middles = tuple(range(1, full))
    for pick in range(1 << len(middles)):
        bits = [0, full] + [m for i, m in enumerate(middles) if pick >> i & 1]
        closed = set(bits)
        if all(a & b in closed for a in bits for b in bits):
            yield Topology(g, sorted(closed))


# --------------------------------------------------------- complexity oracles

#: Brute-force oracles enumerate all weak orders on X (75 at four elements,
#: 541 at five) and search subsets; four elements keeps them instant.
ORACLE_MAX_ELEMENTS = 4


def iter_weak_orders(ground: GroundSet) -> Iterator[WeakOrder]:
    """All weak orders on the ground set, in a fixed deterministic order.

    Enumerates ordered set partitions by choosing the worst class first
    (nonempty subsets in ascending mask order), then recursing on the rest.
    The count is the Fubini number of |X| (75 for four elements).
    """

    def split(rest: int) -> Iterator[tuple[int, ...]]:
        if not rest:
            yield ()
            return
        # iterate nonempty submasks of rest in ascending numeric order
        sub = rest
        choices = []
        while sub:
            choices.append(sub)
            sub = (sub - 1) & rest
        for worst in reversed(choices):
            for tail in split(rest & ~worst):
                yield (worst, *tail)

    for shape in split(ground.full_bits):
        yield WeakOrder(ground, tuple(ground.mask(b) for b in shape))


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


# ----------------------------------------------- acceptance-summary report

_ACCEPTANCE_OUTCOMES: dict[str, str] = {}


def pytest_runtest_logreport(report):
    if "test_acceptance.py" in report.nodeid:
        if report.when == "call" or (
            report.when == "setup" and report.outcome != "passed"
        ):
            _ACCEPTANCE_OUTCOMES[report.nodeid] = report.outcome


def pytest_terminal_summary(terminalreporter):
    if not _ACCEPTANCE_OUTCOMES:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for nodeid in sorted(_ACCEPTANCE_OUTCOMES):
        name = nodeid.split("::")[-1]
        verdict = "PASS" if _ACCEPTANCE_OUTCOMES[nodeid] == "passed" else "FAIL"
        terminalreporter.write_line(f"{name}: {verdict}")
