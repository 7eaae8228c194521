"""Finite posets: validation, Hasse diagrams, chain covers, Möbius inversion."""

import dataclasses
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from closureops import (
    ChainCover,
    FinitePoset,
    GroundSet,
    GroundSetMismatch,
    InvalidOrderRelation,
    Topology,
    WitnessVerificationFailed,
    to_dot,
)
from closureops import core as core_module
from closureops import poset as poset_module
from conftest import (
    brute_poset_width,
    chain_bits,
    check_chain_cover,
    crown_bits,
    ground,
    hasse_pairs,
    labeling_bits,
    oracle_from_leq,
    oracle_from_masks,
    oracle_hasse,
    oracle_min_chain_cover,
    oracle_mobius,
    permuted_poset,
    random_family_bits,
    random_fraction,
    random_poset,
    sub,
    topo,
    truncated_bits,
)

DIVISORS_OF_12 = (1, 2, 3, 4, 6, 12)


def divisor_poset() -> FinitePoset:
    return oracle_from_leq(DIVISORS_OF_12, lambda a, b: b % a == 0)


def classical_mobius(n: int) -> int:
    """Number-theoretic μ(n): 0 unless squarefree, else (−1)^(#prime factors)."""
    count = 0
    d = 2
    while d * d <= n:
        if n % d == 0:
            n //= d
            if n % d == 0:
                return 0
            count += 1
        else:
            d += 1
    if n > 1:
        count += 1
    return -1 if count % 2 else 1


# --------------------------------------------------------------- validation


def _rejects(items, rows, message):
    with pytest.raises(InvalidOrderRelation) as caught:
        FinitePoset(items, rows)
    assert str(caught.value) == message


def test_rejects_duplicate_items():
    _rejects((1, 1), (0b11, 0b11), "duplicate item 1")


def test_rejects_wrong_row_count():
    _rejects((1, 2), (0b11,), "one relation row required per item")


def test_rejects_rows_referring_to_unknown_items():
    _rejects((1, 2), (0b101, 0b10), "relation row refers to unknown items")


def test_rejects_irreflexive_relation():
    _rejects((1, 2), (0b01, 0b01), "reflexivity fails at 2")


def test_rejects_antisymmetry_violation():
    _rejects((1, 2), (0b11, 0b11), "antisymmetry fails at (1, 2)")
    _rejects((1, 2, 3), (0b001, 0b110, 0b110), "antisymmetry fails at (2, 3)")
    _rejects(("a", "b", "c"), (0b111, 0b111, 0b100), "antisymmetry fails at ('a', 'b')")


def test_rejects_intransitive_relation():
    _rejects(
        (1, 2, 3), (0b011, 0b110, 0b100), "transitivity fails: 1 ≤ 2 ≤ 3 but not 1 ≤ 3"
    )
    _rejects(
        ("a", "b", "c"),
        (0b011, 0b110, 0b100),
        "transitivity fails: 'a' ≤ 'b' ≤ 'c' but not 'a' ≤ 'c'",
    )


def test_index_of_unknown_item():
    with pytest.raises(InvalidOrderRelation):
        divisor_poset().index(5)


# ------------------------------------------------------------- construction


def test_divisor_order_keeps_its_items_and_relation():
    p = divisor_poset()
    assert p.items == DIVISORS_OF_12
    assert p.size == 6
    assert p.leq(2, 12) and p.leq(1, 1)
    assert not p.leq(4, 6) and not p.leq(3, 4)


def test_from_masks_keeps_order_and_inclusion():
    g = ground("abc")
    masks = (sub(g, "a"), sub(g, "ab"), sub(g, "c"))
    p = FinitePoset.from_masks(masks)
    assert p.items == masks
    assert p.leq(masks[0], masks[1])
    assert not p.leq(masks[0], masks[2])


def test_from_masks_matches_the_pairwise_oracle():
    for seed in range(100):
        rng = random.Random(seed)
        n = rng.randint(1, 8)
        g = ground("abcdefgh"[:n])
        masks = [g.mask(b) for b in random_family_bits(rng, n)]
        rng.shuffle(masks)
        assert FinitePoset.from_masks(masks) == oracle_from_masks(masks)
    assert FinitePoset.from_masks(()) == oracle_from_masks(())


def test_from_masks_rejects_mixed_ground_sets():
    masks = (sub(ground("ab"), "a"), sub(ground("xy"), "x"))
    for family in (masks, masks[::-1]):
        with pytest.raises(GroundSetMismatch):
            oracle_from_masks(family)
        with pytest.raises(GroundSetMismatch):
            FinitePoset.from_masks(family)


def test_from_topology_uses_canonical_closed_order():
    t = topo(ground("abc"), "", "b", "ab", "bc", "abc")
    p = FinitePoset.from_topology(t)
    assert p.items == t.closed


def test_dual_reverses_order():
    p = divisor_poset()
    d = p.dual()
    for a in DIVISORS_OF_12:
        for b in DIVISORS_OF_12:
            assert d.leq(a, b) == p.leq(b, a)
    assert d.dual() == p


def test_dual_builds_the_rows_the_checked_constructor_accepts():
    # dual() skips the order checks; the reversed rows must pass them.
    rng = random.Random(27)
    for n in range(1, 13):
        p = random_poset(rng, n)
        d = p.dual()
        assert d == FinitePoset(p.items, d.up)
        assert all(d.up[j] >> i & 1 == p.up[i] >> j & 1 for i in range(n) for j in range(n))


# ------------------------------------------------------------ Hasse diagram


def test_hasse_of_divisor_lattice():
    assert hasse_pairs(divisor_poset()) == (
        (1, 2),
        (1, 3),
        (2, 4),
        (2, 6),
        (3, 6),
        (4, 12),
        (6, 12),
    )


def test_hasse_of_boolean_cube():
    g = ground("abc")
    p = FinitePoset.from_masks(tuple(g.subsets()))
    covers = hasse_pairs(p)
    assert len(covers) == 12  # 3 · 2² one-bit extensions
    for lower, upper in covers:
        assert lower < upper and len(upper) == len(lower) + 1


def test_hasse_skips_transitive_edges():
    p = oracle_from_leq((0, 1, 2), lambda a, b: a <= b)
    assert hasse_pairs(p) == ((0, 1), (1, 2))


def _cover_indices(poset: FinitePoset, pairs) -> tuple[tuple[int, ...], ...]:
    above: list[list[int]] = [[] for _ in range(poset.size)]
    for lower, upper in pairs:
        above[poset.index(lower)].append(poset.index(upper))
    return tuple(tuple(sorted(row)) for row in above)


def test_covers_match_the_oracle_on_random_families():
    for seed in range(200):
        rng = random.Random(seed)
        n = rng.randint(1, 8)
        t = Topology(ground("abcdefgh"[:n]), random_family_bits(rng, n))
        p = FinitePoset.from_topology(t)
        expected = oracle_hasse(p)
        assert hasse_pairs(p) == expected
        assert p.upper_cover_indices() == _cover_indices(p, expected)


def test_swept_and_looped_covers_match_the_oracle_on_random_families():
    # from_topology sweeps the image table when the topology holds one (the
    # superset recursion validated it) and runs the cover loop otherwise;
    # both routes are also forced on every family.
    routes: Counter = Counter()
    for seed in range(300):
        rng = random.Random(seed)
        n = rng.randint(1, 10)
        t = Topology(
            GroundSet(tuple(f"e{i}" for i in range(n))), random_family_bits(rng, n)
        )
        routes["sweep" if t._images is not None else "loop"] += 1
        p = FinitePoset.from_topology(t)
        expected = oracle_hasse(p)
        assert hasse_pairs(p) == expected
        assert p.upper_cover_indices() == _cover_indices(p, expected)
        looped = FinitePoset.from_masks(t.closed)
        t.operator().tabulate_bits()
        swept = FinitePoset.from_topology(t)
        for other in (looped, swept):
            assert other == p
            assert other.upper_cover_indices() == p.upper_cover_indices()
    assert routes["sweep"] >= 20 and routes["loop"] >= 20


def test_trusted_inclusion_posets_equal_the_checked_ones():
    for seed in range(50):
        rng = random.Random(seed)
        n = rng.randint(1, 8)
        t = Topology(ground("abcdefgh"[:n]), random_family_bits(rng, n))
        for p in (FinitePoset.from_topology(t), FinitePoset.from_masks(t.closed[::-1])):
            checked = FinitePoset(p.items, p.up)
            assert checked == p
            assert checked.upper_cover_indices() == p.upper_cover_indices()


def test_from_masks_rejects_a_repeated_subset():
    g = ground("ab")
    with pytest.raises(InvalidOrderRelation, match=r"duplicate item SubsetMask\(\{a\}\)"):
        FinitePoset.from_masks((sub(g, "a"), sub(g, "ab"), sub(g, "a")))


def test_transpose_matches_the_brute_force_transpose():
    rng = random.Random(31)
    for size in range(71):
        width, density = rng.randint(0, 70), rng.choice((0.0, 0.05, 0.5, 0.95))
        rows = [
            sum(1 << j for j in range(width) if rng.random() < density)
            for _ in range(size)
        ]
        width = max(rows, default=0).bit_length()
        assert poset_module._transpose(rows) == [
            sum(1 << i for i, row in enumerate(rows) if row >> j & 1)
            for j in range(width)
        ]


@pytest.mark.parametrize("n", [8, 12, 16, 20])
def test_transposed_rows_match_the_oracles_up_to_twenty_elements(n, routes):
    # dual, the inclusion rows of from_masks and the strict down-rows of
    # the interval loop all read their columns through _transpose.
    rng = random.Random(n)
    g = GroundSet(tuple(f"e{i}" for i in range(n)))
    families = (labeling_bits(rng, n), chain_bits(rng, n), crown_bits(n))
    for bits in families:
        t = Topology(g, bits)
        masks = list(t.closed)
        rng.shuffle(masks)
        p = FinitePoset.from_masks(masks)
        assert p == oracle_from_masks(masks)
        assert p.dual() == oracle_from_leq(masks, lambda a, b: b <= a)
        mu = {(x.bits, y.bits): value for x, y, value in p.mobius().pairs()}
        assert mu == oracle_mobius(t)
    assert routes == {"_interval_rows": len(families)}


def _brute_covers(items, leq) -> tuple[tuple[int, ...], ...]:
    """Per item, the indices k with item < k and nothing strictly between,
    by testing every middle item against the predicate ``leq``."""
    n = len(items)
    below = [[leq(items[i], items[k]) and i != k for k in range(n)] for i in range(n)]
    return tuple(
        tuple(
            k for k in range(n)
            if below[i][k] and not any(below[i][m] and below[m][k] for m in range(n))
        )
        for i in range(n)
    )


def _is_subset(a: int, b: int) -> bool:
    return a & ~b == 0


@given(st.integers(0, 10**9), st.integers(0, 12))
@settings(max_examples=100, deadline=None)
def test_covers_match_the_oracle_when_items_are_not_sorted(seed, n):
    rng = random.Random(seed)
    p = permuted_poset(rng, random_poset(rng, n, rng.choice((0.1, 0.3, 0.6))))
    expected = oracle_hasse(p)
    assert hasse_pairs(p) == expected
    assert p.upper_cover_indices() == _cover_indices(p, expected)
    assert hasse_pairs(p.dual()) == oracle_hasse(p.dual())
    # The pick walk, against brute force: in shuffled order it picks items
    # that are not covers and must drop them through later picks.
    for q in (p, p.dual()):
        assert q.upper_cover_indices() == _brute_covers(q.items, q.leq)


def test_the_pick_walk_matches_brute_force_on_shuffled_families():
    for seed in range(150):
        rng = random.Random(seed)
        n = rng.randint(1, 8)
        bits = random_family_bits(rng, n)
        rng.shuffle(bits)
        g = GroundSet(tuple(f"e{i}" for i in range(n)))
        p = FinitePoset.from_masks([g.mask(b) for b in bits])
        assert p.upper_cover_indices() == _brute_covers(bits, _is_subset)


def _labeling_bits(rng: random.Random, n: int, labels: int) -> list[int]:
    """The closed sets of a random labeling of n elements with few labels:
    the intersections of the label extents, with ∅ and X."""
    full = (1 << n) - 1
    family = {full}
    for _ in range(labels):
        extent = rng.getrandbits(n)
        family |= {extent & other for other in family}
    return sorted(family | {0})


@pytest.mark.parametrize("n", [16, 18, 20])
def test_walked_covers_of_sparse_lattices_at_large_n(n):
    # Sparse families at n = 16-20 hold no image table, so their covers are
    # walked on the rows of S(f) in canonical order.
    rng = random.Random(n)
    g = GroundSet(tuple(f"e{i}" for i in range(n)))
    families = [chain_bits(rng, n), [(1 << k) - 1 for k in range(n + 1)], crown_bits(n)]
    families += [_labeling_bits(rng, n, rng.randint(1, 6)) for _ in range(8)]
    for bits in families:
        t = Topology(g, bits)
        assert t._images is None
        p = FinitePoset.from_topology(t)
        assert p.upper_cover_indices() == _brute_covers(t.bits, _is_subset)


# --------------------------------------------------------------- chain cover


def test_chain_cover_of_divisor_lattice():
    p = divisor_poset()
    cover = p.min_chain_cover()
    check_chain_cover(p, cover)
    assert cover.width == 2 == brute_poset_width(p)


def test_chain_cover_is_deterministic_on_a_small_family():
    g = ground("abc")
    p = FinitePoset.from_masks((sub(g, "a"), sub(g, "b"), sub(g, "ab")))
    cover = p.min_chain_cover()
    assert cover.chains == ((sub(g, "a"), sub(g, "ab")), (sub(g, "b"),))
    assert cover.antichain == (sub(g, "a"), sub(g, "b"))


def test_chain_cover_of_antichain_and_chain():
    anti = oracle_from_leq((0, 1, 2, 3), lambda a, b: a == b)
    assert anti.min_chain_cover().width == 4
    chain = oracle_from_leq((0, 1, 2, 3), lambda a, b: a <= b)
    cover = chain.min_chain_cover()
    assert cover.width == 1
    assert cover.chains == ((0, 1, 2, 3),)


@given(st.integers(0, 10**9), st.integers(1, 12))
@settings(max_examples=120, deadline=None)
def test_chain_cover_is_minimum_on_random_posets(seed, n):
    p = random_poset(random.Random(seed), n)
    cover = p.min_chain_cover()
    check_chain_cover(p, cover)
    assert cover.width == brute_poset_width(p)


@given(st.integers(0, 10**9), st.integers(0, 14))
@settings(max_examples=120, deadline=None)
def test_chain_cover_equals_the_list_matching_oracle(seed, n):
    # The bitset searches scan neighbors in item order like the list-based
    # matching, so the cover and its certificate are the same, item for item.
    rng = random.Random(seed)
    p = permuted_poset(rng, random_poset(rng, n, rng.choice((0.1, 0.3, 0.6))))
    assert p.min_chain_cover() == oracle_min_chain_cover(p)
    assert p.dual().min_chain_cover() == oracle_min_chain_cover(p.dual())


def test_chain_cover_equals_the_list_matching_oracle_on_closed_sets():
    for seed in range(100):
        rng = random.Random(seed)
        n = rng.randint(1, 8)
        t = Topology(ground("abcdefgh"[:n]), random_family_bits(rng, n))
        p = FinitePoset.from_topology(t)
        assert p.min_chain_cover() == oracle_min_chain_cover(p)


def test_cover_certificate_mismatch_is_rejected():
    with pytest.raises(WitnessVerificationFailed):
        ChainCover(chains=((1,),), antichain=())


# ------------------------------------------------------------------- Möbius


def test_mobius_of_divisor_lattice_matches_classical_mu():
    table = divisor_poset().mobius()
    for a in DIVISORS_OF_12:
        for b in DIVISORS_OF_12:
            if b % a == 0:
                assert table.mu(a, b) == classical_mobius(b // a)
            else:
                assert table.mu(a, b) == 0


def test_mobius_of_boolean_cube_is_signed_by_gap_size():
    g = ground("abc")
    p = FinitePoset.from_masks(tuple(g.subsets()))
    table = p.mobius()
    for a in g.subsets():
        for b in g.subsets():
            if a <= b:
                assert table.mu(a, b) == (-1) ** len(b - a)


def test_mobius_of_a_chain():
    p = oracle_from_leq((0, 1, 2, 3, 4), lambda a, b: a <= b)
    table = p.mobius()
    for a in range(5):
        for b in range(a, 5):
            expected = 1 if a == b else (-1 if b == a + 1 else 0)
            assert table.mu(a, b) == expected


def test_mobius_pairs_are_sorted_and_comparable_only():
    p = divisor_poset()
    listed = list(p.mobius().pairs())
    indices = [(p.index(x), p.index(y)) for x, y, _ in listed]
    assert indices == sorted(indices)
    assert all(p.leq(x, y) for x, y, _ in listed)
    assert len(listed) == sum(
        1 for x in p.items for y in p.items if p.leq(x, y)
    )


def _check_delta(p: FinitePoset) -> None:
    table = p.mobius()
    for x in p.items:
        for y in p.items:
            if not p.leq(x, y):
                assert table.mu(x, y) == 0
                continue
            between = [z for z in p.items if p.leq(x, z) and p.leq(z, y)]
            delta = 1 if x == y else 0
            assert sum(table.mu(x, z) for z in between) == delta
            assert sum(table.mu(z, y) for z in between) == delta


@given(st.integers(0, 10**9), st.integers(1, 12))
@settings(max_examples=100, deadline=None)
def test_mobius_satisfies_delta_identity(seed, n):
    rng = random.Random(seed)
    p = random_poset(rng, n)
    _check_delta(p)
    # listed in item order also when item order is not a linear extension
    shuffled = permuted_poset(rng, p)
    _check_delta(shuffled)
    table = shuffled.mobius()
    items = shuffled.items
    assert list(table.pairs()) == [
        (x, y, table.mu(x, y)) for x in items for y in items if shuffled.leq(x, y)
    ]


def test_mobius_agrees_with_dual():
    p = divisor_poset()
    table = p.mobius()
    dual_table = p.dual().mobius()
    for a in DIVISORS_OF_12:
        for b in DIVISORS_OF_12:
            assert table.mu(a, b) == dual_table.mu(b, a)


# ------------------------------------------- Möbius of a closed-set lattice


def test_mobius_of_closed_sets_matches_the_interval_oracle(routes):
    rng = random.Random(20261018)
    tableless_rota = 0
    for _ in range(200):
        n = rng.randint(1, 10)
        t = Topology(ground("abcdefghij"[:n]), random_family_bits(rng, n))
        tableless = t._images is None
        before = routes["_rota_walk"]
        poset = FinitePoset.from_topology(t)
        table = poset.mobius()
        tableless_rota += tableless and routes["_rota_walk"] > before
        assert [(x.bits, y.bits, mu) for x, y, mu in table.pairs()] == [
            (a, c, mu) for (a, c), mu in oracle_mobius(t).items()
        ]
        if n <= 6:
            values = {item: random_fraction(rng) for item in poset.items}
            assert poset.mobius_invert(poset.sum_below(values)) == values
    assert routes["_rota_walk"] >= 20
    assert routes["_interval_rows"] >= 20
    assert tableless_rota >= 1  # Rota after tabulating, counted in the dispatch


def test_discrete_mobius_closed_form_at_twelve_elements(routes):
    n = 12
    t = Topology(ground("abcdefghijkl"), range(1 << n))
    table = FinitePoset.from_topology(t).mobius()
    assert routes == {"_rota_walk": 1}
    entries = 0
    for a, row in zip(t.bits, table.rows):
        assert list(row) == sorted(row)
        assert len(row) == 1 << (n - a.bit_count())
        for j, mu in row.items():
            c = t.bits[j]
            assert c & a == a
            assert mu == 1 - 2 * ((c ^ a).bit_count() & 1)  # (−1)^|C ∖ A|
        entries += len(row)
    assert entries == 3**n


def test_the_walk_corrects_exactly_the_entries_off_the_sign(routes):
    rng = random.Random(20261019)
    for _ in range(100):
        n = rng.randint(1, 10)
        t = Topology(ground("abcdefghij"[:n]), random_family_bits(rng, n))
        mu = oracle_mobius(t)
        bits = t.bits
        rows = list(FinitePoset.from_topology(t).mobius_walk())
        assert len(rows) == len(bits)
        for a, (above, corrections) in zip(bits, rows):
            assert [bits[j] for j in above] == [c for c in bits if a & ~c == 0]
            off_sign = [
                (j, mu[a, bits[j]])
                for j in above
                if mu[a, bits[j]] != 1 - 2 * ((bits[j] ^ a).bit_count() & 1)
            ]
            assert sorted(corrections) == off_sign
    assert routes["_rota_walk"] >= 20
    assert routes["_interval_rows"] >= 20


def test_the_discrete_walk_at_twelve_elements_has_no_corrections(routes):
    n = 12
    t = Topology(ground("abcdefghijkl"), range(1 << n))
    entries = 0
    for a, (above, corrections) in zip(t.bits, FinitePoset.from_topology(t).mobius_walk()):
        assert corrections == []
        assert above == sorted(set(above))
        assert len(above) == 1 << (n - a.bit_count())
        assert all(t.bits[j] & a == a for j in above)
        entries += len(above)
    assert entries == 3**n
    assert routes == {"_rota_walk": 1}


def test_a_truncated_family_corrects_each_small_row_at_the_top(routes):
    # Each (n − 1)-subset closes to X, so μ(A, X) = (−1)^k·(1 − k) with
    # k = |X ∖ A| ≥ 2, and every other entry is the sign.
    n = 10
    t = Topology(ground("abcdefghij"), truncated_bits(n))
    poset = FinitePoset.from_topology(t)
    top = len(t.bits) - 1
    for a, (above, corrections) in zip(t.bits, poset.mobius_walk()):
        k = n - a.bit_count()
        assert corrections == ([(top, (-1) ** k * (1 - k))] if k else [])
    table = poset.mobius()
    assert [(x.bits, y.bits, mu) for x, y, mu in table.pairs()] == [
        (a, c, mu) for (a, c), mu in oracle_mobius(t).items()
    ]
    assert routes == {"_rota_walk": 2}


def test_a_long_chain_takes_the_interval_loop_without_a_table(routes, monkeypatch):
    def refuse(*args):
        raise AssertionError("the image table was built")

    monkeypatch.setattr(core_module, "_meet_images", refuse)
    n = 20
    t = Topology(GroundSet(tuple(f"x{k}" for k in range(n))), [(1 << k) - 1 for k in range(n + 1)])
    table = FinitePoset.from_topology(t).mobius()
    assert routes == {"_interval_rows": 1}
    assert t._images is None
    for i, row in enumerate(table.rows):
        expected = [(i, 1), (i + 1, -1), *((j, 0) for j in range(i + 2, n + 1))]
        assert list(row.items()) == expected[: n + 1 - i]


def test_the_rota_route_builds_neither_rows_nor_covers():
    t = Topology(ground("abcdefghij"), range(1 << 10))
    poset = FinitePoset.from_topology(t)
    poset.mobius()
    assert "up" not in vars(poset)
    assert "_covers" not in vars(poset)


def test_equality_and_hash_build_no_rows_for_topology_posets():
    # The rows of the discrete family on 14 elements would take 2^28 bits.
    t = Topology(GroundSet(tuple(f"e{i}" for i in range(14))), range(1 << 14))
    p, q = FinitePoset.from_topology(t), FinitePoset.from_topology(t)
    assert p == q and hash(p) == hash(q)
    assert "up" not in vars(p) and "up" not in vars(q)
    # A topology poset equals the inclusion order on the same closed sets,
    # built any other way, and hashes alike.
    g = ground("abc")
    small = FinitePoset.from_topology(topo(g, "", "a", "b", "ab", "abc"))
    for other in (
        FinitePoset.from_masks(small.items),
        FinitePoset(small.items, small.up),
        FinitePoset.from_topology(topo(g, "", "a", "b", "ab", "abc")),
    ):
        assert small == other and other == small and hash(small) == hash(other)
    assert small != FinitePoset.from_topology(topo(g, "", "a", "ab", "abc"))
    assert small != small.dual()
    assert small != small.items


def test_missing_attributes_and_walks_off_a_topology_raise():
    for poset in (divisor_poset(), FinitePoset.from_topology(topo(ground("a"), "", "a"))):
        with pytest.raises(AttributeError):
            poset.no_such_attribute
    with pytest.raises(AttributeError):
        divisor_poset().mobius_walk


def test_both_kinds_of_order_are_frozen():
    t = topo(ground("ab"), "", "a", "ab")
    for poset in (divisor_poset(), FinitePoset.from_topology(t)):
        for name in ("items", "up", "_topology", "no_such_attribute"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(poset, name, None)


def test_repr_counts_covers_without_building_the_rows():
    # The discrete family on 14 elements holds its image table, so its covers
    # are swept from it; the rows would take |S|² = 2^28 bits.
    t = Topology(GroundSet(tuple(f"e{i}" for i in range(14))), range(1 << 14))
    poset = FinitePoset.from_topology(t)
    assert repr(poset) == "FinitePoset(16384 items, 114688 covers)"
    assert "up" not in vars(poset)
    assert repr(divisor_poset()) == "FinitePoset(6 items, 7 covers)"


def test_a_topology_poset_builds_its_rows_once(routes, monkeypatch):
    built = Counter()

    def counted(bits, _rows=poset_module._inclusion_rows):
        built["rows"] += 1
        return _rows(bits)

    monkeypatch.setattr(poset_module, "_inclusion_rows", counted)
    t = Topology(ground("abcdefghijkl"), crown_bits(12))
    assert t._images is None
    poset = FinitePoset.from_topology(t)
    edges = hasse_pairs(poset)
    poset.mobius()
    assert hasse_pairs(poset) == edges
    assert built == {"rows": 1}
    assert routes == {"_interval_rows": 1}


# ---------------------------------------------------------------- inversion


@given(st.integers(0, 10**9), st.integers(1, 12))
@settings(max_examples=100, deadline=None)
def test_inversion_round_trips(seed, n):
    rng = random.Random(seed)
    p = random_poset(rng, n)
    values = {item: random_fraction(rng) for item in p.items}
    summed = p.sum_below(values)
    recovered = p.mobius_invert(summed)
    assert recovered == values
    assert all(isinstance(v, Fraction) for v in recovered.values())
    # And the other way round: inverting first, then summing.
    inverted = p.mobius_invert(values)
    assert p.sum_below(inverted) == values


def test_sum_below_on_a_chain():
    p = oracle_from_leq((0, 1, 2), lambda a, b: a <= b)
    sums = p.sum_below({0: 1, 1: 2, 2: 3})
    assert sums == {0: Fraction(1), 1: Fraction(3), 2: Fraction(6)}


# ---------------------------------------------------------------------- DOT


def test_dot_rendering_is_exact():
    t = topo(ground("ab"), "", "a", "ab")
    text = to_dot(FinitePoset.from_topology(t))
    assert text == (
        "digraph hasse {\n"
        "  rankdir=BT;\n"
        '  n0 [label="∅"];\n'
        '  n1 [label="{a}"];\n'
        '  n2 [label="{a,b}"];\n'
        "  n0 -> n1;\n"
        "  n1 -> n2;\n"
        "}\n"
    )


def test_dot_labels_items_that_are_not_masks_by_str():
    p = oracle_from_leq((2, 1), lambda a, b: a <= b)
    assert to_dot(p) == (
        "digraph hasse {\n"
        "  rankdir=BT;\n"
        '  n0 [label="2"];\n'
        '  n1 [label="1"];\n'
        "  n1 -> n0;\n"
        "}\n"
    )


def test_dot_custom_name_and_label_escaping():
    p = oracle_from_leq(('say "hi"', "x\\y"), lambda a, b: a == b)
    text = to_dot(p, name="order", label=str)
    assert text.startswith("digraph order {")
    assert '  n0 [label="say \\"hi\\""];' in text
    assert '  n1 [label="x\\\\y"];' in text
