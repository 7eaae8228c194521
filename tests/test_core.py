"""Ground sets, subset masks, topologies, validation, and operators."""

import json
import random
import time
from collections import Counter
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from closureops import (
    MAX_ELEMENTS,
    core,
    ClosureOperator,
    ForeignMask,
    GroundSet,
    GroundSetMismatch,
    GroundSetTooLarge,
    InvalidClosureTable,
    MissingEntry,
    MissingTopBottom,
    NotClosed,
    NotIntersectionClosed,
    Topology,
    WitnessVerificationFailed,
    check_generation,
    complexity_profile,
    validate_closure,
)
from closureops import _words
from closureops.cli import main
from closureops.jsonio import validation_doc
from conftest import (
    ABCD,
    animals_labeling,
    brute_depth,
    chain_bits,
    closure_by_common_supersets,
    crown_bits,
    ground,
    iter_topologies,
    oracle_missing_intersection,
    oracle_scan_images,
    oracle_topology_doc,
    oracle_validate_images,
    random_family_bits,
    random_topology,
    sub,
    topo,
)

# ----------------------------------------------------------------- GroundSet


def test_ground_set_basics():
    g = ground(ABCD)
    assert g.size == 4
    assert len(g) == 4
    assert tuple(g) == ABCD
    assert g.index("a") == 0
    assert g.index("d") == 3
    assert "c" in g
    assert "z" not in g
    assert g.full_bits == 0b1111
    assert g.empty.bits == 0
    assert g.full.bits == 0b1111
    assert g.singleton("c") == g.mask(0b100)
    with pytest.raises(ForeignMask):
        g.singleton("z")


def test_ground_set_rejects_bad_input():
    with pytest.raises(ValueError):
        GroundSet(())
    with pytest.raises(ValueError):
        GroundSet(("a", "a"))
    with pytest.raises(ValueError):
        GroundSet(("a", ""))
    with pytest.raises(ForeignMask):
        ground("ab").index("q")


def test_ground_set_size_cap():
    names = tuple(f"e{i}" for i in range(MAX_ELEMENTS))
    assert GroundSet(names).size == MAX_ELEMENTS
    with pytest.raises(GroundSetTooLarge):
        GroundSet(names + ("extra",))


def test_subsets_enumeration_is_canonical():
    g = ground("ab")
    assert [m.bits for m in g.subsets()] == [0, 1, 2, 3]


# ---------------------------------------------------------------- SubsetMask


def test_mask_members_label_and_containment():
    g = ground(ABCD)
    m = sub(g, "ac")
    assert m.members() == ("a", "c")
    assert m.label() == "{a,c}"
    assert g.empty.label() == "∅"
    assert "a" in m and "b" not in m
    assert "not-an-element" not in m
    assert list(m) == ["a", "c"]
    assert len(m) == 2
    assert bool(m) and not bool(g.empty)


def test_mask_algebra_and_complement():
    g = ground(ABCD)
    ac, ab = sub(g, "ac"), sub(g, "ab")
    assert (ac & ab) == sub(g, "a")
    assert (ac | ab) == sub(g, "abc")
    assert (ac - ab) == sub(g, "c")
    assert ac.complement() == sub(g, "bd")


def test_mask_inclusion_order():
    g = ground(ABCD)
    a, ab, bc = sub(g, "a"), sub(g, "ab"), sub(g, "bc")
    assert a <= ab and a < ab
    assert ab >= a and ab > a
    assert not (ab <= bc) and not (bc <= ab)
    assert g.empty <= a and a <= g.full


def test_mask_requires_matching_ground():
    m1 = ground("ab").subset("a")
    m2 = ground("ab").subset("b")  # equal ground set: fine
    assert (m1 | m2).bits == 0b11
    other = ground("xy").subset("x")
    with pytest.raises(GroundSetMismatch):
        m1 | other
    with pytest.raises(GroundSetMismatch):
        m1 <= other
    with pytest.raises(TypeError):
        m1 & {"a"}  # type: ignore[operator]


def test_mask_rejects_out_of_range_bits():
    g = ground("ab")
    with pytest.raises(ForeignMask):
        g.mask(0b100)
    with pytest.raises(ForeignMask):
        g.mask(-1)


_G8 = GroundSet(tuple("abcdefgh"))


def _model(bits):
    return frozenset(n for i, n in enumerate(_G8.elements) if bits >> i & 1)


@given(st.integers(0, 255), st.integers(0, 255))
def test_mask_algebra_matches_set_model(x, y):
    mx, my = _G8.mask(x), _G8.mask(y)
    assert _model((mx & my).bits) == _model(x) & _model(y)
    assert _model((mx | my).bits) == _model(x) | _model(y)
    assert _model((mx - my).bits) == _model(x) - _model(y)
    assert _model(mx.complement().bits) == _model(255) - _model(x)
    assert (mx <= my) == (_model(x) <= _model(y))
    assert (mx < my) == (_model(x) < _model(y))
    assert mx.members() == tuple(sorted(_model(x)))
    assert len(mx) == len(_model(x))


@given(st.integers(0, 255), st.integers(0, 255))
def test_canonical_order_extends_inclusion(x, y):
    if _G8.mask(x) < _G8.mask(y):
        assert x < y


# ------------------------------------------------------------------ Topology


def test_topology_normalizes_and_validates():
    g = ground("ab")
    t = Topology.from_masks(g, (g.full, g.empty, sub(g, "a"), sub(g, "a")))
    assert [m.bits for m in t] == [0, 1, 3]
    assert len(t) == 3
    assert sub(g, "a") in t
    assert sub(g, "b") not in t
    assert t.contains_bits(0b01) and not t.contains_bits(0b10)


def test_membership_agrees_with_the_set_of_closed_bits():
    """``contains_bits`` and ``in`` answer from the ascending ``bits`` alone,
    whichever way the topology was built."""
    rng = random.Random(29)
    for _ in range(40):
        n = rng.randint(1, 10)
        g = ground(f"e{i}" for i in range(n))
        family = random_family_bits(rng, n)
        built = Topology(g, family)
        images = built.tabulate_bits()
        for t in (
            built,
            Topology.from_masks(g, map(g.mask, family)),
            Topology._validated(g, images),
            Topology._trusted(g, images),
        ):
            closed = set(t.bits)
            assert closed == set(family)
            for b in range(1 << n):
                assert t.contains_bits(b) == (b in closed)
                assert (g.mask(b) in t) == (b in closed)
    g = ground(f"e{i}" for i in range(16))
    discrete = Topology(g, range(1 << 16))
    assert all(map(discrete.contains_bits, range(1 << 16)))
    g = ground(f"e{i}" for i in range(20))
    chain = Topology(g, chain_bits(rng, 20))
    closed = set(chain.bits)
    for b in [*closed, *(rng.getrandbits(20) for _ in range(4096))]:
        assert chain.contains_bits(b) == (b in closed)
        assert (g.mask(b) in chain) == (b in closed)


def test_topology_requires_empty_and_full():
    g = ground("ab")
    with pytest.raises(MissingTopBottom):
        Topology.from_masks(g, (g.full, sub(g, "a")))
    with pytest.raises(MissingTopBottom):
        Topology.from_masks(g, (g.empty, sub(g, "a")))


def test_topology_requires_intersection_closure():
    g = ground("abc")
    with pytest.raises(NotIntersectionClosed) as err:
        topo(g, "", "ab", "bc", "abc")
    a, b = err.value.witness
    assert {a.label(), b.label()} == {"{a,b}", "{b,c}"}


def _meet_reducible(rng: random.Random, bits: list[int]) -> int | None:
    """A closed set other than ∅ and X that is the intersection of its strict
    closed supersets, so that dropping it breaks intersection closure."""
    full = bits[-1]
    middle = bits[1:-1]
    rng.shuffle(middle)
    for c in middle:
        meet = full
        for d in bits:
            if d != c and c & ~d == 0:
                meet &= d
        if meet == c:
            return c
    return None


def _route(taken: dict, before: dict) -> str:
    """The validation route that ran since ``before`` was copied from
    ``taken``: the superset recursion, the words, or the pair loop alone."""
    for key in ("dp", "words"):
        if taken[key] > before[key]:
            return key
    return "pairs"


def _middling_bits(rng: random.Random, n: int) -> list[int]:
    """The intersection closure of random picks, ∅ and X, grown until it
    holds a drawn 40 to 110 sets or a few more: on 10 elements, more than
    the pair loop's share and fewer than the recursion's."""
    full = (1 << n) - 1
    family = {0, full}
    target = rng.randint(40, 110)
    while len(family) < target:
        pick = rng.getrandbits(n)
        family |= {pick & other for other in family}
    return sorted(family)


def test_recursion_decides_like_the_pair_loop_on_random_families(monkeypatch):
    # The superset recursion decides dense families, the words middling
    # ones and the pair loop small ones; the pair loop names the missing
    # intersection whenever one is missing, also when several are.
    taken = _count_methods(monkeypatch)
    sides: Counter = Counter()
    for seed in range(400):
        rng = random.Random(seed)
        n = rng.randint(1, 10) if seed < 300 else 10
        g = GroundSet(tuple(f"e{i}" for i in range(n)))
        bits = random_family_bits(rng, n) if seed < 300 else _middling_bits(rng, n)
        assert oracle_missing_intersection(bits) is None
        before = dict(taken)
        t = Topology(g, bits)
        side = _route(taken, before)
        sides["valid", side] += 1
        if side == "dp":
            assert t._images == oracle_scan_images(g.full_bits, bits)
        else:
            assert t._images is None
        middle = bits[1:-1]
        several = set(rng.sample(middle, min(len(middle), rng.randint(2, 10))))
        for dropped in ({_meet_reducible(rng, bits)}, several):
            broken = [b for b in bits if b not in dropped]
            first = oracle_missing_intersection(broken)
            if first is None:
                continue
            a, b = first
            before = dict(taken)
            with pytest.raises(NotIntersectionClosed) as err:
                Topology(g, broken)
            sides["broken", _route(taken, before)] += 1
            assert tuple(m.bits for m in err.value.witness) == (a, b)
            assert str(err.value) == str(NotIntersectionClosed(g.mask(a), g.mask(b)))
    assert taken["fill"] == 0
    routes = product(("valid", "broken"), ("dp", "words", "pairs"))
    assert min(sides[key] for key in routes) >= 20, sides


def test_missing_meets_are_the_recursion_s_on_arbitrary_families():
    # Any family holding X, intersection-closed or not: the words list the
    # subsets outside it that the recursion maps to themselves.  Past n = 10,
    # a sparse and a dense family at n = 16 and 18.
    for seed in range(204):
        rng = random.Random(seed)
        if seed < 200:
            n = rng.randint(1, 10)
            count = rng.randint(0, 3 * n)
        else:
            n = 16 if seed < 202 else 18
            count = 3 * n if seed % 2 else 1 << (n - 1)
        full = (1 << n) - 1
        family = {full, *(rng.getrandbits(n) for _ in range(count))}
        images = core._superset_dp(full, family)
        expected = [a for a, image in enumerate(images) if a == image and a not in family]
        assert _words._missing_meets(n, family) == expected


def test_a_dense_family_missing_one_meet_is_rejected_fast():
    # Every subset but X ∖ {e0, e1}, at n = 16: 65,535 members, so the pair
    # loop alone would test about 2^31 pairs.
    g = GroundSet(tuple(f"e{i}" for i in range(16)))
    full = g.full_bits
    start = time.perf_counter()
    with pytest.raises(NotIntersectionClosed) as err:
        Topology(g, [b for b in range(full + 1) if b != full & ~0b11])
    assert time.perf_counter() - start < 1
    a, b = err.value.witness
    assert (a.bits, b.bits) == (full & ~0b10, full & ~0b01)


def test_many_missing_meets_above_many_rows_are_rejected_fast():
    # Every subset lacking e15, and the sets holding e15 with at least 12
    # elements, at n = 16: about 30,000 intersections holding e15 are
    # missing, and the 32,768 rows lacking e15, which come first, lie above
    # none of them, so no row is scanned against the whole missing list.
    # The first pair is the first two members holding e15, which meet in 11
    # elements; rows lacking e15 meet every member in a subset lacking e15.
    n = 16
    g = GroundSet(tuple(f"e{i}" for i in range(n)))
    top = 1 << (n - 1)
    family = [*range(top), *(a for a in range(top, 1 << n) if a.bit_count() >= n - 4)]
    start = time.perf_counter()
    with pytest.raises(NotIntersectionClosed) as err:
        Topology(g, family)
    assert time.perf_counter() - start < 1
    assert tuple(m.bits for m in err.value.witness) == (top | 0x7FF, top | 0xBFF)


def test_validation_table_is_the_image_cache(monkeypatch):
    g = GroundSet(tuple(f"e{i}" for i in range(8)))
    taken = _count_methods(monkeypatch)
    t = Topology(g, range(256))
    assert taken == {"fill": 0, "dp": 1, "words": 0}
    f = t.operator()
    assert f.tabulate_bits() is t._images == tuple(range(256))
    assert f.closed_sets().operator().tabulate_bits() is t._images
    assert taken == {"fill": 0, "dp": 1, "words": 0}


def _raised(build) -> tuple:
    """The class, message and witness of the error ``build()`` raises."""
    with pytest.raises(Exception) as err:
        build()
    return type(err.value), str(err.value), getattr(err.value, "witness", None)


def test_bits_and_masks_construct_the_same_topology(monkeypatch):
    # Topology(g, bits) and Topology.from_masks(g, masks) agree on valid
    # families and fail alike on broken ones, the pair loop and the superset
    # recursion both deciding some of them.
    taken = _count_methods(monkeypatch)
    broken_kinds: Counter = Counter()
    for seed in range(240):
        rng = random.Random(seed)
        n = rng.randint(1, 8)
        g = GroundSet(tuple(f"e{i}" for i in range(n)))
        other = GroundSet(tuple(f"f{i}" for i in range(n)))
        bits = random_family_bits(rng, n)
        given = bits + rng.sample(bits, rng.randint(0, len(bits)))
        rng.shuffle(given)
        t = Topology(g, given)
        from_masks = Topology.from_masks(g, [g.mask(b) for b in given])
        assert t == from_masks and t.bits == tuple(bits)
        assert t.closed == from_masks.closed == tuple(g.mask(b) for b in bits)
        assert list(t) == list(t.closed)
        breaks = {
            "no ∅": [b for b in given if b],
            "no X": [b for b in given if b != g.full_bits],
        }
        dropped = _meet_reducible(rng, bits)
        if dropped is not None:
            breaks["no meet"] = [b for b in given if b != dropped]
        for kind, broken in breaks.items():
            expected = _raised(lambda: Topology.from_masks(g, [g.mask(b) for b in broken]))
            assert _raised(lambda: Topology(g, broken)) == expected
            broken_kinds[kind, expected[0].__name__] += 1
        beyond = rng.randrange(g.full_bits + 1, 2 * g.full_bits + 2)
        misfit = f"bit pattern {beyond:#x} does not fit a ground set of {n} elements"
        assert (
            _raised(lambda: Topology(g, [*given, beyond, -1]))
            == _raised(lambda: g.mask(beyond))
            == (ForeignMask, misfit, None)
        )
        assert _raised(
            lambda: Topology.from_masks(g, [*map(g.mask, given), other.mask(0)])
        ) == (GroundSetMismatch, "closed set lives in a different ground set", None)
    assert broken_kinds["no ∅", "MissingTopBottom"] == 240
    assert broken_kinds["no X", "MissingTopBottom"] == 240
    assert broken_kinds["no meet", "NotIntersectionClosed"] >= 100
    assert taken["dp"] >= 50


def test_closure_without_a_closed_superset_is_an_internal_failure():
    # Unreachable through the validating constructors, which require X.
    t = Topology._trusted(ground("a"), (0, 0))
    with pytest.raises(WitnessVerificationFailed, match="unreachable"):
        t.closure_bits(1)


def test_membership_ignores_foreign_masks():
    t = topo(ground("ab"), "", "a", "ab")
    assert ground("xy").subset("x") not in t
    # Only masks are members: not their bit patterns, names or sets.
    for item in (0, 1, "a", frozenset("a"), None):
        assert item not in t


def test_closure_of_is_smallest_closed_superset():
    t = topo(ground("abc"), "", "a", "b", "c", "ab", "bc", "abc")
    g = t.ground
    for m in g.subsets():
        expected = closure_by_common_supersets(t, m)
        got = t.closure_of(m)
        assert got == expected
        assert m <= got and got in t
    assert t.closure_of(sub(g, "ac")) == g.full


def test_closure_matches_oracle_on_every_small_topology():
    g = ground("abc")
    for t in iter_topologies(g):
        for m in g.subsets():
            assert t.closure_of(m) == closure_by_common_supersets(t, m)


@given(st.integers(0, 10**9), st.integers(4, 6))
@settings(max_examples=60, deadline=None)
def test_closure_matches_oracle_on_random_topologies(seed, size):
    g = GroundSet(tuple("abcdef"[:size]))
    t = random_topology(random.Random(seed), g)
    for m in g.subsets():
        assert t.closure_of(m) == closure_by_common_supersets(t, m)


def test_closure_rejects_foreign_mask():
    t = topo(ground("ab"), "", "ab")
    with pytest.raises(GroundSetMismatch):
        t.closure_of(ground("xy").subset("x"))


def test_meet_and_join():
    g = ground("abc")
    t = topo(g, "", "a", "c", "ab", "abc")
    assert t.meet(sub(g, "ab"), sub(g, "c")) == g.empty
    assert t.join(sub(g, "a"), sub(g, "c")) == g.full
    assert t.join(sub(g, "a"), g.empty) == sub(g, "a")
    with pytest.raises(NotClosed):
        t.meet(sub(g, "b"), sub(g, "c"))
    with pytest.raises(NotClosed):
        t.join(sub(g, "a"), sub(g, "bc"))


def _depth_s(t: Topology) -> int:
    return complexity_profile(t.operator()).depth_s


def test_depth_of_reference_families():
    assert _depth_s(topo(ground("ab"), "", "ab")) == 1
    assert _depth_s(topo(ground(ABCD), "", "a", "ab", "abc", "abcd")) == 4
    assert _depth_s(topo(ground("abc"), "", "a", "b", "c", "ab", "bc", "abc")) == 3


@given(st.integers(0, 10**9), st.integers(2, 6))
@settings(max_examples=60, deadline=None)
def test_depth_matches_brute_force(seed, size):
    g = GroundSet(tuple("abcdef"[:size]))
    t = random_topology(random.Random(seed), g)
    assert _depth_s(t) == brute_depth(t)


# ---------------------------------------------------------------- validation


def _table_from_images(g, images):
    return {g.mask(b): g.mask(i) for b, i in enumerate(images)}


def test_validate_accepts_a_closure_table():
    t = topo(ground("abc"), "", "a", "ab", "abc")
    table = t.operator().table()
    report = validate_closure(t.ground, table)
    assert report.ok
    assert report.fixes_empty
    assert report.summary() == ["all closure axioms hold"]


def test_validate_requires_complete_native_table():
    g = ground("ab")
    table = g.subsets()
    full_table = {m: g.full for m in table}
    partial = dict(full_table)
    del partial[sub(g, "a")]
    with pytest.raises(MissingEntry):
        validate_closure(g, partial)
    alien = dict(full_table)
    alien[ground("xy").subset("x")] = g.full
    with pytest.raises(ForeignMask):
        validate_closure(g, alien)


def test_validate_reports_extensivity_witnesses():
    g = ground("ab")
    # f({a,b}) = {a} drops an element.
    images = [0, 1, 2, 1]
    report = validate_closure(g, _table_from_images(g, images))
    assert not report.ok
    assert [m.bits for m in report.extensivity] == [3]
    assert any("extensivity" in line for line in report.summary())


def test_validate_reports_idempotence_witnesses():
    g = ground("ab")
    # f({a}) = {a,b} but f({a,b}) = {b}: not extensive at {a,b}, and the
    # image of {a} is not a fixed point.
    images = [0, 3, 2, 2]
    report = validate_closure(g, _table_from_images(g, images))
    assert not report.ok
    assert 1 in [m.bits for m in report.idempotence]


def test_validate_reports_adjacent_monotonicity_witnesses():
    g = ground("ab")
    # f({a}) = {a,b} but f({a,b}) = {a,b} is fine; break it instead with
    # f(∅)=∅, f({a})={a,b}, f({b})={b}, f({a,b})... must stay extensive, so
    # use three elements: f({a}) = {a,c} while f({a,b}) = {a,b}.
    g = ground("abc")
    images = [b for b in range(8)]
    images[0b001] = 0b101
    images[0b101] = 0b101
    report = validate_closure(g, _table_from_images(g, images))
    pairs = [(a.bits, b.bits) for a, b in report.monotonicity]
    assert (0b001, 0b011) in pairs
    for a, b in report.monotonicity:
        assert a < b and len(b) == len(a) + 1  # adjacent witnesses only
        assert images[a.bits] & ~images[b.bits] != 0


def test_validate_reports_empty_set_violation():
    g = ground("ab")
    images = [3, 1, 3, 3]
    report = validate_closure(g, _table_from_images(g, images))
    assert not report.fixes_empty
    assert not report.ok
    assert "f(∅) ≠ ∅" in report.summary()


def _naive_axiom_check(g, images):
    subs = range(g.full_bits + 1)
    ext = [b for b in subs if b & ~images[b]]
    idem = [b for b in subs if images[images[b]] != images[b]]
    mono_broken = any(
        a & ~b == 0 and images[a] & ~images[b]
        for a in subs
        for b in subs
    )
    return ext, idem, mono_broken, images[0] == 0


@given(st.lists(st.integers(0, 7), min_size=8, max_size=8))
@settings(max_examples=300, deadline=None)
def test_validator_agrees_with_all_pairs_check(images):
    g = ground("abc")
    report = validate_closure(g, _table_from_images(g, images))
    ext, idem, mono_broken, fixes_empty = _naive_axiom_check(g, images)
    assert [m.bits for m in report.extensivity] == ext
    assert [m.bits for m in report.idempotence] == idem
    assert bool(report.monotonicity) == mono_broken
    assert report.fixes_empty == fixes_empty
    for a, b in report.monotonicity:  # every witness is genuine and adjacent
        assert len(b) == len(a) + 1 and a < b
        assert images[a.bits] & ~images[b.bits]
    assert report.ok == (not ext and not idem and not mono_broken and fixes_empty)


def _random_images(rng: random.Random, n: int) -> list[int]:
    """A table to validate: a closure operator's images, some of them
    overwritten, or, up to 10 elements, images drawn at random (at 16 these
    break the axioms half a million times)."""
    full = (1 << n) - 1
    if n <= 10 and rng.random() < 0.25:
        return [rng.getrandbits(n) for _ in range(full + 1)]
    images = list(core._meet_images(n, random_family_bits(rng, n)))
    for _ in range(rng.choice((0, 0, 1, 2, 5, 30))):
        images[rng.randrange(full + 1)] = rng.getrandbits(n)
    return images


def test_bit_plane_validation_matches_the_pair_scan_on_random_tables():
    # The witness lists equal the oracle's, element for element and in
    # order, on valid and broken tables of up to 10 elements and of 16.
    seen: Counter = Counter()
    for seed in range(312):
        rng = random.Random(seed)
        n = rng.randint(1, 10) if seed < 300 else 16
        g = GroundSet(tuple(f"e{i}" for i in range(n)))
        images = _random_images(rng, n)
        report = core._validate_images(g, images)
        assert report == oracle_validate_images(g, images)
        seen["ok" if report.ok else "broken"] += 1
        seen["empty"] += not report.fixes_empty
        seen["monotonicity"] += bool(report.monotonicity)
    assert min(seen.values()) >= 20


@pytest.mark.parametrize(
    "images",
    [
        [0, 1],  # n = 1, the identity
        [1, 1],  # n = 1, f(∅) = {e0}
        [0, 0],  # n = 1, f({e0}) = ∅
        [1, 0],  # n = 1, every axiom broken
        [0b10, 0b01, 0b11, 0b11],  # f(∅) ≠ ∅, also non-extensive at {e0}
        # every axiom broken at once: f({e0}) = {e1} is neither extensive
        # nor idempotent, as f({e1}) = {e0, e2}, and f({e1}) ⊄ f({e0, e1})
        [0, 0b010, 0b101, 0b011, 0b100, 0b101, 0b111, 0b111],
    ],
)
def test_bit_plane_validation_of_small_and_broken_tables(images):
    n = (len(images) - 1).bit_length()
    g = GroundSet(tuple(f"e{i}" for i in range(n)))
    report = core._validate_images(g, images)
    assert report == oracle_validate_images(g, images)
    if len(images) == 8:
        assert report.extensivity and report.idempotence and report.monotonicity
        assert validation_doc(report) == validation_doc(oracle_validate_images(g, images))


# ----------------------------------------------------------- ClosureOperator


def test_operator_from_valid_table():
    t = topo(ground("abc"), "", "a", "ab", "abc")
    f = ClosureOperator.from_table(t.ground, t.operator().table())
    assert f(sub(t.ground, "b")) == sub(t.ground, "ab")
    assert f.closed_sets() == t


def test_operator_from_invalid_table_carries_report():
    g = ground("ab")
    with pytest.raises(InvalidClosureTable) as err:
        ClosureOperator.from_table(g, _table_from_images(g, [0, 1, 2, 1]))
    assert not err.value.report.ok
    assert err.value.report.extensivity


def test_operator_equality_compares_closed_sets(monkeypatch):
    t = topo(ground("abc"), "", "a", "ab", "abc")
    by_table = ClosureOperator.from_table(t.ground, t.operator().table())
    taken = _count_methods(monkeypatch)
    by_topology = t.operator()
    assert by_topology == by_table
    other = topo(ground("abc"), "", "b", "ab", "abc").operator()
    assert by_topology != other
    assert by_topology != topo(ground("xyz"), "", "x", "xy", "xyz").operator()
    assert taken == {"fill": 0, "dp": 0, "words": 0}
    assert hash(by_topology) == hash(by_topology.closed_sets())


def test_operator_round_trips_through_topology():
    for t in iter_topologies(ground("abc")):
        f = t.operator()
        assert f.closed_sets() == t
        assert Topology(
            t.ground, [b for b, i in enumerate(f.tabulate_bits()) if b == i]
        ) == t


def test_operator_table_round_trip():
    t = topo(ground(ABCD), "", "a", "ab", "ac", "abcd")
    f = t.operator()
    again = ClosureOperator.from_table(t.ground, f.table())
    assert again == f
    assert list(f.table()) == [t.ground.mask(b) for b in range(16)]


def test_operator_rejects_foreign_argument():
    f = topo(ground("ab"), "", "ab").operator()
    with pytest.raises(GroundSetMismatch):
        f(ground("xy").subset("x"))


def test_operator_call_is_idempotent_and_extensive():
    g = ground(ABCD)
    f = topo(g, "", "a", "b", "c", "d", "ab", "ac", "abd", "abcd").operator()
    for m in g.subsets():
        image = f(m)
        assert m <= image
        assert f(image) == image


def _count_methods(monkeypatch) -> dict:
    """Count which route :func:`core._meet_images` and the validation run."""
    taken = {"fill": 0, "dp": 0, "words": 0}
    routes = (("fill", "_submask_fill"), ("dp", "_superset_dp"), ("words", "_missing_meets"))
    for key, name in routes:
        method = getattr(core, name)

        def counted(*args, key=key, method=method):
            taken[key] += 1
            return method(*args)

        monkeypatch.setattr(core, name, counted)
    return taken


def test_operator_tabulates_once(monkeypatch):
    g = ground(ABCD)
    f = topo(g, "", "a", "b", "ab", "abc", "abcd").operator()
    taken = _count_methods(monkeypatch)
    images = f.tabulate_bits()
    assert f.tabulate_bits() is images
    assert [f.image_bits(b) for b in range(16)] == list(images)
    assert f(sub(g, "c")) == sub(g, "abc")
    assert sum(taken.values()) == 1


def test_operator_from_images_keeps_them(monkeypatch):
    f = animals_labeling().classifier()
    taken = _count_methods(monkeypatch)
    images = f.tabulate_bits()
    assert f.image_bits(0b0011) == images[0b0011]
    fixed = [b for b, i in enumerate(images) if b == i]
    assert f.closed_sets() == Topology(f.ground, fixed)
    assert taken == {"fill": 0, "dp": 0, "words": 0}


@pytest.mark.parametrize("family, n", [("chain", 18), ("crown", 16)])
def test_complexity_profile_builds_no_image_table(
    monkeypatch, tmp_path, capsys, family, n
):
    bits = chain_bits(random.Random(n), n) if family == "chain" else crown_bits(n)
    topology = Topology(GroundSet(tuple(f"e{i}" for i in range(n))), bits)
    f = topology.operator()
    path = tmp_path / "t.json"
    path.write_text(json.dumps(oracle_topology_doc(topology)), encoding="utf-8")
    taken = _count_methods(monkeypatch)
    profile = complexity_profile(f)
    for witness in (profile.weak_order_witness, profile.binary_witness):
        assert check_generation(f, [w.operator() for w in witness]).pointwise_equal
    assert main(["decompose", "--topology", str(path), "--kind", "binary"]) == 0
    assert json.loads(capsys.readouterr().out)["count"] == profile.mnbc
    assert taken == {"fill": 0, "dp": 0, "words": 0}
    if family == "chain":
        assert (profile.mnwo, profile.mnbc) == (1, len(bits) - 2)
    else:
        assert (profile.mnwo, profile.mnbc) == (n, n)


def test_tabulation_matches_the_scan_on_random_families(monkeypatch):
    fill, dp = core._submask_fill, core._superset_dp
    taken = _count_methods(monkeypatch)
    for seed in range(200):
        rng = random.Random(seed)
        n = rng.randint(1, 10)
        bits = random_family_bits(rng, n)
        full = (1 << n) - 1
        expected = oracle_scan_images(full, bits)
        g = GroundSet(tuple(f"e{i}" for i in range(n)))
        assert Topology(g, bits).operator().tabulate_bits() == expected
        assert fill(full, bits[:-1]) == expected
        assert dp(full, bits) == expected
    assert taken["fill"] >= 20 and taken["dp"] >= 20


def test_meet_images_match_the_brute_force_on_arbitrary_families(monkeypatch):
    # Any family in any order, not necessarily intersection-closed and with
    # or without ∅ and X: each image is the meet of the members holding it.
    taken = _count_methods(monkeypatch)
    for seed in range(300):
        rng = random.Random(seed)
        n = rng.randint(1, 10)
        full = (1 << n) - 1
        density = rng.random()
        family = [
            sum(1 << i for i in range(n) if rng.random() < density)
            for _ in range(rng.choice((0, 1, 2, 3, 5, 8, 13, 34, 144)))
        ]
        expected = [0]
        for a in range(1, full + 1):
            meet = full
            for c in family:
                if a & ~c == 0:
                    meet &= c
            expected.append(meet)
        assert core._meet_images(n, family) == tuple(expected)
    assert taken["fill"] >= 20 and taken["dp"] >= 20


@pytest.mark.parametrize("family, n", [("chain", 18), ("crown", 16), ("crown", 17)])
def test_tabulation_matches_the_scan_on_large_sparse_families(monkeypatch, family, n):
    bits = chain_bits(random.Random(n), n) if family == "chain" else crown_bits(n)
    g = GroundSet(tuple(f"e{i}" for i in range(n)))
    taken = _count_methods(monkeypatch)
    images = Topology(g, bits).operator().tabulate_bits()
    assert images == oracle_scan_images(g.full_bits, bits)
    assert taken == {"fill": 1, "dp": 0, "words": 0}


@pytest.mark.parametrize("n", [16, 18])
def test_tabulation_of_large_discrete_families_is_the_identity(monkeypatch, n):
    # Every subset is closed, so the scan returns each subset itself; a
    # Topology of 2^n sets is not built because its validation is |S|^2.
    taken = _count_methods(monkeypatch)
    full = (1 << n) - 1
    assert core._meet_images(n, range(full + 1)) == tuple(range(full + 1))
    assert taken == {"fill": 0, "dp": 1, "words": 0}
