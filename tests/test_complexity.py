"""Complexity measures: meet-irreducibles, MNWO/MNBC, comparisons, oracles."""

import dataclasses
import random
import time
from collections import Counter
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from closureops import (
    BinaryClassifier,
    FinitePoset,
    GroundSet,
    GroundSetMismatch,
    GroundSetTooLarge,
    SubsetMask,
    Topology,
    WitnessVerificationFailed,
    check_generation,
    complexity,
    complexity_profile,
    intersect_generate,
    meet_irreducibles,
    more_complex,
)
from closureops import _words
from closureops import poset as poset_module
from conftest import (
    ABCD,
    atoms_topology,
    brute_depth,
    brute_meet_reducible,
    brute_width,
    chain_bits,
    chain_topology,
    check_chain_cover,
    crown_bits,
    crown_topology,
    fork_topology,
    ground,
    hasse_pairs,
    iter_topologies,
    labeling_bits,
    oracle_check_generation,
    oracle_from_leq,
    oracle_mnbc,
    oracle_min_chain_cover,
    oracle_mnwo,
    order,
    random_family_bits,
    random_binary,
    random_operator,
    random_topology,
    random_weak_order,
    sub,
    tall_chain_topology,
    topo,
    truncated_bits,
    wide_topology,
)

# ---------------------------------------------------------- meet-irreducibles


def test_irreducibles_of_reference_families():
    g = ground(ABCD)
    cases = {
        atoms_topology(): ("a", "b", "abcd"),
        chain_topology(): ("", "a", "ab", "abcd"),
        fork_topology(): ("", "ab", "ac", "abcd"),
        tall_chain_topology(): ("", "a", "ab", "abc", "abcd"),
    }
    for t, expected in cases.items():
        irr = meet_irreducibles(t)
        assert irr.topology == t
        assert irr.p_of_f == tuple(sub(g, s) for s in expected)
        proper = tuple(s for s in expected if s not in ("", "abcd"))
        assert irr.b_of_f == tuple(sub(g, s) for s in proper)


def test_irreducibles_drop_the_reducible_middle():
    # In the wide family {b} = {a,b} ∩ {b,c} is the only reducible nonempty set.
    t = wide_topology()
    g = t.ground
    irr = meet_irreducibles(t)
    assert irr.p_of_f == tuple(
        sub(g, s) for s in ("a", "ab", "c", "bc", "abc")
    )
    assert sub(g, "b") not in irr.p_of_f
    assert set(t.closed) - set(irr.p_of_f) == {g.empty, sub(g, "b")}


def test_irreducibles_of_trivial_and_identity():
    g = ground("ab")
    trivial = topo(g, "", "ab")
    assert meet_irreducibles(trivial).p_of_f == (g.empty, g.full)
    assert meet_irreducibles(trivial).b_of_f == ()
    identity = topo(g, "", "a", "b", "ab")
    irr = meet_irreducibles(identity)
    assert irr.p_of_f == (sub(g, "a"), sub(g, "b"), g.full)
    assert irr.b_of_f == (sub(g, "a"), sub(g, "b"))


def _pairwise_irreducibles(t):
    return tuple(m for m in t if not brute_meet_reducible(t, m))


def test_irreducibles_match_pairwise_oracle_exhaustively():
    for t in iter_topologies(ground("abc")):
        assert meet_irreducibles(t).p_of_f == _pairwise_irreducibles(t)


@given(st.integers(0, 10**9), st.integers(2, 6))
@settings(max_examples=80, deadline=None)
def test_irreducibles_match_pairwise_oracle_on_random_families(seed, size):
    t = random_topology(random.Random(seed), GroundSet(tuple("abcdef"[:size])))
    assert meet_irreducibles(t).p_of_f == _pairwise_irreducibles(t)


def _forced_routes(t: Topology) -> tuple[list[int], ...]:
    """P(f) as bit patterns by the words and by the covers, each forced
    through the chooser of ``meet_irreducibles``."""
    routes = []
    for route in ("words", "walked"):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(complexity, "_irreducible_route", lambda size, closed: route)
            routes.append([m.bits for m in meet_irreducibles(t).p_of_f])
    return tuple(routes)


def test_both_irreducible_routes_match_the_pairwise_oracle(monkeypatch):
    # Forced, the two routes give the oracle's P(f); left to choose,
    # meet_irreducibles takes each on some of the families.
    taken: Counter = Counter()
    words = complexity._irreducible_words

    def spy(*args):
        taken["words"] += 1
        return words(*args)

    monkeypatch.setattr(complexity, "_irreducible_words", spy)
    for seed in range(200):
        rng = random.Random(seed)
        n = rng.randint(1, 10)
        bits = random_family_bits(rng, n)
        if len(bits) > 80:  # the oracle takes |S|³ steps
            continue
        t = Topology(GroundSet(tuple(f"e{i}" for i in range(n))), bits)
        expected = [m.bits for m in _pairwise_irreducibles(t)]
        assert _forced_routes(t) == (expected, expected)
        before = taken["words"]
        assert [m.bits for m in meet_irreducibles(t).p_of_f] == expected
        taken["chose words" if taken["words"] > before else "chose covers"] += 1
    assert taken["chose words"] >= 20 and taken["chose covers"] >= 20


@pytest.mark.parametrize("n", [16, 18, 20])
def test_irreducibles_of_large_closed_forms(n):
    # Discrete: B(f) is the n coatoms.  Chain: P(f) is the whole chain.
    # Crown: P(f) is the n cyclic pairs and X.
    g = GroundSet(tuple(f"e{i}" for i in range(n)))
    full = g.full_bits
    coatoms = [full & ~(1 << i) for i in reversed(range(n))]
    assert _words._irreducible_words(n, (1 << (full + 1)) - 1) == [*coatoms, full]
    if n < 20:  # a Topology holding 2^20 closed sets takes 100 MB
        discrete = Topology._trusted(g, tuple(range(full + 1)))
        assert [m.bits for m in meet_irreducibles(discrete).b_of_f] == coatoms
    chain = chain_bits(random.Random(n), n)
    pairs = sorted(1 << i | 1 << (i + 1) % n for i in range(n))
    for bits, expected in ((chain, chain), (crown_bits(n), [*pairs, full])):
        t = Topology(g, bits)
        assert _forced_routes(t) == (expected, expected)
        assert [m.bits for m in meet_irreducibles(t).p_of_f] == expected


def test_irreducibles_of_a_large_discrete_family_are_found_fast():
    # 2^18 closed sets with n·2^17 covers: the words take n(7n + 2)
    # operations on 2^18-bit words instead.
    n = 18
    g = GroundSet(tuple(f"e{i}" for i in range(n)))
    discrete = Topology._trusted(g, tuple(range(1 << n)))
    start = time.perf_counter()
    irreducibles = meet_irreducibles(discrete)
    assert time.perf_counter() - start < 1
    assert len(irreducibles.b_of_f) == n


# ------------------------------------------------------------------- profiles


def test_profile_of_the_atoms_family():
    g = ground(ABCD)
    profile = complexity_profile(atoms_topology().operator())
    assert (profile.mnwo, profile.mnbc) == (2, 2)
    assert (profile.width_s, profile.depth_s, profile.class_count) == (2, 2, 3)
    assert profile.weak_order_witness == (
        order(g, "a", "bcd"),
        order(g, "b", "acd"),
    )
    assert tuple(b.cutoff for b in profile.binary_witness) == (
        sub(g, "a"),
        sub(g, "b"),
    )


def test_profile_of_the_chain_family():
    g = ground(ABCD)
    profile = complexity_profile(chain_topology().operator())
    assert (profile.mnwo, profile.mnbc) == (1, 2)
    assert (profile.width_s, profile.depth_s, profile.class_count) == (1, 3, 3)
    assert profile.weak_order_witness == (order(g, "a", "b", "cd"),)
    assert tuple(b.cutoff for b in profile.binary_witness) == (
        sub(g, "a"),
        sub(g, "ab"),
    )


def test_profile_of_the_fork_family():
    g = ground(ABCD)
    profile = complexity_profile(fork_topology().operator())
    assert (profile.mnwo, profile.mnbc) == (2, 2)
    assert (profile.width_s, profile.depth_s, profile.class_count) == (2, 3, 4)
    assert profile.weak_order_witness == (
        order(g, "ab", "cd"),
        order(g, "ac", "bd"),
    )
    assert tuple(b.cutoff for b in profile.binary_witness) == (
        sub(g, "ab"),
        sub(g, "ac"),
    )


def test_profile_of_the_tall_chain_family():
    g = ground(ABCD)
    profile = complexity_profile(tall_chain_topology().operator())
    assert (profile.mnwo, profile.mnbc) == (1, 3)
    assert (profile.width_s, profile.depth_s, profile.class_count) == (1, 4, 4)
    assert profile.weak_order_witness == (order(g, "a", "b", "c", "d"),)
    assert tuple(b.cutoff for b in profile.binary_witness) == (
        sub(g, "a"),
        sub(g, "ab"),
        sub(g, "abc"),
    )


def test_profile_of_the_wide_family():
    g = wide_topology().ground
    profile = complexity_profile(wide_topology().operator())
    assert (profile.mnwo, profile.mnbc) == (2, 4)
    assert (profile.width_s, profile.depth_s, profile.class_count) == (3, 3, 6)
    assert profile.weak_order_witness == (
        order(g, "a", "b", "c"),
        order(g, "c", "b", "a"),
    )


def test_profile_of_the_crown_family():
    g = crown_topology().ground
    profile = complexity_profile(crown_topology().operator())
    assert (profile.mnwo, profile.mnbc) == (3, 4)
    assert (profile.width_s, profile.depth_s, profile.class_count) == (3, 3, 5)
    assert profile.weak_order_witness == (
        order(g, "a", "b", "c"),
        order(g, "b", "ac"),
        order(g, "c", "ab"),
    )


def test_profile_of_trivial_and_identity():
    g = ground("ab")
    trivial = complexity_profile(topo(g, "", "ab").operator())
    assert (trivial.mnwo, trivial.mnbc) == (1, 0)
    assert trivial.weak_order_witness == (order(g, "ab"),)
    assert trivial.binary_witness == ()
    identity = complexity_profile(topo(g, "", "a", "b", "ab").operator())
    assert (identity.mnwo, identity.mnbc) == (2, 2)


def test_profile_witnesses_regenerate_the_operator():
    for t in (
        atoms_topology(),
        fork_topology(),
        wide_topology(),
        crown_topology(),
    ):
        f = t.operator()
        profile = complexity_profile(f)
        wo_report = check_generation(
            f, [w.operator() for w in profile.weak_order_witness]
        )
        bc_report = check_generation(
            f, [b.operator() for b in profile.binary_witness]
        )
        assert wo_report.generates and wo_report.pointwise_equal
        assert bc_report.generates and bc_report.pointwise_equal
        assert len(profile.weak_order_witness) == profile.mnwo
        assert len(profile.binary_witness) == profile.mnbc


def test_closed_set_verification_agrees_with_check_generation():
    outcomes = Counter()
    for seed in range(200):
        rng = random.Random(seed)
        g = GroundSet(tuple("abcdef"[: rng.randint(2, 6)]))
        gens = [
            random_weak_order(rng, g).operator() if rng.random() < 0.5
            else random_binary(rng, g).operator()
            for _ in range(rng.randrange(0, 5))
        ]
        if seed % 2:
            f = intersect_generate(g, gens).closed_sets().operator()
        else:
            f = random_operator(rng, g)
        report = check_generation(f, gens)
        assert report == oracle_check_generation(f, gens)
        assert report.generates == report.pointwise_equal
        outcomes[report.generates] += 1
    assert outcomes[True] >= 20 and outcomes[False] >= 20


@pytest.mark.parametrize(
    "field, message", [("p_of_f", "weak-order witness"), ("b_of_f", "binary witness")]
)
def test_profile_rejects_a_witness_that_does_not_generate(monkeypatch, field, message):
    real = complexity._irreducible_set

    def short_of_one(topology, p_of_f):
        irreducibles = real(topology, p_of_f)
        members = getattr(irreducibles, field)
        dropped = members[len(members) // 2]
        return dataclasses.replace(
            irreducibles, **{field: tuple(m for m in members if m != dropped)}
        )

    monkeypatch.setattr(complexity, "_irreducible_set", short_of_one)
    with pytest.raises(WitnessVerificationFailed, match=message):
        complexity_profile(fork_topology().operator())


@given(st.integers(0, 10**9), st.integers(2, 4))
@settings(max_examples=60, deadline=None)
def test_profile_widths_match_brute_force(seed, size):
    # Sizes stay ≤ 4 so the closed-set family fits the brute-force oracle.
    t = random_topology(random.Random(seed), GroundSet(tuple("abcd"[:size])))
    profile = complexity_profile(t.operator())
    assert profile.mnwo == brute_width(profile.irreducibles.p_of_f)
    assert profile.width_s == brute_width(t.closed)
    assert profile.class_count == len(t) - 1


def test_discrete_family_closed_forms_at_twelve_elements(monkeypatch):
    # Every subset is closed: P(f) is the n coatoms plus X, every one-element
    # extension is a cover (n·2^(n−1) edges), and the depth is n.  Without
    # the image table the profile reads all three from the covers, and the
    # width without the matching.
    n = 12
    g = GroundSet(tuple(f"e{i}" for i in range(n)))
    t = Topology(g, range(1 << n))
    poset = FinitePoset.from_topology(t)
    coatoms = tuple(g.mask(g.full_bits & ~(1 << i)) for i in reversed(range(n)))
    edges = hasse_pairs(poset)
    assert len(edges) == n << (n - 1) == 24_576
    assert all((upper.bits ^ lower.bits).bit_count() == 1 for lower, upper in edges)

    def refuse(*args):
        raise AssertionError("the words, the table or the matching were read")

    for name in ("_irreducible_words", "_depth_words", "_image_links", "_matched_cover"):
        monkeypatch.setattr(complexity, name, refuse)
    object.__setattr__(t, "_images", None)
    irreducibles, width, depth = complexity._shape(t)
    assert irreducibles.p_of_f == (*coatoms, g.full)
    assert irreducibles.b_of_f == coatoms
    assert (width, depth) == (comb(n, n // 2), n)


def test_certified_width_matches_the_matching_on_random_families(monkeypatch):
    # width_s is certified by the largest level when the greedy cover meets
    # it, and finished by the warm-started matching otherwise.  The greedy
    # links along the covers without an image table, and along f(A ∪ {y})
    # read from the table with one.
    matched_cover = complexity._matched_cover
    fallbacks = []

    def counted(items, up, links):
        fallbacks.append(matched_cover(items, up, links))
        return fallbacks[-1]

    monkeypatch.setattr(complexity, "_matched_cover", counted)
    routes: Counter = Counter()
    for seed in range(300):
        rng = random.Random(seed)
        n = rng.randint(1, 10)
        g = GroundSet(tuple(f"e{i}" for i in range(n)))
        bits = random_family_bits(rng, n)
        for tabulated in (False, True):
            t = Topology(g, bits)
            if tabulated:
                t.tabulate_bits()
            else:  # drop the table validation may have left
                object.__setattr__(t, "_images", None)
            p = FinitePoset.from_topology(t)
            before = len(fallbacks)
            if tabulated:
                links, rows = complexity._image_links(t.bits, t._images), None
            else:
                links = complexity._cover_links(t.bits, p.upper_cover_indices())
                rows = p.up
            width = complexity._width(t.bits, links, rows)
            outcome = "fallback" if len(fallbacks) > before else "certified"
            routes[outcome, tabulated] += 1
            if len(fallbacks) > before:
                check_chain_cover(FinitePoset(t.bits, p.up), fallbacks[-1])
            assert width == p.min_chain_cover().width
            assert ("_covers" in vars(p)) is not tabulated
    assert min(routes.values()) >= 20 and len(routes) == 4


def test_word_depth_matches_the_covers_and_brute_force():
    for seed in range(120):
        rng = random.Random(seed)
        n = rng.randint(1, 10)
        t = Topology(GroundSet(tuple(f"e{i}" for i in range(n))), random_family_bits(rng, n))
        t.tabulate_bits()
        depth = _words._depth_words(n, _words._indicator(n, t.bits))
        assert depth == complexity._depth(FinitePoset.from_topology(t).upper_cover_indices())
        if len(t) <= 150:  # the oracle takes |S|² mask comparisons
            assert depth == brute_depth(t.closed)
        assert complexity_profile(t).depth_s == depth


def test_profile_reads_closed_sets_without_masks(monkeypatch):
    # S(f) is read as bit patterns: meet_irreducibles makes one mask per
    # member of P(f), and the profile adds only those of its witnesses.
    made = Counter()
    real = SubsetMask.__post_init__

    def counted(self):
        made["masks"] += 1
        real(self)

    n = 12
    g = GroundSet(tuple(f"e{i}" for i in range(n)))
    discrete = Topology(g, range(1 << n))
    monkeypatch.setattr(SubsetMask, "__post_init__", counted)
    irreducibles = meet_irreducibles(discrete)
    assert made["masks"] == len(irreducibles.p_of_f) == 13
    made.clear()
    complexity_profile(discrete.operator())
    assert made["masks"] < 100
    # On a chain P(f) is all 19 closed sets, and the one weak order adds its
    # 18 classes.
    n = 18
    g = GroundSet(tuple(f"e{i}" for i in range(n)))
    chain = Topology(g, [(1 << k) - 1 for k in range(n + 1)])
    made.clear()
    complexity_profile(chain.operator())
    assert made["masks"] == 19 + 18


def test_profile_builds_no_topology_for_its_witnesses(monkeypatch):
    # check_generation reads the witnesses' chains, so no witness becomes a
    # Topology: none is validated and none is built from a table.
    built = Counter()
    validate = Topology.__post_init__
    trusted = Topology._trusted.__func__

    def counted_post_init(self):
        built["topologies"] += 1
        validate(self)

    def counted_trusted(cls, ground, images):
        built["topologies"] += 1
        return trusted(cls, ground, images)

    chain_g = GroundSet(tuple(f"e{i}" for i in range(18)))
    chain = Topology(chain_g, [(1 << k) - 1 for k in range(19)])
    crown_g = GroundSet(tuple(f"e{i}" for i in range(12)))
    crown = Topology(crown_g, crown_bits(12))
    monkeypatch.setattr(Topology, "__post_init__", counted_post_init)
    monkeypatch.setattr(Topology, "_trusted", classmethod(counted_trusted))
    for f, mnwo, mnbc in ((chain, 1, 17), (crown, 12, 12)):
        profile = complexity_profile(f)
        assert (profile.mnwo, profile.mnbc) == (mnwo, mnbc)
        assert built["topologies"] == 0


def test_a_profile_builds_the_rows_of_s_once(monkeypatch):
    # A table-less family whose width needs the matching: the rows of S(f)
    # serve its covers and the matching, the rows of P(f) the witness chain
    # cover, and nothing builds the covers of P(f).
    built = Counter()
    for name in ("_inclusion_rows", "_walked_covers", "_swept_covers"):

        def counted(*args, _real=getattr(poset_module, name), _name=name):
            built[_name] += 1
            return _real(*args)

        monkeypatch.setattr(poset_module, name, counted)
        if hasattr(complexity, name):  # complexity reads them through its own import
            monkeypatch.setattr(complexity, name, counted)
    matched_cover = complexity._matched_cover

    def matched(items, up, links):
        built["matchings"] += 1
        return matched_cover(items, up, links)

    monkeypatch.setattr(complexity, "_matched_cover", matched)
    t = Topology(GroundSet(tuple(f"e{i}" for i in range(6))), (0, 8, 10, 13, 63))
    assert t._images is None
    assert complexity_profile(t).width_s == 2
    assert built == {"_inclusion_rows": 2, "_walked_covers": 1, "matchings": 2}
    # With the image table the greedy reads the table and P(f) the words, so
    # no cover is built and the matching alone builds the rows of S(f).
    built.clear()
    g = GroundSet(tuple(f"e{i}" for i in range(10)))
    t = Topology(g, random_family_bits(random.Random(17), 10))
    t.tabulate_bits()
    assert complexity_profile(t).width_s == 8
    assert built == {"_inclusion_rows": 2, "matchings": 2}
    # With the image table but P(f) priced cheaper by the walk, the profile
    # takes the covers: the rows of S(f) serve P(f), the greedy, the depth
    # and the matching, built once.
    built.clear()
    rng = random.Random(27)
    n = rng.randint(4, 10)
    t = Topology(GroundSet(tuple(f"e{i}" for i in range(n))), random_family_bits(rng, n))
    t.tabulate_bits()
    assert _words._irreducible_route(n, t.bits) == "walked"
    assert complexity_profile(t).width_s == 6
    assert built == {"_inclusion_rows": 2, "_walked_covers": 1, "matchings": 2}


@pytest.mark.parametrize("n", [14, 15, 16, 17, 18])
def test_discrete_family_closed_forms_at_large_n(n):
    g = GroundSet(tuple(f"e{i}" for i in range(n)))
    profile = complexity_profile(Topology(g, range(1 << n)).operator())
    coatoms = tuple(g.mask(g.full_bits & ~(1 << i)) for i in reversed(range(n)))
    assert profile.width_s == comb(n, n // 2)
    assert profile.depth_s == n
    assert profile.mnwo == profile.mnbc == n
    assert profile.irreducibles.p_of_f == (*coatoms, g.full)
    assert profile.class_count == (1 << n) - 1


def test_a_tabulated_profile_at_sixteen_builds_no_covers(monkeypatch):
    # Validation leaves the image table behind on both families, so P(f)
    # comes from the words, the depth from the words and the width's greedy
    # from the table.  Truncated: the 14-subsets each have X as their one
    # upper cover, so they and X are P(f), and a longest chain climbs one
    # element at a time to a 14-subset, then to X.
    def refuse(*args):
        raise AssertionError("the covers of S(f) were built")

    monkeypatch.setattr(poset_module, "_swept_covers", refuse)
    for module in (poset_module, complexity):
        monkeypatch.setattr(module, "_walked_covers", refuse)
    # P(f) and the depth read one indicator word of S(f).
    indicators = []
    indicator = complexity._indicator

    def counted(size, family):
        indicators.append(size)
        return indicator(size, family)

    monkeypatch.setattr(complexity, "_indicator", counted)
    n = 16
    g = GroundSet(tuple(f"e{i}" for i in range(n)))
    families = ((range(1 << n), n, n), (truncated_bits(n), comb(n, 2), n - 1))
    for bits, irreducibles, depth in families:
        t = Topology(g, bits)
        assert t._images is not None
        indicators.clear()
        profile = complexity_profile(t)
        assert indicators == [n]
        assert profile.width_s == comb(n, n // 2)
        assert profile.depth_s == depth
        assert profile.mnwo == profile.mnbc == irreducibles


@pytest.mark.parametrize(
    "kind, n", [("discrete", 16), ("chain", 20), *(("labeling", n) for n in range(16, 21))]
)
def test_weak_order_witnesses_match_the_mask_chain_cover_at_large_n(kind, n):
    # The stage covers P(f) on bit patterns; the oracle covers the same
    # sets as masks, in the same order, so the chains must be the same.
    g = GroundSet(tuple(f"e{i}" for i in range(n)))
    if kind == "discrete":
        bits = range(1 << n)
    elif kind == "chain":
        bits = [(1 << k) - 1 for k in range(n + 1)]
    else:
        bits = labeling_bits(random.Random(n), n)
    irreducibles = meet_irreducibles(Topology(g, bits))
    weak_orders, report = complexity._weak_order_witness(irreducibles)
    oracle = FinitePoset.from_masks(irreducibles.p_of_f).min_chain_cover()
    assert [w.bits for w in weak_orders] == [
        tuple(sorted({0, g.full_bits, *(m.bits for m in chain)})) for chain in oracle.chains
    ]
    assert report.generates


@pytest.mark.parametrize("n", range(16, 21))
def test_the_matching_covers_p_and_s_of_random_labelings_at_large_n(n):
    # |S| is about 600.  The reference order is built pair by pair and
    # checked, and the list matching scans neighbors in the same order.
    t = Topology(GroundSet(tuple(f"e{i}" for i in range(n))), labeling_bits(random.Random(n), n))
    p = [m.bits for m in meet_irreducibles(t).p_of_f]
    for bits in (p, t.bits):
        reference = oracle_from_leq(bits, lambda a, b: a & ~b == 0)
        cover = poset_module._matched_cover(bits, reference.up, ())
        check_chain_cover(reference, cover)
        assert cover == oracle_min_chain_cover(reference)
    # cover is now that of S(f), whose width the profile certifies on its own route
    assert complexity._shape(t)[1] == cover.width


def test_discrete_width_is_certified_without_the_matching_at_sixteen(monkeypatch):
    def refuse(*args):
        raise AssertionError("the matching ran")

    monkeypatch.setattr(complexity, "_matched_cover", refuse)
    n = 16
    t = Topology(GroundSet(tuple(f"e{i}" for i in range(n))), range(1 << n))
    assert complexity._shape(t)[1] == comb(16, 8) == 12_870


def test_discrete_family_hasse_edges_at_fourteen_elements():
    n = 14
    g = GroundSet(tuple(f"e{i}" for i in range(n)))
    poset = FinitePoset.from_topology(Topology(g, range(1 << n)))
    edges = hasse_pairs(poset)
    assert "up" not in vars(poset)  # the covers came from the sweep, not the rows
    assert len(edges) == n << (n - 1) == 114_688
    assert all(
        lower.bits & ~upper.bits == 0 and (upper.bits ^ lower.bits).bit_count() == 1
        for lower, upper in edges
    )


# ---------------------------------------------------------------- comparison


def test_comparison_detects_equality_and_strictness():
    fork = fork_topology().operator()
    chain = chain_topology().operator()
    assert more_complex(fork, fork).relation == "equal"
    cmp = more_complex(fork, chain)
    assert cmp.relation == "f-more-complex"
    assert cmp.missing_from_f is None
    assert cmp.missing_from_g == sub(fork.ground, "ac")
    assert more_complex(chain, fork).relation == "g-more-complex"


def test_comparison_detects_incomparability():
    atoms = atoms_topology().operator()
    chain = chain_topology().operator()
    cmp = more_complex(atoms, chain)
    assert cmp.relation == "incomparable"
    assert cmp.missing_from_f == sub(atoms.ground, "ab")
    assert cmp.missing_from_g == sub(atoms.ground, "b")
    with pytest.raises(GroundSetMismatch):
        more_complex(atoms, topo(ground("xy"), "", "xy").operator())


# ------------------------------------------------------------------- oracles


def test_oracles_on_trivial_and_identity():
    g = ground("ab")
    trivial = topo(g, "", "ab").operator()
    assert oracle_mnwo(trivial) == 1
    assert oracle_mnbc(trivial) == 0
    identity = topo(g, "", "a", "b", "ab").operator()
    assert oracle_mnwo(identity) == 2
    assert oracle_mnbc(identity) == 2


def test_oracles_match_structure_exhaustively_up_to_three_elements():
    for size in (2, 3):
        g = GroundSet(tuple("abc"[:size]))
        for t in iter_topologies(g):
            f = t.operator()
            profile = complexity_profile(f)
            assert oracle_mnwo(f) == profile.mnwo
            assert oracle_mnbc(f) == profile.mnbc
            assert profile.mnbc == len(profile.irreducibles.b_of_f)


def test_oracles_refuse_large_ground_sets():
    f = topo(ground("abcde"), "", "abcde").operator()
    with pytest.raises(GroundSetTooLarge):
        oracle_mnwo(f)
    with pytest.raises(GroundSetTooLarge):
        oracle_mnbc(f)


def test_oracle_counts_on_the_reference_families():
    for t, mnwo, mnbc in (
        (atoms_topology(), 2, 2),
        (chain_topology(), 1, 2),
        (fork_topology(), 2, 2),
        (tall_chain_topology(), 1, 3),
        (wide_topology(), 2, 4),
        (crown_topology(), 3, 4),
    ):
        f = t.operator()
        assert oracle_mnwo(f) == mnwo
        assert oracle_mnbc(f) == mnbc


def test_single_binary_cannot_express_a_fork():
    # Directly from the definition: every 1-element binary family fails.
    f = fork_topology().operator()
    g = f.ground
    for bits in range(1, g.full_bits):
        clf = BinaryClassifier(g.mask(bits)).operator()
        assert not check_generation(f, (clf,)).generates
    assert oracle_mnbc(f) == 2


@given(st.integers(0, 10**9), st.integers(2, 4))
@settings(max_examples=40, deadline=None)
def test_oracles_match_structure_on_random_operators(seed, size):
    f = random_operator(random.Random(seed), GroundSet(tuple("abcd"[:size])))
    profile = complexity_profile(f)
    assert oracle_mnwo(f) == profile.mnwo
    assert oracle_mnbc(f) == profile.mnbc
