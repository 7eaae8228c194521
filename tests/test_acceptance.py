"""Acceptance criteria: one test per criterion, all exact, zero tolerance.

Each test is self-contained and asserts frozen expected values (derived by
hand or by the independent oracles in ``conftest``) next to the computed
results.  The terminal summary prints one PASS/FAIL line per criterion.
"""

import itertools
import random

from closureops import (
    BinaryClassifier,
    FinitePoset,
    Labeling,
    check_axioms,
    check_generation,
    complexity_profile,
    canonical_labeling,
    intersect_generate,
    kreps_operator,
    kreps_representation,
    additive_representation,
    meet_irreducibles,
    minimal_labeling,
    respects,
    validate_closure,
)
from conftest import (
    ABCD,
    alice_preference,
    animals_labeling,
    animals_topology,
    atoms_topology,
    bob_preference,
    brute_width,
    chain_topology,
    crown_topology,
    fork_topology,
    ground,
    iter_topologies,
    iter_weak_orders,
    oracle_mnbc,
    oracle_mnwo,
    order,
    random_binary,
    random_fraction,
    random_operator,
    random_poset,
    random_topology,
    random_weak_order,
    respecting_preference,
    sub,
    sum_of_maxes,
    tall_chain_topology,
    topo,
    wide_topology,
)

LETTERS = ("a", "b", "c", "d", "e", "f")
FUBINI = {1: 1, 2: 3, 3: 13, 4: 75, 5: 541, 6: 4683}


def _all_labelings(g, label_count):
    """Every labeling of g over exactly ``label_count`` anonymous labels."""
    labels = tuple(f"L{i + 1}" for i in range(label_count))
    subsets = [
        frozenset(s for s in range(label_count) if pick >> s & 1)
        for pick in range(1 << label_count)
    ]
    for assignment in itertools.product(range(1 << label_count), repeat=g.size):
        yield Labeling(g, labels, tuple(subsets[a] for a in assignment))


def test_criterion_01_reference_labeling_pipeline():
    g = ground(ABCD)
    f = animals_labeling().classifier()

    # The induced closed-set family, exactly.
    assert f.closed_sets() == animals_topology()
    assert f.closed_sets() == topo(
        g, "", "a", "b", "c", "d", "ab", "ac", "abd", "abcd"
    )

    # The Hasse diagram has exactly these twelve arrows, in canonical order.
    edges = tuple(
        (lo.label(), hi.label())
        for lo, hi in FinitePoset.from_topology(f.closed_sets()).hasse()
    )
    assert edges == (
        ("∅", "{a}"),
        ("∅", "{b}"),
        ("∅", "{c}"),
        ("∅", "{d}"),
        ("{a}", "{a,b}"),
        ("{a}", "{a,c}"),
        ("{b}", "{a,b}"),
        ("{a,b}", "{a,b,d}"),
        ("{c}", "{a,c}"),
        ("{a,c}", "{a,b,c,d}"),
        ("{d}", "{a,b,d}"),
        ("{a,b,d}", "{a,b,c,d}"),
    )
    assert len(edges) == 12

    # The canonical labeling: one class per nonempty closed set, numbered in
    # canonical (ascending mask) order.
    canon = canonical_labeling(f)
    assert canon.labels == tuple(f"Class{i}" for i in range(1, 9))
    listing = {x: canon.label_set(x) for x in g.elements}
    assert listing == {
        "a": ("Class1", "Class3", "Class5", "Class7", "Class8"),
        "b": ("Class2", "Class3", "Class7", "Class8"),
        "c": ("Class4", "Class5", "Class8"),
        "d": ("Class6", "Class7", "Class8"),
    }
    carriers = {
        name: frozenset(x for x in g.elements if name in listing[x])
        for name in canon.labels
    }
    assert carriers == {
        "Class1": frozenset("a"),
        "Class2": frozenset("b"),
        "Class3": frozenset("ab"),
        "Class4": frozenset("c"),
        "Class5": frozenset("ac"),
        "Class6": frozenset("d"),
        "Class7": frozenset("abd"),
        "Class8": frozenset("abcd"),
    }

    # A hand-worked listing of the same eight classes numbers them in a
    # different order.  Identified by their element sets, the two listings
    # agree exactly, and both induce the same classifier.
    hand_carriers = {
        "Class1": frozenset("a"),
        "Class2": frozenset("b"),
        "Class3": frozenset("c"),
        "Class4": frozenset("d"),
        "Class5": frozenset("ab"),
        "Class6": frozenset("abd"),
        "Class7": frozenset("ac"),
        "Class8": frozenset("abcd"),
    }
    hand_listing = {
        "a": ("Class1", "Class5", "Class6", "Class7", "Class8"),
        "b": ("Class2", "Class5", "Class6", "Class8"),
        "c": ("Class3", "Class7", "Class8"),
        "d": ("Class4", "Class6", "Class8"),
    }
    for x in g.elements:
        assert {carriers[n] for n in listing[x]} == {
            hand_carriers[n] for n in hand_listing[x]
        }
    assert canon.classifier() == f
    hand = Labeling.from_names(g, canon.labels, hand_listing)
    assert hand.classifier() == f


def test_criterion_02_complexity_table_of_four_classifiers():
    cases = [
        (atoms_topology(), 2, 2, ("a", "b")),
        (chain_topology(), 1, 2, ("a", "ab")),
        (fork_topology(), 2, 2, ("ab", "ac")),
        (tall_chain_topology(), 1, 3, ("a", "ab", "abc")),
    ]
    for t, mnwo, mnbc, witnesses in cases:
        g = t.ground
        profile = complexity_profile(t.operator())
        assert profile.mnwo == mnwo
        assert profile.mnbc == mnbc
        expected = tuple(sub(g, w) for w in witnesses)
        assert profile.irreducibles.b_of_f == expected
        assert tuple(b.cutoff for b in profile.binary_witness) == expected
        assert len(profile.weak_order_witness) == mnwo
        gens = [b.operator() for b in profile.binary_witness]
        assert intersect_generate(g, gens) == t.operator()


def test_criterion_03_meet_reducibility_lowers_the_weak_order_count():
    t = wide_topology()
    g = t.ground
    f = t.operator()
    profile = complexity_profile(f)

    # The closed-set family has width three ...
    assert profile.width_s == 3
    assert brute_width([m for m in t if m.bits]) == 3

    # ... but {b} = {a,b} ∩ {b,c} is meet-reducible, so the irreducibles are
    # everything except ∅ and {b}, a family of width two.
    irr = profile.irreducibles
    assert irr.p_of_f == tuple(
        m for m in t if m.bits not in (0, sub(g, "b").bits)
    )
    assert brute_width(irr.p_of_f) == 2
    assert FinitePoset.from_masks(irr.p_of_f).min_chain_cover().width == 2
    assert profile.mnwo == 2

    # Two weak orders regenerate f pointwise.
    witness = profile.weak_order_witness
    assert len(witness) == 2
    assert intersect_generate(g, [w.operator() for w in witness]) == f


def test_criterion_04_three_weak_orders_for_a_width_three_family():
    t = crown_topology()
    g = t.ground
    f = t.operator()
    profile = complexity_profile(f)
    assert profile.mnwo == 3
    assert oracle_mnwo(f) == 3
    witness = profile.weak_order_witness
    assert witness == (
        order(g, "a", "b", "c"),
        order(g, "b", "ac"),
        order(g, "c", "ab"),
    )
    report = check_generation(f, [w.operator() for w in witness])
    assert report.generates and report.pointwise_equal
    assert intersect_generate(g, [w.operator() for w in witness]) == f


def test_criterion_05_oracles_agree_with_the_structural_answers():
    rng = random.Random(20260505)
    for _ in range(200):
        n = rng.randint(2, 4)
        g = ground(ABCD[:n])
        f = random_topology(rng, g).operator()
        profile = complexity_profile(f)
        irr = profile.irreducibles
        width_p = FinitePoset.from_masks(irr.p_of_f).min_chain_cover().width
        assert oracle_mnwo(f) == width_p == profile.mnwo
        assert oracle_mnbc(f) == len(irr.b_of_f) == profile.mnbc


def test_criterion_06_generation_check_equals_pointwise_intersection():
    rng = random.Random(20260606)
    outcomes = {True: 0, False: 0}
    for i in range(200):
        n = rng.randint(2, 4)
        g = ground(ABCD[:n])
        gens = []
        for _ in range(rng.randint(1, 3)):
            if rng.random() < 0.5:
                gens.append(random_weak_order(rng, g).operator())
            else:
                gens.append(random_binary(rng, g).operator())
        # Half the instances are built as true intersections so both verdicts
        # occur; the other half pair the generators with an unrelated target.
        f = intersect_generate(g, gens) if i % 2 else random_operator(rng, g)

        naive = []
        for bits in range(g.full_bits + 1):
            acc = g.full_bits
            for gen in gens:
                acc &= gen.image_bits(bits)
            naive.append(acc)
        pointwise = tuple(naive) == f.tabulate_bits()

        report = check_generation(f, gens)
        assert report.pointwise_equal == pointwise
        assert report.generates == pointwise
        outcomes[pointwise] += 1
    assert outcomes[True] >= 50 and outcomes[False] >= 50


def test_criterion_07_menu_preference_pipeline():
    assert kreps_representation(alice_preference()).state_count == 1
    assert kreps_representation(bob_preference()).state_count == 2

    rng = random.Random(20260707)
    for _ in range(100):
        n = rng.randint(2, 4)
        g = ground(ABCD[:n])
        pref = sum_of_maxes(
            g, [random_weak_order(rng, g) for _ in range(rng.randint(1, 3))]
        )
        assert check_axioms(pref).ok

        f = kreps_operator(pref)
        assert validate_closure(g, f.table()).ok
        assert respects(pref, f) == (True, None)

        # Indifference to enlargement is exactly closure containment, and a
        # strictly larger closure is strictly preferred.
        values = pref.values
        images = f.tabulate_bits()
        full = g.full_bits
        for a in range(1, full + 1):
            for b in range(1, full + 1):
                contained = images[b] & ~images[a] == 0
                assert (values[a | b] == values[a]) == contained
                if contained and images[b] != images[a]:
                    assert values[a] > values[b]

        # The state representation reproduces the preference on every pair.
        rep = kreps_representation(pref)
        ranks = [None] + [rep.evaluate(g.mask(bits)) for bits in range(1, full + 1)]
        for a in range(1, full + 1):
            for b in range(1, full + 1):
                assert (ranks[a] >= ranks[b]) == (values[a] >= values[b])


def test_criterion_08_additive_state_bound_and_exact_evaluation():
    rng = random.Random(20260808)
    for _ in range(100):
        n = rng.randint(2, 5)
        g = ground(LETTERS[:n])
        t = random_topology(rng, g)
        f = t.operator()
        pref = respecting_preference(rng, f)
        rep = additive_representation(pref, f)
        assert rep.state_count == 2 * (len(t) - 1)
        for bits in range(1, g.full_bits + 1):
            menu = g.mask(bits)
            assert rep.evaluate(menu) == pref.utility(menu)

    # Every preference respects the identity operator; on three elements the
    # bound instantiates to 2 · (8 − 1) = 14 states.
    g = ground("abc")
    identity = topo(g, "", "a", "b", "c", "ab", "ac", "bc", "abc").operator()
    pref = respecting_preference(random.Random(14), identity)
    rep = additive_representation(pref, identity)
    assert rep.state_count == 14
    for bits in range(1, g.full_bits + 1):
        menu = g.mask(bits)
        assert rep.evaluate(menu) == pref.utility(menu)


def test_criterion_09_mobius_inversion_suite():
    rng = random.Random(20260909)
    for _ in range(100):
        poset = random_poset(rng, rng.randint(1, 16))
        table = poset.mobius()
        items = poset.items

        # Σ_{a ≤ z ≤ b} μ(a,z) = δ(a,b) = Σ_{a ≤ z ≤ b} μ(z,b).
        for a in items:
            for b in items:
                if not poset.leq(a, b):
                    continue
                interval = [
                    z for z in items if poset.leq(a, z) and poset.leq(z, b)
                ]
                delta = 1 if a == b else 0
                assert sum(table.mu(a, z) for z in interval) == delta
                assert sum(table.mu(z, b) for z in interval) == delta

        # Inversion round trips exactly, in both compositions.
        values = {item: random_fraction(rng) for item in items}
        assert poset.mobius_invert(poset.sum_below(values)) == values
        assert poset.sum_below(poset.mobius_invert(values)) == values

    # Boolean lattice: μ(A,B) = (−1)^{|B \ A|}.
    g = ground(ABCD)
    cube = FinitePoset.from_masks(tuple(g.subsets()))
    table = cube.mobius()
    for a in cube.items:
        for b in cube.items:
            if a <= b:
                assert table.mu(a, b) == (-1) ** bin(b.bits & ~a.bits).count("1")

    # Chain: μ(i,i) = 1, μ(i,i+1) = −1, everything longer vanishes.
    chain = FinitePoset.from_leq(tuple(range(5)), lambda a, b: a <= b)
    table = chain.mobius()
    for i in range(5):
        for j in range(i, 5):
            expected = 1 if i == j else (-1 if j == i + 1 else 0)
            assert table.mu(i, j) == expected


def test_criterion_10_constructor_and_labeling_property_suite():
    rng = random.Random(20261010)

    # Every weak order and every proper binary cutoff, up to six elements,
    # induces a table satisfying all closure axioms.
    for n in range(1, 7):
        g = ground(LETTERS[:n])
        count = 0
        for w in iter_weak_orders(g):
            assert validate_closure(g, w.operator().table()).ok
            count += 1
        assert count == FUBINI[n]
        for bits in range(1, g.full_bits):
            binary = BinaryClassifier(g.mask(bits))
            assert validate_closure(g, binary.operator().table()).ok

    # Every closed-set family on up to four elements: the operator passes
    # validation and the family/operator correspondence round-trips exactly.
    for n in range(1, 5):
        g = ground(LETTERS[:n])
        for t in iter_topologies(g):
            f = t.operator()
            assert validate_closure(g, f.table()).ok
            assert f.closed_sets() == t
            assert f.closed_sets().operator() == f

    # Random families on five and six elements: same properties.
    for n in (5, 6):
        g = ground(LETTERS[:n])
        for _ in range(40):
            t = random_topology(rng, g)
            f = t.operator()
            assert validate_closure(g, f.table()).ok
            assert f.closed_sets() == t
            assert f.closed_sets().operator() == f

    # Labelings: exhaustively up to three elements and two labels, randomly
    # up to six elements, the induced classifier always passes validation.
    for n in range(1, 4):
        g = ground(LETTERS[:n])
        for k in range(3):
            for lab in _all_labelings(g, k):
                f = lab.classifier()
                assert validate_closure(g, f.table()).ok
    for _ in range(60):
        n = rng.randint(2, 6)
        g = ground(LETTERS[:n])
        k = rng.randint(0, 4)
        labels = tuple(f"L{i + 1}" for i in range(k))
        phi = tuple(
            frozenset(i for i in range(k) if rng.random() < 0.5)
            for _ in range(n)
        )
        f = Labeling(g, labels, phi).classifier()
        assert validate_closure(g, f.table()).ok

    # Intersections of random generators stay within the closure axioms.
    for _ in range(60):
        n = rng.randint(2, 6)
        g = ground(LETTERS[:n])
        gens = []
        for _ in range(rng.randint(1, 4)):
            if rng.random() < 0.5:
                gens.append(random_weak_order(rng, g).operator())
            else:
                gens.append(random_binary(rng, g).operator())
        assert validate_closure(g, intersect_generate(g, gens).table()).ok

    # Labeling reconstruction: canonical and minimal labelings reproduce the
    # operator; the minimal one uses exactly as many labels as there are
    # meet-irreducible middle sets.
    for n in range(1, 4):
        g = ground(LETTERS[:n])
        for t in iter_topologies(g):
            f = t.operator()
            assert canonical_labeling(f).classifier() == f
            small = minimal_labeling(f)
            assert small.classifier() == f
            assert len(small.labels) == len(meet_irreducibles(t).b_of_f)
    for _ in range(40):
        n = rng.randint(4, 6)
        g = ground(LETTERS[:n])
        f = random_operator(rng, g)
        small = minimal_labeling(f)
        assert small.classifier() == f
        assert len(small.labels) == complexity_profile(f).mnbc

    # Lower bound: on up to three elements, no labeling with fewer labels
    # than the minimal one induces the same operator (exhaustive search).
    for n in range(1, 4):
        g = ground(LETTERS[:n])
        for t in iter_topologies(g):
            f = t.operator()
            needed = len(meet_irreducibles(t).b_of_f)
            for k in range(needed):
                assert all(
                    lab.classifier() != f
                    for lab in _all_labelings(g, k)
                )
