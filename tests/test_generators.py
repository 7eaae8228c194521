"""Weak orders, binary classifiers, and generation by intersection."""

import random
from collections import Counter
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from closureops import (
    BadEndpoints,
    BinaryClassifier,
    ClosureOperator,
    ForeignMask,
    GroundSet,
    GroundSetMismatch,
    NotAChain,
    Topology,
    WeakOrder,
    check_generation,
    intersect_generate,
    is_single_chain,
    validate_closure,
)
from conftest import (
    ABCD,
    chain_topology,
    fork_topology,
    ground,
    iter_weak_orders,
    oracle_check_generation,
    oracle_scan_images,
    order,
    random_binary,
    random_family_bits,
    random_operator,
    random_weak_order,
    sub,
    tall_chain_topology,
    topo,
    wide_topology,
)

# --------------------------------------------------------------- weak orders


def test_weak_order_accepts_an_ordered_partition():
    g = ground(ABCD)
    wo = order(g, "cd", "b", "a")
    assert wo.class_count == 3
    assert wo.classes == (sub(g, "cd"), sub(g, "b"), sub(g, "a"))


def test_weak_order_rejects_bad_partitions():
    g = ground(ABCD)
    with pytest.raises(ValueError):
        WeakOrder(g, ())
    with pytest.raises(ValueError):
        WeakOrder(g, (sub(g, "ab"), g.empty, sub(g, "cd")))
    with pytest.raises(ValueError):
        order(g, "ab", "bc", "d")  # overlap at b
    with pytest.raises(ValueError):
        order(g, "ab", "c")  # d missing
    with pytest.raises(GroundSetMismatch):
        WeakOrder(g, (ground("xy").subset("xy"),))


def test_from_chain_recovers_the_classes():
    g = ground(ABCD)
    wo = WeakOrder.from_chain((g.empty, sub(g, "a"), sub(g, "ab"), g.full))
    assert wo == order(g, "a", "b", "cd")


def test_from_chain_rejects_bad_chains():
    g = ground(ABCD)
    with pytest.raises(BadEndpoints):
        WeakOrder.from_chain(())
    with pytest.raises(BadEndpoints):
        WeakOrder.from_chain((sub(g, "a"), g.full))
    with pytest.raises(BadEndpoints):
        WeakOrder.from_chain((g.empty, sub(g, "a")))
    with pytest.raises(NotAChain):
        WeakOrder.from_chain((g.empty, sub(g, "ab"), sub(g, "ac"), g.full))
    with pytest.raises(GroundSetMismatch):
        WeakOrder.from_chain((g.empty, ground("xy").subset("x"), g.full))


def test_from_utilities_groups_by_ascending_level():
    g = ground("abc")
    wo = WeakOrder.from_utilities(
        g, {"a": Fraction(1, 2), "b": 3, "c": Fraction(1, 2)}
    )
    assert wo == order(g, "ac", "b")
    assert WeakOrder.from_utilities(g, {"a": "3/10", "b": "0.3", "c": 1}) == order(
        g, "ab", "c"
    )
    with pytest.raises(ValueError):
        WeakOrder.from_utilities(g, {"a": 1, "b": 2})
    with pytest.raises(TypeError):  # 0.1 + 0.2 > 0.3 as floats
        WeakOrder.from_utilities(g, {"a": 0.1 + 0.2, "b": 0.3, "c": 1})
    for bad in (True, False, Decimal("0.5")):  # not exact rationals by type
        with pytest.raises(TypeError):
            WeakOrder.from_utilities(g, {"a": bad, "b": 1, "c": 1})


def test_from_utilities_rejects_a_name_outside_the_ground_set():
    g = ground("ab")
    with pytest.raises(ForeignMask, match="element 'zzz' is not in the ground set"):
        WeakOrder.from_utilities(g, {"a": 1, "b": 2, "zzz": 5})
    with pytest.raises(ForeignMask, match="element 'y' is not in the ground set"):
        WeakOrder.from_utilities(g, {"y": 1, "a": 1, "b": 2, "zzz": 5})


def test_class_index_and_comparisons():
    g = ground(ABCD)
    wo = order(g, "cd", "b", "a")
    assert wo.class_index("c") == wo.class_index("d") == 0
    assert wo.class_index("a") == 2
    assert wo.at_least("a", "b") and wo.at_least("c", "d")
    assert not wo.at_least("d", "b")
    # The chain scan gives the position of the class holding the element.
    rng = random.Random(17)
    for n in (1, 3, 6, 9):
        g = GroundSet(tuple(f"e{i}" for i in range(n)))
        for _ in range(20):
            wo = random_weak_order(rng, g)
            for name in g.elements:
                holding = [i for i, c in enumerate(wo.classes) if name in c]
                assert [wo.class_index(name)] == holding


def test_support_set_is_the_best_class_slice():
    g = ground(ABCD)
    wo = order(g, "cd", "b", "a")
    assert wo.support_set(sub(g, "bcd")) == sub(g, "b")
    assert wo.support_set(sub(g, "cd")) == sub(g, "cd")
    assert wo.support_set(g.empty) == g.empty
    with pytest.raises(GroundSetMismatch):
        wo.support_set(ground("xy").subset("x"))


def test_half_space_is_the_smallest_prefix():
    g = ground(ABCD)
    wo = order(g, "cd", "b", "a")
    assert wo.half_space(g.empty) == g.empty
    assert wo.half_space(sub(g, "c")) == sub(g, "cd")
    assert wo.half_space(sub(g, "bd")) == sub(g, "bcd")
    assert wo.half_space(sub(g, "a")) == g.full


def test_half_space_rejects_a_menu_of_another_ground_set():
    with pytest.raises(GroundSetMismatch, match="menu lives in a different ground set"):
        order(ground("ab"), "a", "b").half_space(ground("xy").subset("x"))


def test_generators_repr_their_classes_and_cutoff():
    g = ground("abc")
    assert repr(order(g, "a", "bc")) == "WeakOrder({a} < {b,c})"
    assert repr(BinaryClassifier(sub(g, "ab"))) == "BinaryClassifier(cutoff={a,b})"


def _prefix_unions(wo: WeakOrder) -> list[int]:
    acc, out = 0, [0]
    for c in wo.classes:
        acc |= c.bits
        out.append(acc)
    return out


@given(st.integers(0, 10**9), st.integers(1, 6))
@settings(max_examples=80, deadline=None)
def test_half_space_matches_prefix_oracle(seed, size):
    g = GroundSet(tuple("abcdef"[:size]))
    wo = random_weak_order(random.Random(seed), g)
    prefixes = _prefix_unions(wo)
    f = wo.operator()
    t = wo.operator()
    assert t == Topology(g, prefixes)
    for m in g.subsets():
        expected = next(g.mask(p) for p in prefixes if m.bits & ~p == 0)
        assert wo.half_space(m) == expected == f(m) == t.closure_of(m)
        # the best class the menu meets, read from the classes themselves
        best = next((c.bits & m.bits for c in reversed(wo.classes) if c.bits & m.bits), 0)
        assert wo.support_set(m) == g.mask(best)


def test_topology_is_the_chain_of_prefixes():
    g = ground(ABCD)
    wo = order(g, "a", "b", "cd")
    assert wo.operator() == chain_topology()


def test_single_chain_round_trip():
    wo = is_single_chain(chain_topology())
    g = chain_topology().ground
    assert wo == order(g, "a", "b", "cd")
    assert is_single_chain(wo.operator()) == wo
    assert is_single_chain(wide_topology()) is None
    assert is_single_chain(fork_topology()) is None
    trivial = topo(ground("ab"), "", "ab")
    assert is_single_chain(trivial) == order(trivial.ground, "ab")


# --------------------------------------------------------- binary classifiers


def test_binary_closure_cases():
    g = ground(ABCD)
    clf = BinaryClassifier(sub(g, "ab"))
    assert clf.ground == g
    assert clf.closure(g.empty) == g.empty
    assert clf.closure(sub(g, "a")) == sub(g, "ab")
    assert clf.closure(sub(g, "ab")) == sub(g, "ab")
    assert clf.closure(sub(g, "ac")) == g.full
    assert clf.operator() == topo(g, "", "ab", "abcd")
    with pytest.raises(GroundSetMismatch):
        clf.closure(ground("xy").subset("x"))


def test_binary_rejects_improper_cutoffs():
    g = ground(ABCD)
    with pytest.raises(ValueError):
        BinaryClassifier(g.empty)
    with pytest.raises(ValueError):
        BinaryClassifier(g.full)


def test_binary_equals_its_two_class_weak_order():
    g = ground(ABCD)
    clf = BinaryClassifier(sub(g, "ab"))
    wo = clf.as_weak_order()
    assert wo == order(g, "ab", "cd")
    assert wo.operator() == clf.operator()


@given(st.integers(0, 10**9), st.integers(2, 6))
@settings(max_examples=60, deadline=None)
def test_binary_operator_matches_closure_method(seed, size):
    g = GroundSet(tuple("abcdef"[:size]))
    clf = random_binary(random.Random(seed), g)
    f = clf.operator()
    t = clf.operator()
    cutoff = clf.cutoff
    assert t == Topology(g, _prefix_unions(WeakOrder(g, (cutoff, cutoff.complement()))))
    for m in g.subsets():
        # the case analysis: ∅ for ∅, C inside C, X otherwise
        expected = m if not m.bits else cutoff if m <= cutoff else g.full
        assert f(m) == clf.closure(m) == t.closure_of(m) == expected
        best = m.bits & ~cutoff.bits or m.bits
        assert clf.as_weak_order().support_set(m) == g.mask(best)


# ------------------------------------------------------ intersect + generate


def test_empty_intersection_is_the_trivial_operator():
    g = ground("abc")
    f = intersect_generate(g, ())
    assert f.closed_sets() == topo(g, "", "abc")
    assert f(sub(g, "a")) == g.full
    assert f(g.empty) == g.empty


def test_intersection_of_two_binaries_builds_the_fork():
    g = ground(ABCD)
    g1 = BinaryClassifier(sub(g, "ab")).operator()
    g2 = BinaryClassifier(sub(g, "ac")).operator()
    f = intersect_generate(g, (g1, g2))
    assert f == fork_topology().operator()
    assert validate_closure(g, f.table()).ok


def test_intersection_rejects_mixed_ground_sets():
    g = ground("ab")
    alien = ground("xy")
    with pytest.raises(GroundSetMismatch):
        intersect_generate(g, (BinaryClassifier(alien.subset("x")).operator(),))
    with pytest.raises(GroundSetMismatch):
        check_generation(
            topo(g, "", "ab").operator(),
            (BinaryClassifier(alien.subset("x")).operator(),),
        )


def test_generation_check_passes_on_a_true_decomposition():
    g = ground(ABCD)
    f = fork_topology().operator()
    gens = (
        BinaryClassifier(sub(g, "ab")).operator(),
        BinaryClassifier(sub(g, "ac")).operator(),
    )
    report = check_generation(f, gens)
    assert report.generates and report.condition1_ok and report.condition2_ok
    assert report.pointwise_equal
    assert report.condition1_witnesses == ()
    assert report.condition2_witnesses == ()


def test_generation_check_reports_foreign_closed_sets():
    g = ground(ABCD)
    f = chain_topology().operator()  # closed: ∅, {a}, {a,b}, X
    report = check_generation(f, (BinaryClassifier(sub(g, "b")).operator(),))
    assert not report.generates
    assert (0, sub(g, "b")) in report.condition1_witnesses
    assert not report.pointwise_equal


def test_generation_check_reports_missing_exclusions():
    g = ground(ABCD)
    f = tall_chain_topology().operator()  # needs cutoffs {a}, {a,b}, {a,b,c}
    gens = (
        BinaryClassifier(sub(g, "a")).operator(),
        BinaryClassifier(sub(g, "ab")).operator(),
    )
    report = check_generation(f, gens)
    assert report.condition1_ok
    assert not report.condition2_ok
    assert (sub(g, "abc"), "d") in report.condition2_witnesses
    assert not report.pointwise_equal
    assert not report.generates


def test_empty_generator_list_only_generates_the_trivial_operator():
    g = ground("abc")
    trivial = topo(g, "", "abc").operator()
    assert check_generation(trivial, ()).generates
    report = check_generation(wide_topology().operator(), ())
    assert not report.generates
    assert report.condition2_witnesses  # some exclusion is unrealized


@given(st.integers(0, 10**9), st.integers(2, 5))
@settings(max_examples=80, deadline=None)
def test_two_condition_check_agrees_with_pointwise_equality(seed, size):
    rng = random.Random(seed)
    g = GroundSet(tuple("abcde"[:size]))
    gens = tuple(
        random_weak_order(rng, g).operator() if rng.random() < 0.5
        else random_binary(rng, g).operator()
        for _ in range(rng.randrange(0, 4))
    )
    f = random_operator(rng, g)
    report = check_generation(f, gens)
    assert report.generates == report.pointwise_equal
    assert report.pointwise_equal == (intersect_generate(g, gens) == f)


def _random_generators(rng: random.Random, g: GroundSet) -> list:
    """Zero to four generators: weak orders, binary classifiers, and random
    operators, built from closed sets and from tables."""
    generators = []
    for _ in range(rng.randrange(0, 5)):
        kind = rng.randrange(4 if g.size > 1 else 3)
        if kind == 0:
            generators.append(random_weak_order(rng, g).operator())
        elif kind == 1:
            generators.append(random_operator(rng, g))
        elif kind == 2:
            table = random_operator(rng, g).table()
            generators.append(ClosureOperator.from_table(g, table))
        else:
            generators.append(random_binary(rng, g).operator())
    return generators


@given(st.integers(0, 10**9), st.integers(1, 6), st.booleans())
@settings(max_examples=100, deadline=None)
def test_generation_check_equals_the_full_table_oracle(seed, size, intersect):
    rng = random.Random(seed)
    g = GroundSet(tuple("abcdef"[:size]))
    gens = _random_generators(rng, g)
    f = intersect_generate(g, gens) if intersect else random_operator(rng, g)
    report = check_generation(f, gens)
    assert report == oracle_check_generation(f, gens)
    if intersect:
        assert report.generates and report.pointwise_equal


def test_generation_check_reaches_both_outcomes():
    outcomes = Counter()
    for seed in range(200):
        rng = random.Random(seed)
        g = GroundSet(tuple("abcdef"[: rng.randint(2, 6)]))
        gens = _random_generators(rng, g)
        f = intersect_generate(g, gens) if seed % 2 else random_operator(rng, g)
        report = check_generation(f, gens)
        assert report == oracle_check_generation(f, gens)
        outcomes[report.generates] += 1
    assert outcomes[True] >= 20 and outcomes[False] >= 20


def _mixed_generators(rng: random.Random, g: GroundSet) -> list:
    """Zero to four generators, each a weak order, a binary classifier or a
    topology, as check_generation takes them."""
    kinds = [
        lambda: random_weak_order(rng, g),
        lambda: Topology(g, random_family_bits(rng, g.size)),
    ]
    if g.size > 1:
        kinds.append(lambda: random_binary(rng, g))
    return [rng.choice(kinds)() for _ in range(rng.randrange(0, 5))]


def test_generation_check_reads_generators_as_closed_set_families():
    # Weak orders and binary classifiers are read through their chains, as
    # topologies are through their closed sets: the report equals the one
    # on their operators and the full-table oracle, witness order included,
    # and the order of the generators does not change condition 2.  Their
    # intersection is the pointwise AND of their tables, in any order.
    outcomes = Counter()
    for seed in range(300):
        rng = random.Random(seed)
        g = GroundSet(tuple("abcdefgh"[: rng.randint(1, 8)]))
        gens = _mixed_generators(rng, g)
        operators = [gen.operator() for gen in gens]
        expected = [0] + [g.full_bits] * g.full_bits  # the empty intersection
        for gen in gens:
            table = oracle_scan_images(g.full_bits, gen.bits)
            expected = [a & b for a, b in zip(expected, table)]
        intersection = intersect_generate(g, gens)
        assert intersection.tabulate_bits() == tuple(expected)
        assert intersection == intersect_generate(g, operators)
        assert intersection == intersect_generate(g, rng.sample(gens, len(gens)))
        if seed % 2:
            f = intersection
        else:
            f = Topology(g, random_family_bits(rng, g.size))
        report = check_generation(f, gens)
        assert report == check_generation(f, operators)
        assert report == oracle_check_generation(f, operators)
        shuffled = check_generation(f, rng.sample(gens, len(gens)))
        assert shuffled.condition2_witnesses == report.condition2_witnesses
        outcomes[report.generates] += 1
        outcomes["empty"] += not gens
    assert outcomes[True] >= 20 and outcomes[False] >= 20
    assert outcomes["empty"] >= 20


def test_intersection_of_a_full_chain_at_eighteen_elements_is_its_topology():
    n = 18
    g = GroundSet(tuple(f"e{i}" for i in range(n)))
    chain = WeakOrder(g, tuple(g.mask(1 << i) for i in range(n)))
    f = intersect_generate(g, [chain])
    assert f == Topology(g, chain.bits)
    # the least link ∅ ⊂ {e0} ⊂ {e0,e1} ⊂ … holding A is the prefix up to A's top bit
    assert f.tabulate_bits() == tuple((1 << b.bit_length()) - 1 for b in range(1 << n))


def test_discrete_family_without_one_coatom_misses_exactly_its_exclusions():
    # The discrete family is generated by the n coatoms X ∖ {e_i}.  Without
    # X ∖ {e0} the generators' closed sets above a nonempty A ∌ e0 meet in
    # A ∪ {e0}, and above any A ∋ e0 in A.
    n = 16
    g = GroundSet(tuple(f"e{i}" for i in range(n)))
    f = Topology._trusted(g, tuple(range(1 << n)))
    witness = [BinaryClassifier(g.mask(g.full_bits ^ 1 << i)) for i in range(n)]
    report = check_generation(f, witness[1:])
    assert report.condition1_ok
    assert report.condition2_witnesses == tuple(
        (g.mask(a), "e0") for a in range(2, 1 << n, 2)
    )
    assert len(report.condition2_witnesses) == 2 ** (n - 1) - 1
    assert check_generation(f, witness).generates


# ---------------------------------------------------------------- enumeration


def test_weak_order_counts_are_fubini_numbers():
    sizes = {1: 1, 2: 3, 3: 13, 4: 75}
    for size, expected in sizes.items():
        g = GroundSet(tuple("abcd"[:size]))
        orders = list(iter_weak_orders(g))
        assert len(orders) == expected
        assert len(set(orders)) == expected  # no duplicates


def test_weak_order_enumeration_order_is_fixed():
    g = ground("ab")
    assert list(iter_weak_orders(g)) == [
        order(g, "a", "b"),
        order(g, "b", "a"),
        order(g, "ab"),
    ]


def test_every_enumerated_order_is_valid_and_distinct_as_operator():
    g = ground("abc")
    operators = [wo.operator().tabulate_bits() for wo in iter_weak_orders(g)]
    assert len(set(operators)) == len(operators)
