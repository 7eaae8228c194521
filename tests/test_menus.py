"""Menu preferences, axiom checks, and state-space representations."""

import json
import math
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from closureops import (
    AdditiveRepresentation,
    AdditiveState,
    AxiomReport,
    AxiomsViolated,
    DoesNotRespect,
    GroundSet,
    GroundSetMismatch,
    Labeling,
    MenuPreference,
    WitnessVerificationFailed,
    additive_representation,
    check_axioms,
    kreps_operator,
    kreps_representation,
    respects,
)
from closureops import core, menus
from closureops.cli import main
from closureops.core import MAX_RATIONAL_DIGITS, Topology
from closureops.jsonio import additive_doc, kreps_doc
from closureops.menus import (
    _check_additive_states,
    _check_ranks,
    _decide_axioms,
    _utility_keys,
)
from conftest import (
    XYZ,
    alice_preference,
    bob_preference,
    ground,
    oracle_additive_ok,
    oracle_additive_representation,
    oracle_additive_weights,
    oracle_adjacent_submodular,
    oracle_axioms,
    oracle_evaluate,
    oracle_kreps_consequences,
    oracle_kreps_doc,
    oracle_kreps_images,
    oracle_ranks_ok,
    oracle_signatures,
    oracle_signatures_ok,
    order,
    random_family_bits,
    random_fraction,
    random_operator,
    random_weak_order,
    respecting_preference,
    sub,
    sum_of_maxes,
    topo,
)


def _pref(g, table):
    return MenuPreference.from_utilities(
        g, {sub(g, names): value for names, value in table.items()}
    )


# ------------------------------------------------------------ MenuPreference


def test_preference_construction_and_queries():
    g = ground("ab")
    pref = _pref(g, {"a": 1, "b": "1/2", "ab": Fraction(3, 2)})
    assert pref.utility(sub(g, "b")) == Fraction(1, 2)
    assert pref.weakly_prefers(sub(g, "ab"), sub(g, "a"))
    assert pref.strictly_prefers(sub(g, "ab"), sub(g, "b"))
    assert not pref.indifferent(sub(g, "a"), sub(g, "b"))
    with pytest.raises(ValueError):
        pref.utility(g.empty)  # no value supplied for the empty menu
    with pytest.raises(GroundSetMismatch):
        pref.utility(ground("xy").subset("x"))


def test_preference_requires_every_nonempty_menu():
    g = ground("ab")
    with pytest.raises(ValueError):
        _pref(g, {"a": 1, "b": 1})  # {a,b} missing
    with pytest.raises(ValueError):
        MenuPreference(g, (None, Fraction(1), Fraction(1)))  # too short


def test_preference_rejects_floats():
    g = ground("ab")
    with pytest.raises(TypeError):
        _pref(g, {"a": 0.5, "b": 1, "ab": 1})


@pytest.mark.parametrize("empty", ["junk", 1.5])
def test_preference_rejects_an_inexact_empty_menu_utility(empty):
    g = ground("ab")
    with pytest.raises(ValueError, match="^missing or inexact utility for menu ∅$"):
        MenuPreference(g, (empty, Fraction(1), Fraction(1), Fraction(2)))
    pref = MenuPreference(g, (Fraction(0), Fraction(1), Fraction(1), Fraction(2)))
    assert pref.utility(g.empty) == 0


def test_preference_repr_counts_its_menus():
    assert repr(bob_preference()) == "MenuPreference(7 menus on {x,y,z})"


def test_preference_rejects_foreign_menus():
    g = ground("ab")
    with pytest.raises(GroundSetMismatch):
        MenuPreference.from_utilities(g, {ground("xy").subset("x"): 1})


def test_from_utilities_reads_each_spelling_once():
    # Menus carrying one spelling share one Fraction; equal values spelled
    # differently are distinct objects, and the ranks are still those of a
    # Fraction per menu.
    g = GroundSet(tuple(f"e{i}" for i in range(10)))
    rng = random.Random(5)
    spellings = (1, "1", 2, "1/2", "2/4", "0.5", Fraction(1, 2), Fraction(3, 2), "3/2")
    raws = [None, *(rng.choice(spellings) for _ in range(g.full_bits))]
    pref = MenuPreference.from_utilities(
        g, {g.mask(bits): raws[bits] for bits in range(1, g.full_bits + 1)}
    )
    values = pref.values[1:]
    assert len({id(value) for value in values}) == len(spellings) == 9
    assert len(set(values)) == 4
    fresh = MenuPreference(g, (None, *(Fraction(raw) for raw in raws[1:])))
    assert pref.values == fresh.values
    assert pref._ranks == fresh._ranks
    assert pref._levels == fresh._levels


# ------------------------------------------------------------- axiom checks


def test_menu_size_utility_satisfies_both_axioms():
    g = ground("abc")
    pref = _pref(
        g, {"a": 1, "b": 1, "c": 1, "ab": 2, "ac": 2, "bc": 2, "abc": 3}
    )
    report = check_axioms(pref)
    assert report.ok and report.flexibility_ok and report.submodularity_ok
    assert report.summary() == ["both menu axioms hold"]


def test_flexibility_violation_is_reported_with_the_pair():
    g = ground("ab")
    pref = _pref(g, {"a": 1, "b": 0, "ab": 0})
    report = check_axioms(pref)
    assert not report.ok and not report.flexibility_ok
    assert (sub(g, "ab"), sub(g, "a")) in report.flexibility_witnesses
    assert any("flexibility" in line for line in report.summary())
    with pytest.raises(AxiomsViolated) as err:
        kreps_operator(pref)
    assert not err.value.report.ok


def test_submodularity_violation_is_reported_with_the_triple():
    g = ground("abc")
    pref = _pref(
        g, {"a": 1, "b": 1, "c": 1, "ab": 1, "ac": 2, "bc": 2, "abc": 3}
    )
    report = check_axioms(pref)
    assert report.flexibility_ok and not report.submodularity_ok
    assert (sub(g, "a"), sub(g, "b"), sub(g, "c")) in report.submodularity_witnesses
    assert any("submodularity" in line for line in report.summary())


def test_sum_of_maxes_always_satisfies_the_axioms():
    g = ground(XYZ)
    for seed in range(20):
        rng = random.Random(seed)
        orders = [random_weak_order(rng, g) for _ in range(1 + seed % 3)]
        assert check_axioms(sum_of_maxes(g, orders)).ok


# ------------------------------------------------------------ Kreps operator


def test_menu_size_utility_closes_nothing():
    g = ground("abc")
    pref = _pref(
        g, {"a": 1, "b": 1, "c": 1, "ab": 2, "ac": 2, "bc": 2, "abc": 3}
    )
    f = kreps_operator(pref)
    for m in g.subsets():
        assert f(m) == m  # every menu already holds all it is worth


def test_alice_operator_is_a_chain():
    g = ground(XYZ)
    f = kreps_operator(alice_preference())
    assert f(sub(g, "x")) == g.full
    assert f(sub(g, "y")) == sub(g, "yz")
    assert f(sub(g, "z")) == sub(g, "z")
    assert f.closed_sets() == topo(g, "", "z", "yz", "xyz")


def test_bob_operator_forks_at_the_top():
    g = ground(XYZ)
    f = kreps_operator(bob_preference())
    assert f(sub(g, "x")) == sub(g, "xz")
    assert f(sub(g, "y")) == sub(g, "yz")
    assert f(sub(g, "z")) == sub(g, "z")
    assert f(sub(g, "xy")) == g.full
    assert f.closed_sets() == topo(g, "", "z", "xz", "yz", "xyz")


def test_preferences_respect_their_kreps_operator():
    for pref in (alice_preference(), bob_preference()):
        f = kreps_operator(pref)
        ok, witness = respects(pref, f)
        assert ok and witness is None


def test_respects_reports_the_first_failing_menu():
    g = ground(XYZ)
    trivial = topo(g, "", "xyz").operator()
    ok, witness = respects(alice_preference(), trivial)
    assert not ok
    assert witness == sub(g, "y")  # U({y}) = 2 but U(X) = 3
    with pytest.raises(GroundSetMismatch):
        respects(alice_preference(), topo(ground("ab"), "", "ab").operator())


# ----------------------------------------------------- Kreps representation


def test_alice_needs_one_state():
    g = ground(XYZ)
    rep = kreps_representation(alice_preference())
    assert rep.state_count == 1
    assert rep.states == (order(g, "z", "y", "x"),)
    assert rep.signature(sub(g, "x")) == (3,)
    assert rep.signature(sub(g, "yz")) == (2,)
    assert rep.ranks == {(1,): 1, (2,): 2, (3,): 3}


def test_bob_needs_two_states():
    g = ground(XYZ)
    rep = kreps_representation(bob_preference())
    assert rep.state_count == 2
    assert rep.states == (order(g, "xz", "y"), order(g, "yz", "x"))
    assert rep.state_utility("x", 0) == 1 and rep.state_utility("x", 1) == 2
    assert rep.signature(sub(g, "x")) == (1, 2)
    assert rep.signature(sub(g, "y")) == (2, 1)
    assert rep.signature(sub(g, "z")) == (1, 1)
    assert rep.signature(sub(g, "xy")) == (2, 2)
    assert rep.ranks == {(1, 1): 1, (1, 2): 2, (2, 1): 2, (2, 2): 3}


def test_representation_reproduces_the_preference_order():
    rng = random.Random(23)
    random_prefs = [
        sum_of_maxes(g, [random_weak_order(rng, g) for _ in range(rng.randint(1, 3))])
        for g in (ground("ab"), ground("abcd"), ground("abcde"))
    ]
    for pref in (alice_preference(), bob_preference(), *random_prefs):
        rep = kreps_representation(pref)
        g = pref.ground
        menus = [m for m in g.subsets() if m]
        for a in menus:
            # σ(A) read off the chains is the per-state maximum over A.
            assert rep.signature(a) == tuple(
                max(rep.state_utility(name, s) for name in a.members())
                for s in range(rep.state_count)
            )
            for b in menus:
                assert (rep.evaluate(a) >= rep.evaluate(b)) == pref.weakly_prefers(
                    a, b
                )


def test_signature_requires_a_nonempty_native_menu():
    rep = kreps_representation(alice_preference())
    with pytest.raises(ValueError):
        rep.signature(rep.ground.empty)
    with pytest.raises(GroundSetMismatch):
        rep.signature(ground("ab").subset("a"))


def _increasing_preference(rng: random.Random, f: Topology) -> MenuPreference:
    """A preference respecting f with strictly larger closures strictly
    preferred, so both axioms hold and f is its Kreps operator: the values of
    :func:`respecting_preference` span less than 61, so adding 61·|f(A)| makes
    them strictly increasing in the closure."""
    images = f.tabulate_bits()
    values = respecting_preference(rng, f).values
    return MenuPreference(
        f.ground,
        (None, *(values[a] + 61 * images[a].bit_count() for a in range(1, len(values)))),
    )


def _kreps_matches_the_signature_oracle(pref: MenuPreference) -> None:
    rep = kreps_representation(pref)
    g = pref.ground
    utilities = [
        [rep.state_utility(x, s) for x in g.elements] for s in range(rep.state_count)
    ]
    signatures = oracle_signatures(utilities, g.size)
    level = {value: i + 1 for i, value in enumerate(sorted(set(pref.values[1:])))}
    assert rep.ranks == {
        signatures[a]: level[pref.values[a]] for a in range(1, g.full_bits + 1)
    }
    images = kreps_operator(pref).tabulate_bits()
    assert oracle_signatures_ok(pref.values, images, signatures)
    assert json.loads(kreps_doc(rep)) == oracle_kreps_doc(rep)


def test_kreps_ranks_equal_the_signature_oracle_over_every_menu():
    rng = random.Random(22)
    for case in range(200):
        g = GroundSet(tuple(f"e{i}" for i in range(rng.randint(1, 8))))
        if case % 2:
            pref = _increasing_preference(rng, random_operator(rng, g))
        else:
            orders = [random_weak_order(rng, g) for _ in range(rng.randint(1, 3))]
            pref = sum_of_maxes(g, orders)
        _kreps_matches_the_signature_oracle(pref)


def _block_preference(n: int) -> MenuPreference:
    """f(A) = the union of the pairs {e₂ᵢ, e₂ᵢ₊₁} that A meets, U(A) = |f(A)|."""
    g = GroundSet(tuple(f"e{i}" for i in range(n)))
    low = sum(1 << i for i in range(0, n, 2))
    levels = [Fraction(k) for k in range(n + 1)]
    return MenuPreference(
        g,
        (
            None,
            *(
                levels[(a | (a & low) << 1 | (a & low << 1) >> 1).bit_count()]
                for a in range(1, g.full_bits + 1)
            ),
        ),
    )


def test_kreps_on_sixteen_elements_in_eight_blocks():
    pref = _block_preference(16)
    rep = kreps_representation(pref)
    assert rep.state_count == 8
    assert len(rep.ranks) == 255
    rng = random.Random(16)
    g = pref.ground
    for _ in range(2000):
        a, b = (g.mask(rng.randrange(1, g.full_bits + 1)) for _ in range(2))
        assert (rep.evaluate(a) >= rep.evaluate(b)) == pref.weakly_prefers(a, b)


def test_kreps_signs_each_nonempty_closed_set_once(monkeypatch):
    pref = _block_preference(8)
    signed = Counter()
    real = menus._signature

    def counted(chains, bits):
        signed[bits] += 1
        return real(chains, bits)

    monkeypatch.setattr(menus, "_signature", counted)
    kreps_representation(pref)
    closed = kreps_operator(pref).bits[1:]
    assert sum(signed.values()) == len(closed) == 15
    assert sorted(signed) == list(closed)


def test_a_dropped_state_fails_verification(tmp_path, capsys, monkeypatch):
    real = menus._weak_order_witness

    def dropped(irreducibles):
        states, report = real(irreducibles)
        return states[:-1], report

    monkeypatch.setattr(menus, "_weak_order_witness", dropped)
    message = "signatures do not separate closures"
    for pref in (bob_preference(), _block_preference(6)):
        with pytest.raises(WitnessVerificationFailed, match=message):
            kreps_representation(pref)
    bob = bob_preference()
    utilities = [
        {"menu": list(m.members()), "value": str(bob.utility(m))}
        for m in bob.ground.subsets()
        if m
    ]
    path = tmp_path / "pref.json"
    path.write_text(
        json.dumps({"elements": list(bob.ground.elements), "utilities": utilities}),
        encoding="utf-8",
    )
    assert main(["menu-rep", "--preference", str(path), "--style", "kreps"]) == 3
    out, err = capsys.readouterr()
    assert err == f"internal error: {message}\n"
    assert json.loads(out) == {"error": message, "internal": True}


# -------------------------------------------------- additive representation


def test_alice_additive_weights_are_exact():
    g = ground(XYZ)
    pref = alice_preference()
    rep = additive_representation(pref, kreps_operator(pref))
    assert rep.state_count == 6
    assert [s.name for s in rep.positive_states] == ["p1", "p2", "p3"]
    assert [s.name for s in rep.negative_states] == ["n1", "n2", "n3"]
    carriers = [s.carrier for s in rep.positive_states]
    assert carriers == [sub(g, "z"), sub(g, "yz"), g.full]
    assert [s.weight for s in rep.positive_states] == [
        Fraction(1),
        Fraction(1),
        Fraction(0),
    ]
    assert [s.weight for s in rep.negative_states] == [
        Fraction(0),
        Fraction(0),
        Fraction(3),
    ]
    assert rep.negative_states[2].utility("x") == Fraction(-3)
    assert rep.positive_states[0].utility("x") == Fraction(0)


def test_additive_evaluation_matches_the_utility():
    for pref in (alice_preference(), bob_preference()):
        f = kreps_operator(pref)
        rep = additive_representation(pref, f)
        g = pref.ground
        assert rep.state_count == 2 * (len(f.closed_sets()) - 1)
        for m in g.subsets():
            if m:
                assert rep.evaluate(m) == pref.utility(m)
    with pytest.raises(ValueError):
        rep.evaluate(g.empty)
    with pytest.raises(GroundSetMismatch):
        rep.evaluate(ground("ab").subset("a"))


def test_additive_requires_a_respected_operator():
    g = ground(XYZ)
    trivial = topo(g, "", "xyz").operator()
    with pytest.raises(DoesNotRespect) as err:
        additive_representation(alice_preference(), trivial)
    assert err.value.witness == sub(g, "y")
    foreign = topo(ground("ab"), "", "ab").operator()
    with pytest.raises(GroundSetMismatch):
        additive_representation(alice_preference(), foreign)


def test_additive_on_random_respecting_pairs():
    for seed in range(15):
        rng = random.Random(seed)
        g = ground("abcd"[: 2 + seed % 3])
        f = random_operator(rng, g)
        pref = respecting_preference(rng, f)
        rep = additive_representation(pref, f)
        assert rep.state_count == 2 * (len(f.closed_sets()) - 1)
        for m in g.subsets():
            if m:
                assert rep.evaluate(m) == pref.utility(m)


@given(st.integers(0, 10**9), st.integers(1, 6))
@settings(max_examples=80, deadline=None)
def test_additive_evaluation_equals_the_named_oracle(seed, n):
    """Evaluation by carrier bits equals evaluation through each state's
    named utility, on random states (any carriers, weights of either sign)
    and on built representations, at every nonempty menu."""
    rng = random.Random(seed)
    g = ground("abcdef"[:n])

    def states(prefix):
        return tuple(
            AdditiveState(f"{prefix}{i + 1}", g.mask(rng.randrange(g.full_bits + 1)),
                          random_fraction(rng))
            for i in range(rng.randrange(6))
        )

    f = random_operator(rng, g)
    built = additive_representation(respecting_preference(rng, f), f)
    for rep in (AdditiveRepresentation(g, states("p"), states("n")), built):
        for bits in range(1, g.full_bits + 1):
            menu = g.mask(bits)
            assert rep.evaluate(menu) == oracle_evaluate(rep, menu)


def test_additive_keeps_zero_weight_states():
    # A constant preference respects the trivial operator; its Möbius weight
    # on X is the constant and 0 on nothing else, yet both states remain.
    g = ground("ab")
    pref = _pref(g, {"a": 2, "b": 2, "ab": 2})
    trivial = topo(g, "", "ab").operator()
    rep = additive_representation(pref, trivial)
    assert rep.state_count == 2
    assert rep.positive_states[0].weight == Fraction(0)
    assert rep.negative_states[0].weight == Fraction(2)
    assert rep.evaluate(sub(g, "a")) == Fraction(2)


# ------------------------------------------- fast checks against the oracles


def _passes(check, *args) -> bool:
    try:
        check(*args)
    except WitnessVerificationFailed:
        return False
    return True


def _closure_ranked(rng: random.Random, g) -> list:
    """U = V∘f for a random closure operator f and a random permutation V of
    ranks over S(f): U(A ∪ B) = U(A) iff B ⊆ f(A), so U is ordinally
    submodular, and flexible only when V happens to rise with inclusion."""
    f = random_operator(rng, g)
    ranks = list(range(len(f.bits)))
    rng.shuffle(ranks)
    rank_of = dict(zip(f.bits, ranks))
    return [None] + [Fraction(rank_of[image]) for image in f.tabulate_bits()[1:]]


def _random_utilities(rng: random.Random, g) -> MenuPreference:
    """One of four recipes, so that every outcome of the axioms occurs:
    small random integers (flexibility mostly fails), sums of nonnegative
    increments over submenus (flexible; submodular or not), sums of maxes
    (both axioms hold), and a random ranking of a closure operator's closures
    (:func:`_closure_ranked`: submodular, mostly inflexible); the middle two
    get one menu nudged by ±1 half the time.
    """
    full = g.full_bits
    recipe = rng.randrange(4)
    if recipe == 0:
        values = [None] + [Fraction(rng.randrange(3)) for _ in range(full)]
    elif recipe == 1:
        bumps = [rng.randrange(2) for _ in range(full + 1)]
        values = [None] + [
            Fraction(sum(bumps[b] for b in range(1, a + 1) if b & ~a == 0))
            for a in range(1, full + 1)
        ]
    elif recipe == 2:
        orders = [random_weak_order(rng, g) for _ in range(rng.randint(1, 3))]
        values = list(sum_of_maxes(g, orders).values)
    else:
        values = _closure_ranked(rng, g)
    if recipe in (1, 2) and rng.random() < 0.5:
        values[rng.randrange(1, full + 1)] += rng.choice((-1, 1))
    return MenuPreference(g, tuple(values))


def _decided_as_the_oracles(pref: MenuPreference) -> AxiomReport:
    """The private axiom decision of ``pref``, checked against both oracles:
    its report against the witnesses, its Kreps map against the per-element
    images when both axioms hold (None otherwise).  Returns the report."""
    report, images = _decide_axioms(pref)
    assert report == oracle_axioms(pref)
    assert images == (oracle_kreps_images(pref) if report.ok else None)
    return report


@given(st.integers(0, 10**9), st.integers(1, 5))
@settings(max_examples=120, deadline=None)
def test_check_axioms_equals_the_exhaustive_oracle(seed, n):
    g = ground("abcde"[:n])
    pref = _random_utilities(random.Random(seed), g)
    assert check_axioms(pref) == _decided_as_the_oracles(pref)


def test_axiom_recipes_reach_every_outcome():
    outcomes = Counter()
    for seed in range(300):
        rng = random.Random(seed)
        g = ground("abcd"[: rng.randint(2, 4)])
        pref = _random_utilities(rng, g)
        report = check_axioms(pref)
        assert report == _decided_as_the_oracles(pref)
        outcomes[report.flexibility_ok, report.submodularity_ok] += 1
    for key in [(True, True), (True, False), (False, True), (False, False)]:
        assert outcomes[key] >= 20


def test_kreps_consequence_check_matches_its_oracle(monkeypatch):
    # kreps_operator checks respect and strict increase on the Kreps map that
    # _decide_axioms hands it; here that map is each random closure table.
    outcomes = Counter()
    for seed in range(300):
        rng = random.Random(seed)
        g = ground("abcd"[: rng.randint(2, 4)])
        f = random_operator(rng, g)
        images = f.tabulate_bits()
        if rng.random() < 0.5:
            # strictly increasing in the closure: every consequence holds
            values = [None] + [
                Fraction(images[a].bit_count()) for a in range(1, g.full_bits + 1)
            ]
        else:
            values = list(respecting_preference(rng, f).values)
        if rng.random() < 0.3:
            values[rng.randrange(1, g.full_bits + 1)] += 1
        decided = AxiomReport((), ()), images
        monkeypatch.setattr(menus, "_decide_axioms", lambda preference: decided)
        expected = oracle_kreps_consequences(values, images)
        pref = MenuPreference(g, tuple(values))
        assert _passes(kreps_operator, pref) == expected
        if expected:
            assert kreps_operator(pref).tabulate_bits() == images
        outcomes[expected] += 1
    assert outcomes[True] >= 50 and outcomes[False] >= 50


def _flexible_preference(rng: random.Random, g) -> MenuPreference:
    """A sum of maxes (both axioms hold) plus, half the time, one or two
    indicators U(A) += [B ⊆ A] of random sets B with at least two elements:
    still flexible, and mostly no longer ordinally submodular."""
    orders = [random_weak_order(rng, g) for _ in range(rng.randint(1, 3))]
    values = list(sum_of_maxes(g, orders).values)
    if rng.random() < 0.5:
        for _ in range(rng.randint(1, 2)):
            bump = rng.randrange(1, g.full_bits + 1) | 3 << rng.randrange(g.size - 1)
            for a in range(bump, g.full_bits + 1):
                if bump & ~a == 0:
                    values[a] += 1
    return MenuPreference(g, tuple(values))


def test_submodularity_is_the_adjacent_criterion_on_flexible_preferences(monkeypatch):
    # Under flexibility, check_axioms decides submodularity as the
    # monotonicity of the Kreps map in its closure validation.  It must agree
    # with the adjacent criterion g(A) ⊆ g(A ∪ {x}); the witness enumeration,
    # O(8^n), is stubbed to one placeholder triple.
    monkeypatch.setattr(
        menus, "_submodularity_witnesses", lambda ranks, masks: [(masks[1],) * 3]
    )
    outcomes = Counter()
    for seed in range(120):
        rng = random.Random(seed)
        g = ground([f"e{i}" for i in range(rng.randint(2, 10))])
        pref = _flexible_preference(rng, g)
        report = check_axioms(pref)
        expected = oracle_adjacent_submodular(pref.values)
        assert report.flexibility_ok
        assert report.submodularity_ok == expected
        outcomes[expected] += 1
    assert outcomes[True] >= 20 and outcomes[False] >= 20


def _nearly_constant(n: int) -> MenuPreference:
    """U ≡ 1 except U({e0}) = 2: inflexible on the 2^(n−1) − 1 menus that
    strictly hold {e0}, and ordinally submodular."""
    g = GroundSet(tuple(f"e{i}" for i in range(n)))
    return MenuPreference(g, (None, Fraction(2), *[Fraction(1)] * (g.full_bits - 1)))


def test_triples_are_enumerated_only_for_a_failing_axiom(monkeypatch):
    def refused(ranks, masks):
        raise AssertionError("submodularity triples enumerated")

    real = menus._submodularity_witnesses
    monkeypatch.setattr(menus, "_submodularity_witnesses", refused)
    # inflexible, submodular: CI's inflexible.json
    report = check_axioms(_pref(ground("ab"), {"a": 1, "b": "1/2", "ab": "1/3"}))
    assert not report.flexibility_ok and report.submodularity_ok
    report = check_axioms(_nearly_constant(10))
    assert len(report.flexibility_witnesses) == 511
    assert report.submodularity_witnesses == ()
    calls = []

    def counted(ranks, masks):
        calls.append(len(ranks))
        return real(ranks, masks)

    monkeypatch.setattr(menus, "_submodularity_witnesses", counted)
    # flexible, not submodular: CI's unsubmodular.json
    g = ground("abc")
    report = check_axioms(
        _pref(g, {"a": 1, "b": 1, "c": 1, "ab": 1, "ac": 2, "bc": 2, "abc": 3})
    )
    assert calls == [8]
    assert (sub(g, "a"), sub(g, "b"), sub(g, "c")) in report.submodularity_witnesses


def test_inflexible_submodularity_is_the_criterion_on_g(monkeypatch):
    # For an inflexible preference, check_axioms decides submodularity as g's
    # monotonicity plus the equal-utility superset scan, and calls the
    # enumerator (stubbed to one placeholder triple) only when that fails.
    # The verdict must be the real enumerator's, on closure rankings
    # (submodular), half of them with one menu given the utility of a menu
    # above it.
    real = menus._submodularity_witnesses
    monkeypatch.setattr(
        menus, "_submodularity_witnesses", lambda ranks, masks: [(masks[1],) * 3]
    )
    g = GroundSet(tuple(f"e{i}" for i in range(7)))
    masks = [g.mask(bits) for bits in range(g.full_bits + 1)]
    outcomes = Counter()
    for seed in range(80):
        rng = random.Random(seed)
        values = _closure_ranked(rng, g)
        if seed % 2:
            a = rng.randrange(1, g.full_bits + 1)
            values[a] = values[a | rng.randrange(g.full_bits + 1)]
        pref = MenuPreference(g, tuple(values))
        report = check_axioms(pref)
        if report.flexibility_ok:
            continue
        expected = real(pref._ranks, masks) == []
        assert report.submodularity_ok == expected
        outcomes[expected] += 1
    assert outcomes[True] >= 20 and outcomes[False] >= 20


def test_kreps_representation_decides_each_fact_once(monkeypatch):
    calls = Counter()
    for module, name in (
        (menus, "_adjacent_pass"),
        (menus, "_validate_images"),
        (core, "_validate_images"),
        (menus, "_unfaithful"),
    ):

        def spy(*args, _real=getattr(module, name), _name=name):
            calls[_name] += 1
            return _real(*args)

        monkeypatch.setattr(module, name, spy)
    kreps_representation(_block_preference(8))
    assert calls == {"_adjacent_pass": 1, "_validate_images": 1, "_unfaithful": 1}


def test_a_kreps_map_that_is_no_closure_is_an_internal_error(
    tmp_path, capsys, monkeypatch
):
    # A flexible pass whose map g(A) = A, plus b when a ∈ A and c when b ∈ A,
    # is extensive, monotone and fixes ∅, but g(g({a})) = {a, b, c} ≠ g({a}).
    def not_idempotent(ranks, size):
        return True, [a | (a & 3) << 1 for a in range(1 << size)]

    monkeypatch.setattr(menus, "_adjacent_pass", not_idempotent)
    g = ground("abc")
    path = tmp_path / "pref.json"
    path.write_text(
        json.dumps(
            {
                "elements": list(g.elements),
                "utilities": [
                    {"menu": list(g.mask(a).members()), "value": a.bit_count()}
                    for a in range(1, g.full_bits + 1)
                ],
            }
        ),
        encoding="utf-8",
    )
    message = "Kreps construction produced a non-closure: idempotence fails at {a}"
    for style in ("kreps", "additive"):
        assert main(["menu-rep", "--preference", str(path), "--style", style]) == 3
        out, err = capsys.readouterr()
        assert err == f"internal error: {message}\n"
        assert json.loads(out) == {"error": message, "internal": True}


def test_rank_check_matches_its_oracle():
    outcomes = Counter()
    for seed in range(300):
        rng = random.Random(seed)
        by_signature = {
            (i,): Fraction(rng.randrange(4)) for i in range(rng.randint(1, 6))
        }
        levels = sorted(set(by_signature.values()))
        ranks = {sig: levels.index(value) + 1 for sig, value in by_signature.items()}
        if rng.random() < 0.5:
            ranks[rng.choice(list(ranks))] += rng.choice((-1, 1))
        expected = oracle_ranks_ok(by_signature, ranks)
        assert _passes(_check_ranks, by_signature, ranks) == expected
        outcomes[expected] += 1
    assert outcomes[True] >= 50 and outcomes[False] >= 50


@given(st.integers(0, 10**9), st.integers(1, 7))
@settings(max_examples=40, deadline=None)
def test_rank_table_orders_menus_as_the_utilities_do(seed, n):
    rng = random.Random(seed)
    g = ground("abcdefg"[:n])
    # A strictly increasing map keeps every comparison of the recipes'
    # (often repeated) integer utilities and makes them fractional.
    scale = Fraction(rng.randint(1, 9), rng.randint(2, 9))
    offset = random_fraction(rng)
    base = _random_utilities(rng, g)
    pref = MenuPreference(g, (None, *(v * scale + offset for v in base.values[1:])))
    values, ranks = pref.values, pref._ranks
    menus = range(1, g.full_bits + 1)
    for a in menus:
        for b in menus:
            assert (ranks[a] < ranks[b]) == (values[a] < values[b])
            assert (ranks[a] == ranks[b]) == (values[a] == values[b])
    assert set(ranks[1:]) == set(range(len(set(values[1:]))))
    report = check_axioms(pref)
    assert report == check_axioms(base)
    if n <= 6:  # the exhaustive oracle costs 8^n
        assert report == _decided_as_the_oracles(pref)
    f = random_operator(rng, g)
    images = f.tabulate_bits()
    unfaithful = [b for b in menus if values[b] != values[images[b]]]
    assert respects(pref, f) == (
        (False, g.mask(unfaithful[0])) if unfaithful else (True, None)
    )
    if report.ok:
        kreps = kreps_operator(pref)
        assert respects(pref, kreps) == (True, None)
        assert oracle_kreps_consequences(values, kreps.tabulate_bits())
        representation = kreps_representation(pref)
        by_signature = {representation.signature(g.mask(b)): values[b] for b in menus}
        assert oracle_ranks_ok(by_signature, representation.ranks)


def test_check_axioms_compares_no_fractions_once_ranks_are_built(monkeypatch):
    g = ground("abcdefgh")
    rng = random.Random(8)
    # The rank table is built with the preference.
    pref = sum_of_maxes(g, [random_weak_order(rng, g) for _ in range(3)])
    compared = Counter()
    for name in ("__eq__", "__ne__", "__lt__", "__le__", "__gt__", "__ge__"):

        def counted(self, other, _real=getattr(Fraction, name), _name=name):
            compared[_name] += 1
            return _real(self, other)

        monkeypatch.setattr(Fraction, name, counted)
    report = check_axioms(pref)
    monkeypatch.undo()
    assert report.ok
    assert not compared


def test_additive_check_matches_literal_evaluation():
    outcomes = Counter()
    for seed in range(200):
        rng = random.Random(seed)
        g = ground("abcd"[: rng.randint(2, 4)])
        f = random_operator(rng, g)
        pref = respecting_preference(rng, f)
        rep = additive_representation(pref, f)
        positive, negative = list(rep.positive_states), list(rep.negative_states)
        i = rng.randrange(len(positive))
        shift = Fraction(rng.randrange(1, 3))
        change = rng.randrange(3)
        # shifting both states of one carrier keeps every evaluation; shifting
        # one of them moves the evaluation of every submenu of the carrier
        if change in (1, 2):
            p = positive[i]
            positive[i] = AdditiveState(p.name, p.carrier, p.weight + shift)
        if change == 2:
            q = negative[i]
            negative[i] = AdditiveState(q.name, q.carrier, q.weight + shift)
        expected = oracle_additive_ok(
            pref, AdditiveRepresentation(g, tuple(positive), tuple(negative))
        )
        keys, scale = _utility_keys(pref)
        passes = _passes(_check_additive_states, g, keys, scale, positive, negative)
        assert passes == expected
        outcomes[expected] += 1
    assert outcomes[True] >= 50 and outcomes[False] >= 50


def _weights(rep: AdditiveRepresentation) -> dict:
    """h(B) = w⁻(B) − w⁺(B), read back from the paired states."""
    return {
        p.carrier: n.weight - p.weight
        for p, n in zip(rep.positive_states, rep.negative_states)
    }


def test_additive_weights_match_the_reversed_poset_oracle():
    for seed in range(80):
        rng = random.Random(seed)
        g = ground("abcdef"[: rng.randint(1, 6)])
        f = random_operator(rng, g)
        pref = respecting_preference(rng, f)
        rep = additive_representation(pref, f)
        assert _weights(rep) == oracle_additive_weights(pref, f)
        assert [p.carrier for p in rep.positive_states] == [
            m for m in f.closed_sets() if m
        ]


def test_additive_rejection_names_the_witness_of_respects():
    outcomes = Counter()
    for seed in range(120):
        rng = random.Random(seed)
        g = ground("abcdef"[: rng.randint(2, 6)])
        f = random_operator(rng, g)
        values = list(respecting_preference(rng, f).values)
        if rng.random() < 0.7:
            values[rng.randrange(1, g.full_bits + 1)] += rng.choice((-1, 1))
        pref = MenuPreference(g, tuple(values))
        ok, witness = respects(pref, f)
        if ok:
            additive_representation(pref, f)
        else:
            with pytest.raises(DoesNotRespect) as err:
                additive_representation(pref, f)
            assert err.value.witness == witness
        outcomes[ok] += 1
    assert outcomes[True] >= 20 and outcomes[False] >= 20


def _menu_size_preference(n: int) -> MenuPreference:
    """U(A) = |A|: every menu is its own closure, so |S(f)| = 2^n."""
    g = ground("abcdefghijkl"[:n])
    return MenuPreference(
        g, (None, *(Fraction(bits.bit_count()) for bits in range(1, g.full_bits + 1)))
    )


def test_additive_weights_match_the_oracle_when_every_menu_is_closed():
    pref = _menu_size_preference(8)
    f = kreps_operator(pref)
    assert len(f.closed_sets()) == 2**8
    assert _weights(additive_representation(pref, f)) == oracle_additive_weights(
        pref, f
    )


def test_additive_on_twelve_elements_when_every_menu_is_closed():
    # The reversed-poset route is quadratic in |S(f)| = 4096 here.
    pref = _menu_size_preference(12)
    g = pref.ground
    rep = additive_representation(pref, kreps_operator(pref))
    assert rep.state_count == 2 * (2**12 - 1)
    rng = random.Random(12)
    for _ in range(8):
        menu = g.mask(rng.randrange(1, g.full_bits + 1))
        assert rep.evaluate(menu) == pref.utility(menu)


# ------------------------------------------- integer keys against Fractions


def _same_as_the_fraction_oracle(pref: MenuPreference, f: Topology) -> None:
    rep = additive_representation(pref, f)
    oracle = oracle_additive_representation(pref, f)
    assert rep == oracle
    assert additive_doc(rep) == additive_doc(oracle)


def test_additive_integer_keys_match_the_fraction_oracle():
    for seed in range(40):
        rng = random.Random(seed)
        g = ground("abcdefgh"[: rng.randint(1, 8)])
        f = random_operator(rng, g)
        pref = respecting_preference(rng, f)
        keys, scale = _utility_keys(pref)
        assert all(type(key) is int for key in keys)
        assert [Fraction(key, scale) for key in keys[1:]] == list(pref.values[1:])
        _same_as_the_fraction_oracle(pref, f)


def test_additive_integer_keys_on_twelve_elements():
    rng = random.Random(12)
    g = ground("abcdefghijkl")
    f = Topology(g, random_family_bits(rng, 12))
    pref = respecting_preference(rng, f)
    assert len(f.bits) > 100
    assert all(type(key) is int for key in _utility_keys(pref)[0])
    _same_as_the_fraction_oracle(pref, f)


def _primes_past(bound: int) -> list[int]:
    """The first k primes, for the least k whose product exceeds ``bound``."""
    primes: list[int] = []
    candidate = 2
    while math.prod(primes) <= bound:
        if all(candidate % p for p in primes):
            primes.append(candidate)
        candidate += 1
    return primes


def _past_bound_preference() -> tuple[MenuPreference, Topology]:
    """U(A) = A + 1/p on 9 elements, p running over the first k primes whose
    product, the lcm of the denominators, just exceeds
    10^MAX_RATIONAL_DIGITS; every menu is closed under the discrete
    operator, which U respects."""
    primes = _primes_past(10**MAX_RATIONAL_DIGITS)
    g = ground([f"e{i}" for i in range(9)])
    values = [None] + [
        bits + Fraction(1, primes[bits % len(primes)]) for bits in range(1, 512)
    ]
    return MenuPreference(g, tuple(values)), Topology(g, range(512))


def test_additive_keys_past_the_bound_are_the_fractions():
    bound = 10**MAX_RATIONAL_DIGITS
    pref, discrete = _past_bound_preference()
    assert len(pref._levels) == 511
    assert math.lcm(*(value.denominator for value in pref._levels)) > bound
    keys, scale = _utility_keys(pref)
    assert scale == 1
    assert all(type(key) is Fraction for key in keys[1:])
    assert keys[1:] == list(pref.values[1:])
    _same_as_the_fraction_oracle(pref, discrete)
    # At the bound itself the keys stay integers.
    at_bound = MenuPreference(
        pref.ground, (None, *[Fraction(bits, bound) for bits in range(1, 512)])
    )
    keys, scale = _utility_keys(at_bound)
    assert scale == bound
    assert keys == list(range(512))


def test_additive_check_rejects_a_planted_weight():
    cases = []
    for seed in range(30):
        rng = random.Random(seed)
        g = ground("abcdef"[: rng.randint(1, 6)])
        f = random_operator(rng, g)
        cases.append((rng, respecting_preference(rng, f), f))
    cases.append((random.Random(9), *_past_bound_preference()))
    for rng, pref, f in cases:
        rep = additive_representation(pref, f)
        keys, scale = _utility_keys(pref)
        for side in ("positive", "negative"):
            states = {
                "positive": list(rep.positive_states),
                "negative": list(rep.negative_states),
            }
            i = rng.randrange(len(states[side]))
            s = states[side][i]
            shift = Fraction(rng.choice((1, 2)), rng.choice((1, 2, 3, 7, 13)))
            states[side][i] = AdditiveState(s.name, s.carrier, s.weight + shift)
            with pytest.raises(WitnessVerificationFailed, match="differs from U"):
                _check_additive_states(
                    pref.ground, keys, scale, states["positive"], states["negative"]
                )


# ------------------------------------------------------------ large menus


def _labeling_utility(rng: random.Random, n: int, weighted: bool):
    """U(A) = w(f(A)) for a random labeling closure f on n elements, with w
    the cardinality or a sum of positive rational element weights."""
    g = ground("abcdefghijkl"[:n])
    labels = [f"l{j}" for j in range(n)]
    labeling = Labeling.from_names(
        g, labels, {x: [l for l in labels if rng.random() < 0.4] for x in g.elements}
    )
    f = labeling.classifier()
    images = f.tabulate_bits()
    weight = [
        Fraction(rng.randrange(1, 9), rng.randrange(1, 5)) if weighted else Fraction(1)
        for _ in range(n)
    ]
    values = [None] + [
        sum((weight[i] for i in range(n) if images[a] >> i & 1), Fraction(0))
        for a in range(1, g.full_bits + 1)
    ]
    return MenuPreference(g, tuple(values)), f


@pytest.mark.parametrize(
    "n, weighted", [(10, False), (11, True), (12, False), (12, True)]
)
def test_menu_rep_on_large_ground_sets(tmp_path, capsys, n, weighted):
    rng = random.Random(1000 + n)
    pref, f = _labeling_utility(rng, n, weighted)
    g = pref.ground
    path = tmp_path / "pref.json"
    path.write_text(
        json.dumps(
            {
                "elements": list(g.elements),
                "utilities": [
                    {"menu": list(g.mask(a).members()), "value": str(pref.values[a])}
                    for a in range(1, g.full_bits + 1)
                ],
            }
        ),
        encoding="utf-8",
    )
    closed = len(f.closed_sets())
    assert main(["menu-rep", "--preference", str(path), "--style", "kreps"]) == 0
    assert len(json.loads(capsys.readouterr().out)["aggregator"]) == closed - 1
    assert main(["menu-rep", "--preference", str(path), "--style", "additive"]) == 0
    assert json.loads(capsys.readouterr().out)["state_count"] == 2 * (closed - 1)

    kreps = kreps_representation(pref)
    additive = additive_representation(pref, f)
    menus = [g.mask(rng.randrange(1, g.full_bits + 1)) for _ in range(60)]
    for a in menus:
        assert additive.evaluate(a) == pref.utility(a)
        for b in menus[:10]:
            assert (kreps.evaluate(a) >= kreps.evaluate(b)) == pref.weakly_prefers(a, b)
