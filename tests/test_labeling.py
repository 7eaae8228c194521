"""Labelings and the classifiers they induce."""

import random
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from closureops import (
    BinaryClassifier,
    ForeignMask,
    GroundSet,
    Labeling,
    canonical_labeling,
    complexity_profile,
    intersect_generate,
    minimal_labeling,
)
from conftest import (
    ABCD,
    animals_labeling,
    animals_topology,
    fork_topology,
    ground,
    iter_topologies,
    oracle_classifier_images,
    random_operator,
    sub,
    topo,
)

# -------------------------------------------------------------- construction


def test_labeling_from_names_and_label_sets():
    lab = animals_labeling()
    assert lab.labels == ("dog", "cat", "black", "white", "female", "male", "car")
    assert lab.label_set("a") == ("dog", "black", "female")
    assert lab.label_set("d") == ("black", "car")  # label order, not input order


def test_labeling_rejects_bad_input():
    g = ground("ab")
    with pytest.raises(ValueError):
        Labeling(g, ("L", "L"), (frozenset(), frozenset()))
    with pytest.raises(ValueError):
        Labeling(g, ("",), (frozenset(), frozenset()))
    with pytest.raises(ValueError):
        Labeling(g, ("L",), (frozenset(),))  # one phi entry missing
    with pytest.raises(ValueError):
        Labeling(g, ("L",), (frozenset({1}), frozenset()))  # index out of range
    with pytest.raises(ValueError):
        Labeling.from_names(g, ("L",), {"a": ("L",)})  # no labels for b
    with pytest.raises(ValueError):
        Labeling.from_names(g, ("L",), {"a": ("Q",), "b": ()})  # unknown label


def test_labeling_from_names_rejects_an_element_outside_the_ground_set():
    g = ground("ab")
    with pytest.raises(ForeignMask, match="element 'zzz' is not in the ground set"):
        Labeling.from_names(g, ["x"], {"a": ["x"], "b": [], "zzz": ["x"]})
    with pytest.raises(ForeignMask, match="element 'y' is not in the ground set"):
        Labeling.from_names(g, ["x"], {"a": ["x"], "y": [], "b": [], "zzz": []})


def test_labeling_repr_lists_each_elements_labels():
    lab = Labeling.from_names(ground("abc"), ("x", "y"), {"a": ["x"], "b": ["y", "x"], "c": []})
    assert repr(lab) == "Labeling(a:{x}, b:{x,y}, c:{})"


# ---------------------------------------------------------------- classifier


def test_animals_classifier_closes_menus_by_shared_labels():
    g = ground(ABCD)
    f = animals_labeling().classifier()
    assert f(g.empty) == g.empty
    assert f(sub(g, "a")) == sub(g, "a")
    assert f(sub(g, "ab")) == sub(g, "ab")  # dog ∧ black
    assert f(sub(g, "ac")) == sub(g, "ac")  # female
    assert f(sub(g, "ad")) == sub(g, "abd")  # black
    assert f(sub(g, "bc")) == g.full  # no shared label
    assert f(sub(g, "cd")) == g.full
    assert f.closed_sets() == animals_topology()


def test_unlabeled_elements_collapse_to_the_full_set():
    g = ground("ab")
    lab = Labeling(g, ("L",), (frozenset({0}), frozenset()))
    f = lab.classifier()
    assert f(sub(g, "a")) == sub(g, "a")
    assert f(sub(g, "b")) == g.full
    assert f.closed_sets() == topo(g, "", "a", "ab")


def test_zero_labels_induce_the_trivial_operator():
    g = ground("abc")
    lab = Labeling(g, (), (frozenset(), frozenset(), frozenset()))
    assert lab.classifier().closed_sets() == topo(g, "", "abc")


# ------------------------------------------------------- canonical labeling


def test_canonical_labeling_of_the_fork():
    f = fork_topology().operator()
    lab = canonical_labeling(f)
    assert lab.labels == ("Class1", "Class2", "Class3", "Class4")
    assert lab.label_set("a") == ("Class1", "Class2", "Class3", "Class4")
    assert lab.label_set("b") == ("Class2", "Class4")
    assert lab.label_set("c") == ("Class3", "Class4")
    assert lab.label_set("d") == ("Class4",)
    assert lab.classifier() == f


def test_canonical_label_count_is_the_class_count():
    for t in (fork_topology(), animals_topology()):
        f = t.operator()
        assert len(canonical_labeling(f).labels) == len(t) - 1


# --------------------------------------------------------- minimal labeling


def test_minimal_labeling_of_the_fork():
    f = fork_topology().operator()
    lab = minimal_labeling(f)
    assert lab.labels == ("{a,b}", "{a,c}")
    assert lab.label_set("a") == ("{a,b}", "{a,c}")
    assert lab.label_set("b") == ("{a,b}",)
    assert lab.label_set("c") == ("{a,c}",)
    assert lab.label_set("d") == ()
    assert lab.classifier() == f


def test_minimal_labeling_of_the_trivial_operator_is_empty():
    g = ground("abc")
    f = topo(g, "", "abc").operator()
    lab = minimal_labeling(f)
    assert lab.labels == ()
    assert lab.classifier() == f


def test_minimal_label_count_equals_binary_complexity():
    for t in (fork_topology(), animals_topology()):
        f = t.operator()
        assert len(minimal_labeling(f).labels) == complexity_profile(f).mnbc


# ------------------------------------------------------------- round trips


def test_both_labelings_reconstruct_every_small_operator():
    for t in iter_topologies(ground("abc")):
        f = t.operator()
        assert canonical_labeling(f).classifier() == f
        assert minimal_labeling(f).classifier() == f


@given(st.integers(0, 10**9), st.integers(2, 6))
@settings(max_examples=60, deadline=None)
def test_both_labelings_reconstruct_random_operators(seed, size):
    f = random_operator(random.Random(seed), GroundSet(tuple("abcdef"[:size])))
    assert canonical_labeling(f).classifier() == f
    assert minimal_labeling(f).classifier() == f


def test_classifier_matches_the_per_subset_oracle():
    for seed in range(150):
        rng = random.Random(seed)
        g = GroundSet(tuple("abcdefgh"[: rng.randint(1, 8)]))
        labels = tuple(f"L{j}" for j in range(rng.randint(0, 10)))
        density = rng.random()
        phi = tuple(
            frozenset(j for j in range(len(labels)) if rng.random() < density)
            for _ in g.elements
        )
        lab = Labeling(g, labels, phi)
        assert lab.classifier().tabulate_bits() == oracle_classifier_images(lab)


def test_coatom_extents_at_sixteen_elements_give_the_identity():
    # The extents X ∖ {e_i} cut the binaries with those cutoffs, and both
    # intersect to the discrete operator: every subset is its own image.
    n = 16
    g = GroundSet(tuple(f"e{i}" for i in range(n)))
    labels = tuple(f"L{i}" for i in range(n))
    lab = Labeling(g, labels, tuple(frozenset(range(n)) - {i} for i in range(n)))
    identity = tuple(range(1 << n))
    assert lab.classifier().tabulate_bits() == identity
    binaries = [BinaryClassifier(g.mask(g.full_bits & ~(1 << i))) for i in range(n)]
    assert intersect_generate(g, binaries).tabulate_bits() == identity


def _all_labelings(g: GroundSet, label_count: int):
    labels = tuple(f"L{i + 1}" for i in range(label_count))
    subsets = [frozenset(s) for s in _index_subsets(label_count)]
    for phi in product(subsets, repeat=g.size):
        yield Labeling(g, labels, phi)


def _index_subsets(k: int):
    for bits in range(1 << k):
        yield {i for i in range(k) if bits >> i & 1}


def test_no_smaller_labeling_matches_the_identity_on_two_elements():
    g = ground("ab")
    identity = topo(g, "", "a", "b", "ab").operator()
    assert len(minimal_labeling(identity).labels) == 2
    for label_count in (0, 1):
        for lab in _all_labelings(g, label_count):
            assert lab.classifier() != identity
