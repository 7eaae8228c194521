"""JSON wire formats: strict parsing, deterministic emission, round trips."""

import json
from fractions import Fraction

import pytest

from closureops import (
    BinaryClassifier,
    FinitePoset,
    ForeignMask,
    NotIntersectionClosed,
    SchemaError,
    additive_representation,
    check_axioms,
    check_generation,
    complexity_profile,
    kreps_representation,
    validate_closure,
)
from closureops.jsonio import (
    MAX_RATIONAL_DIGITS,
    additive_doc,
    axioms_doc,
    binary_doc,
    binary_from,
    fraction_from,
    fraction_str,
    generation_doc,
    generators_from,
    ground_from,
    hasse_doc,
    kreps_doc,
    labeling_doc,
    labeling_from,
    mobius_doc,
    operator_table_from,
    preference_from,
    profile_doc,
    subset_doc,
    subset_from,
    topology_doc,
    topology_from,
    validation_doc,
    weak_order_doc,
    weak_order_from,
)
from conftest import (
    ABCD,
    animals_labeling,
    bob_preference,
    fork_topology,
    ground,
    order,
    sub,
    tall_chain_topology,
    topo,
)

# ----------------------------------------------------------------- fractions


def test_fraction_parsing_accepts_exact_forms():
    assert fraction_from(3, "v") == Fraction(3)
    assert fraction_from("3/2", "v") == Fraction(3, 2)
    assert fraction_from("1.5", "v") == Fraction(3, 2)
    assert fraction_from("-7", "v") == Fraction(-7)
    assert fraction_from("1.25e3", "v") == Fraction(1250)
    assert fraction_str(Fraction(3, 2)) == "3/2"
    assert fraction_str(Fraction(4, 2)) == "2"
    assert fraction_from(fraction_str(Fraction(-5, 3)), "v") == Fraction(-5, 3)


def test_fraction_parsing_rejects_inexact_or_malformed():
    for bad in (0.5, True, None, [], "abc", "1/0"):
        with pytest.raises(SchemaError):
            fraction_from(bad, "v")


def test_fraction_parsing_bounds_digits_and_exponent():
    limit = MAX_RATIONAL_DIGITS
    assert fraction_from("1e" + str(limit), "v") == Fraction(10) ** limit
    assert fraction_from("-1E-" + str(limit), "v") == -Fraction(1, 10**limit)
    assert fraction_from("7" * limit, "v") == int("7" * limit)
    for bad in ("1e1000000", "1e" + str(limit + 1), "1e-" + str(limit + 1),
                "7" * (limit + 1), "1/" + "3" * limit, "1e" + "9" * 5000):
        with pytest.raises(SchemaError):
            fraction_from(bad, "v")


# ------------------------------------------------------------------- parsing


def test_ground_set_document():
    g = ground_from({"elements": ["a", "b"]})
    assert g.elements == ("a", "b")
    for bad in (
        [],
        {"elements": "ab"},
        {"elements": [1]},
        {"elements": ["a", "a"]},
        {"elements": []},
        {},
    ):
        with pytest.raises(SchemaError):
            ground_from(bad)


def test_subset_parsing_rejects_unknown_names():
    g = ground("ab")
    assert subset_from(g, ["b", "a"]) == g.full
    with pytest.raises(ForeignMask):
        subset_from(g, ["q"])
    with pytest.raises(SchemaError):
        subset_from(g, "ab")


def test_topology_document_round_trip():
    t = fork_topology()
    doc = topology_doc(t)
    assert doc == {
        "elements": ["a", "b", "c", "d"],
        "closed_sets": [
            [],
            ["a"],
            ["a", "b"],
            ["a", "c"],
            ["a", "b", "c", "d"],
        ],
    }
    assert topology_from(doc) == t
    assert topology_doc(topology_from(doc)) == doc


def test_topology_document_distinguishes_malformed_from_wrong():
    with pytest.raises(SchemaError):
        topology_from({"elements": ["a", "b"]})
    with pytest.raises(NotIntersectionClosed):
        topology_from(
            {
                "elements": ["a", "b", "c"],
                "closed_sets": [[], ["a", "b"], ["b", "c"], ["a", "b", "c"]],
            }
        )


def test_operator_table_document():
    t = topo(ground("ab"), "", "a", "ab")
    f = t.operator()
    doc = {
        "elements": ["a", "b"],
        "map": [
            {"from": subset_doc(k), "to": subset_doc(v)}
            for k, v in f.table().items()
        ],
    }
    g, table = operator_table_from(doc)
    assert g == t.ground
    assert validate_closure(g, table).ok
    doc["map"].append({"from": [], "to": []})
    with pytest.raises(SchemaError, match="duplicate"):
        operator_table_from(doc)
    with pytest.raises(SchemaError):
        operator_table_from({"elements": ["a"], "map": [{"from": []}]})


def test_weak_order_document_round_trip():
    g = ground(ABCD)
    wo = order(g, "cd", "b", "a")
    doc = weak_order_doc(wo)
    assert doc == {"classes_worst_first": [["c", "d"], ["b"], ["a"]]}
    assert weak_order_from(g, doc) == wo
    with pytest.raises(SchemaError):
        weak_order_from(g, {"classes_worst_first": [["a"]]})  # not a partition
    with pytest.raises(SchemaError):
        weak_order_from(g, {})


def test_binary_document_round_trip():
    g = ground(ABCD)
    clf = BinaryClassifier(sub(g, "ab"))
    doc = binary_doc(clf)
    assert doc == {"cutoff": ["a", "b"]}
    assert binary_from(g, doc) == clf
    with pytest.raises(SchemaError):
        binary_from(g, {"cutoff": ["a", "b", "c", "d"]})  # improper cutoff
    with pytest.raises(SchemaError):
        binary_from(g, {})


def test_generators_document():
    doc = {
        "elements": ["a", "b", "c", "d"],
        "weak_orders": [{"classes_worst_first": [["a", "b"], ["c", "d"]]}],
        "binary": [{"cutoff": ["a", "c"]}],
    }
    g, weak_orders, binary = generators_from(doc)
    assert weak_orders == [order(g, "ab", "cd")]
    assert binary == [BinaryClassifier(sub(g, "ac"))]
    g2, wo2, b2 = generators_from({"elements": ["a", "b"]})
    assert wo2 == [] and b2 == []


def test_labeling_document_round_trip():
    lab = animals_labeling()
    doc = labeling_doc(lab)
    assert doc["elements"] == ["a", "b", "c", "d"]
    assert doc["labels"] == [
        "dog", "cat", "black", "white", "female", "male", "car",
    ]
    assert doc["phi"]["a"] == ["dog", "black", "female"]
    parsed = labeling_from(doc)
    assert parsed == lab
    assert labeling_doc(parsed) == doc


def test_labeling_document_without_elements_uses_phi_order():
    lab = labeling_from(
        {"labels": ["L"], "phi": {"b": ["L"], "a": []}}
    )
    assert lab.ground.elements == ("b", "a")


def test_labeling_document_errors():
    with pytest.raises(SchemaError):
        labeling_from({"labels": ["L"], "phi": {"a": ["Q"]}})  # unknown label
    with pytest.raises(SchemaError):
        labeling_from(
            {"elements": ["a", "b"], "labels": [], "phi": {"a": []}}
        )  # phi does not match elements
    with pytest.raises(SchemaError):
        labeling_from({"labels": []})


def test_preference_document_round_trip():
    g = ground("ab")
    doc = {
        "elements": ["a", "b"],
        "utilities": [
            {"menu": ["a"], "value": 1},
            {"menu": ["b"], "value": "1/2"},
            {"menu": ["a", "b"], "value": "3/2"},
        ],
    }
    pref = preference_from(doc)
    assert pref.utility(sub(g, "b")) == Fraction(1, 2)
    assert pref.utility(g.full) == Fraction(3, 2)


def test_preference_document_errors():
    base = {
        "elements": ["a", "b"],
        "utilities": [
            {"menu": ["a"], "value": 1},
            {"menu": ["b"], "value": 1},
            {"menu": ["a", "b"], "value": 1},
        ],
    }
    incomplete = {"elements": ["a", "b"], "utilities": base["utilities"][:2]}
    with pytest.raises(SchemaError, match="missing"):
        preference_from(incomplete)
    duplicated = {
        "elements": ["a", "b"],
        "utilities": base["utilities"] + [{"menu": ["a"], "value": 2}],
    }
    with pytest.raises(SchemaError, match="duplicate"):
        preference_from(duplicated)
    with_float = {
        "elements": ["a", "b"],
        "utilities": base["utilities"][:2] + [{"menu": ["a", "b"], "value": 1.5}],
    }
    with pytest.raises(SchemaError, match="exact"):
        preference_from(with_float)


# ------------------------------------------------------------------ emitting


def test_validation_document_structure():
    g = ground("ab")
    table = {g.mask(b): g.mask(i) for b, i in enumerate([0, 1, 2, 1])}
    doc = validation_doc(validate_closure(g, table))
    assert doc["ok"] is False
    assert doc["fixes_empty"] is True
    assert doc["violations"]["extensivity"] == [["a", "b"]]
    assert doc["violations"]["monotonicity"] == [
        {"lower": ["b"], "upper": ["a", "b"]}
    ]
    assert any("extensivity" in line for line in doc["summary"])


def test_profile_document_for_the_fork():
    doc = profile_doc(complexity_profile(fork_topology().operator()))
    assert doc == {
        "elements": ["a", "b", "c", "d"],
        "class_count": 4,
        "depth_s": 3,
        "width_s": 2,
        "mnwo": 2,
        "mnbc": 2,
        "p_of_f": [[], ["a", "b"], ["a", "c"], ["a", "b", "c", "d"]],
        "b_of_f": [["a", "b"], ["a", "c"]],
        "weak_order_witness": [
            {"classes_worst_first": [["a", "b"], ["c", "d"]]},
            {"classes_worst_first": [["a", "c"], ["b", "d"]]},
        ],
        "binary_witness": [{"cutoff": ["a", "b"]}, {"cutoff": ["a", "c"]}],
    }


def test_generation_document_for_a_failing_family():
    g = ground(ABCD)
    f = tall_chain_topology().operator()
    gens = (
        BinaryClassifier(sub(g, "a")).operator(),
        BinaryClassifier(sub(g, "ab")).operator(),
    )
    doc = generation_doc(check_generation(f, gens))
    assert doc == {
        "generates": False,
        "condition1_ok": True,
        "condition1_witnesses": [],
        "condition2_ok": False,
        "condition2_witnesses": [
            {"closed_set": ["a", "b", "c"], "element": "d"}
        ],
        "pointwise_equal": False,
    }


def test_axioms_document_for_a_flexibility_violation():
    g = ground("ab")
    pref = preference_from(
        {
            "elements": ["a", "b"],
            "utilities": [
                {"menu": ["a"], "value": 1},
                {"menu": ["b"], "value": 0},
                {"menu": ["a", "b"], "value": 0},
            ],
        }
    )
    doc = axioms_doc(check_axioms(pref))
    assert doc["ok"] is False and doc["flexibility_ok"] is False
    assert {"menu": ["a", "b"], "submenu": ["a"]} in doc["flexibility_witnesses"]
    assert doc["submodularity_ok"] is True


def test_kreps_document_for_bob():
    doc = kreps_doc(kreps_representation(bob_preference()))
    assert doc == {
        "elements": ["x", "y", "z"],
        "style": "kreps",
        "state_count": 2,
        "states": [
            {"state": "s1", "classes_worst_first": [["x", "z"], ["y"]]},
            {"state": "s2", "classes_worst_first": [["y", "z"], ["x"]]},
        ],
        "state_utilities": {"x": [1, 2], "y": [2, 1], "z": [1, 1]},
        "aggregator": [
            {"signature": [1, 1], "rank": 1},
            {"signature": [1, 2], "rank": 2},
            {"signature": [2, 1], "rank": 2},
            {"signature": [2, 2], "rank": 3},
        ],
    }


def test_additive_document_for_a_constant_preference():
    g = ground("ab")
    pref = preference_from(
        {
            "elements": ["a", "b"],
            "utilities": [
                {"menu": ["a"], "value": 2},
                {"menu": ["b"], "value": 2},
                {"menu": ["a", "b"], "value": 2},
            ],
        }
    )
    rep = additive_representation(pref, topo(g, "", "ab").operator())
    assert additive_doc(rep) == {
        "elements": ["a", "b"],
        "style": "additive",
        "state_count": 2,
        "positive_states": [
            {"state": "p1", "closed_set": ["a", "b"], "weight": "0"}
        ],
        "negative_states": [
            {"state": "n1", "closed_set": ["a", "b"], "weight": "2"}
        ],
    }


def test_mobius_document_for_a_chain():
    t = topo(ground("ab"), "", "a", "ab")
    doc = mobius_doc(t, FinitePoset.from_topology(t).mobius())
    assert doc == {
        "elements": ["a", "b"],
        "closed_sets": [[], ["a"], ["a", "b"]],
        "entries": [
            {"from": [], "to": [], "mu": 1},
            {"from": [], "to": ["a"], "mu": -1},
            {"from": [], "to": ["a", "b"], "mu": 0},
            {"from": ["a"], "to": ["a"], "mu": 1},
            {"from": ["a"], "to": ["a", "b"], "mu": -1},
            {"from": ["a", "b"], "to": ["a", "b"], "mu": 1},
        ],
    }


def test_hasse_document_for_a_chain():
    t = topo(ground("ab"), "", "a", "ab")
    covers = FinitePoset.from_topology(t).hasse()
    assert hasse_doc(t, covers) == {
        "elements": ["a", "b"],
        "edges": [
            {"lower": [], "upper": ["a"]},
            {"lower": ["a"], "upper": ["a", "b"]},
        ],
    }


def test_emission_is_byte_deterministic():
    t = fork_topology()
    once = json.dumps(topology_doc(t), ensure_ascii=False)
    again = json.dumps(topology_doc(topology_from(topology_doc(t))), ensure_ascii=False)
    assert once == again
    lab = animals_labeling()
    assert json.dumps(labeling_doc(lab)) == json.dumps(
        labeling_doc(labeling_from(labeling_doc(lab)))
    )
