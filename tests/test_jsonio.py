"""JSON wire formats: strict parsing, deterministic emission, round trips."""

import json
import random
import re
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from closureops import (
    BinaryClassifier,
    FinitePoset,
    ForeignMask,
    GroundSet,
    Labeling,
    MenuPreference,
    NotIntersectionClosed,
    SchemaError,
    SubsetMask,
    Topology,
    WeakOrder,
    additive_representation,
    check_axioms,
    check_generation,
    complexity_profile,
    kreps_representation,
    validate_closure,
)
from closureops.cli import main
from closureops.errors import ClosureError
from closureops.jsonio import (
    MAX_RATIONAL_DIGITS,
    additive_doc,
    axioms_doc,
    binary_doc,
    binary_from,
    decomposition_doc,
    flat_doc,
    fraction_from,
    generation_doc,
    generators_from,
    ground_from,
    hasse_doc,
    kreps_doc,
    labeling_doc,
    labeling_from,
    mobius_doc,
    operator_images_from,
    preference_from,
    profile_doc,
    subset_doc,
    subset_from,
    topology_doc,
    topology_from,
    validation_doc,
    verified_doc,
    weak_order_doc,
    weak_order_from,
)
from closureops.labeling import canonical_labeling, minimal_labeling
from conftest import (
    ABCD,
    animals_labeling,
    bob_preference,
    fork_topology,
    ground,
    hasse_pairs,
    oracle_additive_doc,
    oracle_axioms_doc,
    oracle_binary_doc,
    oracle_checked_images,
    oracle_decomposition_doc,
    oracle_flat_doc,
    oracle_generation_doc,
    oracle_hasse_doc,
    oracle_kreps_doc,
    oracle_labeling_doc,
    oracle_mobius,
    oracle_mobius_doc,
    oracle_preference,
    oracle_profile_doc,
    oracle_subset_doc,
    oracle_topology,
    oracle_topology_doc,
    oracle_validation_doc,
    oracle_weak_order_doc,
    order,
    random_binary,
    random_family_bits,
    random_fraction,
    random_topology,
    random_weak_order,
    respecting_preference,
    sub,
    sum_of_maxes,
    tall_chain_topology,
    topo,
    truncated_bits,
)


def _text(doc) -> str:
    """The report text every emitter must return for ``doc``."""
    return json.dumps(doc, indent=2, ensure_ascii=False)

# ----------------------------------------------------------------- fractions


def test_fraction_parsing_accepts_exact_forms():
    assert fraction_from(3, "v") == Fraction(3)
    assert fraction_from("3/2", "v") == Fraction(3, 2)
    assert fraction_from("1.5", "v") == Fraction(3, 2)
    assert fraction_from("-7", "v") == Fraction(-7)
    assert fraction_from("1.25e3", "v") == Fraction(1250)
    # Reports write a fraction as str() does, which the reader reads back.
    assert str(Fraction(3, 2)) == "3/2"
    assert str(Fraction(4, 2)) == "2"
    assert fraction_from(str(Fraction(-5, 3)), "v") == Fraction(-5, 3)


def _utility_constructors_reject(bad, error) -> None:
    """Both API constructors reject ``bad`` as a utility with ``error``."""
    g = GroundSet(("a", "b"))
    with pytest.raises(error):
        WeakOrder.from_utilities(g, {"a": bad, "b": 1})
    with pytest.raises(error):
        MenuPreference.from_utilities(
            g, {g.subset("a"): bad, g.subset("b"): 1, g.full: 1}
        )


def test_fraction_parsing_rejects_inexact_or_malformed():
    # Underscores and spaces around "/" are rejected on every interpreter,
    # though Fraction takes them from 3.11 and 3.12 on; the API constructors
    # read utilities by the same grammar.
    for bad in (0.5, True, None, [], "abc", "1/0", "1_000", "1 /2", "1/ 2", "1e1_0"):
        with pytest.raises(SchemaError):
            fraction_from(bad, "v")
        if isinstance(bad, str):
            _utility_constructors_reject(bad, ValueError)
    for bad in (0.5, True, False, Decimal("0.5")):
        _utility_constructors_reject(bad, TypeError)


def test_fraction_parsing_rejects_an_exponent_that_is_not_a_number():
    # "e" is read as an exponent marker first; what follows it is no integer,
    # so Fraction gets the whole string and rejects it.
    for bad in ("1e5x", "2e-"):
        with pytest.raises(SchemaError, match=f"^v is not a valid rational: '{bad}'$"):
            fraction_from(bad, "v")
        _utility_constructors_reject(bad, ValueError)


def test_fraction_parsing_bounds_digits_and_exponent():
    limit = MAX_RATIONAL_DIGITS
    assert fraction_from("1e" + str(limit), "v") == Fraction(10) ** limit
    assert fraction_from("-1E-" + str(limit), "v") == -Fraction(1, 10**limit)
    assert fraction_from("7" * limit, "v") == int("7" * limit)
    for bad in ("1e1000000", "1e" + str(limit + 1), "1e-" + str(limit + 1),
                "7" * (limit + 1), "1/" + "3" * limit, "1e" + "9" * 5000):
        with pytest.raises(SchemaError):
            fraction_from(bad, "v")
        _utility_constructors_reject(bad, ValueError)


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
        {"elements": ["a", "\ud800"]},  # a lone surrogate: UTF-8 cannot encode it
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


def test_name_arrays_fail_with_the_messages_of_both_checks():
    # A non-string entry anywhere is a SchemaError before an unknown name
    # is a ForeignMask, whichever comes first in the array.
    g = ground("ab")
    cases = [
        ("ab", SchemaError, "subset must be a JSON array"),
        ({"a": 1}, SchemaError, "subset must be a JSON array"),
        (["q", 5], SchemaError, "subset must contain strings"),
        (["a", ["b"]], SchemaError, "subset must contain strings"),
        (["a", "q", "r"], ForeignMask, "element 'q' is not in the ground set"),
    ]
    for value, error, message in cases:
        with pytest.raises(error) as err:
            subset_from(g, value)
        assert str(err.value) == message
    with pytest.raises(ForeignMask, match="^element 'q' is not in the ground set$"):
        topology_from({"elements": ["a", "b"], "closed_sets": [[], ["q"], ["a", "b"]]})


def test_entries_fail_with_the_messages_of_the_checks():
    # Entries are read inline; a failing one is checked again, so it raises
    # the error it raised when every entry was checked first.
    not_object = "map entry must be a JSON object"
    needs = 'map entries need "from" and "to"'
    cases = [
        (["x"], SchemaError, not_object),
        ([None], SchemaError, not_object),
        ([{"from": []}], SchemaError, needs),
        ([{"from": {"a": 1}, "to": []}], SchemaError, '"from" must be a JSON array'),
        ([{"from": ["a"], "to": "ab"}], SchemaError, '"to" must be a JSON array'),
        ([{"from": ["a"], "to": ["q"]}], ForeignMask, "element 'q' is not in the ground set"),
        ([{"from": [], "to": []}, {"from": [], "to": "x"}], SchemaError,
         "duplicate map entry for ∅"),
    ]
    for entries, error, message in cases:
        with pytest.raises(error) as err:
            operator_images_from({"elements": ["a", "b"], "map": entries})
        assert str(err.value) == message
    cases = [
        ([[1]], SchemaError, "utility entry must be a JSON object"),
        ([{"value": 1}], SchemaError, 'utility entries need "menu" and "value"'),
        ([{"menu": "a", "value": 1}], SchemaError, '"menu" must be a JSON array'),
        ([{"menu": [1], "value": 1}], SchemaError, '"menu" must contain strings'),
        ([{"menu": ["a"], "value": {"x": 1}}], SchemaError,
         "value of {a} must be a rational string or integer"),
    ]
    for entries, error, message in cases:
        with pytest.raises(error) as err:
            preference_from({"elements": ["a", "b"], "utilities": entries})
        assert str(err.value) == message


def _outcome(read) -> tuple:
    """What ``read()`` returns, or the class and message of what it raises."""
    try:
        return ("read", read())
    except ClosureError as exc:
        return type(exc), str(exc)


_SPOILERS = (
    lambda rng, entry: entry["from"].append(entry["from"][0]) if entry["from"] else None,
    lambda rng, entry: entry["to"].insert(0, entry["to"][-1]) if entry["to"] else None,
    lambda rng, entry: entry["to"].append(rng.choice(["q", 1, None, ["a"], True])),
    lambda rng, entry: entry.update({"from": rng.choice(["e0", {"e0": 1}, None, 3])}),
    lambda rng, entry: entry.pop(rng.choice(["from", "to"])),
    lambda rng, entry: entry.update({"from": []}),
)


def test_table_reader_reads_like_the_entry_by_entry_reader():
    # Whatever one or two spoiled entries hold (a repeated name, an unknown
    # or non-string name, a non-array, a missing key, a repeated subset, an
    # entry that is no object), the one-pass reader returns or raises what
    # reading entry by entry does.
    seen = set()
    for seed in range(300):
        rng = random.Random(seed)
        n = rng.randint(1, 6)
        doc = {"elements": _names(n, (1 << n) - 1), "map": []}
        for a in range(1 << n):
            image = a | rng.getrandbits(n)
            doc["map"].append({"from": _names(n, a), "to": _names(n, image)})
        rng.shuffle(doc["map"])
        for k in rng.sample(range(len(doc["map"])), rng.choice((0, 1, 1, 2))):
            if rng.random() < 0.1:
                doc["map"][k] = rng.choice([None, "x", [1]])
            else:
                rng.choice(_SPOILERS)(rng, doc["map"][k])
        ground = ground_from(doc)
        entries = json.loads(json.dumps(doc["map"]))
        expected = _outcome(lambda: (ground, oracle_checked_images(ground, entries)))
        assert _outcome(lambda: operator_images_from(doc)) == expected
        seen.add(expected[0] if expected[0] != "read" else "read")
    assert seen == {"read", SchemaError, ForeignMask}


def test_table_reader_counts_a_repeated_name_once(monkeypatch):
    # Each array's bit weights are ORed, so a repeated name counts once
    # without a second read; only an array that the map of weights cannot
    # read (here one with an unknown name) is read again, by GroundSet.subset.
    slow = []
    subset = GroundSet.subset
    monkeypatch.setattr(
        GroundSet, "subset", lambda g, names: slow.append(1) or subset(g, names)
    )
    doc = {
        "elements": ["a", "b"],
        "map": [
            {"from": [], "to": []},
            {"from": ["a"], "to": ["a"]},
            {"from": ["b"], "to": ["b", "a"]},
            {"from": ["b", "a"], "to": ["a", "b"]},
        ],
    }
    assert operator_images_from(doc)[1] == [0, 1, 3, 3] and not slow
    doc["map"][1]["from"] = ["a", "a"]
    doc["map"][3]["to"] = ["a", "b", "a"]
    assert operator_images_from(doc)[1] == [0, 1, 3, 3] and not slow
    doc["map"][2]["to"] = ["b", "q"]
    with pytest.raises(ForeignMask, match="^element 'q' is not in the ground set$"):
        operator_images_from(doc)
    assert slow == [1]


def _spoil_names(rng, names: list) -> None:
    """Repeats a name of ``names``, or puts in an unknown or non-string one."""
    if names and rng.random() < 0.5:
        name = rng.choice(names)
    else:
        name = rng.choice(["q", "q", 1, None, ["e0"], True])
    names.insert(rng.randint(0, len(names)), name)


_NOT_ARRAYS = ("e0", {"e0": 1}, None, 3)


def test_topology_reader_reads_like_the_name_by_name_reader():
    # Whatever one or two spoiled closed sets hold (a repeated, unknown or
    # non-string name, a non-array, a repeated or shrunk closed set), the
    # reader returns or raises what reading name by name does.
    seen = set()
    for seed in range(300):
        rng = random.Random(seed)
        n = rng.randint(1, 6)
        sets = [_names(n, b) for b in random_family_bits(rng, n)]
        rng.shuffle(sets)
        for k in rng.sample(range(len(sets)), min(len(sets), rng.choice((0, 1, 1, 2)))):
            spoiler = rng.randrange(4)
            if spoiler == 0:
                _spoil_names(rng, sets[k])
            elif spoiler == 1:
                sets[k] = rng.choice(_NOT_ARRAYS)
            elif spoiler == 2:
                sets.append(list(sets[k]))
            elif sets[k]:
                sets[k].pop(rng.randrange(len(sets[k])))
        doc = {"elements": _names(n, (1 << n) - 1), "closed_sets": sets}
        ground = ground_from(doc)
        copy = json.loads(json.dumps(sets))
        expected = _outcome(lambda: oracle_topology(ground, copy).bits)
        assert _outcome(lambda: topology_from(doc).bits) == expected
        seen.add(expected[0])
    assert {"read", SchemaError, ForeignMask} <= seen


def test_preference_reader_reads_like_the_name_by_name_reader():
    # Whatever one or two spoiled utility entries hold (a repeated, unknown
    # or non-string name, a non-array menu, a repeated or missing menu, a bad
    # value, a missing key, an entry that is no object), the reader returns
    # or raises what reading entry by entry, name by name, does.
    seen = set()
    for seed in range(300):
        rng = random.Random(seed)
        n = rng.randint(1, 5)
        entries = [
            {"menu": _names(n, a), "value": rng.choice((a.bit_count(), f"{a}/3", "1.5"))}
            for a in range(1, 1 << n)
        ]
        rng.shuffle(entries)
        dropped = set()
        spoiled = rng.sample(range(len(entries)), min(len(entries), rng.choice((0, 1, 1, 2))))
        for k in spoiled:
            entry, spoiler = entries[k], rng.choice((0, 0, 0, 1, 2, 3, 4, 5, 6))
            if spoiler == 0:
                _spoil_names(rng, entry["menu"])
            elif spoiler == 1:
                entry["menu"] = rng.choice(_NOT_ARRAYS)
            elif spoiler == 2:
                entry["menu"] = _names(n, rng.randrange(1, 1 << n))
            elif spoiler == 3:
                entry["value"] = rng.choice([1.5, True, None, "1/x", "1/0", {"x": 1}, [1]])
            elif spoiler == 4:
                entry.pop(rng.choice(["menu", "value"]))
            elif spoiler == 5:
                entries[k] = rng.choice([None, "x", [1]])
            else:
                dropped.add(k)
        entries = [entry for k, entry in enumerate(entries) if k not in dropped]
        doc = {"elements": _names(n, (1 << n) - 1), "utilities": entries}
        ground = ground_from(doc)
        copy = json.loads(json.dumps(entries))
        expected = _outcome(lambda: oracle_preference(ground, copy))
        assert _outcome(lambda: preference_from(doc)) == expected
        seen.add(expected[0])
    assert {"read", SchemaError, ForeignMask} <= seen


def test_repeated_names_read_as_their_clean_twin_at_16_elements():
    n = 16
    clean = {
        "elements": _names(n, (1 << n) - 1),
        "utilities": [
            {"menu": _names(n, a), "value": (a & 0x5555).bit_count()}
            for a in range(1, 1 << n)
        ],
    }
    twin = json.loads(json.dumps(clean))
    for entry in twin["utilities"][::7]:
        entry["menu"] += entry["menu"][::2]
    assert twin != clean
    assert preference_from(twin) == preference_from(clean)


def _names(n: int, bits: int) -> list[str]:
    return [f"e{i}" for i in range(n) if bits >> i & 1]


def _document(n: int, bits) -> dict:
    closed_sets = [_names(n, b) for b in bits]
    return {"elements": _names(n, (1 << n) - 1), "closed_sets": closed_sets}


def test_reading_and_checking_a_topology_builds_no_masks(monkeypatch):
    built = []
    post_init = SubsetMask.__post_init__

    def counted(mask):
        built.append(mask.bits)
        post_init(mask)

    n = 10
    full = (1 << n) - 1
    chain = [(1 << k) - 1 for k in range(n + 1)]
    for bits in (range(full + 1), chain):
        doc = _document(n, bits)
        monkeypatch.setattr(SubsetMask, "__post_init__", counted)
        f = topology_from(doc).operator()
        assert check_generation(f, [f]).generates
        monkeypatch.undo()
        assert built == []
        assert f.closed_sets().bits == tuple(bits)


def test_large_topology_documents_read_as_their_bits():
    discrete = range(1 << 16)
    chain = [(1 << k) - 1 for k in range(21)]
    for n, bits in ((16, discrete), (20, chain)):
        topology = topology_from(_document(n, bits))
        assert topology == Topology(topology.ground, bits)
        assert topology.bits == tuple(bits)


def test_topology_document_round_trip():
    t = fork_topology()
    text = topology_doc(t)
    doc = json.loads(text)
    assert text == _text(doc)
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
    assert topology_doc(topology_from(doc)) == text


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
            {"from": oracle_subset_doc(k), "to": oracle_subset_doc(v)}
            for k, v in f.table().items()
        ],
    }
    g, images = operator_images_from(doc)
    assert g == t.ground
    assert validate_closure(g, {g.mask(a): g.mask(b) for a, b in enumerate(images)}).ok
    doc["map"].append({"from": [], "to": []})
    with pytest.raises(SchemaError, match="duplicate"):
        operator_images_from(doc)
    with pytest.raises(SchemaError):
        operator_images_from({"elements": ["a"], "map": [{"from": []}]})


def test_weak_order_document_round_trip():
    g = ground(ABCD)
    wo = order(g, "cd", "b", "a")
    doc = {"classes_worst_first": [["c", "d"], ["b"], ["a"]]}
    assert weak_order_doc(wo) == _text(doc)
    assert weak_order_from(g, doc) == wo
    with pytest.raises(SchemaError):
        weak_order_from(g, {"classes_worst_first": [["a"]]})  # not a partition
    with pytest.raises(SchemaError):
        weak_order_from(g, {})


def test_binary_document_round_trip():
    g = ground(ABCD)
    clf = BinaryClassifier(sub(g, "ab"))
    doc = {"cutoff": ["a", "b"]}
    assert binary_doc(clf) == _text(doc)
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
    text = labeling_doc(lab)
    doc = json.loads(text)
    assert text == _text(doc)
    assert doc["elements"] == ["a", "b", "c", "d"]
    assert doc["labels"] == [
        "dog", "cat", "black", "white", "female", "male", "car",
    ]
    assert doc["phi"]["a"] == ["dog", "black", "female"]
    parsed = labeling_from(doc)
    assert parsed == lab
    assert labeling_doc(parsed) == text


def test_labeling_document_without_elements_uses_phi_order():
    lab = labeling_from(
        {"labels": ["L"], "phi": {"b": ["L"], "a": []}}
    )
    assert lab.ground.elements == ("b", "a")


def test_labeling_document_errors():
    with pytest.raises(SchemaError):
        labeling_from({"labels": ["L"], "phi": {"a": ["Q"]}})  # unknown label
    with pytest.raises(SchemaError, match="no label set given for element 'b'"):
        labeling_from(
            {"elements": ["a", "b"], "labels": [], "phi": {"a": []}}
        )  # phi misses an element
    with pytest.raises(ForeignMask, match="element 'q' is not in the ground set"):
        labeling_from(
            {"elements": ["a"], "labels": [], "phi": {"a": [], "q": []}}
        )  # phi names an element outside "elements"
    with pytest.raises(SchemaError):
        labeling_from({"labels": []})
    for doc in (
        {"labels": ["\udfff"], "phi": {"a": []}},
        {"labels": [], "phi": {"a": [], "\ud800": []}},
        {"elements": ["\ud800"], "labels": [], "phi": {"\ud800": []}},
    ):
        with pytest.raises(SchemaError, match="UTF-8"):
            labeling_from(doc)


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


def test_entry_errors_name_their_subset():
    # The labels in these messages are built only when an entry fails.
    table = {"elements": ["a", "b"], "map": [{"from": ["b"], "to": ["b"]}] * 2}
    with pytest.raises(SchemaError) as err:
        operator_images_from(table)
    assert str(err.value) == "duplicate map entry for {b}"
    utilities = [{"menu": ["a"], "value": 1}, {"menu": ["b"], "value": 1}]
    cases = [
        ({"menu": ["a"], "value": 2}, "duplicate utility for menu {a}"),
        (
            {"menu": ["b", "a"], "value": 1.5},
            "value of {a,b} must be exact; write the rational as a string, not a float",
        ),
        (
            {"menu": ["b", "a"], "value": "1/x"},
            "value of {a,b} is not a valid rational: '1/x'",
        ),
    ]
    for entry, message in cases:
        with pytest.raises(SchemaError) as err:
            preference_from({"elements": ["a", "b"], "utilities": [*utilities, entry]})
        assert str(err.value) == message


def _menu_rep(tmp_path, capsys, values) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of ``menu-rep --style kreps`` on the
    preference giving ``values`` to {a}, {b} and {a,b}, in that order."""
    menus = [["a"], ["b"], ["a", "b"]]
    doc = {
        "elements": ["a", "b"],
        "utilities": [{"menu": m, "value": v} for m, v in zip(menus, values)],
    }
    path = tmp_path / "preference.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code = main(["menu-rep", "--preference", str(path), "--style", "kreps"])
    out, err = capsys.readouterr()
    return code, out, err


def test_repeated_values_are_parsed_by_type_and_value(tmp_path, capsys):
    # Each raw value is parsed once per (type, value): True == 1 == 1.0 and
    # they hash alike, yet only the int is exact.  A failure names its own
    # menu even when the same value parsed for an earlier menu under another
    # type.
    rejected = "must be a rational string or integer"
    inexact = "must be exact; write the rational as a string, not a float"
    cases = [
        ([1, True, 2], f"error: value of {{b}} {rejected}\n"),
        ([1, 1.0, 2], f"error: value of {{b}} {inexact}\n"),
        (["1", [1], 2], f"error: value of {{b}} {rejected}\n"),
        ([1, "2", True], f"error: value of {{a,b}} {rejected}\n"),
        (["1", 2, 1.0], f"error: value of {{a,b}} {inexact}\n"),
    ]
    for values, message in cases:
        assert _menu_rep(tmp_path, capsys, values) == (2, "", message)
    code, expected, err = _menu_rep(tmp_path, capsys, ["1", "1", "2"])
    assert (code, err) == (0, "")
    for values in (["1", 1, 2], ["1/2", "1/2", 2]):
        assert _menu_rep(tmp_path, capsys, values) == (0, expected, "")


def test_repeated_values_share_one_fraction():
    g = ground("ab")
    doc = {
        "elements": ["a", "b"],
        "utilities": [
            {"menu": ["a"], "value": "1/2"},
            {"menu": ["b"], "value": "1/2"},
            {"menu": ["a", "b"], "value": 1},
        ],
    }
    pref = preference_from(doc)
    assert pref.utility(sub(g, "a")) is pref.utility(sub(g, "b"))
    assert pref.values[1:] == (Fraction(1, 2), Fraction(1, 2), Fraction(1))
    # U(A) = |A| on 12 elements: 4095 menus, 12 distinct values.
    names = [f"e{i}" for i in range(12)]
    doc = {
        "elements": names,
        "utilities": [
            {"menu": _names(12, bits), "value": str(bits.bit_count())}
            for bits in range(1, 1 << 12)
        ],
    }
    pref = preference_from(doc)
    assert len({id(value) for value in pref.values}) <= 13
    assert pref._ranks[1:] == tuple(bits.bit_count() - 1 for bits in range(1, 1 << 12))


# ------------------------------------------------------------------ emitting


def test_validation_document_structure():
    g = ground("ab")
    table = {g.mask(b): g.mask(i) for b, i in enumerate([0, 1, 2, 1])}
    text = validation_doc(validate_closure(g, table))
    doc = json.loads(text)
    assert text == _text(doc)
    assert doc["ok"] is False
    assert doc["fixes_empty"] is True
    assert doc["violations"]["extensivity"] == [["a", "b"]]
    assert doc["violations"]["monotonicity"] == [
        {"lower": ["b"], "upper": ["a", "b"]}
    ]
    assert any("extensivity" in line for line in doc["summary"])


def test_profile_document_for_the_fork():
    text = profile_doc(complexity_profile(fork_topology().operator()))
    assert text == _text({
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
    })


def test_generation_document_for_a_failing_family():
    g = ground(ABCD)
    f = tall_chain_topology().operator()
    gens = (
        BinaryClassifier(sub(g, "a")).operator(),
        BinaryClassifier(sub(g, "ab")).operator(),
    )
    text = generation_doc(check_generation(f, gens))
    assert text == _text({
        "generates": False,
        "condition1_ok": True,
        "condition1_witnesses": [],
        "condition2_ok": False,
        "condition2_witnesses": [
            {"closed_set": ["a", "b", "c"], "element": "d"}
        ],
        "pointwise_equal": False,
    })


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
    text = axioms_doc(check_axioms(pref))
    doc = json.loads(text)
    assert text == _text(doc)
    assert doc["ok"] is False and doc["flexibility_ok"] is False
    assert {"menu": ["a", "b"], "submenu": ["a"]} in doc["flexibility_witnesses"]
    assert doc["submodularity_ok"] is True


def test_kreps_document_for_bob():
    text = kreps_doc(kreps_representation(bob_preference()))
    assert text == _text({
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
    })


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
    assert additive_doc(rep) == _text({
        "elements": ["a", "b"],
        "style": "additive",
        "state_count": 2,
        "positive_states": [
            {"state": "p1", "closed_set": ["a", "b"], "weight": "0"}
        ],
        "negative_states": [
            {"state": "n1", "closed_set": ["a", "b"], "weight": "2"}
        ],
    })


def test_mobius_document_for_a_chain():
    t = topo(ground("ab"), "", "a", "ab")
    text = mobius_doc(t, FinitePoset.from_topology(t).mobius_walk())
    assert text == _text({
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
    })


def test_mobius_report_matches_the_oracle_on_random_families(routes):
    rng = random.Random(20261020)
    for _ in range(200):
        n = rng.randint(1, 10)
        t = Topology(ground("abcdefghij"[:n]), random_family_bits(rng, n))
        text = mobius_doc(t, FinitePoset.from_topology(t).mobius_walk())
        assert text == _text(oracle_mobius_doc(t, oracle_mobius(t)))
    assert routes["_rota_walk"] >= 20
    assert routes["_interval_rows"] >= 20


def test_mobius_report_of_a_truncated_family_writes_its_corrections(routes):
    n = 10
    t = Topology(ground("abcdefghij"), truncated_bits(n))
    text = mobius_doc(t, FinitePoset.from_topology(t).mobius_walk())
    assert routes == {"_rota_walk": 1}
    assert text == _text(oracle_mobius_doc(t, oracle_mobius(t)))


def test_hasse_document_for_a_chain():
    t = topo(ground("ab"), "", "a", "ab")
    covers = FinitePoset.from_topology(t).upper_cover_indices()
    assert hasse_doc(t, covers) == _text({
        "elements": ["a", "b"],
        "edges": [
            {"lower": [], "upper": ["a"]},
            {"lower": ["a"], "upper": ["a", "b"]},
        ],
    })


def test_emission_is_byte_deterministic():
    t = fork_topology()
    assert topology_doc(t) == topology_doc(topology_from(json.loads(topology_doc(t))))
    lab = animals_labeling()
    assert labeling_doc(lab) == labeling_doc(labeling_from(json.loads(labeling_doc(lab))))


# ------------------------------------------------ byte identity with json.dumps

# Names that stress string escaping: quotes, backslashes, control characters,
# the line separators JSON leaves raw, non-ASCII text, and the template
# character ``%``.
_AWKWARD = ['"', "\\", "\n", "\t", "\x00", "\x1f", "\u2028", "\u2029",
            "é", "∅", "日", "😀", "%", "s", "{", ",", "\x7f"]
NAMES = st.text(
    st.one_of(st.sampled_from(_AWKWARD), st.characters(blacklist_categories=("Cs",))),
    min_size=1,
    max_size=3,
)


def _reports(names, labels, seed, trivial):
    """(text, oracle document) for every emitter, on one random ground set."""
    rng = random.Random(seed)
    g = GroundSet(tuple(names))
    full = g.full_bits
    t = Topology(g, (0, full)) if trivial else random_topology(rng, g)
    f = t.operator()
    poset = FinitePoset.from_topology(t)
    profile = complexity_profile(f)
    generators = [random_weak_order(rng, g) for _ in range(2)]
    if g.size > 1:
        generators.append(random_binary(rng, g))
    generation = check_generation(f, [x.operator() for x in generators])
    table = {g.mask(b): g.mask(rng.randrange(full + 1)) for b in range(full + 1)}
    validation = validate_closure(g, table)
    noise = MenuPreference(g, (None, *(random_fraction(rng) for _ in range(full))))
    axioms = check_axioms(noise)
    kreps = kreps_representation(
        sum_of_maxes(g, [random_weak_order(rng, g) for _ in range(rng.randint(1, 3))])
    )
    additive = additive_representation(respecting_preference(rng, f), f)
    labeling = Labeling.from_names(
        g, labels, {x: [lab for lab in labels if rng.random() < 0.5] for x in names}
    )
    witness = g.mask(rng.randrange(full + 1))
    message = "no closed superset: " + witness.label()
    kreps_check = {"axioms_ok": True, "signature_sound": True,
                   "represents_preference": True, "menus_checked": full}
    additive_check = {"respects_operator": True, "exact_reproduction": True,
                      "menus_checked": full}
    decomposition = check_generation(f, [w.operator() for w in profile.weak_order_witness])
    cases = [(subset_doc(m), oracle_subset_doc(m)) for m in (g.empty, g.full, witness)]
    cases += [
        (topology_doc(t), oracle_topology_doc(t)),
        (validation_doc(validation), oracle_validation_doc(validation)),
        (profile_doc(profile), oracle_profile_doc(profile)),
        (generation_doc(generation), oracle_generation_doc(generation)),
        (labeling_doc(labeling), oracle_labeling_doc(labeling)),
        (labeling_doc(canonical_labeling(f)), oracle_labeling_doc(canonical_labeling(f))),
        (labeling_doc(minimal_labeling(f)), oracle_labeling_doc(minimal_labeling(f))),
        (axioms_doc(axioms), oracle_axioms_doc(axioms)),
        (kreps_doc(kreps), oracle_kreps_doc(kreps)),
        (additive_doc(additive), oracle_additive_doc(additive)),
        (mobius_doc(t, poset.mobius_walk()), oracle_mobius_doc(t, oracle_mobius(t))),
        (hasse_doc(t, poset.upper_cover_indices()), oracle_hasse_doc(t, hasse_pairs(poset))),
        (
            decomposition_doc(g, "weak-orders", profile.weak_order_witness, decomposition),
            oracle_decomposition_doc(g, "weak-orders", profile.weak_order_witness, decomposition),
        ),
        (
            decomposition_doc(g, "binary", generators, generation),
            oracle_decomposition_doc(g, "binary", generators, generation),
        ),
        (
            verified_doc(kreps_doc(kreps), flat_doc(kreps_check)),
            {**oracle_kreps_doc(kreps), "verification": kreps_check},
        ),
        (
            verified_doc(additive_doc(additive), flat_doc(additive_check)),
            {**oracle_additive_doc(additive), "verification": additive_check},
        ),
    ]
    cases += [(weak_order_doc(w), oracle_weak_order_doc(w)) for w in generators[:2]]
    cases += [(binary_doc(b), oracle_binary_doc(b)) for b in generators[2:]]
    # The error documents of exit codes 1 and 3.
    for fields in (
        {"error": message},
        {"error": message, "witness": witness},
        {"error": message, "internal": True},
    ):
        cases.append((flat_doc(fields), oracle_flat_doc(fields)))
    return cases


@given(
    st.lists(NAMES, min_size=1, max_size=5, unique=True),
    st.lists(NAMES, max_size=4, unique=True),
    st.integers(0, 10**9),
    st.booleans(),
)
@settings(max_examples=60, deadline=None)
def test_every_emitter_is_byte_identical_to_json_dumps(names, labels, seed, trivial):
    for text, doc in _reports(names, labels, seed, trivial):
        assert text == _text(doc)


def test_byte_identity_covers_empty_lists_and_rationals():
    """Two fixed draws reach the edge cases the property test is meant to
    cover: the trivial topology {∅, X}, empty arrays and rational weights."""
    names = ["a", "é\u2028"]
    cases = _reports(names, ["L"], 3, trivial=True) + _reports(names, [], 0, trivial=False)
    assert all(text == _text(doc) for text, doc in cases)
    texts = [text for text, _ in cases]
    trivial = json.dumps([[], names], indent=2, ensure_ascii=False)
    assert any(f'"closed_sets": {trivial.replace(chr(10), chr(10) + "  ")}' in t for t in texts)
    assert any(": []" in text for text in texts)
    assert any(re.search(r'"weight": "-?[0-9]+/[0-9]+"', text) for text in texts)
