"""Operator tables: the reader of the ``map`` array against the mask-table
route, the merged operator type, and table paths that build no mask."""

import json
import random
from collections import Counter

import pytest

import closureops
from closureops import (
    ClosureOperator,
    ForeignMask,
    FinitePoset,
    GroundSet,
    InvalidClosureTable,
    MissingEntry,
    SchemaError,
    SubsetMask,
    Topology,
    canonical_labeling,
    check_generation,
    complexity_profile,
    jsonio,
    respects,
    validate_closure,
)
from closureops.cli import main
from conftest import (
    oracle_check_generation,
    oracle_hasse_doc,
    oracle_mobius,
    oracle_mobius_doc,
    oracle_topology_doc,
    oracle_validation_doc,
    random_binary,
    random_family_bits,
    random_weak_order,
    respecting_preference,
)


def _text(doc) -> str:
    return json.dumps(doc, indent=2, ensure_ascii=False) + "\n"


def _names(bits: int, names: list[str]) -> list[str]:
    return [name for i, name in enumerate(names) if bits >> i & 1]


def _table_doc(names: list[str], images, order) -> dict:
    return {
        "elements": names,
        "map": [
            {"from": _names(a, names), "to": _names(images[a], names)} for a in order
        ],
    }


DEFECTS = (
    "none",
    "extensivity",
    "idempotence",
    "monotonicity",
    "empty",
    "missing",
    "duplicate",
    "foreign",
)


def _document(rng: random.Random, n: int, defect: str) -> dict:
    """A closure table on n elements, entries shuffled, with one defect."""
    names = [f"e{i}" for i in range(n)]
    full = (1 << n) - 1
    closed = random_family_bits(rng, n)
    images = list(Topology(GroundSet(tuple(names)), closed).tabulate_bits())
    is_closed = set(closed)
    if defect == "extensivity" and n:
        a = rng.randrange(1, full + 1)
        images[a] &= ~(a & -a)
    elif defect == "idempotence":
        open_sets = [b for b in range(1, full + 1) if b not in is_closed]
        if open_sets:
            b = rng.choice(open_sets)
            below = [a for a in range(full + 1) if a & ~b == 0]
            images[rng.choice(below)] = b
    elif defect == "monotonicity":
        lower = [a for a in range(full) if images[a] != full]
        if lower:
            images[rng.choice(lower)] = full
    elif defect == "empty":
        images[0] = rng.randrange(1, full + 1)
    order = list(range(full + 1))
    rng.shuffle(order)
    doc = _table_doc(names, images, order)
    entries = doc["map"]
    if defect == "missing":
        del entries[rng.randrange(len(entries))]
    elif defect == "duplicate":
        entry = rng.choice(entries)
        copy = {"from": list(reversed(entry["from"])), "to": rng.choice(entries)["to"]}
        entries.insert(rng.randrange(len(entries) + 1), copy)
    elif defect == "foreign":
        entry = rng.choice(entries)
        side = rng.choice(("from", "to"))
        entry[side] = [*entry[side], "stranger"]
    return doc


def _mask_table(doc: dict):
    """The document read entry by entry into a mask-keyed table."""
    ground = jsonio.ground_from(doc)
    table = {}
    for entry in doc["map"]:
        key = ground.subset(entry["from"])
        if key in table:
            raise SchemaError(f"duplicate map entry for {key.label()}")
        table[key] = ground.subset(entry["to"])
    return ground, table


def _by_masks(command: str, doc: dict) -> tuple[str, str, int]:
    """The stdout, stderr and exit code the command must give, from
    validate_closure and ClosureOperator.from_table on a mask table."""
    try:
        ground, table = _mask_table(doc)
        if command == "validate":
            report = validate_closure(ground, table)
            if report.ok:
                return _text(oracle_validation_doc(report)), "", 0
            err = "validation failed: " + "; ".join(report.summary()) + "\n"
            return _text(oracle_validation_doc(report)), err, 1
        return _text(oracle_topology_doc(ClosureOperator.from_table(ground, table))), "", 0
    except InvalidClosureTable as exc:
        return _text(oracle_validation_doc(exc.report)), f"error: {exc}\n", 1
    except (SchemaError, ForeignMask, MissingEntry) as exc:
        return "", f"error: {exc}\n", 2


def _by_cli(capsys, tmp_path, command: str, doc: dict) -> tuple[str, str, int]:
    path = tmp_path / "table.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    flag = "--table" if command == "validate" else "--from-table"
    code = main([command, flag, str(path)])
    captured = capsys.readouterr()
    return captured.out, captured.err, code


def _sizes():
    for seed in range(48):
        yield seed, 1 + seed % 8
    for seed, n in ((100, 12), (101, 13)):
        yield seed, n


@pytest.mark.parametrize("defect", DEFECTS)
def test_the_table_reader_matches_the_mask_table_route(defect, capsys, tmp_path):
    codes = Counter()
    for seed, n in _sizes():
        doc = _document(random.Random(f"{defect}/{seed}"), n, defect)
        for command in ("validate", "topology"):
            expected = _by_masks(command, doc)
            assert _by_cli(capsys, tmp_path, command, doc) == expected, (seed, n)
            codes[expected[2]] += 1
    if defect in ("none",):
        assert set(codes) == {0}
    elif defect in ("missing", "duplicate", "foreign"):
        assert set(codes) == {2}
    else:
        assert codes[1] >= 40


def test_a_missing_entry_is_named_in_canonical_order(capsys, tmp_path):
    names = ["a", "b", "c"]
    images = list(range(8))
    doc = _table_doc(names, images, [7, 6, 0, 1, 2, 4])  # lacks {a,b} and {a,c}
    for command in ("validate", "topology"):
        out, err, code = _by_cli(capsys, tmp_path, command, doc)
        assert (out, err, code) == ("", "error: table lacks an image for {a,b}\n", 2)
    ground, table = jsonio.operator_table_from(doc)
    assert list(table) == [ground.mask(b) for b in (0, 1, 2, 4, 6, 7)]
    with pytest.raises(MissingEntry, match=r"\{a,b\}"):
        ClosureOperator.from_table(ground, table)


def test_operators_and_their_closed_sets_are_one_object():
    assert ClosureOperator is Topology is closureops.ClosureOperator
    assert not hasattr(Topology, "_from_images")
    rng = random.Random(7)
    g = GroundSet(tuple("abcde"))
    t = Topology(g, random_family_bits(rng, 5))
    assert t.operator() is t
    assert t.closed_sets() is t
    assert hash(t.operator()) == hash(t) == hash(Topology(g, t.bits))
    assert repr(t.operator()) == repr(t)
    # The library's readers of an operator take a topology as it is.
    profile = complexity_profile(t)
    assert profile.class_count == len(t) - 1
    generators = [w.operator() for w in profile.weak_order_witness]
    assert check_generation(t, generators).generates
    assert canonical_labeling(t).classifier() == t
    assert respects(respecting_preference(rng, t), t) == (True, None)
    other = [random_weak_order(rng, g).operator(), random_binary(rng, g).operator()]
    assert check_generation(t, other) == oracle_check_generation(t, other)


@pytest.fixture
def count_masks(monkeypatch):
    made = Counter()
    real = SubsetMask.__post_init__

    def counted(self):
        made["masks"] += 1
        real(self)

    def start():
        monkeypatch.setattr(SubsetMask, "__post_init__", counted)
        return made

    return start


def test_table_and_mobius_calls_build_no_mask(capsys, tmp_path, count_masks):
    n = 10
    g = GroundSet(tuple(f"e{i}" for i in range(n)))
    discrete = Topology(g, range(1 << n))
    names = list(g.elements)
    table = tmp_path / "table.json"
    order = list(range(1 << n))
    table.write_text(json.dumps(_table_doc(names, order, order)), encoding="utf-8")
    topology = tmp_path / "topology.json"
    topology.write_text(json.dumps(oracle_topology_doc(discrete)), encoding="utf-8")
    poset = FinitePoset.from_topology(discrete)
    expected = {
        "validate": _text(oracle_validation_doc(validate_closure(g, discrete.table()))),
        "topology": _text(oracle_topology_doc(discrete)),
        "mobius": _text(oracle_mobius_doc(discrete, oracle_mobius(discrete))),
        "hasse": _text(oracle_hasse_doc(discrete, poset.hasse())),
    }
    made = count_masks()
    outputs = {}
    for command, flag, path in (
        ("validate", "--table", table),
        ("topology", "--from-table", table),
        ("mobius", "--topology", topology),
        ("hasse", "--topology", topology),
    ):
        assert main([command, flag, str(path)]) == 0
        outputs[command] = capsys.readouterr().out
    assert made["masks"] == 0
    assert outputs == expected
