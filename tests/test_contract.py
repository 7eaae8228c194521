"""The CLI's exit-code contract on mutated input documents.

Each example starts from a valid document of one kind the CLI reads
(topology, operator table, generator list, labeling, preference) and applies
one mutation: a node replaced by another value (a boolean where a number goes,
a 5,000-digit integer, ``"1e1000000"``, a lone surrogate, ...), or a key
dropped or added.  Every command form that reads that kind runs through
``cli.main``, with and without ``--out``, and must keep the contract:

* the exit code is 0, 1 or 2, and no exception escapes;
* on exit 2, stdout is empty, stderr is one ``error:`` line, and no ``--out``
  file is written;
* on exit 0 or 1, stdout is one JSON document (``hasse --dot`` prints DOT
  text on exit 0);
* the ``--out`` run exits alike, prints the same stderr and no stdout, and its
  file holds what the other run printed.

A second, fixed set of cases damages the file rather than a node: a repeated
key, the ``NaN`` and ``Infinity`` tokens, nesting past the recursion limit,
bytes that are not UTF-8, a UTF-8 byte-order mark, UTF-16, an empty file and
a truncated one.  Each exits 2, except a repeated key: the JSON parser keeps
the last of two equal keys, so that document is read as valid.
"""

import codecs
import copy
import io
import json
import os
import tempfile
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from closureops import BinaryClassifier, cli
from conftest import (
    alice_preference,
    animals_labeling,
    animals_topology,
    ground,
    oracle_binary_doc,
    oracle_labeling_doc,
    oracle_subset_doc,
    oracle_topology_doc,
    oracle_weak_order_doc,
    order,
    sub,
    sum_of_maxes,
)

# Stands for a 5,000-digit integer, which json.dumps cannot write past
# CPython's int-string limit; the document text gets the digits instead.
BIG = "<5,000-digit integer>"
VALUES = (
    None, True, False, 0, -1, 7, 2.5, "", "a", "x", "1/0", "1e1000000", "\ud800",
    [], ["a"], ["a", "a"], [1], {}, {"a": 1}, BIG, [f"n{i}" for i in range(21)],
)
KEYS = (
    "extra", "a", "e", "elements", "closed_sets", "map", "from", "to", "labels", "phi",
    "weak_orders", "binary", "classes_worst_first", "cutoff", "utilities", "menu", "value",
)


def _preference_doc(preference) -> dict:
    g = preference.ground
    return {
        "elements": list(g.elements),
        "utilities": [
            {"menu": oracle_subset_doc(g.mask(bits)), "value": str(preference.values[bits])}
            for bits in range(1, g.full_bits + 1)
        ],
    }


def _documents() -> dict:
    t = animals_topology()
    g = t.ground
    return {
        "topology": oracle_topology_doc(t),
        "table": {
            "elements": list(g.elements),
            "map": [
                {"from": oracle_subset_doc(a), "to": oracle_subset_doc(b)}
                for a, b in t.table().items()
            ],
        },
        "generators": {
            "elements": list(g.elements),
            "weak_orders": [oracle_weak_order_doc(order(g, "d", "bc", "a"))],
            "binary": [oracle_binary_doc(BinaryClassifier(sub(g, "ab")))],
        },
        "labeling": oracle_labeling_doc(animals_labeling()),
        "preference": _preference_doc(alice_preference()),
    }


DOCUMENTS = _documents()
# A valid preference on the topology's ground set, for menu-rep --operator.
OTHER_PREFERENCE = _preference_doc(
    sum_of_maxes(ground("abcd"), [order(ground("abcd"), "d", "abc")])
)

# Every command form that reads each kind; "F" stands for the mutated file and
# "P" for OTHER_PREFERENCE.
FORMS = {
    "topology": [
        ["complexity", "--topology", "F"],
        ["decompose", "--topology", "F", "--kind", "weak-orders"],
        ["decompose", "--topology", "F", "--kind", "binary"],
        ["labels", "--topology", "F", "--canonical"],
        ["labels", "--topology", "F", "--minimal"],
        ["mobius", "--topology", "F"],
        ["hasse", "--topology", "F"],
        ["hasse", "--topology", "F", "--dot"],
        ["menu-rep", "--preference", "P", "--style", "additive", "--operator", "F"],
    ],
    "table": [
        ["validate", "--table", "F"],
        ["topology", "--from-table", "F"],
        ["menu-rep", "--preference", "P", "--style", "additive", "--operator", "F"],
    ],
    "generators": [["topology", "--from-generators", "F"]],
    "labeling": [["topology", "--from-labels", "F"]],
    "preference": [
        ["menu-rep", "--preference", "F", "--style", "kreps"],
        ["menu-rep", "--preference", "F", "--style", "additive"],
    ],
}


def _nodes(doc, path=()):
    """The path of every node of a JSON document, the root first."""
    yield path
    if isinstance(doc, dict):
        for key, value in doc.items():
            yield from _nodes(value, (*path, key))
    elif isinstance(doc, list):
        for i, value in enumerate(doc):
            yield from _nodes(value, (*path, i))


def _at(doc, path):
    for step in path:
        doc = doc[step]
    return doc


def _same(a, b) -> bool:
    return type(a) is type(b) and a == b


@st.composite
def mutated(draw, kind: str) -> str:
    """The text of the kind's document with one mutation applied."""
    doc = copy.deepcopy(DOCUMENTS[kind])
    paths = list(_nodes(doc))
    how = draw(st.sampled_from(("replace", "drop", "add")))
    if how == "replace":
        path = draw(st.sampled_from(paths))
        value = draw(st.sampled_from([v for v in VALUES if not _same(v, _at(doc, path))]))
        if path:
            _at(doc, path[:-1])[path[-1]] = value
        else:
            doc = value
    else:
        objects = [p for p in paths if isinstance(_at(doc, p), dict) and _at(doc, p)]
        node = _at(doc, draw(st.sampled_from(objects)))
        if how == "drop":
            del node[draw(st.sampled_from(sorted(node)))]
        else:
            key = draw(st.sampled_from([k for k in KEYS if k not in node]))
            node[key] = draw(st.sampled_from(VALUES))
    return json.dumps(doc).replace(json.dumps(BIG), "9" * 5000)


def _run(argv: list[str]) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of one call.  Stdout encodes strictly as
    UTF-8, as a terminal's does."""
    out, err = io.TextIOWrapper(io.BytesIO(), encoding="utf-8"), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    out.flush()
    return code, out.buffer.getvalue().decode("utf-8"), err.getvalue()


def _check_contract(argv: list[str], out_path: str) -> int:
    """Check one call against the contract, and return its exit code."""
    code, stdout, stderr = _run(argv)
    assert code in (0, 1, 2), (argv, code, stderr)
    if code == 2:
        assert stdout == ""
        assert stderr.startswith("error: ") and stderr.count("\n") == 1, stderr
        assert stderr.endswith("\n")
    elif code == 0 and "--dot" in argv:
        assert stdout.startswith("digraph hasse {\n") and stdout.endswith("}\n")
    else:
        json.loads(stdout)
    assert _run(["--out", out_path, *argv]) == (code, "", stderr)
    if code == 2:
        assert not os.path.exists(out_path)
    else:
        with open(out_path, encoding="utf-8") as handle:
            assert handle.read() == stdout
        os.remove(out_path)
    return code


def _argvs(kind: str, text: str | bytes, tmp: str) -> list[list[str]]:
    """The kind's command forms, reading ``text`` (encoded as UTF-8 unless
    given as bytes) as the file "F" and OTHER_PREFERENCE as "P", both written
    into ``tmp``."""
    paths = {"F": os.path.join(tmp, "doc.json"), "P": os.path.join(tmp, "pref.json")}
    for name, content in (("F", text), ("P", json.dumps(OTHER_PREFERENCE))):
        with open(paths[name], "wb") as handle:
            handle.write(content if isinstance(content, bytes) else content.encode("utf-8"))
    return [[paths.get(arg, arg) for arg in form] for form in FORMS[kind]]


@pytest.mark.parametrize("kind", sorted(FORMS))
@given(data=st.data())
@settings(max_examples=300, deadline=None)
def test_a_mutated_document_keeps_the_exit_code_contract(kind, data):
    text = data.draw(mutated(kind))
    with tempfile.TemporaryDirectory(prefix="contract-") as tmp:
        for argv in _argvs(kind, text, tmp):
            _check_contract(argv, os.path.join(tmp, "out.txt"))


@pytest.mark.parametrize("kind", sorted(FORMS))
def test_every_unmutated_document_exits_zero(kind):
    with tempfile.TemporaryDirectory(prefix="contract-") as tmp:
        for argv in _argvs(kind, json.dumps(DOCUMENTS[kind]), tmp):
            assert _run(argv)[0] == 0, argv


# Deeper than any recursion limit CPython sets by default.
DEEP = 100_000


def _file_cases(kind: str) -> dict[str, tuple[str | bytes, int]]:
    """Per name, the file contents of one file-level defect of the kind's
    document, and the exit code it gets."""
    doc = DOCUMENTS[kind]
    text = json.dumps(doc)
    first = json.dumps(next(iter(doc)))
    cases: dict[str, tuple[str | bytes, int]] = {
        "repeated-key": ("{%s: null, %s" % (first, text[1:]), 0),
        "nested-arrays": ("[" * DEEP + "]" * DEEP, 2),
        "nested-objects": ('{"a": ' * DEEP + "null" + "}" * DEEP, 2),
        "invalid-utf8": (text.encode("utf-8").replace(b'"', b'"\xff', 1), 2),
        "utf8-bom": (codecs.BOM_UTF8 + text.encode("utf-8"), 2),
        "utf16": (text.encode("utf-16"), 2),
        "empty": ("", 2),
        "truncated": (text[: len(text) // 2], 2),
    }
    if kind == "preference":
        marked = copy.deepcopy(doc)
        marked["utilities"][0]["value"] = BIG
        for token in ("NaN", "Infinity", "-Infinity"):
            cases[token] = (json.dumps(marked).replace(json.dumps(BIG), token), 2)
        entry = json.dumps(doc["utilities"][0])
        repeated = text.replace(entry, '{"menu": null, ' + entry[1:], 1)
        cases["repeated-key-in-utility"] = (repeated, 0)
    return cases


FILE_CASES = [(kind, name) for kind in sorted(FORMS) for name in _file_cases(kind)]


@pytest.mark.parametrize("kind, name", FILE_CASES)
def test_a_damaged_file_keeps_the_exit_code_contract(kind, name):
    content, expected = _file_cases(kind)[name]
    with tempfile.TemporaryDirectory(prefix="contract-") as tmp:
        for argv in _argvs(kind, content, tmp):
            assert _check_contract(argv, os.path.join(tmp, "out.txt")) == expected, argv
