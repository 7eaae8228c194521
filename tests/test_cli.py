"""End-to-end command behavior: exit codes, payloads, files, determinism."""

import io
import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

import closureops
from closureops import (
    ChainCover,
    DoesNotRespect,
    FinitePoset,
    GroundSet,
    InvalidOrderRelation,
    NotAChain,
    NotClosed,
    NotIntersectionClosed,
    Topology,
    WitnessVerificationFailed,
    additive_representation,
    check_generation,
    cli,
    complexity,
    complexity_profile,
    generators,
    jsonio,
    kreps_representation,
    menus,
    to_dot,
)
from closureops import poset as poset_module
from closureops.cli import build_parser, main
from closureops.labeling import canonical_labeling, minimal_labeling
from conftest import (
    alice_preference,
    animals_labeling,
    animals_topology,
    bob_preference,
    chain_bits,
    crown_bits,
    crown_topology,
    random_weak_order,
    sum_of_maxes,
    fork_topology,
    ground,
    hasse_pairs,
    oracle_additive_doc,
    oracle_decomposition_doc,
    oracle_flat_doc,
    oracle_generation_doc,
    oracle_hasse_doc,
    oracle_kreps_doc,
    oracle_labeling_doc,
    oracle_mobius,
    oracle_mobius_doc,
    oracle_profile_doc,
    oracle_topology_doc,
    topo,
)


def _write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def _run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _table_doc(f):
    return {
        "elements": list(f.ground.elements),
        "map": [
            {"from": list(k.members()), "to": list(v.members())}
            for k, v in f.table().items()
        ],
    }


def _pref_doc(pref):
    g = pref.ground
    return {
        "elements": list(g.elements),
        "utilities": [
            {"menu": list(g.mask(bits).members()), "value": str(pref.values[bits])}
            for bits in range(1, g.full_bits + 1)
        ],
    }


BROKEN_TABLE = {
    "elements": ["a", "b"],
    "map": [
        {"from": [], "to": []},
        {"from": ["a"], "to": ["a"]},
        {"from": ["b"], "to": ["b"]},
        {"from": ["a", "b"], "to": ["a"]},  # drops b: not extensive
    ],
}


# ------------------------------------------------------------------ validate


def test_validate_accepts_a_closure_table(tmp_path, capsys):
    doc = _table_doc(fork_topology().operator())
    code, out, err = _run(capsys, "validate", "--table", _write(tmp_path, "t.json", doc))
    assert code == 0
    assert err == ""
    report = json.loads(out)
    assert report["ok"] is True
    assert report["summary"] == ["all closure axioms hold"]


def test_validate_rejects_a_broken_table_with_witnesses(tmp_path, capsys):
    path = _write(tmp_path, "t.json", BROKEN_TABLE)
    code, out, err = _run(capsys, "validate", "--table", path)
    assert code == 1
    assert "validation failed" in err
    report = json.loads(out)
    assert report["ok"] is False
    assert report["violations"]["extensivity"] == [["a", "b"]]


def test_validate_incomplete_table_is_malformed(tmp_path, capsys):
    doc = {"elements": ["a", "b"], "map": [{"from": [], "to": []}]}
    code, out, err = _run(capsys, "validate", "--table", _write(tmp_path, "t.json", doc))
    assert code == 2
    assert out == ""
    assert err.startswith("error:")


def test_unreadable_or_invalid_input_is_malformed(tmp_path, capsys):
    code, _, err = _run(capsys, "validate", "--table", str(tmp_path / "absent.json"))
    assert code == 2 and "error" in err
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    code, _, err = _run(capsys, "validate", "--table", str(bad))
    assert code == 2 and "invalid JSON" in err


def _malformed_json(path: Path, case: str) -> None:
    if case == "long-integer":  # beyond CPython's int-string limit
        text = '{"elements": ["a"], "utilities": [{"menu": ["a"], "value": %s}]}'
        path.write_text(text % ("7" * 5000), encoding="utf-8")
    elif case == "not-utf-8":
        path.write_bytes(b'{"elements": ["\xff"]}')
    else:
        path.write_text("[" * 100_000, encoding="utf-8")


@pytest.mark.parametrize("case", ["long-integer", "not-utf-8", "deep-nesting"])
def test_json_the_parser_cannot_take_is_malformed(tmp_path, capsys, case):
    path = tmp_path / "p.json"
    _malformed_json(path, case)
    code, out, err = _run(
        capsys, "menu-rep", "--preference", str(path), "--style", "kreps"
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "Traceback" not in err


def test_usage_errors_exit_with_code_two(capsys):
    for argv in ([], ["no-such-command"], ["validate"]):
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 2
        capsys.readouterr()


def test_help_exits_cleanly(capsys):
    with pytest.raises(SystemExit) as err:
        main(["--help"])
    assert err.value.code == 0
    assert "closureops" in capsys.readouterr().out


# ------------------------------------------------------------------ topology


def test_topology_from_table(tmp_path, capsys):
    doc = _table_doc(fork_topology().operator())
    code, out, _ = _run(
        capsys, "topology", "--from-table", _write(tmp_path, "t.json", doc)
    )
    assert code == 0
    assert json.loads(out) == oracle_topology_doc(fork_topology())


def test_topology_from_labels(tmp_path, capsys):
    path = _write(tmp_path, "lab.json", oracle_labeling_doc(animals_labeling()))
    code, out, _ = _run(capsys, "topology", "--from-labels", path)
    assert code == 0
    assert json.loads(out) == oracle_topology_doc(animals_topology())


def test_topology_from_malformed_labels_exits_2(tmp_path, capsys):
    # A repeated element, an element without labels and a "phi" key outside
    # "elements" are each rejected by the constructor that owns the check.
    cases = [
        ({"elements": ["a", "b", "a"], "labels": [], "phi": {"a": [], "b": []}},
         "duplicate element name 'a'"),
        ({"elements": ["a", "b"], "labels": [], "phi": {"a": []}},
         "no label set given for element 'b'"),
        ({"elements": ["a"], "labels": [], "phi": {"a": [], "q": []}},
         "element 'q' is not in the ground set"),
    ]
    for i, (doc, message) in enumerate(cases):
        path = _write(tmp_path, f"lab{i}.json", doc)
        code, out, err = _run(capsys, "topology", "--from-labels", path)
        assert code == 2, doc
        assert out == "" and err.startswith("error: ") and message in err, err


def test_topology_from_generators(tmp_path, capsys):
    doc = {
        "elements": ["a", "b", "c", "d"],
        "binary": [{"cutoff": ["a", "b"]}, {"cutoff": ["a", "c"]}],
    }
    path = _write(tmp_path, "gen.json", doc)
    code, out, _ = _run(capsys, "topology", "--from-generators", path)
    assert code == 0
    assert json.loads(out) == oracle_topology_doc(fork_topology())


def test_topology_sources_are_mutually_exclusive(tmp_path, capsys):
    path = _write(tmp_path, "t.json", {})
    with pytest.raises(SystemExit) as err:
        main(["topology", "--from-table", path, "--from-labels", path])
    assert err.value.code == 2
    capsys.readouterr()


def test_topology_from_broken_table_fails_mathematically(tmp_path, capsys):
    path = _write(tmp_path, "t.json", BROKEN_TABLE)
    code, out, err = _run(capsys, "topology", "--from-table", path)
    assert code == 1
    assert "error" in err
    assert json.loads(out)["ok"] is False  # the validation report is emitted


# -------------------------------------------------- complexity and decompose


def test_complexity_profile_payload(tmp_path, capsys):
    path = _write(tmp_path, "t.json", oracle_topology_doc(fork_topology()))
    code, out, _ = _run(capsys, "complexity", "--topology", path)
    assert code == 0
    expected = oracle_profile_doc(complexity_profile(fork_topology().operator()))
    assert json.loads(out) == expected


def test_complexity_rejects_a_non_intersection_closed_family(tmp_path, capsys):
    doc = {
        "elements": ["a", "b", "c"],
        "closed_sets": [[], ["a", "b"], ["b", "c"], ["a", "b", "c"]],
    }
    path = _write(tmp_path, "t.json", doc)
    code, out, err = _run(capsys, "complexity", "--topology", path)
    assert code == 1
    assert "error" in err
    assert "error" in json.loads(out)


def test_decompose_into_weak_orders(tmp_path, capsys):
    path = _write(tmp_path, "t.json", oracle_topology_doc(crown_topology()))
    code, out, _ = _run(capsys, "decompose", "--topology", path, "--kind", "weak-orders")
    assert code == 0
    payload = json.loads(out)
    assert payload["kind"] == "weak-orders"
    assert payload["count"] == 3
    assert payload["generators"] == [
        {"classes_worst_first": [["a"], ["b"], ["c"]]},
        {"classes_worst_first": [["b"], ["a", "c"]]},
        {"classes_worst_first": [["c"], ["a", "b"]]},
    ]
    assert payload["verification"]["generates"] is True
    assert payload["verification"]["pointwise_equal"] is True


def test_decompose_into_binary_classifiers(tmp_path, capsys):
    path = _write(tmp_path, "t.json", oracle_topology_doc(fork_topology()))
    code, out, _ = _run(capsys, "decompose", "--topology", path, "--kind", "binary")
    assert code == 0
    payload = json.loads(out)
    assert payload["count"] == 2
    assert payload["generators"] == [{"cutoff": ["a", "b"]}, {"cutoff": ["a", "c"]}]
    assert payload["verification"]["generates"] is True


def _record_checks(monkeypatch):
    """Every generation check a call runs, as (generator types, report)."""
    real_report, real_check = generators.GenerationReport, complexity.check_generation
    reports, checks = [], []

    def counted_report(*args, **kwargs):
        reports.append(real_report(*args, **kwargs))
        return reports[-1]

    def recorded_check(f, gens):
        report = real_check(f, gens)
        checks.append(({type(g) for g in gens}, report))
        return report

    monkeypatch.setattr(generators, "GenerationReport", counted_report)
    monkeypatch.setattr(complexity, "check_generation", recorded_check)
    return reports, checks


@pytest.mark.parametrize(
    "kind, generator_type",
    [("weak-orders", generators.WeakOrder), ("binary", generators.BinaryClassifier)],
)
def test_decompose_checks_only_the_printed_witness(
    tmp_path, capsys, monkeypatch, kind, generator_type
):
    # decompose runs the stage of its kind alone: one report is built, for
    # the printed generators, and it is the verification block.
    reports, checks = _record_checks(monkeypatch)
    path = _write(tmp_path, "t.json", oracle_topology_doc(crown_topology()))
    code, out, _ = _run(capsys, "decompose", "--topology", path, "--kind", kind)
    assert code == 0
    assert len(reports) == 1
    assert checks == [({generator_type}, reports[0])]
    assert json.loads(out)["verification"] == oracle_generation_doc(reports[0])


def test_menu_rep_kreps_checks_only_the_weak_order_witness(tmp_path, capsys, monkeypatch):
    reports, checks = _record_checks(monkeypatch)
    path = _write(tmp_path, "p.json", _pref_doc(bob_preference()))
    code, out, _ = _run(capsys, "menu-rep", "--preference", path, "--style", "kreps")
    assert code == 0
    assert len(reports) == 1
    assert checks == [({generators.WeakOrder}, reports[0])]
    assert reports[0].generates


# -------------------------------------------------------------------- labels


def test_labels_canonical_and_minimal(tmp_path, capsys):
    path = _write(tmp_path, "t.json", oracle_topology_doc(fork_topology()))
    f = fork_topology().operator()
    code, out, _ = _run(capsys, "labels", "--topology", path, "--canonical")
    assert code == 0
    assert json.loads(out) == oracle_labeling_doc(canonical_labeling(f))
    code, out, _ = _run(capsys, "labels", "--topology", path, "--minimal")
    assert code == 0
    assert json.loads(out) == oracle_labeling_doc(minimal_labeling(f))
    with pytest.raises(SystemExit):
        main(["labels", "--topology", path, "--canonical", "--minimal"])
    capsys.readouterr()


# Two members of B(f), {a,b} and {"a,b"}, whose set notations are both "{a,b}".
COMMA_NAMED = {
    "elements": ["a", "b", "a,b"],
    "closed_sets": [[], ["a", "b"], ["a,b"], ["a", "b", "a,b"]],
}


def test_labels_minimal_names_colliding_labels_apart(tmp_path, capsys):
    path = _write(tmp_path, "t.json", COMMA_NAMED)
    code, out, err = _run(capsys, "labels", "--topology", path, "--minimal")
    assert code == 0 and err == ""
    doc = json.loads(out)
    assert doc["labels"] == ['["a", "b"]', '["a,b"]']
    assert jsonio.labeling_from(doc).classifier() == jsonio.topology_from(COMMA_NAMED)
    labels = _write(tmp_path, "labels.json", doc)
    code, out, _ = _run(capsys, "topology", "--from-labels", labels)
    assert code == 0
    assert json.loads(out) == COMMA_NAMED


# ------------------------------------------------------------------ menu-rep


def test_menu_rep_kreps_for_bob(tmp_path, capsys):
    path = _write(tmp_path, "p.json", _pref_doc(bob_preference()))
    code, out, _ = _run(capsys, "menu-rep", "--preference", path, "--style", "kreps")
    assert code == 0
    payload = json.loads(out)
    expected = oracle_kreps_doc(kreps_representation(bob_preference()))
    expected["verification"] = {
        "axioms_ok": True,
        "signature_sound": True,
        "represents_preference": True,
        "menus_checked": 7,
    }
    assert payload == expected


def test_menu_rep_kreps_rejects_an_operator_argument(tmp_path, capsys):
    pref = _write(tmp_path, "p.json", _pref_doc(bob_preference()))
    top = _write(tmp_path, "t.json", oracle_topology_doc(fork_topology()))
    code, out, err = _run(
        capsys,
        "menu-rep", "--preference", pref, "--style", "kreps", "--operator", top,
    )
    assert code == 2
    assert out == "" and "error" in err


def test_menu_rep_kreps_refuses_an_operator_before_reading_the_preference(
    tmp_path, capsys
):
    top = _write(tmp_path, "t.json", oracle_topology_doc(fork_topology()))
    missing = str(tmp_path / "missing.json")
    code, out, err = _run(
        capsys,
        "menu-rep", "--preference", missing, "--style", "kreps", "--operator", top,
    )
    assert code == 2
    assert out == "" and err == "error: --operator only applies to --style additive\n"


def test_menu_rep_additive_defaults_to_the_kreps_operator(tmp_path, capsys):
    path = _write(tmp_path, "p.json", _pref_doc(alice_preference()))
    code, out, _ = _run(capsys, "menu-rep", "--preference", path, "--style", "additive")
    assert code == 0
    payload = json.loads(out)
    assert payload["style"] == "additive"
    assert payload["state_count"] == 6
    assert payload["verification"]["exact_reproduction"] is True


def test_menu_rep_additive_with_an_explicit_operator(tmp_path, capsys):
    g = ground("xyz")
    pref = _write(tmp_path, "p.json", _pref_doc(alice_preference()))
    # The identity operator is respected by every preference.
    identity = topo(g, "", "x", "y", "z", "xy", "xz", "yz", "xyz")
    top = _write(tmp_path, "t.json", oracle_topology_doc(identity))
    code, out, _ = _run(
        capsys,
        "menu-rep", "--preference", pref, "--style", "additive", "--operator", top,
    )
    assert code == 0
    assert json.loads(out)["state_count"] == 14


def test_menu_rep_additive_reports_disrespected_operators(tmp_path, capsys):
    g = ground("xyz")
    pref = _write(tmp_path, "p.json", _pref_doc(alice_preference()))
    top = _write(tmp_path, "t.json", oracle_topology_doc(topo(g, "", "xyz")))
    code, out, err = _run(
        capsys,
        "menu-rep", "--preference", pref, "--style", "additive", "--operator", top,
    )
    assert code == 1
    assert "error" in err
    payload = json.loads(out)
    assert payload["witness"] == ["y"]


def test_menu_rep_additive_reads_an_operator_table_as_its_topology(tmp_path, capsys):
    # An operator table and the topology of the same operator give the same
    # bytes and exit code, also when the preference does not respect it.
    g = ground("ab")
    preference = {
        "elements": ["a", "b"],
        "utilities": [
            {"menu": ["a"], "value": "1"},
            {"menu": ["b"], "value": "1/2"},
            {"menu": ["a", "b"], "value": "1"},
        ],
    }
    cases = [
        (preference, topo(g, "", "b", "ab"), 0),  # the preference's Kreps operator
        (preference, topo(g, "", "a", "b", "ab"), 0),
        (preference, topo(g, "", "ab"), 1),
        (_pref_doc(alice_preference()), menus.kreps_operator(alice_preference()), 0),
    ]
    for i, (pref_doc, t, expected) in enumerate(cases):
        pref = _write(tmp_path, f"p{i}.json", pref_doc)
        table = _write(tmp_path, f"table{i}.json", _table_doc(t.operator()))
        top = _write(tmp_path, f"top{i}.json", oracle_topology_doc(t))
        outputs = []
        for operator in (table, top):
            code, out, _ = _run(
                capsys,
                "menu-rep", "--preference", pref, "--style", "additive",
                "--operator", operator,
            )
            assert code == expected
            outputs.append(out)
        assert outputs[0] == outputs[1]


def test_menu_rep_rejects_an_operator_document_of_neither_kind(tmp_path, capsys):
    pref = _write(tmp_path, "p.json", _pref_doc(bob_preference()))
    neither = _write(tmp_path, "neither.json", {"elements": ["x", "y", "z"]})
    code, out, err = _run(
        capsys,
        "menu-rep", "--preference", pref, "--style", "additive", "--operator", neither,
    )
    assert code == 2
    assert out == ""
    assert err == (
        f'error: {neither} holds neither an operator table ("map") nor a '
        f'topology ("closed_sets")\n'
    )


def test_additive_self_check_failure_is_an_internal_error(tmp_path, capsys, monkeypatch):
    # Weights off S(f) mean U does not respect f; a respects() that says it
    # does contradicts the transform, which is a failed self-check.
    monkeypatch.setattr(menus, "respects", lambda preference, f: (True, None))
    pref = _write(tmp_path, "p.json", _pref_doc(alice_preference()))
    top = _write(tmp_path, "t.json", oracle_topology_doc(topo(ground("xyz"), "", "xyz")))
    code, out, err = _run(
        capsys,
        "menu-rep", "--preference", pref, "--style", "additive", "--operator", top,
    )
    message = "weights off S(f) although U respects f"
    assert code == 3
    assert err == f"internal error: {message}\n"
    assert json.loads(out) == {"error": message, "internal": True}


def test_menu_rep_rejects_axiom_violations_with_a_report(tmp_path, capsys):
    doc = {
        "elements": ["a", "b"],
        "utilities": [
            {"menu": ["a"], "value": 1},
            {"menu": ["b"], "value": 0},
            {"menu": ["a", "b"], "value": 0},
        ],
    }
    path = _write(tmp_path, "p.json", doc)
    code, out, err = _run(capsys, "menu-rep", "--preference", path, "--style", "kreps")
    assert code == 1
    assert "error" in err
    payload = json.loads(out)
    assert payload["ok"] is False
    assert payload["flexibility_witnesses"] == [
        {"menu": ["a", "b"], "submenu": ["a"]}
    ]


def test_oversized_rational_is_malformed_and_rejected_quickly(tmp_path, capsys):
    doc = _pref_doc(alice_preference())
    doc["utilities"][0]["value"] = "1e1000000"
    path = _write(tmp_path, "p.json", doc)
    start = time.perf_counter()
    code, out, err = _run(capsys, "menu-rep", "--preference", path, "--style", "kreps")
    assert time.perf_counter() - start < 0.1
    assert code == 2
    assert out == "" and "error" in err


def test_internal_verification_failure_exits_3_with_an_error_document(
    tmp_path, capsys, monkeypatch
):
    def planted(*args):
        raise WitnessVerificationFailed("planted failure")

    monkeypatch.setattr(menus, "_check_ranks", planted)
    path = _write(tmp_path, "p.json", _pref_doc(bob_preference()))
    code, out, err = _run(capsys, "menu-rep", "--preference", path, "--style", "kreps")
    assert code == 3
    assert "internal error" in err and "planted failure" in err
    assert json.loads(out) == {"error": "planted failure", "internal": True}


@pytest.mark.parametrize(
    "error, owner, name, command",
    [
        (NotAChain, complexity, "_chain_classes", "complexity"),
        (InvalidOrderRelation, FinitePoset, "upper_cover_indices", "hasse"),
        (NotClosed, FinitePoset, "mobius_walk", "mobius"),
    ],
)
def test_errors_no_input_raises_exit_3_with_an_error_document(
    tmp_path, capsys, monkeypatch, error, owner, name, command
):
    # These exceptions come only from a bug, so they must not share exit 1
    # with invalid input.
    def planted(*args):
        raise error("planted bug")

    monkeypatch.setattr(owner, name, planted)
    path = _write(tmp_path, "t.json", oracle_topology_doc(crown_topology()))
    code, out, err = _run(capsys, command, "--topology", path)
    message = f"{error.__name__}: planted bug"
    assert code == 3
    assert err == f"internal error: {message}\n"
    assert json.loads(out) == {"error": message, "internal": True}


def test_any_other_exception_exits_3_naming_its_type(tmp_path, capsys, monkeypatch):
    def planted(*args):
        raise RuntimeError("planted bug")

    monkeypatch.setattr(complexity, "_width", planted)
    path = _write(tmp_path, "t.json", oracle_topology_doc(crown_topology()))
    code, out, err = _run(capsys, "complexity", "--topology", path)
    assert code == 3
    assert err == "internal error: RuntimeError: planted bug\n"
    assert json.loads(out) == {"error": "RuntimeError: planted bug", "internal": True}


def test_a_broken_width_certificate_exits_3(tmp_path, capsys, monkeypatch):
    matched_cover = complexity._matched_cover

    def broken(items, up, links):
        cover = matched_cover(items, up, links)
        return ChainCover(chains=cover.chains, antichain=cover.antichain[1:])

    monkeypatch.setattr(complexity, "_matched_cover", broken)
    path = _write(tmp_path, "t.json", oracle_topology_doc(crown_topology()))
    code, out, err = _run(capsys, "complexity", "--topology", path)
    assert code == 3
    message = "chain cover and antichain certificate disagree (3 chains vs 2 antichain items)"
    assert err == f"internal error: {message}\n"
    assert json.loads(out) == {"error": message, "internal": True}


def test_stdout_is_identical_under_different_hash_seeds(tmp_path):
    g = ground("vwxyz")
    rng = random.Random(5)
    valid = sum_of_maxes(g, [random_weak_order(rng, g) for _ in range(3)])
    invalid_doc = _pref_doc(valid)
    invalid_doc["utilities"][0]["value"] = "100"  # {v} beats its supersets
    files = {
        "valid": _write(tmp_path, "valid.json", _pref_doc(valid)),
        "invalid": _write(tmp_path, "invalid.json", invalid_doc),
        "crown": _write(tmp_path, "crown.json", oracle_topology_doc(crown_topology())),
    }
    calls = [
        (["menu-rep", "--preference", files["valid"], "--style", "kreps"], 0),
        (["menu-rep", "--preference", files["valid"], "--style", "additive"], 0),
        (["menu-rep", "--preference", files["invalid"], "--style", "kreps"], 1),
        (["complexity", "--topology", files["crown"]], 0),
    ]
    src = str(Path(closureops.__file__).resolve().parents[1])
    outputs = {}
    for hash_seed in ("1", "4242"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        for i, (argv, expected_code) in enumerate(calls):
            done = subprocess.run(
                [sys.executable, "-m", "closureops.cli", *argv],
                env=env, capture_output=True, timeout=60,
            )
            assert done.returncode == expected_code and done.stdout
            outputs.setdefault(i, set()).add(done.stdout)
    assert all(len(seen) == 1 for seen in outputs.values())


# ----------------------------------------------------------- mobius and hasse


def test_mobius_payload(tmp_path, capsys):
    t = topo(ground("ab"), "", "a", "ab")
    path = _write(tmp_path, "t.json", oracle_topology_doc(t))
    code, out, _ = _run(capsys, "mobius", "--topology", path)
    assert code == 0
    payload = json.loads(out)
    assert payload["entries"][1] == {"from": [], "to": ["a"], "mu": -1}
    assert len(payload["entries"]) == 6


def test_mobius_command_writes_its_report_from_the_walk(
    tmp_path, capsys, monkeypatch, routes
):
    n = 10
    discrete = Topology(GroundSet(tuple(f"e{i}" for i in range(n))), range(1 << n))
    expected = _dumps(oracle_mobius_doc(discrete, oracle_mobius(discrete)))
    path = _write(tmp_path, "t.json", oracle_topology_doc(discrete))

    def refuse(*args):
        raise AssertionError("a Möbius table was built")

    monkeypatch.setattr(poset_module, "MobiusTable", refuse)
    monkeypatch.setattr(FinitePoset, "mobius", refuse)
    reads = []
    tabulate = Topology.tabulate_bits

    def counted(self):
        reads.append(self)
        return tabulate(self)

    monkeypatch.setattr(Topology, "tabulate_bits", counted)
    kinds = set()
    walk = poset_module._rota_walk

    def typed(*args):
        for above, corrections in walk(*args):
            kinds.add((type(above), type(corrections), len(corrections)))
            yield above, corrections

    monkeypatch.setattr(poset_module, "_rota_walk", typed)
    code, out, _ = _run(capsys, "mobius", "--topology", path)
    assert code == 0
    assert out == expected
    assert routes == {"_rota_walk": 1}
    assert len(reads) == 1
    assert kinds == {(list, list, 0)}


def test_hasse_json_payload(tmp_path, capsys):
    path = _write(tmp_path, "t.json", oracle_topology_doc(animals_topology()))
    code, out, _ = _run(capsys, "hasse", "--topology", path)
    assert code == 0
    payload = json.loads(out)
    assert len(payload["edges"]) == 12
    assert payload["edges"][0] == {"lower": [], "upper": ["a"]}


def test_hasse_dot_output_is_exact(tmp_path, capsys):
    t = topo(ground("ab"), "", "a", "ab")
    path = _write(tmp_path, "t.json", oracle_topology_doc(t))
    code, out, _ = _run(capsys, "hasse", "--topology", path, "--dot")
    assert code == 0
    assert out == (
        "digraph hasse {\n"
        "  rankdir=BT;\n"
        '  n0 [label="∅"];\n'
        '  n1 [label="{a}"];\n'
        '  n2 [label="{a,b}"];\n'
        "  n0 -> n1;\n"
        "  n1 -> n2;\n"
        "}\n"
    )


# ---------------------------------------------------------------- report bytes

# Element names that stress escaping: a quote, a backslash, a newline, a raw
# line separator, and the template sequence "%s".
AWKWARD = ("a\"", "b\\", "c\n", "é\u2028", "%s")


def _dumps(doc) -> str:
    return json.dumps(doc, indent=2, ensure_ascii=False) + "\n"


def test_every_report_is_json_dumps_of_its_document(tmp_path, capsys, monkeypatch):
    g = ground(AWKWARD)
    t = Topology(g, [0, 0b1, 0b11, 0b101, 0b11111])
    f = t.operator()
    poset = FinitePoset.from_topology(t)
    profile = complexity_profile(f)
    binary = profile.binary_witness
    check = check_generation(f, [b.operator() for b in binary])
    pref = sum_of_maxes(g, [random_weak_order(random.Random(i), g) for i in range(2)])
    top = _write(tmp_path, "t.json", oracle_topology_doc(t))
    pref_path = _write(tmp_path, "p.json", _pref_doc(pref))
    kreps = kreps_representation(pref)
    additive = additive_representation(pref, menus.kreps_operator(pref))
    menus_checked = g.full_bits
    expected = [
        (["complexity", "--topology", top], oracle_profile_doc(profile)),
        (["mobius", "--topology", top], oracle_mobius_doc(t, oracle_mobius(t))),
        (["hasse", "--topology", top], oracle_hasse_doc(t, hasse_pairs(poset))),
        (["labels", "--topology", top, "--minimal"],
         oracle_labeling_doc(minimal_labeling(f))),
        (["decompose", "--topology", top, "--kind", "binary"],
         oracle_decomposition_doc(g, "binary", binary, check)),
        (["menu-rep", "--preference", pref_path, "--style", "kreps"],
         {**oracle_kreps_doc(kreps), "verification": {
             "axioms_ok": True, "signature_sound": True,
             "represents_preference": True, "menus_checked": menus_checked}}),
        (["menu-rep", "--preference", pref_path, "--style", "additive"],
         {**oracle_additive_doc(additive), "verification": {
             "respects_operator": True, "exact_reproduction": True,
             "menus_checked": menus_checked}}),
    ]
    for argv, doc in expected:
        code, out, _ = _run(capsys, *argv)
        assert code == 0, argv
        assert out == _dumps(doc), argv
    code, out, _ = _run(capsys, "hasse", "--topology", top, "--dot")
    assert code == 0 and out == to_dot(poset)

    # The error documents of exit codes 1 and 3.
    coarse = Topology(g, [0, g.full_bits])
    trivial = _write(tmp_path, "trivial.json", oracle_topology_doc(coarse))
    with pytest.raises(DoesNotRespect) as refused:
        additive_representation(pref, coarse.operator())
    broken = {"elements": list(AWKWARD),
              "closed_sets": [[], list(AWKWARD[:2]), list(AWKWARD[1:3]), list(AWKWARD)]}
    with pytest.raises(NotIntersectionClosed) as not_closed:
        jsonio.topology_from(broken)
    failures = [
        (["menu-rep", "--preference", pref_path, "--style", "additive",
          "--operator", trivial],
         {"error": str(refused.value), "witness": refused.value.witness}),
        (["complexity", "--topology", _write(tmp_path, "broken.json", broken)],
         {"error": str(not_closed.value)}),
    ]
    for argv, fields in failures:
        code, out, _ = _run(capsys, *argv)
        assert code == 1, argv
        assert out == _dumps(oracle_flat_doc(fields)), argv

    def planted(*args):
        raise WitnessVerificationFailed("planted \"%s\" failure \u2028 in " + AWKWARD[1])

    monkeypatch.setattr(menus, "_check_ranks", planted)
    code, out, _ = _run(capsys, "menu-rep", "--preference", pref_path, "--style", "kreps")
    assert code == 3
    assert out == _dumps({"error": "planted \"%s\" failure \u2028 in b\\", "internal": True})


LONE_SURROGATE = {
    "elements": ["a", "\ud800"],
    "closed_sets": [[], ["a"], ["a", "\ud800"]],
}


@pytest.mark.parametrize("to_file", [False, True], ids=["stdout", "out-file"])
def test_a_name_utf8_cannot_encode_is_malformed(tmp_path, capsys, to_file):
    path = _write(tmp_path, "t.json", LONE_SURROGATE)
    target = tmp_path / "report.json"
    argv = ["--out", str(target)] if to_file else []
    code, out, err = _run(capsys, *argv, "complexity", "--topology", path)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "UTF-8" in err
    assert not target.exists()


def test_one_parser_serves_every_call_without_leaking_arguments(
    tmp_path, capsys, monkeypatch
):
    built = []

    def counting_build_parser():
        built.append(1)
        return build_parser()

    monkeypatch.setattr(cli, "_parser", None)
    monkeypatch.setattr(cli, "build_parser", counting_build_parser)
    top = _write(tmp_path, "t.json", oracle_topology_doc(fork_topology()))
    pref = _write(tmp_path, "p.json", _pref_doc(bob_preference()))
    target = tmp_path / "report.json"
    with pytest.raises(SystemExit) as err:
        main(["--out", str(target), "complexity"])  # --topology is missing
    assert err.value.code == 2
    assert not target.exists()
    capsys.readouterr()
    code, out, _ = _run(capsys, "--out", str(target), "complexity", "--topology", top)
    assert code == 0 and out == ""
    written = target.read_text(encoding="utf-8")
    target.unlink()
    code, out, _ = _run(capsys, "complexity", "--topology", top)
    assert code == 0 and out == written  # the previous --out is gone
    assert not target.exists()
    code, out, _ = _run(capsys, "menu-rep", "--preference", pref, "--style", "kreps")
    assert code == 0 and json.loads(out)["style"] == "kreps"
    code, dot, _ = _run(capsys, "hasse", "--topology", top, "--dot")
    code, out, _ = _run(capsys, "hasse", "--topology", top)
    assert dot.startswith("digraph") and json.loads(out)["edges"]  # --dot is gone
    assert len(built) == 1
    assert build_parser() is not build_parser()


# ------------------------------------------------------- output file handling


def test_out_flag_writes_the_same_bytes_as_stdout(tmp_path, capsys):
    fork = _write(tmp_path, "t.json", oracle_topology_doc(fork_topology()))
    g = GroundSet(tuple(f"e{i}" for i in range(10)))
    discrete = _write(tmp_path, "d.json", oracle_topology_doc(Topology(g, range(1 << 10))))
    # The discrete mobius and hasse reports run to megabytes; the report and
    # its newline are written separately, to stdout as to --out.
    for command, src in (("complexity", fork), ("mobius", discrete), ("hasse", discrete)):
        code, out, _ = _run(capsys, command, "--topology", src)
        assert code == 0
        assert out.endswith("}\n")  # exactly one newline after the report
        first = tmp_path / "one.json"
        second = tmp_path / "two.json"
        for target in (first, second):
            code, piped, _ = _run(
                capsys, "--out", str(target), command, "--topology", src
            )
            assert code == 0
            assert piped == ""  # --out diverts the report
        assert first.read_bytes() == second.read_bytes() == out.encode("utf-8")


def test_out_flag_also_captures_failure_reports(tmp_path, capsys):
    table = _write(tmp_path, "t.json", BROKEN_TABLE)
    target = tmp_path / "report.json"
    code, out, _ = _run(
        capsys, "--out", str(target), "validate", "--table", table
    )
    assert code == 1
    assert out == ""
    assert json.loads(target.read_text(encoding="utf-8"))["ok"] is False


def test_a_stdout_that_cannot_encode_a_name_exits_2(tmp_path, capsys, monkeypatch):
    doc = {"elements": ["é", "b"], "closed_sets": [[], ["é", "b"]]}
    path = _write(tmp_path, "t.json", doc)
    written = io.BytesIO()
    monkeypatch.setattr(sys, "stdout", io.TextIOWrapper(written, encoding="ascii"))
    code = main(["complexity", "--topology", path])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: cannot write the report: ")
    assert written.getvalue() == b""


@pytest.mark.parametrize(
    "argv, doc",
    [
        (["complexity", "--topology"], oracle_topology_doc(fork_topology())),
        (["validate", "--table"], BROKEN_TABLE),
    ],
    ids=["success", "math-failure"],
)
def test_out_flag_to_an_unwritable_path_is_malformed(tmp_path, capsys, argv, doc):
    src = _write(tmp_path, "t.json", doc)
    target = tmp_path / "missing" / "report.json"
    code, out, err = _run(capsys, "--out", str(target), *argv, src)
    assert code == 2
    assert out == ""
    assert err.splitlines()[-1].startswith("error: cannot write the report:")
    assert not target.parent.exists()


# ------------------------------------------------------------ large ground sets


def _closed_sets_of_extents(extents, full):
    family = {full}
    for extent in extents:
        family |= {extent & other for other in family}
    return family | {0}


def _topology_file(tmp_path, capsys, family, n):
    names = [f"e{i:02d}" for i in range(n)]
    if family == "chain":
        bits = chain_bits(random.Random(n), n)
    elif family == "crown":
        bits = crown_bits(n)
    else:  # a random labeling, closed through `topology --from-labels`
        rng = random.Random(n)
        extents = [rng.getrandbits(n) for _ in range(n)]
        labels = [f"l{j}" for j in range(n)]
        doc = {
            "elements": names,
            "labels": labels,
            "phi": {
                name: [labels[j] for j, e in enumerate(extents) if e >> i & 1]
                for i, name in enumerate(names)
            },
        }
        path = _write(tmp_path, "labels.json", doc)
        code, out, _ = _run(capsys, "topology", "--from-labels", path)
        assert code == 0
        bits = _closed_sets_of_extents(extents, (1 << n) - 1)
        closed = json.loads(out)["closed_sets"]
        assert {sum(1 << names.index(x) for x in c) for c in closed} == bits
        return _write(tmp_path, "t.json", json.loads(out)), len(bits)
    doc = {
        "elements": names,
        "closed_sets": [[x for i, x in enumerate(names) if b >> i & 1] for b in bits],
    }
    return _write(tmp_path, "t.json", doc), len(bits)


@pytest.mark.parametrize("family, n", [("chain", 20), ("crown", 18), ("labeling", 18)])
def test_complexity_and_decompose_on_large_ground_sets(tmp_path, capsys, family, n):
    path, closed = _topology_file(tmp_path, capsys, family, n)
    code, out, _ = _run(capsys, "complexity", "--topology", path)
    assert code == 0
    profile = json.loads(out)
    assert profile["class_count"] == closed - 1
    if family == "chain":
        assert profile["mnwo"] == 1 and profile["width_s"] == 1
    if family == "crown":
        assert profile["mnwo"] == profile["mnbc"] == profile["width_s"] == n
        assert profile["depth_s"] == 3
    for kind, measure in (("weak-orders", "mnwo"), ("binary", "mnbc")):
        code, out, _ = _run(capsys, "decompose", "--topology", path, "--kind", kind)
        assert code == 0
        report = json.loads(out)
        assert report["count"] == profile[measure]
        assert report["verification"]["generates"] is True
        assert report["verification"]["pointwise_equal"] is True
