"""Output checks for benchmark calls.

:func:`summarize` runs in ``run.py`` on a report the worker saved, outside
the timed region and outside the worker's memory: it reduces a report to
the few facts the corpus predicts (counts, flags, a fingerprint of a
closed-set family, whether a planted witness is listed).  :func:`verify`
compares those facts with the call's ``expect``.
"""

from __future__ import annotations

import json

from corpus import closed_key


def _bits(names: list[str], index: dict[str, int]) -> int:
    return sum(1 << index[name] for name in names)


def _witness_listed(doc: dict, hint: dict) -> bool:
    """Whether a failure report lists the witness the corpus planted.

    Hints name subsets by their members in ground-set order, as reports do.
    """
    if "extensivity" in hint:
        return hint["extensivity"] in doc.get("violations", {}).get("extensivity", [])
    if "flexibility" in hint:
        return any([w["menu"], w["submenu"]] == hint["flexibility"]
                   for w in doc.get("flexibility_witnesses", []))
    if "submodularity" in hint:
        return any([w["a"], w["b"], w["c"]] == hint["submodularity"]
                   for w in doc.get("submodularity_witnesses", []))
    return False


def summarize(argv: list[str], code: int, text: str, hint: dict | None) -> dict:
    """The facts of one report that the corpus can predict."""
    facts: dict = {"code": code}
    try:
        doc = json.loads(text)
    except ValueError:
        facts["unparsable"] = True
        return facts
    if not isinstance(doc, dict):
        return facts
    if "error" in doc:
        facts["error"] = True
    index = {name: i for i, name in enumerate(doc.get("elements", []))}
    command = argv[0]
    if command == "topology" and "closed_sets" in doc:
        facts["closed_key"] = closed_key([_bits(m, index) for m in doc["closed_sets"]])
    for key in ("mnwo", "mnbc", "width_s", "depth_s", "class_count", "count",
                "state_count", "ok"):
        if key in doc:
            facts[key] = doc[key]
    if "verification" in doc and command == "decompose":
        facts["generates"] = doc["verification"]["generates"]
        facts["pointwise_equal"] = doc["verification"]["pointwise_equal"]
    if "edges" in doc:
        facts["edges"] = len(doc["edges"])
    if "entries" in doc:
        facts["entries"] = len(doc["entries"])
    if "aggregator" in doc:
        facts["aggregator"] = len(doc["aggregator"])
    if command == "labels":
        facts["label_count"] = len(doc["labels"])
    if hint:
        facts["witness"] = _witness_listed(doc, hint)
    return facts


def verify(call: dict, facts: dict, by_id: dict[str, dict]) -> list[str]:
    """Mismatches between a call's expected facts and what its report shows.

    An expected value ``{"ref": id, "key": k}`` must equal fact ``k`` of the
    earlier call ``id``.
    """
    problems = []
    for key, want in call["expect"].items():
        if isinstance(want, dict):
            want = by_id.get(want["ref"], {}).get(want["key"], "<missing>")
        got = facts.get(key, "<missing>")
        if got != want:
            problems.append(f"{call['id']}: {key} = {got!r}, expected {want!r}")
    return problems
