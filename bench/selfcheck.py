"""Self-checks for the benchmark's own code.

    python3 bench/selfcheck.py

Run from the repository root; exits 1 if any check fails.  It checks that

* the same seed writes byte-identical corpus files;
* generated menu preferences satisfy the two menu axioms, and the planted
  invalid ones violate them at the planted witness (brute force, n <= 5
  for the valid ones);
* dense-family inputs meet their |S| promise;
* traced spans nest, and over each call their self times plus bookkeeping
  add up to the call's wall time;
* the metric names in BENCHMARK.json are the ones ``run.py`` prints;
* compare.py gives the four verdicts on constructed inputs.
"""

from __future__ import annotations

import filecmp
import json
import os
import shutil
import sys
from fractions import Fraction

import corpus as corpora
import run
import spans
from compare import verdict

WORK = os.path.join(run.WORK, "selfcheck")
failures: list[str] = []


def expect(condition: bool, message: str) -> None:
    print(("ok    " if condition else "FAIL  ") + message)
    if not condition:
        failures.append(message)


def check_reproducible() -> None:
    for workload in corpora.WORKLOADS:
        a, b = os.path.join(WORK, "a"), os.path.join(WORK, "b")
        first = corpora.build(workload, 7, a).calls
        second = corpora.build(workload, 7, b).calls
        files = sorted(os.listdir(a))
        same = files == sorted(os.listdir(b)) and all(
            filecmp.cmp(os.path.join(a, f), os.path.join(b, f), shallow=False) for f in files
        )
        calls_same = json.dumps(first).replace(a, b) == json.dumps(second)
        expect(same and calls_same, f"{workload}: seed 7 writes byte-identical files and calls")
        c = os.path.join(WORK, "c")
        corpora.build(workload, 8, c)
        differ = sorted(os.listdir(c)) != files or not all(
            filecmp.cmp(os.path.join(a, f), os.path.join(c, f), shallow=False) for f in files
        )
        expect(differ, f"{workload}: seed 8 writes a different corpus")
        for directory in (a, b, c):
            shutil.rmtree(directory)


def utilities(path: str) -> tuple[int, dict[int, Fraction]]:
    with open(path, encoding="utf-8") as handle:
        doc = json.load(handle)
    index = {name: i for i, name in enumerate(doc["elements"])}
    values = {
        sum(1 << index[x] for x in entry["menu"]): Fraction(entry["value"])
        for entry in doc["utilities"]
    }
    return len(index), values


def axioms_hold(n: int, values: dict[int, Fraction]) -> tuple[bool, bool]:
    """Flexibility and ordinal submodularity, straight from the definitions."""
    full = (1 << n) - 1
    flexible = all(
        values[b] <= values[a]
        for a in range(1, full + 1) for b in range(1, full + 1) if b & ~a == 0
    )
    submodular = all(
        values[a | b | c] == values[a | c]
        for a in range(1, full + 1) for b in range(full + 1) if values[a | b] == values[a]
        for c in range(full + 1)
    )
    return flexible, submodular


def check_preferences() -> None:
    directory = os.path.join(WORK, "menu")
    calls = corpora.build("menu-prefs", 3, directory).calls
    checked = set()
    for call in calls:
        path = call["argv"][2]
        if path in checked:
            continue
        checked.add(path)
        n, values = utilities(path)
        if call["expect"]["code"] == 0:
            if n <= 5:
                expect(axioms_hold(n, values) == (True, True),
                       f"{call['id']}: preference satisfies both axioms")
            continue
        flexible, submodular = axioms_hold(n, values)
        hint = call["hint"]
        names = corpora.elements(n)
        bits = lambda members: sum(1 << names.index(x) for x in members)  # noqa: E731
        if "flexibility" in hint:
            a, b = (bits(m) for m in hint["flexibility"])
            planted = b & ~a == 0 and values[b] > values[a]
            expect(planted and not flexible, f"{call['id']}: flexibility fails at the plant")
        else:
            a, b, c = (bits(m) for m in hint["submodularity"])
            planted = values[a | b] == values[a] and values[a | b | c] != values[a | c]
            expect(planted and flexible and not submodular,
                   f"{call['id']}: only submodularity fails, at the plant")
    shutil.rmtree(directory)


def check_dense_promise() -> None:
    directory = os.path.join(WORK, "dense")
    calls = corpora.build("dense-lattice", 3, directory).calls
    for call in calls:
        if not call["id"].endswith("/complexity") or call["expect"]["code"] != 0:
            continue
        with open(call["argv"][2], encoding="utf-8") as handle:
            doc = json.load(handle)
        n, size = len(doc["elements"]), len(doc["closed_sets"])
        if call["id"].startswith("discrete"):
            ok = size == 1 << n
        else:
            low, high = corpora.DENSE_BAND
            ok = low * (1 << n) <= size < high * (1 << n)
        expect(ok, f"{call['id']}: |S| = {size} meets the promise for n = {n}")
    shutil.rmtree(directory)


def check_spans() -> None:
    """A few calls of every workload through a traced worker."""
    session_calls = []
    for workload in corpora.WORKLOADS:
        calls = corpora.build(workload, 5, os.path.join(WORK, workload)).calls
        session_calls += [c for c in calls if c["expect"]["code"] == 0][:6] + [
            c for c in calls if c["expect"]["code"] == 1
        ][:2]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(run.ROOT, "src")
    worker = run.Worker(env, trace=True)
    try:
        for call in session_calls:
            reply = worker.call(call, 60, False)
            expect(reply is not None and reply["nested"], f"{call['id']}: spans nest")
            expect(reply is not None and abs(reply["residual_s"]) < run.RESIDUAL_TOLERANCE_S,
                   f"{call['id']}: self times + bookkeeping = wall "
                   f"(residual {reply and reply['residual_s']:.2e} s)")
        layers = worker.close()["layers"]
    finally:
        worker.kill()
    total_self = sum(layers["self_s"].values())
    gap = layers["wall_s"] - total_self
    expect(0 <= gap <= layers["bookkeeping_s"] + 1e-3,
           f"self times sum to traced wall within the bookkeeping "
           f"({gap * 1e3:.2f} ms <= {layers['bookkeeping_s'] * 1e3:.2f} ms)")
    for workload in corpora.WORKLOADS:
        shutil.rmtree(os.path.join(WORK, workload))


def check_declared_metrics() -> None:
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    declared = [(m["name"], m["unit"]) for m in spec["per_layer"]]
    expect(declared == list(spans.PER_LAYER), "BENCHMARK.json per_layer = traced metrics")
    names = {m["name"] for m in spec["end_to_end"]}
    printed = {"calls_per_s", "call_p50_ms", "call_p90_ms", "peak_rss_mb", "envelope_n",
               "setup_s"}
    expect(names == printed, "BENCHMARK.json end_to_end = untraced metrics")
    expect([w["name"] for w in spec["workloads"]] == list(corpora.WORKLOADS),
           "BENCHMARK.json workloads = corpus workloads")


def check_verdicts() -> None:
    parent = [100, 101, 99, 100, 102, 98, 100, 101, 99, 100]
    cases = {
        "improved": [80 + i % 3 for i in range(10)],
        "regressed": [120 + i % 3 for i in range(10)],
        "unchanged": [100 + (i % 3) - 1 for i in range(10)],
    }
    for want, change in cases.items():
        got, _ = verdict(parent, change, list(zip(parent, change)), "lower", 0.1)
        expect(got == want, f"compare: {want} case gives {got}")
    noisy = [60, 140, 80, 120, 100, 70, 130, 90, 110, 100]
    got, _ = verdict(noisy, [v + 5 for v in noisy], list(zip(noisy, noisy)), "lower", 0.1)
    expect(got == "unresolved", f"compare: spread wider than bound gives {got}")


def main() -> int:
    os.makedirs(WORK, exist_ok=True)
    try:
        check_reproducible()
        check_preferences()
        check_dense_promise()
        check_spans()
        check_declared_metrics()
        check_verdicts()
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    print(f"{len(failures)} check(s) failed" if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
