"""Compare benchmark results of a parent commit and a change.

    python3 bench/compare.py PARENT.jsonl CHANGE.jsonl [--benchmark BENCHMARK.json]

Each file holds the records ``run.py --out FILE`` appends, one per run.  Runs
are paired by workload, trace mode and seed (in order, when a seed repeats).
For every workload and metric it prints both sides' median and quartiles,
the change's paired win rate, and a verdict:

* ``improved``: the change wins at least nine tenths of all pairs (ties
  count for neither) and the medians differ by more than the distance
  between the parent's quartiles;
* ``regressed``: the change's median is worse than the parent's by more
  than the metric's bound (for metrics without a bound, the mirror image of
  ``improved``);
* ``unresolved``: the parent's own quartile spread is wider than the bound,
  so the bound cannot be checked, and the change does not beat every
  parent run with every run of its own;
* ``unchanged``: none of the above.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict


def load(path: str) -> dict:
    """(workload, trace) -> seed -> list of metric dicts, in file order."""
    runs: dict = defaultdict(lambda: defaultdict(list))
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            if line.strip():
                record = json.loads(line)
                metrics = {name: m["value"] for name, m in record["result"]["metrics"].items()}
                runs[(record["workload"], record["trace"])][record["seed"]].append(metrics)
    return runs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def summary(values: list[float]) -> str:
    q1, median, q3 = quartiles(values)
    return f"{median:.5g} [{q1:.5g}, {q3:.5g}]"


def verdict(parent: list[float], change: list[float], pairs: list[tuple[float, float]],
            better: str, bound: float | None) -> tuple[str, float]:
    sign = 1 if better == "higher" else -1
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    losses = sum(1 for p, c in pairs if sign * (c - p) < 0)
    win_rate = wins / len(pairs) if pairs else 0.0
    p_q1, p_med, p_q3 = quartiles(parent)
    _, c_med, _ = quartiles(change)
    gain = sign * (c_med - p_med)  # positive when the change is better
    spread = p_q3 - p_q1
    if pairs and win_rate >= 0.9 and gain > spread:
        return "improved", win_rate
    if bound is None:
        if pairs and losses / len(pairs) >= 0.9 and -gain > spread:
            return "regressed", win_rate
        return "unchanged", win_rate
    scale = abs(p_med) or 1.0
    all_better = min(sign * c for c in change) > max(sign * p for p in parent)
    if spread / scale > bound and not all_better:
        return "unresolved", win_rate
    if -gain / scale > bound:
        return "regressed", win_rate
    return "unchanged", win_rate


def compare(parent_path: str, change_path: str, benchmark_path: str) -> list[str]:
    with open(benchmark_path, encoding="utf-8") as handle:
        spec = json.load(handle)
    declared = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    parent, change = load(parent_path), load(change_path)
    lines = [
        f"{'workload':<15} {'metric':<28} {'parent median [q1, q3]':>34} "
        f"{'change median [q1, q3]':>34} {'delta':>8} {'wins':>5}  verdict"
    ]
    for key in sorted(set(parent) & set(change)):
        workload, _ = key
        seeds = sorted(set(parent[key]) & set(change[key]))
        names = sorted({n for runs in parent[key].values() for m in runs for n in m})
        for name in names:
            if name not in declared:
                continue
            pairs = []
            for seed in seeds:
                for p_run, c_run in zip(parent[key][seed], change[key][seed]):
                    pairs.append((p_run[name], c_run[name]))
            p_vals = [m[name] for runs in parent[key].values() for m in runs]
            c_vals = [m[name] for runs in change[key].values() for m in runs]
            metric = declared[name]
            outcome, win_rate = verdict(p_vals, c_vals, pairs, metric["better"],
                                        metric.get("bound"))
            p_med, c_med = quartiles(p_vals)[1], quartiles(c_vals)[1]
            delta = (c_med - p_med) / abs(p_med) if p_med else 0.0
            lines.append(
                f"{workload:<15} {name:<28} {summary(p_vals):>34} {summary(c_vals):>34} "
                f"{delta:>+8.1%} {win_rate:>5.0%}  {outcome}"
            )
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="compare two benchmark result files")
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--benchmark", default="BENCHMARK.json")
    args = parser.parse_args(argv)
    print("\n".join(compare(args.parent, args.change, args.benchmark)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
