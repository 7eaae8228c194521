"""Reproduce the ROADMAP baseline cells with the benchmark's own inputs.

    python3 bench/baseline.py

Run from the repository root.  Each cell is the median wall time of three
in-process ``cli.main`` calls (or ``check_axioms`` calls) on a ladder input
from ``corpus.py``, unscaled, after one warm-up call; the table is printed
as Markdown for README.md.  Takes about three minutes on a 2-core host.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import shutil
import statistics
import sys
from time import perf_counter

sys.path.insert(0, os.path.join(os.getcwd(), "src"))

import corpus as corpora  # noqa: E402
from closureops import cli, jsonio  # noqa: E402
from closureops.menus import check_axioms  # noqa: E402

WORK = os.path.join(os.getcwd(), ".bench_work", "baseline")


def timed(function, *args) -> float:
    """Median seconds of three calls."""
    times = []
    for _ in range(3):
        start = perf_counter()
        function(*args)
        times.append(perf_counter() - start)
    return statistics.median(times)


def run_cli(argv: list[str]) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"{argv} exited {code}")


def timed_cli(argv: list[str]) -> float:
    return timed(run_cli, argv)


def main() -> int:
    rows = []
    run_cli(corpora.ladder_call("sparse-lattice", 12, WORK)["argv"])  # warm-up
    call = corpora.ladder_call("sparse-lattice", 14, WORK)
    topology = call["argv"][2]
    size = len(jsonio.topology_from(_load(topology)))
    rows.append((f"CLI `complexity`, labeling n=14 (|S|={size})", timed_cli(call["argv"])))
    rows.append(("CLI `decompose --kind binary`, same input",
                 timed_cli(["decompose", "--topology", topology, "--kind", "binary"])))
    # The ROADMAP's n = 14 labeling has |S| = 615; 2n labels come closer.
    extents = corpora.random_extents(random.Random("baseline"), 14, 28)
    closed = corpora.closure_system(extents, (1 << 14) - 1)
    topology = corpora.Corpus(WORK).write("labeling-n14-2n.json", corpora.topology_doc(14, closed))
    for argv, label in ((["complexity"], "complexity"),
                        (["decompose", "--kind", "binary"], "decompose --kind binary")):
        seconds = timed_cli(argv[:1] + ["--topology", topology] + argv[1:])
        rows.append((f"CLI `{label}`, labeling n=14, 28 labels (|S|={len(closed)})", seconds))
    for n in (10, 12):
        call = corpora.ladder_call("dense-lattice", n, WORK)
        rows.append((f"CLI `complexity`, discrete n={n}", timed_cli(call["argv"])))
    for n in (7, 8):
        call = corpora.ladder_call("menu-prefs", n, WORK)
        rows.append((f"CLI `menu-rep --style kreps`, U=|f(A)| n={n}", timed_cli(call["argv"])))
        additive = call["argv"][:-1] + ["additive"]
        rows.append((f"CLI `menu-rep --style additive`, U=|f(A)| n={n}", timed_cli(additive)))
    for n in (6, 7, 8):
        call = corpora.ladder_call("menu-prefs", n, WORK)
        preference = jsonio.preference_from(_load(call["argv"][2]))
        rows.append((f"`check_axioms`, n={n}", timed(check_axioms, preference)))
    shutil.rmtree(WORK, ignore_errors=True)
    print("| cell | seconds |\n| ---- | ------- |")
    for label, seconds in rows:
        print(f"| {label} | {seconds:.2f} |")
    return 0


def _load(path: str):
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


if __name__ == "__main__":
    sys.exit(main())
