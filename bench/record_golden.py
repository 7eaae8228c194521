"""Record the golden output digests of one workload and seed.

    python3 bench/record_golden.py --workload sparse-lattice --seed 1

Run from the repository root.  Runs the corpus once, refuses to record if
any call fails its checks, and writes ``golden/<workload>-<seed>.json``:
call id -> [exit code, sha256 of stdout].  ``run.py`` then requires every
later run of that seed to reproduce these bytes.  Re-record only in a change
that means to alter output bytes, and say so in CHANGES.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from time import perf_counter

import corpus as corpora
import run


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="record golden output digests")
    parser.add_argument("--workload", required=True, choices=corpora.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)
    directory = os.path.join(run.WORK, f"golden-{args.workload}-{args.seed}")
    shutil.rmtree(directory, ignore_errors=True)
    corpus = corpora.build(args.workload, args.seed, directory)
    session = run.Session(args.workload, args.seed, corpus.calls)
    session.golden = None
    session.run_pass(perf_counter() + 600)
    shutil.rmtree(directory, ignore_errors=True)
    if session.failed or len(session.first) != len(corpus.calls):
        for problem in session.problems:
            print(f"failed: {problem}", file=sys.stderr)
        return 1
    os.makedirs(run.GOLDEN, exist_ok=True)
    path = os.path.join(run.GOLDEN, f"{args.workload}-{args.seed}.json")
    lines = [f"  {json.dumps(k)}: {json.dumps(v)}" for k, v in sorted(session.first.items())]
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("{\n" + ",\n".join(lines) + "\n}\n")
    print(f"recorded {len(session.first)} digests in {os.path.relpath(path, run.ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
