"""closureops benchmark runner: one closed-loop client, one workload, one seed.

Run from the repository root:

    python3 bench/run.py --workload sparse-lattice --seed 1 --seconds 25 --trace 0

It writes the workload's seeded corpus under ``.bench_work/``, then
sends one ``closureops`` call at a time to a worker process (``worker.py``,
which runs ``closureops.cli.main`` in-process) and waits for its report
before sending the next.  It repeats whole passes over the corpus until
``--seconds`` have gone by, starting every pass in a fresh worker under a
new random ``PYTHONHASHSEED``; every report must match the facts the corpus
predicts, the digests recorded in ``golden/`` for that seed (when there are
any), and the digests of the first pass.  Call times are scaled to a
reference CPU speed by a probe timed around each call (``PROBE_REF_S``).

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates an
untraced and a traced pass (``spans.py``) and prints the per-layer metrics.
The last line of stdout is the result object; the line before it carries
details (sample counts, ladder times, failures).  ``--out FILE`` also
appends the result, tagged with workload, seed and trace mode, for
``compare.py``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import select
import shutil
import statistics
import subprocess
import sys
import traceback
from time import perf_counter

import corpus as corpora
import spans
from checks import summarize, verify
from worker import probe

ROOT = os.getcwd()
BENCH = os.path.dirname(os.path.abspath(__file__))
GOLDEN = os.path.join(BENCH, "golden")
WORK = os.path.join(ROOT, ".bench_work")

SETUP_SPAWNS = 9  # setup_s is the median of this many cold imports
CALL_TIMEOUT_S = 60.0  # a corpus call slower than this counts as failed
MAX_MEASURE_S = 100.0  # stop issuing calls past this, whatever --seconds says
LADDER_LIMIT_S = 2.3  # envelope_n: largest ladder n whose scaled call beats this
# Seconds of worker.probe() on the host the benchmark was tuned on (2-vCPU
# Intel Xeon VM, CPython 3.11).  Call times are scaled by this over the probe
# time measured around the call, i.e. to that host at its usual speed.
PROBE_REF_S = 0.0015
RESIDUAL_TOLERANCE_S = 1e-3  # traced self times + bookkeeping vs call wall


class Worker:
    """One ``worker.py`` process and its request/reply pipe."""

    def __init__(self, env: dict, trace: bool = False):
        command = [sys.executable, os.path.join(BENCH, "worker.py")]
        if trace:
            command.append("--trace")
        self.proc = subprocess.Popen(
            command, cwd=ROOT, env=env, stdin=subprocess.PIPE, stdout=subprocess.PIPE
        )
        if self._read(60.0) is None:
            self.kill()
            raise RuntimeError("benchmark worker did not start")

    def _read(self, timeout: float) -> dict | None:
        ready, _, _ = select.select([self.proc.stdout], [], [], timeout)
        if not ready:
            return None
        line = self.proc.stdout.readline()
        return json.loads(line) if line else None

    def request(self, message: dict, timeout: float) -> dict | None:
        """Send one request; None if no reply came within ``timeout``."""
        try:
            self.proc.stdin.write((json.dumps(message) + "\n").encode())
            self.proc.stdin.flush()
        except BrokenPipeError:
            return None
        return self._read(timeout)

    def call(self, call: dict, timeout: float, facts: bool) -> dict | None:
        """Run one corpus call; None if no reply came within ``timeout``.

        With ``facts`` the worker saves the report to a file and the reply
        gets the report's facts (:func:`checks.summarize`), computed here so
        that parsing the report never counts in the worker's memory.
        """
        report = os.path.join(WORK, f"report-{os.getpid()}.txt") if facts else None
        reply = self.request({"argv": call["argv"], "report": report}, timeout)
        if report is None:
            return reply
        if reply is not None:
            try:
                with open(report, encoding="utf-8") as handle:
                    text = handle.read()
                reply["facts"] = summarize(call["argv"], reply["code"], text, call.get("hint"))
            except Exception:
                reply["facts"] = {"summary_error": traceback.format_exc(limit=-1)}
        if os.path.exists(report):
            os.remove(report)
        return reply

    def close(self) -> dict:
        reply = self.request({"close": True}, 30.0)
        self.kill()
        if reply is None:
            raise RuntimeError("benchmark worker did not close cleanly")
        return reply

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self.proc.stdin.close()
        self.proc.stdout.close()


class Session:
    """State shared by every pass of one run: checks, samples, failures."""

    def __init__(self, workload: str, seed: int, calls: list[dict]):
        self.calls = calls
        self.hash_seeds = random.SystemRandom()
        self.env = dict(os.environ)
        src = os.path.join(ROOT, "src")
        self.env["PYTHONPATH"] = src + os.pathsep + self.env.get("PYTHONPATH", "")
        self.golden = load_golden(workload, seed)
        self.facts: dict[str, dict] = {}
        self.first: dict[str, list] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.used_hash_seeds: list[int] = []
        self.wall_s = 0.0  # unscaled call time of every pass

    def worker_env(self) -> dict:
        env = dict(self.env)
        value = self.hash_seeds.randrange(1, 2**32 - 1)
        self.used_hash_seeds.append(value)
        env["PYTHONHASHSEED"] = str(value)
        return env

    def fail(self, problem: str, count: int = 1) -> None:
        self.failed += count
        if len(self.problems) < 20:
            self.problems.append(problem)

    def check(self, call: dict, reply: dict) -> None:
        """Count one reply, failed if any check on it fails."""
        self.attempted += 1
        call_id = call["id"]
        problems = []
        if "crash" in reply:
            problems.append(f"{call_id}: crashed\n{reply['crash']}")
        digest = [reply["code"], reply["sha"]]
        if "facts" in reply:
            self.facts[call_id] = reply["facts"]
            problems += verify(call, reply["facts"], self.facts)
            if self.golden is not None and self.golden.get(call_id) != digest:
                problems.append(f"{call_id}: output differs from golden digest")
            self.first[call_id] = digest
        elif self.first.get(call_id) != digest:
            problems.append(f"{call_id}: output differs under another PYTHONHASHSEED")
        if reply.get("nested") is False:
            problems.append(f"{call_id}: traced spans do not nest")
        if abs(reply.get("residual_s", 0.0)) > RESIDUAL_TOLERANCE_S:
            problems.append(f"{call_id}: span self times miss wall by {reply['residual_s']:.6f} s")
        if problems:
            self.fail("; ".join(problems))

    def run_pass(self, deadline: float, trace: bool = False,
                 calls: list[dict] | None = None) -> dict:
        """One pass over the corpus (or ``calls``) in a fresh worker.

        ``samples`` holds each call's scaled seconds, None where it got no
        report; ``probes`` the probe seconds of every reply; ``skipped`` the
        calls not sent because ``deadline`` had passed.
        """
        worker = Worker(self.worker_env(), trace)
        samples: list[float | None] = []
        probes: list[float] = []
        skipped = 0
        facts = not self.first
        try:
            for call in self.calls if calls is None else calls:
                if perf_counter() > deadline:
                    samples.append(None)
                    skipped += 1
                    continue
                reply = worker.call(call, CALL_TIMEOUT_S, facts)
                if reply is None:
                    self.attempted += 1
                    died = worker.proc.poll() is not None
                    self.fail(f"{call['id']}: " + ("worker exited" if died
                              else f"no report within {CALL_TIMEOUT_S} s"))
                    worker.kill()
                    worker = Worker(self.worker_env(), trace)
                    samples.append(None)
                    continue
                samples.append(scaled(reply))
                probes.append(reply["probe_s"])
                self.wall_s += reply["s"]
                self.check(call, reply)
            closing = worker.close()
        finally:
            worker.kill()
        return {"samples": samples, "probes": probes, "skipped": skipped,
                "rss_kb": closing["rss_kb"], "layers": closing.get("layers")}


def scaled(reply: dict) -> float:
    """A call's seconds at the reference speed (see PROBE_REF_S)."""
    return reply["s"] * PROBE_REF_S / reply["probe_s"]


def load_golden(workload: str, seed: int) -> dict | None:
    path = os.path.join(GOLDEN, f"{workload}-{seed}.json")
    if not os.path.exists(path):
        return None
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def measure_setup(env: dict) -> float:
    """Median time to spawn an interpreter and import ``closureops.cli``,
    scaled like call times by probes run here before and after each spawn."""
    times = []
    for _ in range(SETUP_SPAWNS):
        before = min(probe(), probe())
        start = perf_counter()
        subprocess.run([sys.executable, "-c", "import closureops.cli"],
                       cwd=ROOT, env=env, check=True)
        seconds = perf_counter() - start
        speed = (before + min(probe(), probe())) / 2
        times.append(seconds * PROBE_REF_S / speed)
    return statistics.median(times)


def envelope(session: Session, workload: str, directory: str) -> tuple[int, list]:
    """Walk the workload's size ladder until a call misses LADDER_LIMIT_S.

    The limit applies to the scaled time; a call is cut off once its
    unscaled time passes twice the limit, which no probe time below
    2 * PROBE_REF_S can scale back under the limit.  Returns the largest n that made
    it (one below the ladder if none did) and the (n, scaled seconds) of
    every step, None for the step that was cut off.
    """
    ladder = corpora.LADDERS[workload]
    best = ladder[0] - 1
    steps = []
    worker = Worker(session.worker_env())
    try:
        for n in ladder:
            call = corpora.ladder_call(workload, n, directory)
            reply = worker.call(call, 2 * LADDER_LIMIT_S, True)
            steps.append((n, reply and scaled(reply)))
            if reply is None or scaled(reply) > LADDER_LIMIT_S:
                break
            session.attempted += 1
            problems = verify(call, reply["facts"], {})
            if problems:
                session.fail("; ".join(problems))
                break
            best = n
    finally:
        worker.kill()
    return best, steps


def per_call_median(passes: list[list]) -> list:
    """Each call's median seconds over the passes (None where it has none)."""
    medians = []
    for times in zip(*passes):
        known = [t for t in times if t is not None]
        medians.append(statistics.median(known) if known else None)
    return medians


def another_pass(start: float, done: int, seconds: float, deadline: float) -> bool:
    """Whether one more whole pass ends nearer to ``seconds`` than stopping now."""
    elapsed = perf_counter() - start
    return elapsed + elapsed / done / 2 < seconds and perf_counter() < deadline


def quantile(ordered: list[float], q: float) -> float:
    """Harrell-Davis estimate of the q-quantile of sorted samples.

    A Beta(q(n+1), (1-q)(n+1))-weighted mean of all order statistics: unlike
    a single order statistic it does not jump when the quantile sits at a
    gap between two clusters of call costs, which the corpora have.
    """
    n = len(ordered)
    a, b = q * (n + 1), (1 - q) * (n + 1)
    log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
    steps = 20 * n
    weights = [0.0] * n
    for k in range(steps):
        x = (k + 0.5) / steps
        density = math.exp(log_norm + (a - 1) * math.log(x) + (b - 1) * math.log1p(-x))
        weights[min(n - 1, int(x * n))] += density
    return sum(w * v for w, v in zip(weights, ordered)) / sum(weights)


def plain_run(session: Session, workload: str, seconds: float, directory: str) -> tuple:
    """Whole passes until ``seconds``; each call's time is its median scaled
    time over the passes."""
    start = perf_counter()
    deadline = start + MAX_MEASURE_S
    passes: list[list] = []
    rss_kb = 0
    while True:
        totals = session.run_pass(deadline)
        times = totals["samples"]
        passes.append(times)
        rss_kb = max(rss_kb, totals["rss_kb"])
        if not another_pass(start, len(passes), seconds, deadline):
            break
    if len(passes) == 1:
        # Unmeasured: the cheaper half of the calls again, under another
        # PYTHONHASHSEED, so that every run checks byte-identical output.
        cheap = sorted((t, i) for i, t in enumerate(times) if t is not None)
        half = sorted(i for _, i in cheap[: len(cheap) // 2])
        session.run_pass(perf_counter() + MAX_MEASURE_S, calls=[session.calls[i] for i in half])
    envelope_n, steps = envelope(session, workload, directory)
    ordered = sorted(t for t in per_call_median(passes) if t is not None)
    p90 = quantile(ordered, 0.9)
    metrics = {
        "calls_per_s": (len(ordered) / sum(ordered), "1/s"),
        "call_p50_ms": (quantile(ordered, 0.5) * 1e3, "ms"),
        "call_p90_ms": (p90 * 1e3, "ms"),
        "peak_rss_mb": (rss_kb / 1024, "MB"),
        "envelope_n": (envelope_n, "n"),
    }
    details = {
        "passes": len(passes),
        "samples": len(ordered),
        "beyond_p90": sum(1 for s in ordered if s > p90),
        "ladder": steps,
    }
    return metrics, details


def scaled_layers(traced: dict) -> dict:
    """A traced pass's accumulators with self and inclusive times scaled like
    call times, by PROBE_REF_S over the pass's median probe time."""
    layers = traced["layers"]
    probes = traced["probes"]
    factor = PROBE_REF_S / statistics.median(probes) if probes else 1.0
    return {
        "counts": layers["counts"],
        "self_s": {name: t * factor for name, t in layers["self_s"].items()},
        "incl_s": {name: t * factor for name, t in layers["incl_s"].items()},
    }


def traced_run(session: Session, seconds: float) -> tuple:
    """Untraced and traced passes in turn; per-layer medians over the rounds.

    ``trace.overhead_s`` is the traced minus the untraced total, each call
    timed at its median round.  A round in which some call got no report
    ends the run; if it is the first round, its figures are reported anyway
    and the calls it did not send count as failed (calls that timed out
    already do).
    """
    start = perf_counter()
    deadline = start + MAX_MEASURE_S
    plain_passes, traced_passes, rounds = [], [], []
    while True:
        plain = session.run_pass(deadline)
        traced = session.run_pass(deadline, trace=True)
        complete = None not in plain["samples"] and None not in traced["samples"]
        if not complete and rounds:
            break
        plain_passes.append(plain["samples"])
        traced_passes.append(traced["samples"])
        rounds.append(scaled_layers(traced))
        if not complete:
            skipped = plain["skipped"] + traced["skipped"]
            if skipped:
                session.attempted += skipped
                session.fail(f"{skipped} call(s) not sent within {MAX_MEASURE_S} s", skipped)
            break
        if not another_pass(start, len(rounds), seconds, deadline):
            break
    if any(layers["counts"] != rounds[0]["counts"] for layers in rounds):
        session.fail("per-layer counts differ between traced passes")
    overhead = sum(
        t - p
        for t, p in zip(per_call_median(traced_passes), per_call_median(plain_passes))
        if t is not None and p is not None
    )
    per_round = [
        spans.layer_metrics(layers["self_s"], layers["incl_s"], layers["counts"], overhead)
        for layers in rounds
    ]
    units = dict(spans.PER_LAYER)
    metrics = {
        name: (statistics.median(values[name] for values in per_round), units[name])
        for name, _ in spans.PER_LAYER
    }
    return metrics, {"traced_passes": len(rounds)}


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description="closureops benchmark runner")
    parser.add_argument("--workload", required=True, choices=corpora.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", metavar="FILE", help="append the result, tagged, here")
    return parser.parse_args(argv)


def pin_to_one_cpu() -> None:
    """Keep this process and every process it starts on one CPU, so that a
    probe measures the CPU the timed work runs on."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "closureops", "cli.py")):
        print("error: src/closureops not found; run from the repository root",
              file=sys.stderr)
        return 2
    pin_to_one_cpu()
    directory = os.path.join(WORK, f"{args.workload}-{args.seed}")
    shutil.rmtree(directory, ignore_errors=True)
    corpus = corpora.build(args.workload, args.seed, directory)
    session = Session(args.workload, args.seed, corpus.calls)
    if args.trace:
        metrics, details = traced_run(session, args.seconds)
    else:
        setup_s = measure_setup(session.env)
        metrics, details = plain_run(session, args.workload, args.seconds, directory)
        metrics["setup_s"] = (setup_s, "s")
    shutil.rmtree(directory, ignore_errors=True)
    details.update({
        "workload": args.workload,
        "seed": args.seed,
        "corpus_calls": len(corpus.calls),
        "golden": session.golden is not None,
        "fail_ratio": session.failed / max(1, session.attempted),
        "unscaled_call_s": session.wall_s,
        "bytecode_cache": not (sys.flags.dont_write_bytecode
                               or os.environ.get("PYTHONDONTWRITEBYTECODE")),
        "hash_seeds": session.used_hash_seeds,
        "problems": session.problems,
    })
    result = {
        "correct": session.failed == 0,
        "attempted": session.attempted,
        "failed": session.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    for problem in session.problems:
        print(f"failed: {problem}", file=sys.stderr)
    if args.out:
        with open(args.out, "a", encoding="utf-8") as handle:
            record = {"workload": args.workload, "seed": args.seed,
                      "trace": args.trace, "result": result}
            handle.write(json.dumps(record) + "\n")
    print(json.dumps(details))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
