"""Benchmark worker: runs ``closureops.cli.main`` in-process, one call at a time.

Started by ``run.py`` with ``src`` on ``PYTHONPATH``.  Requests arrive as JSON
lines on stdin; each reply is one JSON line on the original stdout, which the
CLI never sees (its stdout is captured per call).  Requests:

* ``{"argv": [...], "report": path or null}`` runs one call and replies with
  its exit code, the sha256 of its stdout, its wall time around
  ``cli.main`` and the time of :func:`probe` around the call (the mean of
  the best of two runs before and the best of two after).  With a
  ``report`` path the stdout text is also written there, for ``run.py`` to
  check; the worker never parses it, so its peak RSS is the program's;
* ``{"close": true}`` replies with the peak RSS and, when tracing, the
  per-layer accumulators, then exits.

With ``--trace`` the entry points of every layer are wrapped first (see
``spans.py``), and every reply says whether the call's spans nested and how
far their self times plus bookkeeping fell from the call's wall time.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys
import traceback
from time import perf_counter

import spans

CHUNK = 1 << 16  # characters encoded at a time when hashing or saving a report


def probe() -> float:
    """Seconds for a fixed piece of interpreter work like closureops' own:
    integer bit arithmetic, small tuples, dict stores and a sort."""
    start = perf_counter()
    table: dict[int, int] = {}
    items = []
    total = 0
    for i in range(2500):
        key = (i * 2654435761) & 0xFFFFF
        total += key & (key >> 3)
        items.append((key, i))
        table[key] = total
    items.sort()
    return perf_counter() - start


class Capture:
    """Stands in for sys.stdout or sys.stderr during a call.

    It keeps references to the strings the program writes, not copies, so
    the call's peak memory is the program's own; they are hashed (and saved)
    after the clock stops, a chunk at a time.
    """

    def __init__(self) -> None:
        self.parts: list[str] = []

    def write(self, text: str) -> int:
        self.parts.append(text)
        return len(text)

    def flush(self) -> None:
        pass

    def chunks(self):
        for part in self.parts:
            for i in range(0, len(part), CHUNK):
                yield part[i : i + CHUNK]


def serve(trace: bool) -> None:
    import closureops.cli as cli

    tracer = None
    if trace:
        tracer = spans.Tracer()
        skipped = spans.install(tracer)
        if skipped:
            print("trace: entry points not found: " + ", ".join(skipped), file=sys.stderr)
    channel = sys.stdout
    traced_wall_s = 0.0
    channel.write('{"ready": true}\n')
    channel.flush()
    for line in sys.stdin:
        request = json.loads(line)
        if request.get("close"):
            reply = {"rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
            if tracer is not None:
                reply["layers"] = {
                    "self_s": dict(tracer.self_s),
                    "incl_s": dict(tracer.incl_s),
                    "counts": dict(tracer.counts),
                    "bookkeeping_s": tracer.bookkeeping_s,
                    "wall_s": traced_wall_s,
                }
            channel.write(json.dumps(reply) + "\n")
            channel.flush()
            return
        argv = request["argv"]
        probe_before = min(probe(), probe())
        out = Capture()
        sys.stdout, sys.stderr = out, Capture()
        crash = None
        if tracer is not None:
            tracer.start_call()
            accounted = sum(tracer.self_s.values()) + tracer.bookkeeping_s
        start = perf_counter()
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:
            code = -1
            crash = traceback.format_exc(limit=-3)
        wall = perf_counter() - start
        sys.stdout, sys.stderr = channel, sys.__stderr__
        speed = (probe_before + min(probe(), probe())) / 2
        digest = hashlib.sha256()
        for chunk in out.chunks():
            digest.update(chunk.encode("utf-8"))
        if request.get("report"):
            with open(request["report"], "w", encoding="utf-8") as handle:
                for chunk in out.chunks():
                    handle.write(chunk)
        out = None
        reply = {"code": code, "sha": digest.hexdigest(), "s": wall, "probe_s": speed}
        if crash:
            reply["crash"] = crash
        if tracer is not None:
            traced_wall_s += wall
            after = sum(tracer.self_s.values()) + tracer.bookkeeping_s
            reply["nested"] = tracer.nesting_ok()
            reply["residual_s"] = wall - (after - accounted)
        channel.write(json.dumps(reply) + "\n")
        channel.flush()


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trace", action="store_true")
    serve(parser.parse_args().trace)


if __name__ == "__main__":
    main()
