"""The process that runs the program for the benchmark.

``run.py`` starts this file as a child process and sends it one JSON
command per line on standard input; each reply is one JSON line on the
standard output it inherited. The program's own output goes to standard
error. Commands:

- ``{"cmd": "gen", "path": ..., "articles": n, "sentences": m, "seed": s}``
  writes a corpus; the reply holds its duration ``dt``.
- ``{"cmd": "main", "argv": [...]}`` calls ``keyclust.cli.main(argv)`` in
  this process; the reply holds the exit code ``rc``, ``dt`` and, if the
  call raised, the ``error``.
- ``{"cmd": "phase", "phase": "setup" | "timed" | null}`` starts, switches
  or pauses tracing.
- ``{"cmd": "finish", ...}`` replies with this process's peak resident
  memory and, when tracing, the per-layer metrics, then exits.

Keeping the program in a process of its own keeps the checks' memory out
of its peak resident memory.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path

import corpus_gen
import tracing


def _serve(tracer: tracing.Tracer | None, replies) -> None:
    import keyclust.cli  # main is looked up per call, so a traced wrapper is used

    for line in sys.stdin:
        cmd = json.loads(line)
        reply: dict = {}
        if cmd["cmd"] == "gen":
            t0 = time.perf_counter()
            corpus_gen.write_corpus(Path(cmd["path"]), cmd["articles"], cmd["sentences"], cmd["seed"])
            reply["dt"] = time.perf_counter() - t0
        elif cmd["cmd"] == "main":
            t0 = time.perf_counter()
            try:
                reply["rc"] = keyclust.cli.main(cmd["argv"])
            except Exception:  # a crash is a failed operation, not a dead benchmark
                reply["rc"] = None
                reply["error"] = traceback.format_exc()
            reply["dt"] = time.perf_counter() - t0
        elif cmd["cmd"] == "phase":
            if tracer is not None:
                tracer.phase = cmd["phase"]
        elif cmd["cmd"] == "finish":
            reply["peak_rss_kib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            if tracer is not None:
                tracer.phase = None
                reply["layers"] = tracer.layer_metrics(
                    cmd["rounds"], cmd["setup_wall"], cmd["timed_wall"]
                )
                reply["bookkeeping_s"] = dict(tracer.bookkeeping_s)
                tracer.dump(Path(cmd["spans_path"]))
        else:
            raise ValueError(f"unknown command {cmd['cmd']!r}")
        replies.write(json.dumps(reply) + "\n")
        replies.flush()
        if cmd["cmd"] == "finish":
            return


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--src", required=True, help="directory holding the keyclust package")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    sys.path.insert(0, args.src)
    # Replies keep the inherited standard output; anything the program
    # prints goes to standard error instead.
    replies = os.fdopen(os.dup(1), "w")
    os.dup2(2, 1)
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracing.install(tracer)
    _serve(tracer, replies)
    return 0


if __name__ == "__main__":
    sys.exit(main())
