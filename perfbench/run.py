#!/usr/bin/env python3
"""End-to-end benchmark of keyclust: a re-cluster loop on long articles
(``recluster``) and a k-scan on short ones (``kscan``).

    python3 perfbench/run.py --workload recluster --seed 0 --seconds 20 --trace 0

Run from the repository root. Each run generates its corpus from
``--seed`` and sets it up (corpus generation, ``ingest``, ``vectorize``,
``reduce``) ``SETUP_REPS`` times. Between set-ups it repeats whole rounds
of the workload's operations, until ``--seconds`` of operation time have
passed in all. Every time it reports is scaled to a nominal machine speed,
measured by a reference task timed after every program call (speed.py).
Every operation's outputs are checked apart from the program; a failed
call or check counts the operation as failed. The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and the
``metrics`` named in ``BENCHMARK.json`` (end-to-end ones with
``--trace 0``, per-layer ones with ``--trace 1``). See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import checks
import speed
from corpus_gen import TOPIC_KEYWORDS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

SETUP_REPS = 3
K = 10
PCA_DIM = 50
# Every clustering run stops after this many iterations. Uncapped, K-means
# takes 15 to 70 iterations on these corpora depending on the seed, which
# would make an operation's cost a property of the seed rather than of the
# code; at 12 nearly every k >= 4 run reaches the cap.
MAX_ITER = 12
CLUSTER_SEED = 7
THRESHOLD = 0.01  # keyclust's default dual-assignment threshold
DAMPING = 0.01  # keyclust's default damping weight
ELBOW_RESTARTS = 2

# Pin BLAS to one thread so that the program's --threads is the only parallelism.
PINNED_ENV = {
    name: "1"
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
}


class Worker:
    """The child process that runs the program (see worker.py)."""

    def __init__(self, trace: int) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "worker.py"), "--src", str(ROOT / "src"), "--trace", str(trace)],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            cwd=ROOT,
            env={**os.environ, **PINNED_ENV},
            text=True,
        )
        self.clock = speed.Clock(self.proc.pid)

    def __enter__(self) -> "Worker":
        return self

    def __exit__(self, *exc) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()

    def send(self, **cmd) -> dict:
        self.proc.stdin.write(json.dumps(cmd) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"worker exited with code {self.proc.wait()}")
        return json.loads(line)

    def timed(self, threads: int = 1, **cmd) -> dict:
        """Send a command whose reply holds its duration ``dt``, then sample
        the machine's speed where it ran on ``threads`` threads (speed.py)."""
        reply = self.send(**cmd)
        self.clock.sample(reply["dt"], threads)
        return reply

    def call(self, *argv: str, threads: int = 1) -> tuple[float, bool]:
        """Run ``keyclust <argv>``, which computes on ``threads`` threads;
        its duration and whether it succeeded."""
        reply = self.timed(threads, cmd="main", argv=list(argv))
        if reply["rc"] != 0:
            print(f"keyclust {' '.join(argv)}: exit {reply['rc']}", file=sys.stderr)
            print(reply.get("error", ""), file=sys.stderr)
        return reply["dt"], reply["rc"] == 0


# An operation runs on the worker and returns its duration and its failures.
Operation = Callable[[Worker, Path, "checks.Reduced"], tuple[float, list[str]]]


def query_cycle(query: str) -> Operation:
    """Re-cluster for one keyword: standard, then modified, then the report."""

    def op(w: Worker, out: Path, reduced: checks.Reduced) -> tuple[float, list[str]]:
        common = ["--out", str(out), "--query", query, "--k", str(K), "--seed", str(CLUSTER_SEED),
                  "--max-iter", str(MAX_ITER), "--threads", "1"]
        total, errors = 0.0, []
        for argv in (
            ["cluster", *common, "--mode", "standard"],
            ["cluster", *common, "--mode", "modified"],
            ["report", "--out", str(out), "--query", query],
        ):
            dt, ok = w.call(*argv)
            total += dt
            if not ok:
                return total, [f"keyclust {argv[0]} failed"]
        errors += checks.check_model(out, "standard", reduced, threshold=0.0, damping=0.0)
        errors += checks.check_model(out, "modified", reduced, threshold=THRESHOLD, damping=DAMPING)
        errors += checks.check_comparison(out, query, reduced)
        return total, [f"{query}: {e}" for e in errors]

    return op


def elbow_scan(w: Worker, out: Path, reduced: checks.Reduced) -> tuple[float, list[str]]:
    dt, ok = w.call(
        "elbow", "--out", str(out), "--mode", "standard", "--k-min", "1", "--k-max", str(K),
        "--restarts", str(ELBOW_RESTARTS), "--max-iter", str(MAX_ITER),
        "--seed", str(CLUSTER_SEED), "--threads", "2", threads=2,
    )
    if not ok:
        return dt, ["keyclust elbow failed"]
    return dt, checks.check_elbow(out, K, reduced)


@dataclass(frozen=True)
class Workload:
    articles: int
    sentences: int
    round: tuple[Operation, ...]


WORKLOADS = {
    # ~3000 chunks from long bodies; one round asks about every topic keyword
    "recluster": Workload(100, 90, tuple(query_cycle(q) for q in TOPIC_KEYWORDS)),
    # ~3000 chunks from short bodies; one round is one elbow scan
    "kscan": Workload(1000, 9, (elbow_scan,)),
}


def set_up(w: Worker, wl: Workload, seed: int, rep_dir: Path) -> tuple[float, Path, Path]:
    corpus, out = rep_dir / "corpus", rep_dir / "out"
    total = w.timed(cmd="gen", path=str(corpus), articles=wl.articles, sentences=wl.sentences, seed=seed)["dt"]
    for argv in (
        ["ingest", "--corpus", f"{corpus}:synthetic", "--out", str(out)],
        ["vectorize", "--out", str(out)],
        ["reduce", "--out", str(out), "--pca-dim", str(PCA_DIM)],
    ):
        dt, ok = w.call(*argv)
        if not ok:
            raise RuntimeError(f"set-up step {argv[0]} failed")
        total += dt
    return total, corpus, out


def tree_mb(path: Path) -> float:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file()) / 1e6


def stage_digest(out: Path) -> str:
    h = hashlib.sha256()
    for p in sorted((out / "stages").glob("*.jsonl")):
        h.update(p.name.encode() + b"\0" + p.read_bytes())
    return h.hexdigest()


def run(workload: str, seed: int, seconds: int, trace: int, work: Path) -> dict:
    """Set up ``SETUP_REPS`` times; after each set-up, run rounds on its
    output until its share of ``seconds`` is reached. Interleaving spreads
    both kinds of sample over the whole run, so a slow spell of the machine
    weighs on set-up and operation times alike."""
    wl = WORKLOADS[workload]
    setup_times: list[float] = []
    op_times: list[float] = []
    round_times: list[float] = []
    failures: list[str] = []
    attempted = failed = 0
    with Worker(trace) as w:
        for rep in range(SETUP_REPS):
            # the per-layer set-up figures come from the last set-up alone
            w.send(cmd="phase", phase="setup" if rep == SETUP_REPS - 1 else None)
            dt, corpus, out = set_up(w, wl, seed, work / f"rep{rep}")
            setup_times.append(dt)
            w.send(cmd="phase", phase=None)
            if rep == 0:
                setup_failures, pca_accuracy = checks.check_setup(corpus, out, PCA_DIM)
                reduced = checks.load_reduced(out)
                digest = stage_digest(out)
            elif stage_digest(out) != digest:
                setup_failures.append(f"set-up {rep} wrote other stage files than set-up 0")

            w.send(cmd="phase", phase="timed")
            while sum(round_times) < seconds * (rep + 1) / SETUP_REPS:
                round_times.append(0.0)
                for op in wl.round:
                    dt, errors = op(w, out, reduced)
                    op_times.append(dt)
                    round_times[-1] += dt
                    attempted += 1
                    if errors:
                        failed += 1
                        failures += errors
                last_out = out
        rounds = len(round_times)
        finish = w.send(
            cmd="finish", rounds=rounds, setup_wall=setup_times[-1], timed_wall=sum(op_times),
            spans_path=str(HERE / "results" / f"spans-{workload}-seed{seed}.json"),
        )
    out_mb = tree_mb(last_out)
    correct = not setup_failures
    if pca_accuracy.get("pca.variance_sum_gap", 0.0) > 1e-6:
        print(f"pca: summed variance off eigh's by {pca_accuracy['pca.variance_sum_gap']:.3g} "
              "relative (more than 1e-6)", file=sys.stderr)
    failures = setup_failures + failures
    for failure in failures:
        print(f"FAILED: {failure}", file=sys.stderr)

    slowness = w.clock.slowness()
    if trace:
        metrics = {**finish["layers"], **pca_accuracy}
        print(f"tracer bookkeeping: {finish['bookkeeping_s']}", file=sys.stderr)
    else:
        # every time at nominal machine speed (speed.py)
        metrics = {
            "setup_s": statistics.median(setup_times) / slowness,
            "wall_s": sum(round_times) / rounds / slowness,
            "op_p50_s": statistics.median(op_times) / slowness,
            "peak_rss_mb": finish["peak_rss_kib"] * 1024 / 1e6,
            "out_mb": out_mb,
        }
    print(
        f"{workload} seed {seed}: set-ups {[round(t, 3) for t in setup_times]} s, "
        f"{rounds} rounds, ops {[round(t, 3) for t in op_times]} s, unscaled; "
        f"slowness {slowness:.4f} from {len(w.clock.samples)} reference runs",
        file=sys.stderr,
    )
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "keyclust" / "__init__.py").is_file():
        print(f"error: no keyclust package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
    units = {m["name"]: m["unit"] for m in declared["per_layer" if args.trace else "end_to_end"]}

    work = HERE / "work" / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    try:
        result = run(args.workload, args.seed, args.seconds, args.trace, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    values = result["metrics"]
    unknown = set(values) - set(units)
    if unknown:
        raise RuntimeError(f"metrics missing from BENCHMARK.json: {sorted(unknown)}")
    # a layer the workload never calls (the report on kscan) counts 0
    result["metrics"] = {
        name: {"value": float(values.get(name, 0.0)), "unit": unit} for name, unit in units.items()
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
