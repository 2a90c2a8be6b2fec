"""A fixed reference task that measures how fast the machine runs.

The benchmark's machine is a small share of a shared host, and its speed
drifts: the same computation can take twice as long from one minute to
the next, far more than the bounds a change is judged by. So the benchmark
also times a reference task that never changes, a few times after every
program call, and divides each time it reports by the run's slowness: the
mean duration of the reference over ``NOMINAL_S``. A change to the
program moves the scaled times as it moves the raw ones; a slow spell of
the host slows the program and the reference alike, and cancels out.

The reference mixes the kinds of work the program does: a numpy distance
computation as in K-means, JSON encoding and decoding as in the stage
files, a regular-expression scan as in sentence segmentation, and number
formatting as in the reports. It runs in the benchmark's own process, never
in the program's, so the program's heap and imports cannot alter it.
"""

from __future__ import annotations

import json
import os
import re
import statistics
import time

import numpy as np

# About the reference's mean duration on the 2-core virtual machine the
# README's figures come from; scaled times are seconds at that speed.
NOMINAL_S = 0.011
# Runs of the reference per second of program time, at least MIN_REPS per
# call, so that the samples weigh the run's spells as the program's time does.
REPS_PER_S = 3
MIN_REPS = 3

_rng = np.random.default_rng(20240205)
_X = _rng.random((1500, 50))
_C = _rng.random((10, 50))
_RECORDS = [
    {"chunk_id": f"synthetic/paper{i // 30:04d}#{i % 30:04d}", "coords": [round(v, 9) for v in row]}
    for i, row in enumerate(_rng.random((150, 12)).tolist())
]
_TEXT = " ".join(
    f"Sentence {i} of the article says that the {w} results were reviewed in {1990 + i % 30}."
    for i, w in enumerate(["vaccine", "climate", "market", "protein"] * 40)
)
_SENTENCE_END = re.compile(r"(\S+)([.!?])\s+(?=[A-Z])")


def _reference() -> int:
    d = ((_X[:, None, :] - _C[None, :, :]) ** 2).sum(axis=2)
    labels = d.argmin(axis=1)
    records = json.loads(json.dumps(_RECORDS))
    ends = _SENTENCE_END.findall(_TEXT)
    rows = "".join(f"{i},{j},{v:.6f}\n" for i, (j, v) in enumerate(zip(labels.tolist(), d[:, 0].tolist())))
    return len(records) + len(ends) + len(rows)


def last_cpu(pid: int) -> int | None:
    """The CPU that process ``pid`` last ran on, where Linux tells it."""
    try:
        with open(f"/proc/{pid}/stat") as f:
            return int(f.read().rsplit(")", 1)[1].split()[36])
    except (OSError, IndexError, ValueError):
        return None


class Clock:
    """The reference's durations, sampled after every program call.

    The machine's two CPUs slow down apart from each other: the reference
    run on the CPU that the program's process has just used follows the
    program's speed, and on the other CPU it does not. So the reference
    runs where the call ran: on the program's last CPU after a call on one
    thread, and in turn on every CPU after a call on more.
    """

    def __init__(self, pid: int) -> None:
        self.pid = pid
        self.samples: list[float] = []
        pinnable = hasattr(os, "sched_getaffinity")
        self.cpus = sorted(os.sched_getaffinity(0)) if pinnable else []

    def sample(self, call_s: float, threads: int) -> None:
        """Run the reference after a program call of ``call_s`` seconds
        on ``threads`` threads."""
        cpus = self.cpus
        if threads == 1 and cpus:
            cpu = last_cpu(self.pid)
            cpus = [cpu] if cpu in cpus else cpus
        for i in range(max(MIN_REPS, round(REPS_PER_S * call_s))):
            if cpus:
                os.sched_setaffinity(0, {cpus[i % len(cpus)]})
            t0 = time.perf_counter()
            _reference()
            self.samples.append(time.perf_counter() - t0)
        if cpus:
            os.sched_setaffinity(0, self.cpus)

    def slowness(self) -> float:
        """The machine's slowness over the run: 1 at nominal speed, 2 when
        the reference takes twice as long. A mean, not a median: a CPU is
        either fast or slow at any moment, and the median of such samples
        jumps from one speed to the other as the share of slow samples
        passes a half, while the program's time follows that share."""
        return statistics.fmean(self.samples) / NOMINAL_S
