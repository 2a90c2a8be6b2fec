#!/usr/bin/env python3
"""Print the digest of a reference run's whole ``--out`` tree.

Writes the reference corpus (``make_corpus.py --articles 100 --seed 0``)
into a temporary directory and runs these commands, each in its own
process with BLAS on one thread, into one fresh ``--out``:

    run-all --query vaccine --k 10 --pca-dim 50 --seed 7 --threads 1 --batch-size 50
    elbow   --k-max 10 --restarts 2 --max-iter 12 --seed 7 --threads 2
    cluster --query genome --k 6 --seeding partial --raw-denominator --max-iter 15
    report  --query genome

It prints one ``sha256sum`` line per file, sorted by path, then the count
of files and the sha256 of those lines, the value of
``find . -type f | sort | xargs sha256sum | sha256sum`` run in ``--out``
(C locale). Two trees with the same digest are the same bytes. PCA's bits
come from LAPACK, so the digest can differ between numpy builds; compare
digests made with the same one. Takes no flags:

    python3 scripts/tree_digest.py
"""

import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

from corpus_gen import write_corpus  # noqa: E402


def sha256_lines(out: Path) -> list[str]:
    """``sha256sum`` lines of every file under ``out``, sorted by path."""
    paths = sorted("./" + p.relative_to(out).as_posix() for p in out.rglob("*") if p.is_file())
    return [f"{hashlib.sha256((out / p).read_bytes()).hexdigest()}  {p}\n" for p in paths]


def main() -> int:
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    with tempfile.TemporaryDirectory() as tmp:
        corpus, out = Path(tmp) / "corpus", Path(tmp) / "out"
        write_corpus(corpus, 100, 90, 0)
        commands = [
            ["run-all", "--corpus", f"{corpus}:synthetic", "--query", "vaccine", "--k", "10",
             "--pca-dim", "50", "--seed", "7", "--threads", "1", "--batch-size", "50"],
            ["elbow", "--k-max", "10", "--restarts", "2", "--max-iter", "12", "--seed", "7",
             "--threads", "2"],
            ["cluster", "--query", "genome", "--k", "6", "--seeding", "partial", "--raw-denominator",
             "--max-iter", "15"],
            ["report", "--query", "genome"],
        ]
        for command in commands:
            subprocess.run(
                [sys.executable, "-m", "keyclust.cli", *command, "--out", str(out)],
                env=env, check=True, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
            )
        lines = sha256_lines(out)
    sys.stdout.write("".join(lines))
    print(f"{len(lines)} files, digest {hashlib.sha256(''.join(lines).encode()).hexdigest()}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
