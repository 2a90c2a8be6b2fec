#!/usr/bin/env python3
"""Write the seeded synthetic article corpus in the pipeline's input format.

Each article is a JSON file with ``paper_id``, ``title``, and ``body_text``
(a list of paragraph strings). The generator is the benchmark's
(``perfbench/corpus_gen.py``), which writes the same files as the test
suite's ``write_corpus_dir``: with the defaults this is the reference
corpus of the acceptance tests and the benchmark.
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

from corpus_gen import write_corpus  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", required=True, help="output corpus directory")
    parser.add_argument("--articles", type=int, default=100)
    parser.add_argument("--sentences", type=int, default=90, help="per article")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    write_corpus(Path(args.out), args.articles, args.sentences, args.seed)
    print(f"wrote {args.articles} articles to {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
