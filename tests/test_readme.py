"""The README's "Library use" examples run as written, so that they cannot
drift from the package's signatures."""

import re
from pathlib import Path

from keyclust.cli import main

from conftest import write_corpus_dir

README = Path(__file__).resolve().parent.parent / "README.md"


def library_use_blocks() -> list[str]:
    """The fenced ``python`` blocks of the README's "Library use" section, in order."""
    section = README.read_text(encoding="utf-8").split("\n## Library use\n", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"^```python\n(.*?)^```$", section, flags=re.S | re.M)


def test_library_use_examples_run(tmp_path, monkeypatch, capsys):
    blocks = library_use_blocks()
    assert len(blocks) == 3
    # the last block reads out/stages: a run-all writes it into the directory
    # the blocks run in
    write_corpus_dir(tmp_path / "corpus", n_articles=20)
    monkeypatch.chdir(tmp_path)
    assert main(["run-all", "--out", "out", "--corpus", "corpus:synthetic", "--query", "vaccine"]) == 0
    namespace: dict = {}
    for i, block in enumerate(blocks):
        # later blocks use the names that earlier ones import
        exec(compile(block, f"README.md, Library use block {i + 1}", "exec"), namespace)
    assert namespace["modified"].point_ids == namespace["table"].point_ids
    assert (tmp_path / "extracts").is_dir()
