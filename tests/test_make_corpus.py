import subprocess
import sys
from pathlib import Path

from conftest import write_corpus_dir

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "make_corpus.py"


def test_script_writes_the_reference_corpus(tmp_path):
    subprocess.run(
        [sys.executable, str(SCRIPT), "--out", str(tmp_path / "script"),
         "--articles", "5", "--sentences", "12", "--seed", "3"],
        check=True, capture_output=True,
    )
    write_corpus_dir(tmp_path / "reference", n_articles=5, seed=3, n_sentences=12)
    names = sorted(p.name for p in (tmp_path / "reference").iterdir())
    assert sorted(p.name for p in (tmp_path / "script").iterdir()) == names
    for name in names:
        assert (tmp_path / "script" / name).read_bytes() == (
            tmp_path / "reference" / name
        ).read_bytes()
