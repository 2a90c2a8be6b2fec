"""Output bytes pinned in the repository.

Criterion 10 compares two runs of the same code, so a change that moves
every output byte the same way on every rerun passes it. These tests pin
the sha256 of outputs whose bits do not come from LAPACK, so they hold for
every numpy build the package allows:

- the ``documents``, ``chunks``, ``vocabulary`` and ``vectors`` stages of
  the 20-article reference corpus (ingest and tf-idf are plain Python), and
  its ``weights`` stage for the query "vaccine", computed from the chunks
  and the vocabulary only;
- the model record, iteration CSV and iteration SVGs of library ``run``
  fits on points drawn by Python's ``random``. K-means results do not
  depend on BLAS (the determinism contract in ``cluster.py``);
- the comparison CSV, the top-terms CSVs and the extracts of such fits,
  whose points are the reference corpus's chunks with tokens, reported
  over that corpus's ``chunks`` and ``documents`` stages.

A change that moves these bytes on purpose updates the pinned values here
and says why. ``scripts/tree_digest.py`` digests the whole pipeline's
output, PCA included, for comparing two commits on one machine.
"""

import hashlib
import random
from pathlib import Path

import numpy as np
import pytest

from keyclust.cli import main
from keyclust.cluster import ClusterConfig, run
from keyclust.corpus import Document, StageStore, encode_record
from keyclust.preprocess import TokenTable
from keyclust.report import (
    cluster_reports, comparison_table, plot_xy, write_comparison_csv, write_extracts,
    write_iteration_csv, write_iteration_svgs, write_top_terms_csv,
)

from conftest import write_corpus_dir

# the chunks header records the cleaning rules that made the tokens
# (``inputs.cleaning``); its records, and so every stage computed from them,
# are the bytes they were before it did
STAGES = {
    "documents": "52739257b7368922af6ca88540308837b889882f23a47a7277d42f91356c4d13",
    "chunks": "d865378301d36039dd911f97dc3569395df9fd1abb7452ae716973f3022c5869",
    "vocabulary": "da2fb6842172351ea81d42de291044b346d3076e6f3f5d86ecead9702dff0ad0",
    "vectors": "7bd854d7d6e2e45e56b35a147bb8c59bd0b64eaed0b243f1e28f8ded13fc59be",
}

# the weights stage of ``cluster --mode modified --query vaccine`` on the
# same corpus: the weights come from the chunks and the vocabulary alone
WEIGHTS = "81e7a3cc88f3c866a28bab41a2b941e0c64f7ed80409c1f18f602275d8100ccd"

# per fit: the encoded model record, the iteration CSV, and the digest of
# the SVG files' ``sha256sum`` lines
FITS = {
    "standard": (
        "f45abc729789eed173f435ecb5d1a37b2b83ee88fa846fac499e681e98c68001",
        "12d60ac418f91ad522453c362615c3d6323cdd0295b41a7a1ade0edb9e451fd3",
        "78b1a5af44a25c107c3bbf60f7d973ee90978257a17e49bea277d0e832193a9f",
    ),
    "modified": (
        "fba8e37ef38edd142b97fc1845e2c5a7f59a363d72eaf8f9610dfdec44a6f492",
        "f83c470c33d0b9cd9b0bfeb07ca7918ef7d916123298b629c5ca66a2175ca8fd",
        "bfaa23d524e10d7a7c29e0d2508b6f5929980ef3361d1ff74b329503c9f817f1",
    ),
    "single": (
        "aa639b21be650e34da8d2dedeca9feda82bf47eb8facc59fb4eeefd26c3a273e",
        "05a01d8d72ab623a905cf48036cf6fc95d30143188b667e303c2f086e8244739",
        "3bd3e82e6c941e7cabd76a9a0b2c8fafcf5f23f3bafa98472c4ef9bececf8455",
    ),
}

CONFIGS = {
    "standard": ClusterConfig(k=4, mode="standard", seed=3, max_iter=20),
    # a wide threshold and damping, so points are dual-assigned in every pass
    "modified": ClusterConfig(k=4, threshold=0.8, damping_weight=0.05, seed=5, max_iter=20),
    "single": ClusterConfig(k=1, seed=1, max_iter=5),
}


# the report of a standard and a dual-assigning modified fit on the
# reference corpus's chunks: the comparison CSV, each mode's top-terms CSV
# with every term, and the digest of each mode's extracts' ``sha256sum`` lines
REPORT = {
    "comparison.csv": "400b9045d62a311f70a4a0aa9370334adb836685c385039c07196687f191f624",
    "top_terms_standard.csv": "4a951c87dc84007c5374b009932e6f5bb367756f64e7f5b607083356cabb848c",
    "top_terms_modified.csv": "99fa7de943b981244f37ff4def7f9e8a13f1951dc9e601b684eeac61e8f4a997",
    "extracts_standard": "f9310ed44f73522633af5f983e334a45581199fd5ca27d4c083ec785f6e59116",
    "extracts_modified": "7cd0193830266ddb82835db72031d9ea38a1ac0270fef3b6393a02b0d8b1e96e",
}

# "comparable" is in the top 10 terms of one cluster of each fit
REPORT_QUERY = ["comparable", "vaccine"]


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def drawn_points(
    seed: int, n: int = 120, dim: int = 3, centers: int = 4, ids: list[str] | None = None
) -> tuple[list[str], np.ndarray, np.ndarray]:
    """``(ids, X, w)`` of Gaussian blobs with query-like weights in (0.05, 1),
    all from one ``random.Random``, whose draws are the same on every
    platform: each point's coordinates, then its weight. The points are
    ``ids``, when given, else ``n`` ids of their own."""
    rng = random.Random(seed)
    middles = [[rng.uniform(-4.0, 4.0) for _ in range(dim)] for _ in range(centers)]
    ids = ids or [f"p{i:03d}" for i in range(n)]
    rows = [
        ([rng.gauss(m, 1.5) for m in middles[i % centers]], rng.uniform(0.05, 1.0))
        for i in range(len(ids))
    ]
    return ids, np.array([x for x, _ in rows]), np.array([v for _, v in rows])


@pytest.fixture(scope="module")
def stage_dir(tmp_path_factory) -> Path:
    root = tmp_path_factory.mktemp("pinned")
    write_corpus_dir(root / "corpus", 20)
    out = ["--out", str(root / "out")]
    assert main(["ingest", *out, "--corpus", f"{root / 'corpus'}:synthetic"]) == 0
    assert main(["vectorize", *out]) == 0
    return root / "out" / "stages"


@pytest.mark.parametrize("name", list(STAGES))
def test_stage_bytes(stage_dir, name):
    assert sha256((stage_dir / f"{name}.jsonl").read_bytes()) == STAGES[name]


def test_weights_stage_bytes(stage_dir):
    out = ["--out", str(stage_dir.parent)]
    assert main(["reduce", *out]) == 0
    assert main(["cluster", *out, "--mode", "modified", "--query", "vaccine"]) == 0
    assert sha256((stage_dir / "weights.jsonl").read_bytes()) == WEIGHTS


def fit_digests(name: str, out: Path) -> tuple[str, str, str]:
    ids, X, w = drawn_points(seed=11)
    model = run(ids, X, w, CONFIGS[name])
    xy = plot_xy(X)
    write_iteration_csv(out / "iterations.csv", model, xy)
    svgs = sorted(write_iteration_svgs(out, model, xy))
    lines = "".join(f"{sha256(p.read_bytes())}  {p.name}\n" for p in svgs)
    if name == "modified":
        assert (model.secondary >= 0).any() and all((s.secondary >= 0).any() for s in model.history)
    return (
        sha256(encode_record(model.to_record()).encode()),
        sha256((out / "iterations.csv").read_bytes()),
        sha256(lines.encode()),
    )


@pytest.mark.parametrize("name", list(FITS))
def test_fit_bytes(tmp_path, name):
    assert fit_digests(name, tmp_path) == FITS[name]


def report_digests(stage_dir: Path, out: Path) -> dict[str, str]:
    table = StageStore(stage_dir, "chunks").load_with_meta(
        "chunk", lambda records, _: TokenTable.from_records(records)
    )[0]
    documents = StageStore(stage_dir, "documents").load_with_meta("document")[0]
    doc_labels = {d.doc_id: d.corpus_label for d in map(Document.from_record, documents)}
    points = drawn_points(seed=13, ids=table.point_ids)
    models = {name: run(*points, CONFIGS[name]) for name in ("standard", "modified")}
    assert (models["modified"].secondary >= 0).any()
    reports = {name: cluster_reports(model, table, n=None) for name, model in models.items()}
    rows = comparison_table(
        table, REPORT_QUERY, models["standard"], models["modified"], doc_labels, reports
    )
    write_comparison_csv(out / "comparison.csv", rows)
    digests = {"comparison.csv": sha256((out / "comparison.csv").read_bytes())}
    for name, model in models.items():
        path = out / f"top_terms_{name}.csv"
        write_top_terms_csv(path, reports[name])
        digests[path.name] = sha256(path.read_bytes())
        extracts = sorted(write_extracts(out / "extracts" / name, model, table))
        lines = "".join(f"{sha256(p.read_bytes())}  {p.name}\n" for p in extracts)
        digests[f"extracts_{name}"] = sha256(lines.encode())
    return digests


@pytest.mark.parametrize("name", list(REPORT))
def test_report_bytes(stage_dir, tmp_path, name):
    assert report_digests(stage_dir, tmp_path)[name] == REPORT[name]
