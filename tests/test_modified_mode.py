"""What modified mode does on a realistic corpus (README "What modified
mode does"): query weighting, not dual assignment, makes a residual
cluster. Most centroids settle on the few chunks that contain the query,
and one cluster keeps most of the other chunks, with or without duals;
with unit weights no cluster holds more than a small share.

The corpus is ``write_corpus_dir(20, seed=0, n_sentences=90)``: 600
chunks, about a fifth of the 1x reference corpus, which shows the same
shape. The largest clusters by primary members, for K-means seeds 7-12 at
k = 10 (`--query vaccine`, `--pca-dim 50`, defaults otherwise):

- query weights:                 525, 270, 520, 523, 512, 509
- query weights, threshold 0:    535, 302, 236, 545, 528, 521
- unit weights:                   73,  74,  70,  73,  74,  73
"""

import numpy as np
import pytest

from keyclust.cli import main
from keyclust.cluster import ClusterConfig, run
from keyclust.corpus import StageStore
from keyclust.pca import read_points
from keyclust.preprocess import chunk_tokens
from keyclust.vectorize import Vocabulary
from keyclust.weighting import FLOOR_WEIGHT, assign_weights, unit_points, weighted_points

from conftest import write_corpus_dir

SEEDS = range(7, 13)


@pytest.fixture(scope="module")
def points_and_weights(tmp_path_factory):
    root = tmp_path_factory.mktemp("residual")
    write_corpus_dir(root / "corpus", n_articles=20, seed=0, n_sentences=90)
    out = ["--out", str(root / "out")]
    assert main(["ingest", *out, "--corpus", f"{root / 'corpus'}:synthetic"]) == 0
    assert main(["vectorize", *out]) == 0
    assert main(["reduce", *out, "--pca-dim", "50"]) == 0

    def load(name, schema):
        return StageStore(root / "out" / "stages", name).load_with_meta(schema)

    points = read_points(load("points", "reduced-point")[0])
    records, meta = load("vocabulary", "vocab-term")
    vocab = Vocabulary.from_records(records, n_chunks=meta["n_chunks"])
    return points, assign_weights(chunk_tokens(load("chunks", "chunk")[0]), ["vaccine"], vocab)


def largest_clusters(ids, X, w, **config):
    fits = (run(ids, X, w, ClusterConfig(k=10, seed=s, **config)) for s in SEEDS)
    return [int(np.bincount(model.primary).max()) for model in fits]


@pytest.mark.parametrize("threshold", [None, 0.0], ids=["duals", "no-duals"])
def test_query_weights_leave_a_residual_cluster(points_and_weights, threshold):
    (ids, X), weights = points_and_weights
    n = len(ids)
    assert n == 600
    matched = sum(w > FLOOR_WEIGHT for w in weights.values())
    assert matched < n / 10  # the query's chunks are few
    config = {} if threshold is None else {"threshold": threshold}
    largest = largest_clusters(ids, X, weighted_points(ids, weights), **config)
    # every seed: one cluster holds over a third of the points; in the median, most
    assert min(largest) > 0.3 * n, largest
    assert np.median(largest) > 0.6 * n, largest


def test_unit_weights_leave_no_residual_cluster(points_and_weights):
    (ids, X), _ = points_and_weights
    largest = largest_clusters(ids, X, unit_points(ids))
    assert max(largest) < 0.2 * len(ids), largest
