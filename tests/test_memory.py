"""Memory that stage decoding, query weighting, ``vectorize``, ``reduce``
and a K-means fit hold at their peak, and that a fitted model keeps.

Memory is counted with ``tracemalloc``, which sees every Python object and
every NumPy buffer allocated while it runs, so a figure repeats from run to
run, where a resident-set figure would move with the allocator and with
whatever the test process held before.
"""

import argparse
import tracemalloc

import numpy as np
import pytest

from keyclust.cli import _query_weights, _Stages, main
from keyclust.cluster import ClusterConfig, run

from conftest import random_points, write_corpus_dir


@pytest.fixture(scope="module")
def outs(tmp_path_factory):
    """Stages through ``points`` for the first 20 and 100 articles of the
    reference corpus: 600 and 3000 chunks."""
    outs = {}
    for articles in (20, 100):
        root = tmp_path_factory.mktemp(f"memory{articles}")
        write_corpus_dir(root / "corpus", n_articles=articles, seed=0, n_sentences=90)
        out = outs[30 * articles] = root / "out"
        assert main(["ingest", "--out", str(out), "--corpus", f"{root / 'corpus'}:synthetic"]) == 0
        assert main(["vectorize", "--out", str(out)]) == 0
        assert main(["reduce", "--out", str(out), "--pca-dim", "50"]) == 0
    return outs


def traced_peak(fn):
    """``fn()`` and the peak of the memory it allocated, in bytes."""
    tracemalloc.start()
    try:
        return fn(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("chunks", [600, 3000])
def test_points_decode_holds_little_beside_the_coordinates(outs, chunks):
    stages = _Stages(str(outs[chunks]))
    # scanned first, so that the peak is the decode's and not the hash's
    # fixed-size read block (HASH_BLOCK_BYTES)
    stages.check("points")
    (ids, X), peak = traced_peak(lambda: stages.load("points"))
    assert len(ids) == chunks and X.shape == (chunks, 50) and X.flags.c_contiguous
    # 2.2x at 3000 chunks: the rows are read into one array as the records
    # are parsed, and copied once. Collecting every record's list of floats
    # before making the array peaks at 5.4x (6.5 MB against 2.6 MB)
    assert peak <= 2.5 * X.nbytes, (peak, X.nbytes)


def test_vectors_decode_holds_little_beside_its_arrays(outs):
    stages = _Stages(str(outs[3000]))
    stages.check("vectors")
    (ids, offsets, indices, weights), peak = traced_peak(lambda: stages.load("vectors"))
    assert len(ids) == 3000 and offsets[-1] == len(indices) == len(weights)
    csr_bytes = offsets.nbytes + indices.nbytes + weights.nbytes
    # about 1.3x: the arrays, the ids, and the buffers' spare room as they
    # grow. Two small arrays per row peaked at 2.0x, and reading the indices
    # and weights into Python lists before making arrays peaks at 3.9x
    assert peak <= 3 * csr_bytes, (peak, csr_bytes)


def test_query_weights_keep_no_chunk(outs):
    stages = _Stages(str(outs[3000]))
    stages.check("vocabulary")  # scans the chunks stage too, before the peak is taken
    weights, peak = traced_peak(lambda: _query_weights(argparse.Namespace(query="vaccine"), stages)[1])
    assert len(weights) == 3000
    stage_bytes = (outs[3000] / "stages" / "chunks.jsonl").stat().st_size
    # about 0.29x (0.56 MB): the scores and the weights, one entry per chunk.
    # Decoding every chunk, raw text included, before scoring them peaked at
    # 3.5x (6.78 MB), 12 times as much
    assert peak <= stage_bytes / 2, (peak, stage_bytes)


def test_reduce_holds_little_beside_the_dense_matrix(outs):
    stages = _Stages(str(outs[3000]))
    matrix_bytes = 8 * len(stages.load("vocabulary")) * len(stages.load("points")[0])
    rc, peak = traced_peak(lambda: main(["reduce", "--out", str(outs[3000]), "--pca-dim", "50"]))
    assert rc == 0
    # about 1.4x; a second (n, V) array, such as a centred copy, makes it 2.3x
    assert peak <= 2 * matrix_bytes, (peak, matrix_bytes)


def test_vectorize_holds_little_beside_its_vectors(outs):
    out = outs[3000]
    rc, peak = traced_peak(lambda: main(["vectorize", "--out", str(out)]))
    assert rc == 0
    stage_bytes = (out / "stages" / "vectors.jsonl").stat().st_size
    # about 3.7x; decoding each chunk whole, raw text included, made it 4.5x, and
    # holding every chunk's TfIdfVector until the stage is written 6.8x
    assert peak <= 4.0 * stage_bytes, (peak, stage_bytes)


def test_fit_reads_the_points_in_place():
    ids, X, w = random_points(np.random.default_rng(0), 3000, 50)
    model, peak = traced_peak(lambda: run(ids, X, w, ClusterConfig(k=10, seed=7, max_iter=12)))
    assert model.iterations == 12
    # about 1.8x of X (1.2 MB): the twelve snapshots' labels, the screen's
    # (k, n) tables and the final pass. Stacking the points into a copy of X
    # before the fit peaked at 2.8x
    assert peak <= 2.3 * X.nbytes, (peak, X.nbytes)


def test_fitted_model_keeps_labels_not_distances_per_iteration():
    n = 3000
    points = random_points(np.random.default_rng(0), n, 50)
    tracemalloc.start()
    try:
        model = run(*points, ClusterConfig(k=10, seed=7, max_iter=12))
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert model.iterations == 12 and not model.converged
    # about 21 bytes per point and iteration: each snapshot's two int64
    # label arrays, plus the final pass and the centroids spread over the
    # iterations; snapshots that also keep both distances take about 37
    per_point_iteration = retained / (n * model.iterations)
    assert per_point_iteration <= 28, (retained, per_point_iteration)


def test_one_centroid_fit_holds_no_copy_of_the_points():
    # with one centroid the screen settles no row, so every assignment pass
    # computes every row's exact sums; it must read the points in place
    # rather than through a copy of them (1.2 MB here): k = 1 peaked at
    # 4.29 MB against 3.37 MB at k = 2 with that copy, and at 3.07 MB without
    points = random_points(np.random.default_rng(0), 3000, 50)

    def fit_peak(k):
        config = ClusterConfig(k=k, seed=7, max_iter=12, mode="standard")
        return traced_peak(lambda: run(*points, config))[1]

    one, two = fit_peak(1), fit_peak(2)
    assert one <= two + 200_000, (one, two)
