"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with ``pytest tests/test_acceptance.py -v -s``)."""

import hashlib
import time
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path

import numpy as np
from scipy.optimize import linprog

from keyclust.cli import main
from keyclust.cluster import (
    ClusterConfig,
    ClusterModel,
    assign_point,
    distortion,
    elbow_scan,
    init_centroids,
    run,
    update_centroids,
)
from keyclust.pca import fit_pca
from keyclust.report import comparison_table
from keyclust.vectorize import build_vocabulary, tfidf_vector
from keyclust.weighting import assign_weights, weighted_points

from conftest import blob_points, random_points, token_table, toy_chunk, write_corpus_dir
from oracles import eigh_pca_oracle, lloyd_oracle

# models fitted by earlier criteria, re-checked by the dual-counting criterion
FITTED_MODELS: list[ClusterModel] = []


@contextmanager
def criterion(number: int, label: str):
    try:
        yield
    except BaseException:
        print(f"\nFAIL  criterion {number:02d}: {label}")
        raise
    print(f"\nPASS  criterion {number:02d}: {label}")


def models_identical(a: ClusterModel, b: ClusterModel) -> bool:
    if not np.array_equal(a.centroids, b.centroids):
        return False
    if (a.iterations, a.converged, a.distortion) != (b.iterations, b.converged, b.distortion):
        return False
    if a.assignments != b.assignments:
        return False
    if len(a.history) != len(b.history):
        return False
    # each snapshot's centroids and labels, bit for bit
    return all(
        x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()
        for ha, hb in zip(a.history, b.history)
        for x, y in ((ha.centroids, hb.centroids), (ha.primary, hb.primary), (ha.secondary, hb.secondary))
    )


def tree_digest(root: Path) -> dict[str, str]:
    return {
        str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


def test_criterion_01_lloyd_oracle_equivalence():
    with criterion(1, "standard mode equals brute-force Lloyd on 100 instances"):
        started = time.perf_counter()
        master = np.random.default_rng(1234)
        for case in range(100):
            n = int(master.integers(20, 201))
            dim = int(master.integers(2, 6))
            k = int(master.integers(2, 9))
            rng = np.random.default_rng((1234, case))
            ids, X, w = random_points(rng, n, dim)
            cfg = ClusterConfig(k=k, mode="standard", seed=case)
            init = init_centroids(X, cfg)
            model = run(ids, X, w, cfg)
            cents, labels, iters, converged, _ = lloyd_oracle(
                X.tolist(),
                init.tolist(),
                epsilon=cfg.epsilon,
                max_iter=cfg.max_iter,
            )
            assert [a.primary_cluster for a in model.assignments] == labels, case
            assert model.iterations == iters, case
            assert model.converged == converged, case
            assert np.array_equal(model.centroids, np.asarray(cents)), case
            assert all(a.secondary_cluster is None for a in model.assignments)
            if case % 10 == 0:
                FITTED_MODELS.append(model)
        elapsed = time.perf_counter() - started
        assert elapsed < 30.0, f"oracle sweep took {elapsed:.1f}s"


def test_criterion_02_modified_degenerates_to_standard():
    with criterion(2, "threshold=0, damping=0, unit weights is bit-identical to standard"):
        for case in range(50):
            rng = np.random.default_rng((777, case))
            n = int(rng.integers(20, 120))
            dim = int(rng.integers(2, 5))
            k = int(rng.integers(2, 7))
            points = random_points(np.random.default_rng((778, case)), n, dim)
            standard = run(*points, ClusterConfig(k=k, mode="standard", seed=case))
            degenerate = run(
                *points,
                ClusterConfig(
                    k=k, mode="modified", threshold=0.0, damping_weight=0.0, seed=case
                ),
            )
            assert models_identical(standard, degenerate), case
        FITTED_MODELS.append(standard)


def test_criterion_03_two_cluster_assignment_rule():
    with criterion(3, "secondary assignment iff distance gap < threshold"):
        # the worked examples: gap 0.005 < 0.01 dual; gap 0.02 >= 0.01 single
        dual = assign_point("p", [0.0], np.array([[0.5], [-0.505]]), 0.01)
        assert dual.secondary_cluster == 1
        assert dual.d_primary == 0.5 and dual.d_secondary == 0.505
        single = assign_point("p", [0.0], np.array([[0.5], [-0.52]]), 0.01)
        assert single.secondary_cluster is None

        rng = np.random.default_rng(4242)
        for _ in range(500):
            k = int(rng.integers(2, 8))
            dim = int(rng.integers(1, 4))
            point = rng.uniform(-5, 5, dim)
            centroids = rng.uniform(-5, 5, (k, dim))
            threshold = float(rng.uniform(0, 2))
            a = assign_point("p", point, centroids, threshold)
            dists = np.sqrt(np.sum((centroids - point) ** 2, axis=1))
            order = np.lexsort((np.arange(k), dists))
            assert a.primary_cluster == order[0]
            gap = dists[order[1]] - dists[order[0]]
            if gap < threshold:
                assert a.secondary_cluster == order[1]
            else:
                assert a.secondary_cluster is None
        # threshold zero never dual-assigns
        for _ in range(100):
            point = rng.uniform(-5, 5, 2)
            centroids = rng.uniform(-5, 5, (4, 2))
            assert assign_point("p", point, centroids, 0.0).secondary_cluster is None


def test_criterion_04_centroid_update_convexity():
    with criterion(4, "updated centroid in hull of members + previous; damped formula"):
        # single member: (x + 0.01 c) / 1.01 to 1e-12
        rng = np.random.default_rng(55)
        for _ in range(100):
            x = rng.uniform(-10, 10, 3)
            c = rng.uniform(-10, 10, 3)
            new, _ = update_centroids([x], [1.0], [0], np.array([c]), damping_weight=0.01)
            assert np.abs(new[0] - (x + 0.01 * c) / 1.01).max() < 1e-12

        for case in range(1000):
            rng = np.random.default_rng((99, case))
            m = int(rng.integers(1, 11))
            dim = int(rng.integers(1, 5))
            members = [(rng.uniform(-5, 5, dim), float(rng.uniform(0.01, 1.0))) for _ in range(m)]
            X = np.array([x for x, _ in members])
            prev = rng.uniform(-5, 5, (1, dim))
            new, _ = update_centroids(
                X, [v for _, v in members], np.zeros(m, dtype=int), prev, damping_weight=0.01
            )
            # hull membership solved as an LP feasibility problem
            vertices = np.concatenate([X, prev])
            a_eq = np.vstack([vertices.T, np.ones(len(vertices))])
            b_eq = np.concatenate([new[0], [1.0]])
            res = linprog(
                c=np.zeros(len(vertices)),
                A_eq=a_eq,
                b_eq=b_eq,
                bounds=[(0, None)] * len(vertices),
                method="highs",
            )
            assert res.success, f"case {case}: centroid outside convex hull"


def test_criterion_05_tfidf_contract():
    with criterion(5, "unit norms, universal idf == 1.0, hand-computed corpus"):
        rng = np.random.default_rng(2020)
        lists = [
            [str(rng.integers(0, 30)) for _ in range(int(rng.integers(1, 20)))]
            for _ in range(200)
        ]
        chunks = [toy_chunk(f"c{i}", toks) for i, toks in enumerate(lists)]
        vocab = build_vocabulary([c.tokens for c in chunks], min_df=1, max_df_ratio=1.0)
        for chunk in chunks:
            vec = tfidf_vector(chunk.chunk_id, chunk.tokens, vocab)
            assert abs(vec.norm - 1.0) < 1e-9

        shared = [toy_chunk(f"s{i}", ["everywhere", f"unique{i}"]) for i in range(7)]
        vocab_shared = build_vocabulary([c.tokens for c in shared], min_df=1, max_df_ratio=1.0)
        assert vocab_shared.idf("everywhere") == 1.0

        corpus = [
            toy_chunk("c1", ["vaccine", "vaccine", "trial"]),
            toy_chunk("c2", ["vaccine", "mask"]),
            toy_chunk("c3", ["mask", "trial", "mask", "distancing"]),
        ]
        vocab3 = build_vocabulary([c.tokens for c in corpus], min_df=1, max_df_ratio=1.0)
        expected = {
            "c1": {2: 0.4472135954999579, 3: 0.8944271909999159},
            "c2": {1: 0.7071067811865476, 3: 0.7071067811865476},
            "c3": {0: 0.5068900148458076, 1: 0.7710058432202013, 2: 0.38550292161010064},
        }
        for chunk in corpus:
            vec = tfidf_vector(chunk.chunk_id, chunk.tokens, vocab3)
            assert set(vec.entries) == set(expected[chunk.chunk_id])
            for idx, want in expected[chunk.chunk_id].items():
                assert abs(vec.entries[idx] - want) < 1e-12


def test_criterion_06_pca_contract():
    with criterion(6, "orthonormal components, collinear variance, eigh oracle"):
        for seed in range(6):
            X = np.random.default_rng(seed).standard_normal((30, 8))
            model = fit_pca(X, 6)
            gram = model.components @ model.components.T
            assert np.abs(gram - np.eye(6)).max() < 1e-8

        line = np.array([[t, t] for t in np.linspace(-3.0, 3.0, 12)])
        collinear = fit_pca(line, 2)
        assert collinear.explained_variance[1] < 1e-10

        for seed in range(10):
            X = np.random.default_rng((6, seed)).standard_normal((20, 5))
            model = fit_pca(X, 4)
            _, comps, evar = eigh_pca_oracle(X, 4)
            for row in range(4):
                got = model.components[row]
                if np.dot(got, comps[row]) < 0:
                    got = -got
                assert np.abs(got - comps[row]).max() < 1e-6
            assert np.abs(model.explained_variance - evar).max() < 1e-6 * evar[0]


def test_criterion_07_elbow_on_three_blobs():
    with criterion(7, "distortion non-increasing over k=1..10, >3x drop by k=3"):
        started = time.perf_counter()
        rng = np.random.default_rng(303)
        points = blob_points(rng, [(0.0, 0.0), (10.0, 0.0), (5.0, 8.7)], 200, std=0.7)
        cfg = ClusterConfig(k=1, mode="standard", seed=11)
        results = elbow_scan(*points, cfg, (1, 10), restarts=10)
        values = [d for _, d in results]
        assert all(b <= a + 1e-9 for a, b in zip(values, values[1:]))
        assert values[0] / values[2] > 3.0
        elapsed = time.perf_counter() - started
        assert elapsed < 60.0, f"elbow scan took {elapsed:.1f}s"
        FITTED_MODELS.append(run(*points, replace(cfg, k=3)))


def _planted_corpus():
    """500 chunks: 45 pure query chunks in a tight blob, 15 dual-topic chunks
    straddling the boundary toward a 440-chunk unrelated blob. One chunk
    repeats the query term so every other score maps low on the weight scale."""
    rng = np.random.default_rng(0)
    chunks, points = [], []

    def add(cid, tokens, xy):
        chunks.append(toy_chunk(cid, tokens))
        points.append(xy)

    for i in range(45):
        tokens = ["vaccine"] * (20 if i == 0 else 2) + ["dose", "trial"]
        add(f"vax{i:03d}", tokens, rng.normal((0.0, 0.0), 0.04, 2))
    for i, x in enumerate(np.linspace(0.75, 0.93, 15)):
        add(f"dual{i:02d}", ["vaccine", "bridge", "overlap"], (x, rng.uniform(-0.02, 0.02)))
    terms = [f"t0w{j:02d}" for j in range(12)]
    for i in range(440):
        add(f"top_{i:03d}", terms * 3, rng.normal((1.2, 0.0), 0.05, 2))
    return chunks, np.array(points, dtype=float)


def test_criterion_08_comparison_table_surrogate():
    with criterion(8, "modified count >= standard in >=80% of seeds, never > planted 60"):
        chunks, X = _planted_corpus()
        vocab = build_vocabulary([c.tokens for c in chunks], min_df=2, max_df_ratio=0.95)
        weights = assign_weights([(c.chunk_id, c.tokens) for c in chunks], "vaccine", vocab)
        ids = [c.chunk_id for c in chunks]
        w = weighted_points(ids, weights)
        table = token_table(chunks)
        ground_truth = 60
        wins = 0
        for seed in range(20):
            standard = run(
                ids, X, w,
                ClusterConfig(
                    k=2, mode="standard", seed=seed, seeding="partial", epsilon=1e-6
                ),
            )
            modified = run(
                ids, X, w,
                ClusterConfig(
                    k=2, mode="modified", threshold=0.6, seed=seed,
                    seeding="partial", epsilon=1e-6,
                ),
            )
            row = comparison_table(table, "vaccine", standard, modified)[0]
            assert row.modified_kmeans_count <= ground_truth, seed
            assert row.total_paragraphs == 500
            if row.modified_kmeans_count >= row.standard_kmeans_count:
                wins += 1
            if seed < 3:
                FITTED_MODELS.extend([standard, modified])
        assert wins >= 16, f"modified >= standard in only {wins}/20 seeds"


def test_criterion_09_dual_counting_bound():
    with criterion(9, "dual-counted distortion >= primary-only on every fitted model"):
        models = list(FITTED_MODELS)
        rng = np.random.default_rng(909)
        for threshold in (0.05, 0.3, 1.0):
            points = random_points(rng, 150, 3)
            models.append(
                run(*points, ClusterConfig(k=5, mode="modified", threshold=threshold, seed=1))
            )
        assert len(models) >= 10
        dual_seen = 0
        for model in models:
            assert distortion(model) >= distortion(model, include_secondary=False)
            dual_seen += sum(
                1 for a in model.assignments if a.secondary_cluster is not None
            )
        assert dual_seen > 0  # the bound was exercised, not vacuous


def test_criterion_10_pipeline_determinism_and_scale(tmp_path):
    with criterion(10, "3000-chunk pipeline < 60 s, byte-identical reruns and threads"):
        corpus = tmp_path / "corpus"
        write_corpus_dir(corpus, n_articles=100, seed=0, n_sentences=90)

        def run_all(out, threads):
            started = time.perf_counter()
            rc = main(
                [
                    "run-all", "--out", str(out),
                    "--corpus", f"{corpus}:synthetic",
                    "--query", "vaccine", "--k", "10", "--pca-dim", "50",
                    "--seed", "7", "--threads", str(threads), "--batch-size", "50",
                ]
            )
            elapsed = time.perf_counter() - started
            assert rc == 0
            assert elapsed < 60.0, f"pipeline took {elapsed:.1f}s"
            return tree_digest(out)

        first = run_all(tmp_path / "run1", threads=1)
        second = run_all(tmp_path / "run2", threads=1)
        threaded = run_all(tmp_path / "run4", threads=4)
        n_chunks = sum(
            1 for line in (tmp_path / "run1" / "stages" / "chunks.jsonl").open()
        ) - 1
        assert n_chunks >= 2500
        assert first == second
        assert first == threaded
