"""Command-line pipeline: ingest -> vectorize -> reduce -> cluster -> report.

Each subcommand reads the previous stage from the stage store under the
output directory and writes its own, so desk-scale experiments can iterate
on clustering without re-vectorizing. ``run-all`` chains everything except
the elbow scan. Re-running any subcommand with identical inputs and seed
rewrites byte-identical artifacts; no subcommand touches a prior stage's
files.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
from pathlib import Path
from typing import Any, Sequence

from . import cluster as clustering
from . import pca as reduction
from . import report as reporting
from . import vectorize as vectorization
from . import weighting
from .corpus import DEFAULT_BATCH_SIZE, Document, StageStore, batch_iter, load_corpus
from .errors import EmptyCorpus, KeyclustError, StageIoError
from .preprocess import (
    Chunk,
    CleaningConfig,
    chunk_document,
    default_cleaning_config,
    load_cleaning_config,
)

log = logging.getLogger("keyclust")

STOPLIST_ENV = "KEYCLUST_STOPLIST"

STAGE_DOCUMENTS = "documents"
STAGE_CHUNKS = "chunks"
STAGE_VOCABULARY = "vocabulary"
STAGE_VECTORS = "vectors"
STAGE_PCA = "pca"
STAGE_POINTS = "points"
STAGE_WEIGHTS = "weights"


def _stage(out: str, name: str) -> StageStore:
    return StageStore(root_path=Path(out) / "stages", stage_name=name)


def _reports_dir(out: str) -> Path:
    path = Path(out) / "reports"
    path.mkdir(parents=True, exist_ok=True)
    return path


def _load_stage(out: str, name: str, schema: str, hint: str) -> list[dict[str, Any]]:
    try:
        return _stage(out, name).load(schema)
    except StageIoError as exc:
        raise StageIoError(f"missing stage {name!r} ({exc}) — {hint}") from exc


def _cleaning_config(args: argparse.Namespace) -> CleaningConfig:
    override = os.environ.get(STOPLIST_ENV) or None
    if getattr(args, "cleaning_config", None):
        return load_cleaning_config(args.cleaning_config, stoplist_override=override)
    return default_cleaning_config(stoplist_path=override)


def _parse_corpus_args(values: Sequence[str]) -> list[tuple[str, str]]:
    pairs = []
    for value in values:
        path, sep, label = value.rpartition(":")
        if not sep or not path or not label:
            raise KeyclustError(
                f"--corpus expects <path>:<label>, got {value!r}"
            )
        pairs.append((path, label))
    return pairs


def _cluster_config(args: argparse.Namespace, mode: str | None = None, k: int | None = None) -> clustering.ClusterConfig:
    seeding = {"random": "random_distinct", "partial": "partial"}[args.seeding]
    try:
        return clustering.ClusterConfig(
            k=k if k is not None else args.k,
            threshold=args.threshold,
            damping_weight=args.damping,
            epsilon=args.epsilon,
            max_iter=args.max_iter,
            mode=mode if mode is not None else args.mode,
            seeding=seeding,
            seed=args.seed,
            raw_denominator=args.raw_denominator,
        )
    except ValueError as exc:
        raise KeyclustError(str(exc)) from exc


# ---------------------------------------------------------------------------
# subcommands


def cmd_ingest(args: argparse.Namespace) -> int:
    config = _cleaning_config(args)
    corpora = _parse_corpus_args(args.corpus)
    documents: list[Document] = []
    failures = 0
    for path, label in corpora:
        rep = load_corpus(path, label)
        for err in rep.errors:
            log.warning("skipped %s: %s", err.path, err.message)
        failures += len(rep.errors)
        documents.extend(rep.documents)
        log.info("corpus %s: %d documents, %d failures", label, len(rep.documents), len(rep.errors))
    if not documents:
        raise EmptyCorpus("no documents loaded from any corpus")

    def chunk_stream():
        for batch in batch_iter(documents, args.batch_size):
            for doc in batch:
                yield from (c.to_record() for c in chunk_document(doc, config))

    n_docs = _stage(args.out, STAGE_DOCUMENTS).save(
        (d.to_record() for d in documents), schema="document"
    )
    n_chunks = _stage(args.out, STAGE_CHUNKS).save(chunk_stream(), schema="chunk")
    log.info("ingested %d documents into %d chunks (%d files failed)", n_docs, n_chunks, failures)
    return 0


def _load_chunks(out: str) -> list[Chunk]:
    records = _load_stage(out, STAGE_CHUNKS, "chunk", "run 'keyclust ingest' first")
    return [Chunk.from_record(r) for r in records]


def cmd_vectorize(args: argparse.Namespace) -> int:
    chunks = _load_chunks(args.out)
    nonempty = [c for c in chunks if c.tokens]
    if not nonempty:
        raise EmptyCorpus("every chunk has an empty token list")
    vocab = vectorization.build_vocabulary(
        nonempty, min_df=args.min_df, max_df_ratio=args.max_df_ratio
    )
    _stage(args.out, STAGE_VOCABULARY).save(
        vocab.to_records(), schema="vocab-term", meta={"n_chunks": vocab.n_chunks}
    )
    vectors = [vectorization.tfidf_vector(c, vocab) for c in nonempty]
    empty_vectors = sum(1 for v in vectors if v.is_empty)
    if empty_vectors:
        log.warning("%d chunks have no in-vocabulary token (zero vectors)", empty_vectors)
    _stage(args.out, STAGE_VECTORS).save(
        (v.to_record() for v in vectors), schema="tfidf"
    )
    log.info("vocabulary %d terms over %d chunks", len(vocab), vocab.n_chunks)
    return 0


def _load_vocab(out: str) -> vectorization.Vocabulary:
    store = _stage(out, STAGE_VOCABULARY)
    try:
        records, meta = store.load_with_meta("vocab-term")
    except StageIoError as exc:
        raise StageIoError(
            f"missing stage {STAGE_VOCABULARY!r} ({exc}) — run 'keyclust vectorize' first"
        ) from exc
    return vectorization.Vocabulary.from_records(records, n_chunks=meta["n_chunks"])


def cmd_reduce(args: argparse.Namespace) -> int:
    vocab = _load_vocab(args.out)
    records = _load_stage(args.out, STAGE_VECTORS, "tfidf", "run 'keyclust vectorize' first")
    vectors = [vectorization.TfIdfVector.from_record(r) for r in records]
    matrix = vectorization.densify(vectors, len(vocab))
    cap = min(len(vocab), len(vectors) - 1)
    dim = min(args.pca_dim, cap)
    if dim < args.pca_dim:
        log.warning("pca-dim %d capped to %d by the data", args.pca_dim, dim)
    model = reduction.fit_pca(matrix, dim)
    _stage(args.out, STAGE_PCA).save([model.to_record()], schema="pca-model")
    points = reduction.reduce_points([v.chunk_id for v in vectors], matrix, model)
    _stage(args.out, STAGE_POINTS).save(
        (p.to_record() for p in points), schema="reduced-point"
    )
    log.info(
        "reduced %d vectors to %d dimensions (top variance %.6f)",
        len(points), dim, float(model.explained_variance[0]),
    )
    return 0


def _load_points(out: str) -> list[reduction.ReducedPoint]:
    records = _load_stage(out, STAGE_POINTS, "reduced-point", "run 'keyclust reduce' first")
    return [reduction.ReducedPoint.from_record(r) for r in records]


def cmd_cluster(args: argparse.Namespace, mode: str | None = None) -> int:
    mode = mode or args.mode
    chunks = _load_chunks(args.out)
    vocab = _load_vocab(args.out)
    points = _load_points(args.out)
    config = _cluster_config(args, mode=mode)
    query_words = weighting.normalize_query(args.query, _cleaning_config(args))
    point_ids = {p.chunk_id for p in points}
    weights = weighting.assign_weights(
        [c for c in chunks if c.chunk_id in point_ids], query_words, vocab
    )
    _stage(args.out, STAGE_WEIGHTS).save(
        weighting.export_records(weights), schema="weight"
    )
    wpoints = weighting.weighted_points(points, weights)
    model = clustering.run(wpoints, config)
    _stage(args.out, f"model_{mode}").save([model.to_record()], schema="cluster-model")
    coords_by_id = {p.chunk_id: p.coords for p in points}
    reports = _reports_dir(args.out)
    reporting.write_iteration_csv(reports / f"iterations_{mode}.csv", model, coords_by_id)
    reporting.write_iteration_svgs(reports, model, coords_by_id, prefix=f"iteration_{mode}")
    log.info(
        "%s k-means: %d iterations, converged=%s, distortion %.6f, %d dual-assigned",
        mode, model.iterations, model.converged, model.distortion,
        int((model.secondary >= 0).sum()),
    )
    return 0


def cmd_elbow(args: argparse.Namespace) -> int:
    points = _load_points(args.out)
    if args.mode == "modified":
        if not args.query:
            raise KeyclustError("--query is required for a modified-mode elbow scan")
        chunks = _load_chunks(args.out)
        vocab = _load_vocab(args.out)
        query_words = weighting.normalize_query(args.query, _cleaning_config(args))
        point_ids = {p.chunk_id for p in points}
        weights = weighting.assign_weights(
            [c for c in chunks if c.chunk_id in point_ids], query_words, vocab
        )
        wpoints = weighting.weighted_points(points, weights)
    else:
        wpoints = weighting.unit_points(points)
    config = _cluster_config(args, mode=args.mode, k=args.k_min)
    results = clustering.elbow_scan(
        wpoints, config, (args.k_min, args.k_max), restarts=args.restarts
    )
    reporting.write_elbow_csv(_reports_dir(args.out) / "elbow.csv", results)
    for k, d in results:
        log.info("k=%d distortion %.6f", k, d)
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    chunks = _load_chunks(args.out)
    doc_records = _load_stage(args.out, STAGE_DOCUMENTS, "document", "run 'keyclust ingest' first")
    doc_labels = {r["doc_id"]: r["corpus_label"] for r in doc_records}
    models = {}
    for mode in ("standard", "modified"):
        records = _load_stage(
            args.out, f"model_{mode}", "cluster-model",
            f"run 'keyclust cluster --mode {mode}' first",
        )
        models[mode] = clustering.ClusterModel.from_record(records[0])
    query_words = weighting.normalize_query(args.query, _cleaning_config(args))
    rows = reporting.comparison_table(
        chunks, query_words, models["standard"], models["modified"], doc_labels
    )
    reports = _reports_dir(args.out)
    reporting.write_comparison_csv(reports / "comparison.csv", rows)
    chunks_by_id = {c.chunk_id: c for c in chunks}
    for mode, model in models.items():
        cluster_reps = reporting.cluster_reports(model, chunks_by_id, n=args.top_n)
        reporting.write_top_terms_csv(reports / f"top_terms_{mode}.csv", cluster_reps)
        reporting.write_extracts(reports / "extracts" / mode, model, chunks)
    for row in rows:
        log.info(
            "%s: total=%d search=%d standard=%d modified=%d",
            row.corpus_label, row.total_paragraphs, row.search_count,
            row.standard_kmeans_count, row.modified_kmeans_count,
        )
    return 0


def cmd_run_all(args: argparse.Namespace) -> int:
    cmd_ingest(args)
    cmd_vectorize(args)
    cmd_reduce(args)
    cmd_cluster(args, mode="standard")
    cmd_cluster(args, mode="modified")
    cmd_report(args)
    return 0


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="keyclust",
        description="Keyword-weighted document clustering pipeline",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", default="out", help="output directory (stages + reports)")
    common.add_argument("--cleaning-config", default=None, help="JSON cleaning config path")

    ingest_flags = argparse.ArgumentParser(add_help=False)
    ingest_flags.add_argument(
        "--corpus", action="append", required=True, metavar="PATH:LABEL",
        help="corpus directory and its label (repeatable)",
    )
    ingest_flags.add_argument("--batch-size", type=int, default=DEFAULT_BATCH_SIZE)

    vec_flags = argparse.ArgumentParser(add_help=False)
    vec_flags.add_argument("--min-df", type=int, default=2)
    vec_flags.add_argument("--max-df-ratio", type=float, default=0.95)

    reduce_flags = argparse.ArgumentParser(add_help=False)
    reduce_flags.add_argument("--pca-dim", type=int, default=50)

    cluster_flags = argparse.ArgumentParser(add_help=False)
    cluster_flags.add_argument("--k", type=int, default=5)
    cluster_flags.add_argument("--threshold", type=float, default=clustering.DEFAULT_THRESHOLD)
    cluster_flags.add_argument("--damping", type=float, default=clustering.DEFAULT_DAMPING)
    cluster_flags.add_argument("--epsilon", type=float, default=clustering.DEFAULT_EPSILON)
    cluster_flags.add_argument("--max-iter", type=int, default=clustering.DEFAULT_MAX_ITER)
    cluster_flags.add_argument("--mode", choices=("modified", "standard"), default="modified")
    cluster_flags.add_argument("--seeding", choices=("random", "partial"), default="random")
    cluster_flags.add_argument("--seed", type=int, default=0)
    cluster_flags.add_argument("--threads", type=int, default=1, help="has no effect")
    cluster_flags.add_argument("--raw-denominator", action="store_true")

    p = sub.add_parser("ingest", parents=[common, ingest_flags],
                       help="load corpora and write document + chunk stages")
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("vectorize", parents=[common, vec_flags],
                       help="build vocabulary and tf-idf vector stages")
    p.set_defaults(func=cmd_vectorize)

    p = sub.add_parser("reduce", parents=[common, reduce_flags],
                       help="fit PCA and write the reduced-point stage")
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser("cluster", parents=[common, cluster_flags],
                       help="weight points by query and fit a cluster model")
    p.add_argument("--query", required=True)
    p.set_defaults(func=cmd_cluster)

    p = sub.add_parser("elbow", parents=[common, cluster_flags],
                       help="distortion-vs-k scan (best of N restarts)")
    p.add_argument("--query", default=None)
    p.add_argument("--k-min", type=int, default=1)
    p.add_argument("--k-max", type=int, default=10)
    p.add_argument("--restarts", type=int, default=10)
    p.set_defaults(func=cmd_elbow, mode="standard")

    p = sub.add_parser("report", parents=[common],
                       help="comparison table, top terms, and cluster extracts")
    p.add_argument("--query", required=True)
    p.add_argument("--top-n", type=int, default=10)
    p.set_defaults(func=cmd_report)

    p = sub.add_parser(
        "run-all",
        parents=[common, ingest_flags, vec_flags, reduce_flags, cluster_flags],
        help="chain ingest, vectorize, reduce, both cluster modes, and report",
    )
    p.add_argument("--query", required=True)
    p.add_argument("--top-n", type=int, default=10)
    p.set_defaults(func=cmd_run_all)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    logging.basicConfig(
        level=logging.INFO, format="%(levelname)s %(name)s: %(message)s", stream=sys.stderr
    )
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except KeyclustError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
