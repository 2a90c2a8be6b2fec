"""Command-line pipeline: ingest -> vectorize -> reduce -> cluster -> report.

Each subcommand reads the previous stage from the stage store under the
output directory and writes its own, so desk-scale experiments can iterate
on clustering without re-vectorizing. ``run-all`` chains everything except
the elbow scan. Re-running any subcommand with identical inputs and seed
rewrites byte-identical artifacts; no subcommand touches a prior stage's
files. Every stage header records the sha256 of the records of the stages
it was computed from; a stage is read only while those digests still hold,
back to the chunks, and ``cluster`` does not fit again a model whose header
records the inputs it would record and outputs that are still intact.
"""

from __future__ import annotations

import argparse
import hashlib
import logging
import math
import sys
import time
from contextlib import contextmanager, suppress
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, Mapping, Sequence

try:
    import resource
except ImportError:  # not on Windows
    resource = None

from . import __version__
from . import cluster as clustering
from . import pca as reduction
from . import report as reporting
from . import vectorize as vectorization
from . import weighting
from .corpus import DEFAULT_BATCH_SIZE, Document, StageStore, batch_iter, encode_record, file_sha256, load_corpus
from .errors import EmptyCorpus, InvalidPattern, KeyclustError, SchemaMismatch, StageIoError
from .preprocess import (
    CleaningConfig,
    TokenTable,
    chunk_document,
    chunk_tokens,
    default_cleaning_config,
    load_cleaning_config,
)

log = logging.getLogger("keyclust")


def _decode_vocab(records: Iterator[dict[str, Any]], meta: dict[str, Any]) -> vectorization.Vocabulary:
    if "n_chunks" not in meta:
        raise SchemaMismatch("stage 'vocabulary' header has no 'n_chunks'")
    return vectorization.Vocabulary.from_records(records, n_chunks=meta["n_chunks"])


def _decode_model(records: Iterator[dict[str, Any]], _: dict[str, Any]) -> clustering.ClusterModel:
    return clustering.ClusterModel.from_record(list(records)[0])


# every stage file: name -> (record schema, the command that writes it, the stages
# it is computed from, the decoder from its records, parsed one at a time, and
# header fields to what commands use, None where no command decodes it);
# cluster-model-2 records keep no per-iteration distances. A decoder looks a class
# up when it is called, so a method wrapped later (by a profiler or tracer) is the
# one that runs.
STAGES = {
    "documents": (
        "document", "keyclust ingest", (),
        lambda rs, _: {d.doc_id: d.corpus_label for d in map(Document.from_record, rs)},
    ),
    "chunks": ("chunk", "keyclust ingest", (), lambda rs, _: TokenTable.from_records(rs, tokens_only=True)),
    "vocabulary": ("vocab-term", "keyclust vectorize", ("chunks",), _decode_vocab),
    "vectors": (
        "tfidf", "keyclust vectorize", ("chunks", "vocabulary"),
        lambda rs, _: vectorization.read_rows(rs),
    ),
    "pca": ("pca-model", "keyclust reduce", ("vectors",), None),
    "points": (
        "reduced-point", "keyclust reduce", ("vectors", "pca"),
        lambda rs, _: reduction.read_points(rs),
    ),
    "weights": ("weight", "keyclust cluster --mode modified", ("chunks", "vocabulary"), None),
    "model_standard": ("cluster-model-2", "keyclust cluster --mode standard", ("points",), _decode_model),
    "model_modified": ("cluster-model-2", "keyclust cluster --mode modified", ("points", "weights"), _decode_model),
}


@contextmanager
def _record_shape(name: str) -> Iterator[None]:
    """A record of stage ``name`` that cannot be indexed or converted is a
    SchemaMismatch naming the stage."""
    try:
        yield
    except (KeyError, IndexError, OverflowError, TypeError, ValueError) as exc:
        raise SchemaMismatch(
            f"stage {name!r} holds a record of the wrong shape ({type(exc).__name__}: {exc})"
        ) from exc


@dataclass
class _Stages:
    """The stage files under ``--out`` for one command, which scans each file
    at most once and forgets the scan of a file it rewrites. Each command
    makes its own, as ``run-all`` rewrites stages between its commands."""

    out: str
    scans: dict[str, tuple[dict[str, Any], str]] = field(default_factory=dict)

    def store(self, name: str) -> StageStore:
        return StageStore(Path(self.out) / "stages", name)

    def scan(self, name: str) -> tuple[dict[str, Any], str]:
        """Stage ``name``'s header fields and the sha256 of its records; a stage
        it cannot find or open is a StageIoError naming the command that writes it."""
        if name not in self.scans:
            try:
                self.scans[name] = self.store(name).scan(STAGES[name][0])
            except StageIoError as exc:
                writer = STAGES[name][1]
                raise StageIoError(f"missing stage {name!r} ({exc}) — run '{writer}' first") from exc
        return self.scans[name]

    def inputs(self, name: str, **config: Any) -> dict[str, Any]:
        """What stage ``name`` is computed from: the records digest of each
        upstream stage, the package version and ``config``: a model's, or the chunks' cleaning rules."""
        return {**{up: self.scan(up)[1] for up in STAGES[name][2]}, "keyclust": __version__, **config}

    def save(self, name: str, records: Iterable[Mapping[str, Any] | str], **meta: Any) -> int:
        """Write stage ``name`` with ``meta`` and its ``inputs`` in the header;
        a model and the chunks bring their own inputs, which hold their config."""
        count = self.store(name).save(records, STAGES[name][0], {"inputs": self.inputs(name), **meta})
        self.scans.pop(name, None)
        return count

    def check(self, name: str) -> None:
        """Stage ``name`` must be computed from the current upstream stage
        files, back to the chunks; else a stale-stage StageIoError naming, in
        pipeline order, the commands that rewrite the stale stages. A stage is
        stale if its header records no inputs, a digest other than an
        upstream's records digest, or a stale upstream."""
        stale: set[str] = set()

        def walk(s: str) -> bool:
            inputs, ups = self.scan(s)[0].get("inputs"), STAGES[s][2]
            # a list, not a generator: every upstream is walked
            if not isinstance(inputs, dict) or any([walk(up) for up in ups]) or any(
                inputs.get(up) != self.scan(up)[1] for up in ups
            ):
                stale.add(s)
            return s in stale

        if walk(name):
            ordered = [s for s in STAGES if s in stale]
            writers = list(dict.fromkeys(STAGES[s][1] for s in ordered[:-1]))
            rerun = " and ".join(f"'{w}'" for w in writers)
            if STAGES[name][1] not in writers:
                rerun = f"{rerun}, then re-run '{STAGES[name][1]}'" if rerun else f"'{STAGES[name][1]}'"
            cause = f"{ordered[0]!r} does not record the current digests of its inputs"
            raise StageIoError(f"stale stage {name!r}: {cause} — re-run {rerun}")

    def cleaning(self) -> CleaningConfig:
        """The cleaning rules that made the chunks' tokens, as ``ingest`` recorded them."""
        with suppress(InvalidPattern, KeyError, TypeError):
            rules = self.scan("chunks")[0]["inputs"]["cleaning"]
            if (config := CleaningConfig(**rules)).to_record() == rules:  # else a key is missing or retyped
                return config
        raise SchemaMismatch("stage 'chunks' records no cleaning rules that rebuild — re-run 'keyclust ingest'")

    def load(
        self, name: str, decode: Callable[[Iterator[dict[str, Any]], dict[str, Any]], Any] | None = None
    ) -> Any:
        """Stage ``name``, provenance checked, as ``decode`` (by default its
        ``STAGES`` decoder) returns it. A record the decoder cannot index or
        convert is a SchemaMismatch naming it."""
        self.check(name)  # scans the stage, so a missing one stops here
        with _record_shape(name):
            return self.store(name).load_with_meta(STAGES[name][0], decode or STAGES[name][3])[0]


def _reports_dir(out: str) -> Path:
    path = Path(out) / "reports"
    path.mkdir(parents=True, exist_ok=True)
    return path


def _cleaning_config(args: argparse.Namespace) -> CleaningConfig:
    return load_cleaning_config(args.cleaning_config) if args.cleaning_config else default_cleaning_config()


def _utf8(flag: str, value: str) -> str:
    """``value``, the text of ``flag``, which must be UTF-8: argv bytes that
    are not UTF-8 decode to lone surrogates, which no stage file can hold."""
    try:
        value.encode("utf-8")
    except UnicodeEncodeError as exc:
        raise KeyclustError(f"{flag} must be UTF-8 text, got {value!r}") from exc
    return value


def _parse_corpus_args(values: Sequence[str]) -> list[tuple[str, str]]:
    pairs = []
    for value in values:
        path, sep, label = value.rpartition(":")
        if not sep or not path or not label:
            raise KeyclustError(f"--corpus expects <path>:<label>, got {value!r}")
        pairs.append((path, _utf8("--corpus", label)))
    return pairs


def _cluster_config(args: argparse.Namespace, mode: str, k: int | None = None) -> clustering.ClusterConfig:
    seeding = {"random": "random_distinct", "partial": "partial"}[args.seeding]
    try:
        return clustering.ClusterConfig(
            k=k if k is not None else args.k,
            threshold=args.threshold,
            damping_weight=args.damping,
            epsilon=args.epsilon,
            max_iter=args.max_iter,
            mode=mode,
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
    seen: set[str] = set()  # two corpora under one label share their ids
    for path, label in corpora:
        rep = load_corpus(path, label, seen)
        for err in rep.errors:
            log.warning("skipped %s: %s", err.path, err.message)
        failures += len(rep.errors)
        documents.extend(rep.documents)
        log.info("corpus %s: %d documents, %d failures", label, len(rep.documents), len(rep.errors))
    if not documents:
        raise EmptyCorpus("no documents loaded from any corpus")
    batches = batch_iter(documents, args.batch_size)  # raises before any stage is written
    chunks = (c.to_record() for batch in batches for doc in batch for c in chunk_document(doc, config))
    stages = _Stages(args.out)
    n_docs = stages.save("documents", (d.to_record() for d in documents))
    n_chunks = stages.save("chunks", chunks, inputs=stages.inputs("chunks", cleaning=config.to_record()))
    log.info("ingested %d documents into %d chunks (%d files failed)", n_docs, n_chunks, failures)
    return 0


def _max_df_ratio(args: argparse.Namespace) -> float:
    # every comparison with NaN is false, so it would keep no term
    if math.isnan(args.max_df_ratio):
        raise KeyclustError(f"--max-df-ratio must be a number, got {args.max_df_ratio}")
    return args.max_df_ratio


def cmd_vectorize(args: argparse.Namespace) -> int:
    max_df_ratio = _max_df_ratio(args)
    stages = _Stages(args.out)
    table = stages.load("chunks")  # the ids and tokens, as term ids, of every chunk
    if not len(table.point_rows):
        raise EmptyCorpus("every chunk has an empty token list")
    vocab = vectorization.build_vocabulary(table, min_df=args.min_df, max_df_ratio=max_df_ratio)
    stages.save("vocabulary", vocab.to_records(), n_chunks=vocab.n_chunks)
    rows = vectorization.tfidf_vector(table, vocab)
    del table  # written from the rows alone
    stages.save("vectors", vectorization.vector_records(*rows))
    empty_vectors = int((rows[1][1:] == rows[1][:-1]).sum())
    if empty_vectors:
        log.warning("%d chunks have no in-vocabulary token (zero vectors)", empty_vectors)
    log.info("vocabulary %d terms over %d chunks", len(vocab), vocab.n_chunks)
    return 0


def _at_least_1(flag: str, value: int) -> int:
    """``value``, the value of the integer ``flag``, which must be >= 1."""
    if value < 1:
        raise KeyclustError(f"{flag} must be >= 1, got {value}")
    return value


def cmd_reduce(args: argparse.Namespace) -> int:
    pca_dim = _at_least_1("--pca-dim", args.pca_dim)
    stages = _Stages(args.out)
    vocab_size = len(stages.load("vocabulary"))
    if not vocab_size:
        raise KeyclustError(
            "the vocabulary is empty: no term passed vectorize's --min-df and --max-df-ratio "
            "— re-run 'keyclust vectorize' with a lower --min-df or a higher --max-df-ratio"
        )
    rows = stages.load("vectors")  # chunk ids and CSR arrays
    with _record_shape("vectors"):
        matrix = vectorization.densify(rows, vocab_size)
    chunk_ids = rows[0]
    del rows
    model, coords = reduction.reduce_points(matrix, pca_dim)
    # freed after the pca stage is written: freed before it, a process that sets
    # up three times (perfbench's recluster) peaked 0.2-0.3 MB higher
    stages.save("pca", [model.to_record()])
    del matrix
    stages.save("points", reduction.point_records(chunk_ids, coords))
    log.info(
        "reduced %d vectors to %d dimensions (top variance %.6f)",
        len(chunk_ids), coords.shape[1], float(model.explained_variance[0]),
    )
    return 0


def _query_weights(args: argparse.Namespace, stages: _Stages) -> tuple[list[str], dict[str, float]]:
    """The words of ``args.query`` and their weights for the chunks with tokens,
    which are the points of a current points stage. Each chunk record is scored
    as it is parsed, and no chunk is kept."""
    if args.query is None:
        raise KeyclustError("--query is required in modified mode")
    vocab = stages.load("vocabulary")
    query_words = weighting.normalize_query(_utf8("--query", args.query), stages.cleaning())
    weights = stages.load(
        "chunks", lambda records, _: weighting.assign_weights(chunk_tokens(records), query_words, vocab)
    )
    return query_words, weights


def _iteration_digests(reports: Path, mode: str) -> dict[str, str]:
    """sha256 of ``mode``'s iteration CSV and of each of its numbered
    iteration SVGs, by file name."""
    svgs = reporting.numbered_svgs(reports, f"iteration_{mode}")
    names = [f"iterations_{mode}.csv", *sorted(path.name for path in svgs)]
    return {name: file_sha256(reports / name) for name in names}


def _model_current(stages: _Stages, mode: str, inputs: Mapping[str, Any], reports: Path) -> bool:
    """Whether ``mode``'s model stage records ``inputs`` and its record and
    iteration reports still hash to their recorded digests."""
    try:
        meta, record = stages.scan(f"model_{mode}")
        return (
            meta["inputs"] == inputs
            and meta["outputs"]["record"] == record
            and meta["outputs"]["reports"] == _iteration_digests(reports, mode)
        )
    except (KeyclustError, KeyError, TypeError, OSError):
        return False  # no model, or one without a usable header or reports


def cmd_cluster(args: argparse.Namespace, mode: str | None = None) -> int:
    """Fit ``mode``'s model unless its stage records the inputs this call would
    record and outputs that still hash to their digests. Only modified mode
    reads the chunks and writes the weights stage; standard weights are 1."""
    mode = mode or args.mode
    name = f"model_{mode}"
    stages = _Stages(args.out)
    stages.check("points")  # a missing or stale points stage stops here
    config = _cluster_config(args, mode=mode)
    query_words, weights = _query_weights(args, stages) if mode == "modified" else (None, None)
    if weights:
        stages.save("weights", weighting.export_records(weights), query=query_words)
    inputs = stages.inputs(name, config=config.to_record())
    reports = _reports_dir(args.out)
    if _model_current(stages, mode, inputs, reports):
        log.info("%s model is current; reused", mode)
        return 0
    ids, X = stages.load("points")
    w = weighting.weighted_points(ids, weights) if weights else weighting.unit_points(ids)
    model = clustering.run(ids, X, w, config)
    xy = reporting.plot_xy(X)
    reporting.write_iteration_csv(reports / f"iterations_{mode}.csv", model, xy)
    reporting.write_iteration_svgs(reports, model, xy, prefix=f"iteration_{mode}")
    # written last: its header vouches for the reports above
    record = encode_record(model.to_record())
    outputs = {
        "record": hashlib.sha256(f"{record}\n".encode("utf-8")).hexdigest(),
        "reports": _iteration_digests(reports, mode),
    }
    stages.save(name, [record], inputs=inputs, outputs=outputs)
    log.info(
        "%s k-means: %d iterations, converged=%s, distortion %.6f, %d dual-assigned",
        mode, model.iterations, model.converged, model.distortion,
        int((model.secondary >= 0).sum()),
    )
    return 0


def cmd_elbow(args: argparse.Namespace) -> int:
    stages = _Stages(args.out)
    ids, X = stages.load("points")
    if args.mode == "modified":
        w = weighting.weighted_points(ids, _query_weights(args, stages)[1])
    else:
        w = weighting.unit_points(ids)
    config = _cluster_config(args, mode=args.mode, k=args.k_min)
    try:
        results = clustering.elbow_scan(
            ids, X, w, config, (args.k_min, args.k_max), restarts=args.restarts, threads=args.threads
        )
    except ValueError as exc:
        raise KeyclustError(str(exc)) from exc
    runs = len(results) * args.restarts
    workers = clustering.scan_workers(args.threads, runs)
    if workers == 1:
        log.info("elbow: %d runs in this process", runs)
    else:
        peak = _peak_rss_mb(children=True)
        log.info(
            "elbow: %d runs on %d worker processes%s", runs, workers,
            "" if peak is None else f", largest worker peak RSS {peak:.1f} MB",
        )
    reporting.write_elbow_csv(_reports_dir(args.out) / "elbow.csv", results)
    for k, d in results:
        log.info("k=%d distortion %.6f", k, d)
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    """The comparison table, top terms and extracts of both models, over the
    chunks stage read as one ``TokenTable``, whose rows with tokens must be
    each model's points."""
    top_n = _at_least_1("--top-n", args.top_n)
    stages = _Stages(args.out)
    table = stages.load("chunks", lambda records, _: TokenTable.from_records(records))
    doc_labels = stages.load("documents")
    models = {mode: stages.load(f"model_{mode}") for mode in clustering.MODES}
    query_words = weighting.normalize_query(_utf8("--query", args.query), stages.cleaning())
    # the weights take a maximum over the words, so only the set of words counts
    weighted_for = stages.scan("weights")[0].get("query")
    if not isinstance(weighted_for, list) or set(weighted_for) != set(query_words):
        raise KeyclustError(
            f"the modified model was weighted for the query words {weighted_for}, not "
            f"{query_words} — re-run 'keyclust cluster --mode modified' with this --query"
        )
    point_ids = table.point_ids
    for mode, model in models.items():
        if model.point_ids != point_ids:
            raise StageIoError(
                f"stale stage 'model_{mode}': its points are not the chunks with tokens "
                f"— re-run 'keyclust cluster --mode {mode}'"
            )
    # every term's count, once per model: the table's top-10 relevance test
    # and the top --top-n CSV both read prefixes of these sorted counts
    cluster_reps = {
        mode: reporting.cluster_reports(model, table, n=None) for mode, model in models.items()
    }
    rows = reporting.comparison_table(
        table, query_words, models["standard"], models["modified"], doc_labels, cluster_reps
    )
    reports = _reports_dir(args.out)
    reporting.write_comparison_csv(reports / "comparison.csv", rows)
    for mode, model in models.items():
        reporting.write_top_terms_csv(
            reports / f"top_terms_{mode}.csv", cluster_reps[mode], top_n
        )
        reporting.write_extracts(reports / "extracts" / mode, model, table)
    for row in rows:
        log.info(
            "%s: total=%d search=%d standard=%d modified=%d",
            row.corpus_label, row.total_paragraphs, row.search_count,
            row.standard_kmeans_count, row.modified_kmeans_count,
        )
    return 0


def cmd_run_all(args: argparse.Namespace) -> int:
    # the flags of the later commands are checked before the first one writes
    _max_df_ratio(args)
    weighting.normalize_query(_utf8("--query", args.query), _cleaning_config(args))
    _at_least_1("--top-n", args.top_n)
    _at_least_1("--pca-dim", args.pca_dim)
    for mode in clustering.MODES:
        _cluster_config(args, mode=mode)
    cmd_ingest(args)
    cmd_vectorize(args)
    cmd_reduce(args)
    for mode in clustering.MODES:
        cmd_cluster(args, mode=mode)
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

    def flag(*names: str, **kwargs: Any) -> argparse.ArgumentParser:
        """A parent parser that declares one flag."""
        parent = argparse.ArgumentParser(add_help=False)
        parent.add_argument(*names, **kwargs)
        return parent

    out = flag("--out", default="out", help="output directory (stages + reports)")
    cleaning = flag("--cleaning-config", default=None, help="JSON cleaning config path")

    ingest_flags = argparse.ArgumentParser(add_help=False)
    ingest_flags.add_argument(
        "--corpus", action="append", required=True, metavar="PATH:LABEL",
        help="corpus directory and its label (repeatable)",
    )
    ingest_flags.add_argument("--batch-size", type=int, default=DEFAULT_BATCH_SIZE)

    vec_flags = argparse.ArgumentParser(add_help=False)
    vec_flags.add_argument("--min-df", type=int, default=2)
    vec_flags.add_argument("--max-df-ratio", type=float, default=0.95)

    reduce_flags = flag("--pca-dim", type=int, default=50)
    query = flag("--query", required=True)
    mode_query = flag("--query", default=None, help="the query; read, and required, in modified mode only")
    k = flag("--k", type=int, default=5)
    top_n = flag("--top-n", type=int, default=10)

    cluster_flags = argparse.ArgumentParser(add_help=False)
    cluster_flags.add_argument("--threshold", type=float, default=clustering.DEFAULT_THRESHOLD)
    cluster_flags.add_argument("--damping", type=float, default=clustering.DEFAULT_DAMPING)
    cluster_flags.add_argument("--epsilon", type=float, default=clustering.DEFAULT_EPSILON)
    cluster_flags.add_argument("--max-iter", type=int, default=clustering.DEFAULT_MAX_ITER)
    cluster_flags.add_argument("--seeding", choices=("random", "partial"), default="random")
    cluster_flags.add_argument("--seed", type=int, default=0)
    cluster_flags.add_argument(
        "--threads", type=int, default=1, metavar="N",
        help="elbow: run the independent K-means runs on up to N worker processes, "
        "at most one per usable CPU (same output for every N); other commands ignore it",
    )
    cluster_flags.add_argument("--raw-denominator", action="store_true")

    p = sub.add_parser("ingest", parents=[out, cleaning, ingest_flags],
                       help="load corpora and write document + chunk stages")
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("vectorize", parents=[out, vec_flags],
                       help="build vocabulary and tf-idf vector stages")
    p.set_defaults(func=cmd_vectorize)

    p = sub.add_parser("reduce", parents=[out, reduce_flags],
                       help="fit PCA and write the reduced-point stage")
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser("cluster", parents=[out, cluster_flags, mode_query, k],
                       help="weight points by query and fit a cluster model")
    p.add_argument("--mode", choices=clustering.MODES, default="modified")
    p.set_defaults(func=cmd_cluster)

    p = sub.add_parser("elbow", parents=[out, cluster_flags, mode_query],
                       help="distortion-vs-k scan (best of N restarts)")
    p.add_argument("--mode", choices=clustering.MODES, default="standard")
    p.add_argument("--k-min", type=int, default=1)
    p.add_argument("--k-max", type=int, default=10)
    p.add_argument("--restarts", type=int, default=10)
    p.set_defaults(func=cmd_elbow)

    p = sub.add_parser("report", parents=[out, query, top_n],
                       help="comparison table, top terms, and cluster extracts")
    p.set_defaults(func=cmd_report)

    p = sub.add_parser(
        "run-all",
        parents=[out, cleaning, ingest_flags, vec_flags, reduce_flags, cluster_flags, query, k, top_n],
        help="chain ingest, vectorize, reduce, both cluster modes, and report",
    )
    p.set_defaults(func=cmd_run_all)

    return parser


def _peak_rss_mb(children: bool = False) -> float | None:
    """This process's peak resident set size in MB, or with ``children``
    the largest of its waited-for child processes', None where it is unknown."""
    if resource is None:
        return None
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    peak = resource.getrusage(who).ru_maxrss
    return peak / 1e6 if sys.platform == "darwin" else peak * 1024 / 1e6  # bytes, else KiB


def main(argv: Sequence[str] | None = None) -> int:
    logging.basicConfig(
        level=logging.INFO, format="%(levelname)s %(name)s: %(message)s", stream=sys.stderr
    )
    parser = build_parser()
    args, extras = parser.parse_known_args(argv)
    if extras:  # reported under the usage of the subcommand, which lists the flags it takes
        commands = next(a for a in parser._actions if a.dest == "command").choices
        commands[args.command].error(f"unrecognized arguments: {' '.join(extras)}")
    start = time.perf_counter()
    try:
        return args.func(args)
    except (KeyclustError, OSError) as exc:  # a report or other file that cannot be written, too
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        peak = _peak_rss_mb()
        log.info(
            "%s took %.3f s%s", args.command, time.perf_counter() - start,
            "" if peak is None else f", peak RSS {peak:.1f} MB",
        )


if __name__ == "__main__":
    sys.exit(main())
