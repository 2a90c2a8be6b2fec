"""Per-layer tracing from outside the program.

``install`` replaces the public functions of every ``keyclust`` module (and
the names ``keyclust.cli`` imported from them) with wrappers that record a
span per call: its function, its layer metric, start, end and parent span.
Spans and counts stay in memory; ``Tracer.dump`` writes the spans out when
the run ends.

A span's self time is its duration minus the time its wrapped child calls
cover. Every wrapped function is charged to exactly one ``<layer>.*_s``
metric, so the self times of one ``cli.main`` call add up to that call's
duration, less the tracer's own bookkeeping (counting tokens, sizing
files), which is measured apart and charged to no layer.

Per-token helpers (``preprocess.pos_tag``) and the generator
``corpus.batch_iter`` are not wrapped: the first would cost more than it
measures, and a generator's span would end before its work is done. Their
time lands in the caller's self time.
"""

from __future__ import annotations

import functools
import json
import math
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable

import numpy as np

CountFn = Callable[[dict, tuple, dict, Any], None]

# Metrics that combine by min instead of by sum.
_MIN_METRICS = {"cluster.min_centroid_sep"}


class Tracer:
    """Spans and counts of one traced run, split by phase.

    ``phase`` is ``None`` while tracing is paused, otherwise ``"setup"``
    or ``"timed"``; wrappers call straight through while it is ``None``.
    """

    def __init__(self) -> None:
        self.phase: str | None = None
        self.spans: list[tuple[str, str, str, float, float, int]] = []
        self.totals: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self.bookkeeping_s: dict[str, float] = defaultdict(float)
        self._stack: list[list[float]] = []

    def wrap(self, fn: Callable, metric: str, count: CountFn | None = None) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            phase = tracer.phase
            if phase is None:
                return fn(*args, **kwargs)
            parent = int(tracer._stack[-1][2]) if tracer._stack else -1
            index = len(tracer.spans)
            tracer.spans.append(None)  # reserved; filled when the call returns
            frame = [time.perf_counter(), 0.0, index]  # start, time covered by children, span
            tracer._stack.append(frame)
            result = failed = None
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                failed = True
                raise
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                totals = tracer.totals[phase]
                totals[metric] += end - frame[0] - frame[1]
                if count is not None and not failed:
                    count(totals, args, kwargs, result)
                tracer.spans[index] = (fn.__qualname__, metric, phase, frame[0], end, parent)
                done = time.perf_counter()
                tracer.bookkeeping_s[phase] += done - end
                if tracer._stack:
                    tracer._stack[-1][1] += done - frame[0]
            return result

        return traced

    def layer_metrics(self, rounds: int, setup_wall: float, timed_wall: float) -> dict[str, float]:
        """One set-up plus one round of the timed phase, per metric."""
        setup, timed = self.totals["setup"], self.totals["timed"]
        out: dict[str, float] = {}
        for name in sorted(set(setup) | set(timed)):
            if name in _MIN_METRICS:
                out[name] = min(setup.get(name, math.inf), timed.get(name, math.inf))
            else:
                out[name] = setup.get(name, 0.0) + timed.get(name, 0.0) / rounds
        out["preprocess.segment_us_per_sentence"] = (
            1e6 * out.get("preprocess.segment_s", 0.0) / max(out.get("preprocess.sentences", 0.0), 1.0)
        )
        raw = out.pop("preprocess.raw_tokens", 0.0)
        out["preprocess.tokens_kept_ratio"] = out.pop("preprocess.kept_tokens", 0.0) / max(raw, 1.0)
        out["cluster.ns_per_distance_eval"] = (
            1e9 * out.get("cluster.run_s", 0.0) / max(out.get("cluster.distance_evals", 0.0), 1.0)
        )
        setup_self = sum(v for k, v in setup.items() if k.endswith("_s"))
        timed_self = sum(v for k, v in timed.items() if k.endswith("_s"))
        out["trace.setup_covered"] = setup_self / setup_wall
        out["trace.round_covered"] = timed_self / timed_wall
        return out

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        records = [
            {"fn": fn, "metric": m, "phase": ph, "start": s, "end": e, "parent": p}
            for fn, m, ph, s, e, p in self.spans
        ]
        path.write_text(json.dumps({"spans": records}), encoding="utf-8")


# ---------------------------------------------------------------------------
# counters, called after the span ends with (totals, args, kwargs, result)


def _count_documents(t, args, kwargs, report):
    t["corpus.documents"] += len(report.documents)


def _stage_mb(write: bool):
    def count(t, args, kwargs, result):
        store = args[0]
        mb = store.path.stat().st_size / 1e6
        t["corpus.stage_write_mb" if write else "corpus.stage_read_mb"] += mb
        if write and store.stage_name.startswith("model_"):
            t["cluster.model_mb"] += mb

    return count


def _count_sentences(t, args, kwargs, sentences):
    t["preprocess.sentences"] += len(sentences)


def _count_chunks(t, args, kwargs, chunks):
    t["preprocess.chunks"] += len(chunks)


def _count_tokens(t, args, kwargs, tokens):
    text = args[0] if args else kwargs["text"]
    t["preprocess.raw_tokens"] += len(text.split())
    t["preprocess.kept_tokens"] += len(tokens)


def _count_terms(t, args, kwargs, vocab):
    t["vectorize.terms"] += len(vocab)


def _count_matched(floor: float):
    def count(t, args, kwargs, weights):
        t["weighting.matched_chunks"] += sum(1 for w in weights.values() if w > floor)

    return count


def _count_run(t, args, kwargs, model):
    n = len(model.assignments)
    k = model.config.k
    it = model.iterations
    t["cluster.runs"] += 1
    t["cluster.iterations"] += it
    t["cluster.distance_evals"] += n * k * (it + 1)
    t["cluster.history_records"] += n * it
    t["cluster.dual_final"] += sum(1 for a in model.assignments if a.secondary_cluster is not None)
    if k >= 2:
        c = model.centroids
        gaps = np.sqrt(((c[:, None, :] - c[None, :, :]) ** 2).sum(axis=2))
        sep = float(gaps[np.triu_indices(k, 1)].min())
        t["cluster.min_centroid_sep"] = min(t.get("cluster.min_centroid_sep", math.inf), sep)


def _count_files(t, args, kwargs, result):
    paths = [Path(args[0] if args else kwargs["path"])] if result is None else result
    t["report.iteration_files"] += len(paths)
    t["report.iteration_mb"] += sum(p.stat().st_size for p in paths) / 1e6


# ---------------------------------------------------------------------------


def install(tracer: Tracer) -> None:
    """Wrap the public functions of every layer, in place, for this process."""
    from keyclust import cli, cluster, corpus, pca, preprocess, report, vectorize, weighting

    def patch(module, name: str, metric: str, count: CountFn | None = None) -> None:
        original = getattr(module, name)
        wrapped = tracer.wrap(original, metric, count)
        setattr(module, name, wrapped)
        if getattr(cli, name, None) is original:
            setattr(cli, name, wrapped)

    def patch_method(cls, name: str, metric: str, count: CountFn | None = None) -> None:
        raw = cls.__dict__[name]
        if isinstance(raw, classmethod):
            setattr(cls, name, staticmethod(tracer.wrap(getattr(cls, name), metric, count)))
        else:
            setattr(cls, name, tracer.wrap(raw, metric, count))

    patch(cli, "main", "cli.self_s")

    patch(corpus, "load_corpus", "corpus.load_s", _count_documents)
    patch_method(corpus.StageStore, "save", "corpus.stage_write_s", _stage_mb(write=True))
    patch_method(corpus.StageStore, "load_with_meta", "corpus.stage_read_s", _stage_mb(write=False))

    patch(preprocess, "segment_sentences", "preprocess.segment_s", _count_sentences)
    patch(preprocess, "make_chunks", "preprocess.segment_s")
    patch(preprocess, "chunk_document", "preprocess.segment_s", _count_chunks)
    patch(preprocess, "clean_text", "preprocess.clean_s", _count_tokens)
    for name in ("clean_tokens", "default_cleaning_config", "load_cleaning_config",
                 "default_stoplist", "load_stoplist", "load_patterns"):
        patch(preprocess, name, "preprocess.clean_s")

    patch(vectorize, "build_vocabulary", "vectorize.vocab_s", _count_terms)
    patch(vectorize, "tfidf_vector", "vectorize.tfidf_s")
    patch(vectorize, "densify", "vectorize.densify_s")

    patch(pca, "fit_pca", "pca.fit_s")
    patch(pca, "pca_transform", "pca.transform_s")
    patch(pca, "reduce_points", "pca.transform_s")

    patch(weighting, "assign_weights", "weighting.assign_s", _count_matched(weighting.FLOOR_WEIGHT))
    for name in ("normalize_query", "weighted_points", "unit_points", "export_records"):
        patch(weighting, name, "weighting.assign_s")

    patch(cluster, "run", "cluster.run_s", _count_run)
    for name in ("init_centroids", "distortion", "assign_point", "update_centroids"):
        patch(cluster, name, "cluster.run_s")
    patch(cluster, "elbow_scan", "cluster.elbow_self_s")
    patch_method(cluster.ClusterModel, "to_record", "cluster.model_encode_s")
    patch_method(cluster.ClusterModel, "from_record", "cluster.model_decode_s")

    patch(report, "write_iteration_csv", "report.iteration_csv_s", _count_files)
    patch(report, "write_iteration_svgs", "report.iteration_svg_s", _count_files)
    for name in ("top_terms", "keyword_search_count", "cluster_reports", "relevant_clusters",
                 "comparison_table", "extract_cluster_text", "write_comparison_csv",
                 "write_elbow_csv", "write_top_terms_csv", "write_extracts"):
        patch(report, name, "report.tables_s")
