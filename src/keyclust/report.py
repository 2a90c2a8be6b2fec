"""Evaluation and presentation of fitted cluster models.

Covers the per-cluster top-term summaries used to judge cluster content,
the keyword-search baseline, the three-way comparison table (search vs
standard vs modified K-means), full-text extraction of a cluster, and the
CSV/SVG artifacts for iteration-by-iteration scatter plots. All writers
are deterministic: identical inputs produce byte-identical files.
"""

from __future__ import annotations

import colorsys
import csv
import logging
import re
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .cluster import ClusterModel
from .errors import InvalidClusterIndex
from .preprocess import Chunk

log = logging.getLogger(__name__)

TOP_TERMS_DEFAULT = 10


@dataclass
class ClusterReport:
    cluster_index: int
    top_terms: list[tuple[str, int]]
    member_chunk_ids: list[str]
    member_count: int


@dataclass
class ComparisonRow:
    corpus_label: str
    total_paragraphs: int
    search_count: int
    standard_kmeans_count: int
    modified_kmeans_count: int


def top_terms(members: Sequence[Chunk], n: int = TOP_TERMS_DEFAULT) -> list[tuple[str, int]]:
    """The n most frequent tokens across member chunks, counts descending,
    ties broken lexicographically."""
    counts: Counter[str] = Counter()
    for chunk in members:
        counts.update(chunk.tokens)
    return sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))[:n]


def keyword_search_count(chunks: Sequence[Chunk], query: str | Sequence[str]) -> int:
    """How many chunks contain the query term (any word, for multi-word queries)."""
    words = {query} if isinstance(query, str) else set(query)
    return sum(1 for c in chunks if words & set(c.tokens))


def cluster_reports(
    model: ClusterModel, chunks_by_id: Mapping[str, Chunk], n: int = TOP_TERMS_DEFAULT
) -> list[ClusterReport]:
    out = []
    for ci in range(model.config.k):
        ids = model.member_ids(ci)
        members = [chunks_by_id[i] for i in ids if i in chunks_by_id]
        out.append(
            ClusterReport(
                cluster_index=ci,
                top_terms=top_terms(members, n),
                member_chunk_ids=ids,
                member_count=len(ids),
            )
        )
    return out


def relevant_clusters(
    model: ClusterModel,
    chunks_by_id: Mapping[str, Chunk],
    query: str | Sequence[str],
    n: int = TOP_TERMS_DEFAULT,
) -> list[int]:
    """Clusters whose top-n term list contains a query word."""
    words = {query} if isinstance(query, str) else set(query)
    hits = []
    for rep in cluster_reports(model, chunks_by_id, n):
        if words & {term for term, _ in rep.top_terms}:
            hits.append(rep.cluster_index)
    return hits


def comparison_table(
    chunks: Sequence[Chunk],
    query: str | Sequence[str],
    standard_model: ClusterModel,
    modified_model: ClusterModel,
    doc_labels: Mapping[str, str] | None = None,
) -> list[ComparisonRow]:
    """Per-corpus counts: keyword search vs each model's query-relevant clusters.

    A model's count is the number of member chunks (primary or secondary,
    counted once) across clusters whose top-10 terms include the query.
    When no cluster qualifies the count is 0 and a warning is logged.
    """
    chunks_by_id = {c.chunk_id: c for c in chunks}
    label_of = (
        (lambda c: doc_labels.get(c.doc_id, "all")) if doc_labels else (lambda c: "all")
    )
    member_sets: dict[str, set[str]] = {}
    for name, model in (("standard", standard_model), ("modified", modified_model)):
        hits = relevant_clusters(model, chunks_by_id, query)
        if not hits:
            log.warning("no %s-model cluster has the query in its top terms", name)
        ids: set[str] = set()
        for ci in hits:
            ids.update(model.member_ids(ci))
        member_sets[name] = ids
    rows = []
    for label in sorted({label_of(c) for c in chunks}):
        in_label = [c for c in chunks if label_of(c) == label]
        ids_in_label = {c.chunk_id for c in in_label}
        rows.append(
            ComparisonRow(
                corpus_label=label,
                total_paragraphs=len(in_label),
                search_count=keyword_search_count(in_label, query),
                standard_kmeans_count=len(member_sets["standard"] & ids_in_label),
                modified_kmeans_count=len(member_sets["modified"] & ids_in_label),
            )
        )
    return rows


def extract_cluster_text(
    model: ClusterModel, cluster_index: int, chunks: Sequence[Chunk]
) -> list[str]:
    """Raw text of a cluster's member chunks (primary or secondary), in
    corpus order. A dual-assigned chunk appears in both clusters' extracts."""
    if not 0 <= cluster_index < model.config.k:
        raise InvalidClusterIndex(
            f"cluster index {cluster_index} outside [0, {model.config.k})"
        )
    members = set(model.member_ids(cluster_index))
    return [c.raw_text for c in chunks if c.chunk_id in members]


# ---------------------------------------------------------------------------
# artifact writers


def write_comparison_csv(path: str | Path, rows: Sequence[ComparisonRow]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(
            ["corpus", "total_paragraphs", "search_count", "standard_kmeans", "modified_kmeans"]
        )
        for r in rows:
            writer.writerow(
                [r.corpus_label, r.total_paragraphs, r.search_count,
                 r.standard_kmeans_count, r.modified_kmeans_count]
            )


def write_elbow_csv(path: str | Path, results: Sequence[tuple[int, float]]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["k", "distortion"])
        for k, d in results:
            writer.writerow([k, repr(d)])


def write_top_terms_csv(path: str | Path, reports: Sequence[ClusterReport]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["cluster", "member_count", "rank", "term", "count"])
        for rep in reports:
            for rank, (term, count) in enumerate(rep.top_terms, start=1):
                writer.writerow([rep.cluster_index, rep.member_count, rank, term, count])


def write_extracts(
    out_dir: str | Path, model: ClusterModel, chunks: Sequence[Chunk]
) -> list[Path]:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = []
    for ci in range(model.config.k):
        texts = extract_cluster_text(model, ci, chunks)
        path = out / f"cluster_{ci:02d}.txt"
        path.write_text("\n\n".join(texts) + ("\n" if texts else ""), encoding="utf-8")
        paths.append(path)
    return paths


def _coords_2d(coords: np.ndarray) -> tuple[float, float]:
    x = float(coords[0])
    y = float(coords[1]) if coords.shape[0] > 1 else 0.0
    return x, y


def write_iteration_csv(
    path: str | Path, model: ClusterModel, coords_by_id: Mapping[str, np.ndarray]
) -> None:
    """Scatter data per iteration: the assignments recorded in history,
    projected onto the first two reduced dimensions."""
    points = [(cid, *map(repr, _coords_2d(coords_by_id[cid]))) for cid in model.point_ids]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["iteration", "chunk_id", "x", "y", "primary", "secondary"])
        for it, snap in enumerate(model.history, start=1):
            writer.writerows(
                [it, cid, x, y, p, "" if s < 0 else s]
                for (cid, x, y), p, s in zip(
                    points, snap.primary.tolist(), snap.secondary.tolist()
                )
            )


def _palette(k: int) -> list[str]:
    colors = []
    for i in range(k):
        r, g, b = colorsys.hsv_to_rgb((i * 0.6180339887498949) % 1.0, 0.65, 0.85)
        colors.append(f"#{int(r * 255):02x}{int(g * 255):02x}{int(b * 255):02x}")
    return colors


def _svg_scatter(
    points: Sequence[tuple[float, float, str]],
    centroids: Sequence[tuple[float, float]],
    title: str,
    width: int = 640,
    height: int = 480,
) -> str:
    xs = [p[0] for p in points] + [c[0] for c in centroids]
    ys = [p[1] for p in points] + [c[1] for c in centroids]
    x_lo, x_hi = (min(xs), max(xs)) if xs else (0.0, 1.0)
    y_lo, y_hi = (min(ys), max(ys)) if ys else (0.0, 1.0)
    x_span = (x_hi - x_lo) or 1.0
    y_span = (y_hi - y_lo) or 1.0
    margin = 20.0

    def px(x: float) -> str:
        return f"{margin + (x - x_lo) / x_span * (width - 2 * margin):.2f}"

    def py(y: float) -> str:
        return f"{height - margin - (y - y_lo) / y_span * (height - 2 * margin):.2f}"

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{margin:.2f}" y="14" font-family="sans-serif" font-size="12">{title}</text>',
    ]
    for x, y, color in points:
        parts.append(f'<circle cx="{px(x)}" cy="{py(y)}" r="3" fill="{color}"/>')
    for cx, cy in centroids:
        parts.append(
            f'<circle cx="{px(cx)}" cy="{py(cy)}" r="6" fill="none" '
            f'stroke="black" stroke-width="1.5"/>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def write_iteration_svgs(
    out_dir: str | Path,
    model: ClusterModel,
    coords_by_id: Mapping[str, np.ndarray],
    prefix: str = "iteration",
) -> list[Path]:
    """One scatter SVG per iteration; dual-assigned points are drawn as a
    distinct black series over the per-cluster colors. Files of this prefix
    numbered past the last iteration, left by an earlier longer run, are
    removed."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    colors = _palette(model.config.k)
    xy = [_coords_2d(coords_by_id[cid]) for cid in model.point_ids]
    paths = []
    for it, snap in enumerate(model.history, start=1):
        pts: list[tuple[float, float, str]] = []
        dual_pts: list[tuple[float, float, str]] = []
        for (x, y), p, s in zip(xy, snap.primary.tolist(), snap.secondary.tolist()):
            if s >= 0:
                dual_pts.append((x, y, "black"))
            else:
                pts.append((x, y, colors[p]))
        cents = [_coords_2d(c) for c in snap.centroids]
        svg = _svg_scatter(pts + dual_pts, cents, f"iteration {it}")
        path = out / f"{prefix}_{it:03d}.svg"
        path.write_text(svg, encoding="utf-8")
        paths.append(path)
    numbered = re.compile(re.escape(prefix) + r"_(\d{3,})\.svg")
    for stale in out.iterdir():
        m = numbered.fullmatch(stale.name)
        if m and int(m.group(1)) > len(model.history):
            stale.unlink()
    return paths
