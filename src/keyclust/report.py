"""Evaluation and presentation of fitted cluster models.

Covers the per-cluster top-term summaries used to judge cluster content,
the keyword-search baseline, the three-way comparison table (search vs
standard vs modified K-means), full-text extraction of a cluster, and the
CSV/SVG artifacts for iteration-by-iteration scatter plots. All writers
are deterministic: identical inputs produce byte-identical files.

The tables and extracts read the chunks stage as one ``preprocess.TokenTable``,
built in the pass that parses its records: each chunk's id, document and raw
text, and every chunk's tokens as term ids in one flat array. A model's
points are the table's rows with tokens, in order, as ``vectorize`` makes
them; its label arrays index those rows by position, so term counts are
one ``np.bincount`` per model and a cluster's members are an array of row
indices.
"""

from __future__ import annotations

import colorsys
import csv
import io
import logging
import re
from pathlib import Path
from typing import Iterable, Mapping, NamedTuple, Sequence

import numpy as np

from .cluster import ClusterModel
from .errors import InvalidClusterIndex
from .preprocess import TokenTable

log = logging.getLogger(__name__)

TOP_TERMS_DEFAULT = 10


class ClusterReport(NamedTuple):
    cluster_index: int
    top_terms: list[tuple[str, int]]
    member_count: int


class ComparisonRow(NamedTuple):
    """One corpus label's counts, in the column order of the comparison CSV."""

    corpus_label: str
    total_paragraphs: int
    search_count: int
    standard_kmeans_count: int
    modified_kmeans_count: int


def top_terms(
    counts: np.ndarray, terms: Sequence[str], n: int | None = TOP_TERMS_DEFAULT
) -> list[tuple[str, int]]:
    """The n most frequent terms (every term counted when n is None) by
    ``counts``, one count per term id of ``terms``: counts descending, ties
    broken by term id, which is lexicographic."""
    order = np.argsort(-counts, kind="stable")[: np.count_nonzero(counts)][:n]
    return list(zip(map(terms.__getitem__, order.tolist()), counts[order].tolist()))


def _words(query: str | Sequence[str]) -> set[str]:
    """The words of a one-word or multi-word query."""
    return {query} if isinstance(query, str) else set(query)


def _search_hits(table: TokenTable, query: str | Sequence[str]) -> np.ndarray:
    """One boolean per row of the table: whether it holds a query word."""
    words = _words(query)
    ids = [i for i, term in enumerate(table.terms) if term in words]
    seen = np.concatenate([[0], np.cumsum(np.isin(table.term_ids, ids))])
    return seen[table.offsets[1:]] > seen[table.offsets[:-1]]


def keyword_search_count(table: TokenTable, query: str | Sequence[str]) -> int:
    """How many rows of the table hold the query term (any word, for
    multi-word queries)."""
    return int(np.count_nonzero(_search_hits(table, query)))


def cluster_reports(
    model: ClusterModel, table: TokenTable, n: int | None = TOP_TERMS_DEFAULT
) -> list[ClusterReport]:
    """One report per cluster, in cluster order, over the tokens of its
    members (primary or secondary); ``model``'s points are ``table``'s
    ``point_rows``. ``n=None`` keeps every term, so any top-n list is a
    prefix of its ``top_terms``."""
    k, n_terms = model.config.k, len(table.terms)
    lengths = np.diff(table.offsets)[table.point_rows]
    token_secondary = np.repeat(model.secondary, lengths)
    dual = token_secondary >= 0
    cells = np.concatenate([
        np.repeat(model.primary, lengths) * n_terms + table.term_ids,
        token_secondary[dual] * n_terms + table.term_ids[dual],
    ])
    counts = np.bincount(cells, minlength=k * n_terms).reshape(k, n_terms)
    secondary = model.secondary[model.secondary >= 0]
    members = np.bincount(model.primary, minlength=k) + np.bincount(secondary, minlength=k)
    return [
        ClusterReport(ci, top_terms(counts[ci], table.terms, n), int(members[ci])) for ci in range(k)
    ]


def relevant_clusters(
    model: ClusterModel,
    table: TokenTable,
    query: str | Sequence[str],
    n: int = TOP_TERMS_DEFAULT,
    reports: Sequence[ClusterReport] | None = None,
) -> list[int]:
    """Clusters whose top-n term list contains a query word. ``reports``,
    when given, are the model's ``cluster_reports`` with at least n terms."""
    words = _words(query)
    if reports is None:
        reports = cluster_reports(model, table, n)
    return [
        rep.cluster_index for rep in reports if words & {term for term, _ in rep.top_terms[:n]}
    ]


def comparison_table(
    table: TokenTable,
    query: str | Sequence[str],
    standard_model: ClusterModel,
    modified_model: ClusterModel,
    doc_labels: Mapping[str, str] | None = None,
    reports: Mapping[str, Sequence[ClusterReport]] | None = None,
) -> list[ComparisonRow]:
    """Per-corpus counts: keyword search vs each model's query-relevant clusters.

    A model's count is the number of member chunks (primary or secondary,
    counted once) across clusters whose top-10 terms include the query.
    When no cluster qualifies the count is 0 and a warning is logged.
    ``reports`` may hold each model's ``cluster_reports`` (with at least
    10 terms) under "standard" and "modified", so they are not recomputed.
    """
    names = [doc_labels.get(d, "all") for d in table.doc_ids] if doc_labels else ["all"] * len(table.doc_ids)
    labels = sorted(set(names))
    position = {label: i for i, label in enumerate(labels)}
    row_label = np.fromiter(map(position.__getitem__, names), dtype=np.intp, count=len(names))
    point_label = row_label[table.point_rows]
    counts = {}
    for name, model in (("standard", standard_model), ("modified", modified_model)):
        reps = reports[name] if reports else cluster_reports(model, table)
        hits = relevant_clusters(model, table, query, reports=reps)
        if not hits:
            log.warning("no %s-model cluster has the query in its top terms", name)
        member = np.isin(model.primary, hits) | np.isin(model.secondary, hits)
        counts[name] = np.bincount(point_label[member], minlength=len(labels)).tolist()
    totals = np.bincount(row_label, minlength=len(labels)).tolist()
    found = np.bincount(row_label[_search_hits(table, query)], minlength=len(labels)).tolist()
    return [
        ComparisonRow(label, totals[i], found[i], counts["standard"][i], counts["modified"][i])
        for i, label in enumerate(labels)
    ]


def extract_cluster_text(
    model: ClusterModel, cluster_index: int, table: TokenTable
) -> list[str]:
    """Raw text of a cluster's member chunks (primary or secondary), in
    corpus order. A dual-assigned chunk appears in both clusters' extracts."""
    if not 0 <= cluster_index < model.config.k:
        raise InvalidClusterIndex(
            f"cluster index {cluster_index} outside [0, {model.config.k})"
        )
    members = np.flatnonzero((model.primary == cluster_index) | (model.secondary == cluster_index))
    return [table.raw_texts[r] for r in table.point_rows[members].tolist()]


# ---------------------------------------------------------------------------
# artifact writers


def _write_csv(path: str | Path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """The header and rows as UTF-8 CSV with LF line ends."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def write_comparison_csv(path: str | Path, rows: Sequence[ComparisonRow]) -> None:
    header = ["corpus", "total_paragraphs", "search_count", "standard_kmeans", "modified_kmeans"]
    _write_csv(path, header, rows)


def write_elbow_csv(path: str | Path, results: Sequence[tuple[int, float]]) -> None:
    _write_csv(path, ["k", "distortion"], ((k, repr(d)) for k, d in results))


def write_top_terms_csv(
    path: str | Path, reports: Sequence[ClusterReport], n: int | None = None
) -> None:
    """Each cluster's top terms, the first ``n`` of them when n is given."""
    _write_csv(path, ["cluster", "member_count", "rank", "term", "count"], (
        (rep.cluster_index, rep.member_count, rank, term, count)
        for rep in reports
        for rank, (term, count) in enumerate(rep.top_terms[:n], start=1)
    ))


def write_extracts(
    out_dir: str | Path, model: ClusterModel, table: TokenTable
) -> list[Path]:
    """One ``cluster_NN.txt`` per cluster; the files of clusters NN >= k
    left by an earlier model with more clusters are removed."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = []
    for ci in range(model.config.k):
        texts = extract_cluster_text(model, ci, table)
        path = out / f"cluster_{ci:02d}.txt"
        path.write_text("\n\n".join(texts) + ("\n" if texts else ""), encoding="utf-8")
        paths.append(path)
    for stale, ci in _numbered(out, r"cluster_(\d{2,})\.txt").items():
        if ci >= model.config.k:
            stale.unlink()
    return paths


def plot_xy(X: np.ndarray) -> np.ndarray:
    """The (n, 2) plane the iteration files plot: the first two columns of
    the (n, d) array ``X``, y = 0.0 where d = 1."""
    xy = np.zeros((len(X), 2))
    xy[:, : X.shape[1]] = X[:, :2]
    return xy


# ids the csv writer quotes; it writes every other id as it is
_QUOTED = re.compile('[,"\r\n]')


def write_iteration_csv(path: str | Path, model: ClusterModel, xy: np.ndarray) -> None:
    """Scatter data per iteration: the assignments recorded in history, at
    ``xy``, the (n, 2) ``plot_xy`` of ``model.point_ids``' coordinates.

    Each point's ``chunk_id,x,y,`` prefix is formatted once; only an id
    holding a comma, a quote, a CR or a LF goes through the ``csv`` writer,
    which quotes it. A row is then one f-string of its iteration, its
    point's prefix and one of the k·(k+1) ``primary,secondary`` endings."""
    buf = io.StringIO()
    quote = csv.writer(buf, lineterminator="\n")  # the file's dialect, so quoting matches
    prefixes = []
    for cid, (x, y) in zip(model.point_ids, xy.tolist()):
        if _QUOTED.search(cid):
            quote.writerow([cid])
            cid = buf.getvalue()[:-1]
            buf.seek(0)
            buf.truncate()
        prefixes.append(f"{cid},{x!r},{y!r},")
    # ending p * (k + 1) + s + 1; secondary -1 (none) is the empty label
    k = model.config.k
    labels = [str(i) for i in range(k)] + [""]
    endings = [f"{p},{labels[s]}\n" for p in range(k) for s in range(-1, k)]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("iteration,chunk_id,x,y,primary,secondary\n")
        for it, snap in enumerate(model.history, start=1):
            head, cells = f"{it},", (snap.primary * (k + 1) + snap.secondary + 1).tolist()
            fh.write("".join([f"{head}{pre}{endings[c]}" for pre, c in zip(prefixes, cells)]))


SVG_WIDTH, SVG_HEIGHT, SVG_MARGIN = 640, 480, 20.0


def _svg_x(x, lo: float, span: float):
    """Plot x coordinate of a float or an array of floats."""
    return SVG_MARGIN + (x - lo) / span * (SVG_WIDTH - 2 * SVG_MARGIN)


def _svg_y(y, lo: float, span: float):
    return SVG_HEIGHT - SVG_MARGIN - (y - lo) / span * (SVG_HEIGHT - 2 * SVG_MARGIN)


def _palette(k: int) -> list[str]:
    colors = []
    for i in range(k):
        r, g, b = colorsys.hsv_to_rgb((i * 0.6180339887498949) % 1.0, 0.65, 0.85)
        colors.append(f"#{int(r * 255):02x}{int(g * 255):02x}{int(b * 255):02x}")
    return colors


def write_iteration_svgs(
    out_dir: str | Path,
    model: ClusterModel,
    xy: np.ndarray,
    prefix: str = "iteration",
) -> list[Path]:
    """One scatter SVG per iteration of the points at ``xy``, the (n, 2)
    ``plot_xy`` of ``model.point_ids``' coordinates; dual-assigned points are
    drawn as a distinct black series over the per-cluster colors. Files of
    this prefix numbered past the last iteration, left by an earlier longer
    run, are removed.

    The plot spans the points and that iteration's centroids. The points
    never move, so their markup is formatted again only when a centroid
    outside their hull changes the bounds (possible under
    ``raw_denominator``); each iteration then joins in the colors and the
    centroids."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    colors = _palette(model.config.k)
    xs, ys = xy[:, 0].tolist(), xy[:, 1].tolist()
    hull = (min(xs), max(xs), min(ys), max(ys))
    bounds = None
    opened: list[str] = []  # each point's circle up to its fill color
    paths = []
    for it, snap in enumerate(model.history, start=1):
        cx, cy = plot_xy(snap.centroids).T.tolist()
        x_lo, x_hi = min(hull[0], min(cx)), max(hull[1], max(cx))
        y_lo, y_hi = min(hull[2], min(cy)), max(hull[3], max(cy))
        x_span = (x_hi - x_lo) or 1.0
        y_span = (y_hi - y_lo) or 1.0
        if (x_lo, x_span, y_lo, y_span) != bounds:
            bounds = (x_lo, x_span, y_lo, y_span)
            opened = [
                f'<circle cx="{a:.2f}" cy="{b:.2f}" r="3" fill="'
                for a, b in zip(
                    _svg_x(xy[:, 0], x_lo, x_span).tolist(), _svg_y(xy[:, 1], y_lo, y_span).tolist()
                )
            ]
        sec = snap.secondary.tolist()
        parts = [
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{SVG_WIDTH}" height="{SVG_HEIGHT}" '
            f'viewBox="0 0 {SVG_WIDTH} {SVG_HEIGHT}">',
            f'<rect width="{SVG_WIDTH}" height="{SVG_HEIGHT}" fill="white"/>',
            f'<text x="{SVG_MARGIN:.2f}" y="14" font-family="sans-serif" font-size="12">'
            f"iteration {it}</text>",
        ]
        parts += [
            f'{head}{colors[p]}"/>'
            for head, p, s in zip(opened, snap.primary.tolist(), sec) if s < 0
        ]
        parts += [f'{head}black"/>' for head, s in zip(opened, sec) if s >= 0]
        parts += [
            f'<circle cx="{_svg_x(a, x_lo, x_span):.2f}" cy="{_svg_y(b, y_lo, y_span):.2f}" '
            f'r="6" fill="none" stroke="black" stroke-width="1.5"/>'
            for a, b in zip(cx, cy)
        ]
        parts.append("</svg>")
        path = out / f"{prefix}_{it:03d}.svg"
        path.write_text("\n".join(parts) + "\n", encoding="utf-8")
        paths.append(path)
    for stale, it in numbered_svgs(out, prefix).items():
        if it > len(model.history):
            stale.unlink()
    return paths


def numbered_svgs(out_dir: str | Path, prefix: str) -> dict[Path, int]:
    """Every ``<prefix>_NNN.svg`` file in ``out_dir`` (three or more
    digits), with its iteration number."""
    return _numbered(out_dir, re.escape(prefix) + r"_(\d{3,})\.svg")


def _numbered(out_dir: str | Path, pattern: str) -> dict[Path, int]:
    """Every file in ``out_dir`` whose name matches ``pattern``, with the
    number its one group captures."""
    numbered = re.compile(pattern)
    return {
        path: int(m.group(1))
        for path in Path(out_dir).iterdir()
        if (m := numbered.fullmatch(path.name))
    }
