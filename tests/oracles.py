"""Independent brute-force oracles the implementation is checked against.

Everything here is deliberately written the slow, obvious way (plain Python
loops, dense eigendecomposition) and shares no code with the package, except
``elbow_scan_oracle``: the scan loop as first written, around the package's
own ``run`` (which the Lloyd oracle pins on its own).
"""

from __future__ import annotations

import colorsys
import csv
import math
import re
from collections import Counter
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np


def sqdist(a: Sequence[float], b: Sequence[float]) -> float:
    s = 0.0
    for x, y in zip(a, b):
        diff = x - y
        s += diff * diff
    return s


def lloyd_oracle(
    X: Sequence[Sequence[float]],
    init_centroids: Sequence[Sequence[float]],
    epsilon: float = 1e-4,
    max_iter: int = 300,
):
    """Standard Lloyd K-means, pure Python.

    Rules mirrored from the documented contract: nearest centroid with ties
    to the lowest index; centroid = arithmetic mean accumulated in input
    order; empty clusters keep their centroid and are reseeded to the point
    farthest from its nearest (post-update) centroid, ties to the lowest
    point index; convergence when the summed centroid movement < epsilon.
    Final labels are a fresh pass against the final centroids.

    Returns (centroids, labels, iterations, converged, inertia).
    """
    pts = [[float(v) for v in row] for row in X]
    cents = [[float(v) for v in row] for row in init_centroids]
    n, dim, k = len(pts), len(pts[0]), len(cents)
    labels = [0] * n
    iterations = 0
    converged = False

    def nearest(p):
        best, best_d = 0, sqdist(p, cents[0])
        for j in range(1, k):
            d = sqdist(p, cents[j])
            if d < best_d:
                best, best_d = j, d
        return best, best_d

    for _ in range(max_iter):
        iterations += 1
        for i in range(n):
            labels[i], _ = nearest(pts[i])
        sums = [[0.0] * dim for _ in range(k)]
        counts = [0] * k
        for i in range(n):
            c = labels[i]
            counts[c] += 1
            for dd in range(dim):
                sums[c][dd] += pts[i][dd]
        new = []
        empties = []
        for j in range(k):
            if counts[j] == 0:
                new.append(list(cents[j]))
                empties.append(j)
            else:
                new.append([sums[j][dd] / float(counts[j]) for dd in range(dim)])
        if empties:
            dmin = [min(sqdist(pts[i], new[j]) for j in range(k)) for i in range(n)]
            order = sorted(range(n), key=lambda i: (-dmin[i], i))
            for t, j in enumerate(empties):
                new[j] = list(pts[order[t]])
        movement = 0.0
        for j in range(k):
            s = 0.0
            for dd in range(dim):
                diff = new[j][dd] - cents[j][dd]
                s += diff * diff
            movement += math.sqrt(s)
        cents = new
        if movement < epsilon:
            converged = True
            break
    inertia = 0.0
    for i in range(n):
        labels[i], d = nearest(pts[i])
        inertia += d
    return cents, labels, iterations, converged, inertia


def eigh_pca_oracle(X: np.ndarray, d: int):
    """Dense covariance eigendecomposition with no sign convention and no
    wide-input path. Returns (mean, components (d, V), variances)."""
    X = np.asarray(X, dtype=np.float64)
    mean = X.mean(axis=0)
    Xc = X - mean
    cov = Xc.T @ Xc / (X.shape[0] - 1)
    evals, evecs = np.linalg.eigh(cov)
    order = np.argsort(evals)[::-1][:d]
    return mean, evecs[:, order].T.copy(), evals[order].copy()


def distances_sq_oracle(X: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """Squared Euclidean distances (n, k) as first written: one (n, k, d)
    broadcast of the differences, squared and summed over the last axis."""
    diff = X[:, None, :] - centroids[None, :, :]
    return np.sum(diff * diff, axis=2)


def assign_arrays_oracle(X: np.ndarray, centroids: np.ndarray, threshold: float):
    """Primary/secondary labels and distances as first written: the full
    distance table, argmin (ties to the lowest index), then argmin again
    with the primary masked out. Returns (primary, secondary, d1, d2)."""
    d2all = distances_sq_oracle(X, centroids)
    prim = np.argmin(d2all, axis=1)
    rows = np.arange(X.shape[0])
    d1 = np.sqrt(d2all[rows, prim])
    masked = d2all.copy()
    masked[rows, prim] = np.inf
    second = np.argmin(masked, axis=1)
    d2 = np.sqrt(masked[rows, second])
    dual = (d2 - d1) < threshold
    sec = np.where(dual, second, -1)
    return prim, sec.astype(np.int64), d1, d2


def add_at_update_oracle(X, w, prim, sec, previous, damping_weight, raw_denominator=False):
    """Weighted, damped centroid update as first written: six unbuffered
    ``np.add.at`` accumulations (primaries, then the secondaries of
    dual-assigned points, ``sec >= 0``), each in input order. Returns
    (new centroids, empty cluster indices)."""
    k, dim = previous.shape
    sums = np.zeros((k, dim), dtype=np.float64)
    wsum = np.zeros(k, dtype=np.float64)
    counts = np.zeros(k, dtype=np.int64)
    wx = X * w[:, None]
    np.add.at(sums, prim, wx)
    np.add.at(wsum, prim, w)
    np.add.at(counts, prim, 1)
    dual = sec >= 0
    np.add.at(sums, sec[dual], wx[dual])
    np.add.at(wsum, sec[dual], w[dual])
    np.add.at(counts, sec[dual], 1)
    new = previous.copy()
    empties = []
    for i in range(k):
        if counts[i] == 0:
            empties.append(i)
            continue
        num = sums[i] + damping_weight * previous[i]
        if raw_denominator:
            den = float(counts[i]) + (1.0 if damping_weight > 0.0 else 0.0)
        else:
            den = wsum[i] + damping_weight
        new[i] = num / den
    return new, empties


def elbow_scan_oracle(points, config, k_range, restarts):
    """The elbow scan as first written: one ``run`` after another on the
    ``(ids, X, w)`` of ``points``, seeds drawn per (config.seed, k, restart),
    and the best distortion kept per k. Returns [(k, distortion)]."""
    from dataclasses import replace

    from keyclust.cluster import run

    k_min, k_max = k_range
    out = []
    for k in range(k_min, k_max + 1):
        best = math.inf
        for r in range(restarts):
            seed = int(np.random.default_rng((config.seed, k, r)).integers(2**63))
            best = min(best, run(*points, replace(config, k=k, seed=seed)).distortion)
        out.append((k, best))
    return out


def df_oracle(token_lists: Sequence[Sequence[str]]) -> dict[str, int]:
    """Brute-force document frequency: for every term, scan every chunk."""
    terms = sorted({t for toks in token_lists for t in toks})
    return {
        t: sum(1 for toks in token_lists if t in list(toks)) for t in terms
    }


def term_count_oracle(token_lists: Sequence[Sequence[str]]) -> Counter:
    counts: Counter[str] = Counter()
    for toks in token_lists:
        for t in toks:
            counts[t] += 1
    return counts


def query_weights_oracle(chunks, idf: Mapping[str, float], floor: float = 0.01) -> dict[str, float]:
    """Query weights as first written, over whole decoded chunks: a chunk's
    score is its largest tf * idf over the query words ``idf`` holds, and
    scores scale onto (floor, 1] by the largest of them."""
    scores: dict[str, float] = {}
    for chunk in chunks:
        s = 0.0
        for word, value in idf.items():
            tf = chunk.tokens.count(word)
            if tf:
                s = max(s, tf * value)
        scores[chunk.chunk_id] = s
    s_max = max(scores.values())
    return {
        cid: floor + (1.0 - floor) * (s / s_max) if s > 0.0 else floor for cid, s in scores.items()
    }


def tfidf_oracle(token_lists: Sequence[Sequence[str]]):
    """Hand evaluation of the stated formula on every chunk: weight =
    tf * (ln((1+N)/(1+df)) + 1), then L2 normalization. Vocabulary is every
    term (no pruning), indexed in sorted order."""
    n = len(token_lists)
    df = df_oracle(token_lists)
    terms = sorted(df)
    index = {t: i for i, t in enumerate(terms)}
    out = []
    for toks in token_lists:
        tf: Counter[str] = Counter(toks)
        weights = {
            index[t]: c * (math.log((1 + n) / (1 + df[t])) + 1.0) for t, c in tf.items()
        }
        norm = math.sqrt(sum(w * w for w in weights.values()))
        out.append({i: w / norm for i, w in weights.items()} if norm else {})
    return index, out


def segment_sentences_oracle(
    body: str, abbreviations: frozenset[str], terminal: str, strip_chars: str
) -> list[str]:
    """Sentence segmentation as first written: the word before each
    candidate boundary is found by a regex search over the whole prefix of
    the body, which is quadratic in body length. The abbreviation set and
    the two character sets are the package's data, passed in."""
    if not body or not body.strip():
        return []
    sentences: list[str] = []
    start = 0
    for m in re.finditer(r"[.!?]+[\"'”’)\]]*\s+", body):
        nxt = body[m.end()] if m.end() < len(body) else ""
        if not nxt.isupper():
            continue
        prev = re.search(r"(\S+)\s*$", body[: m.start() + 1])
        if prev:
            word = prev.group(1).rstrip(terminal).lstrip(strip_chars).lower()
            if word in abbreviations:
                continue
            if len(word) == 1 and word.isalpha() and prev.group(1)[0].isupper():
                continue
        piece = " ".join(body[start : m.end()].split())
        if piece:
            sentences.append(piece)
        start = m.end()
    tail = " ".join(body[start:].split())
    if tail:
        sentences.append(tail)
    return sentences


# ---------------------------------------------------------------------------
# iteration scatter writers as first written: every row through the csv
# writer, every SVG formatted from scratch


def _coords_2d(coords: np.ndarray) -> tuple[float, float]:
    x = float(coords[0])
    y = float(coords[1]) if coords.shape[0] > 1 else 0.0
    return x, y


def write_iteration_csv_oracle(path, model, coords_by_id) -> None:
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


def _svg_scatter(points, centroids, title: str, width: int = 640, height: int = 480) -> str:
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


def write_iteration_svgs_oracle(out_dir, model, coords_by_id, prefix: str = "iteration"):
    """One SVG per iteration: colored points, then the dual-assigned ones
    in black, then the centroids, scaled to span points and centroids."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    colors = _palette(model.config.k)
    xy = [_coords_2d(coords_by_id[cid]) for cid in model.point_ids]
    paths = []
    for it, snap in enumerate(model.history, start=1):
        pts = []
        dual_pts = []
        for (x, y), p, s in zip(xy, snap.primary.tolist(), snap.secondary.tolist()):
            if s >= 0:
                dual_pts.append((x, y, "black"))
            else:
                pts.append((x, y, colors[p]))
        cents = [_coords_2d(c) for c in snap.centroids]
        path = out / f"{prefix}_{it:03d}.svg"
        path.write_text(_svg_scatter(pts + dual_pts, cents, f"iteration {it}"), encoding="utf-8")
        paths.append(path)
    return paths
