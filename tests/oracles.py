"""Independent brute-force oracles the implementation is checked against.

Everything here is deliberately written the slow, obvious way (plain Python
loops, dense eigendecomposition) and shares no code with the package.
"""

from __future__ import annotations

import math
import re
from collections import Counter
from typing import Sequence

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
    """Dense covariance eigendecomposition (the thing the implementation
    avoids materializing). Returns (mean, components (d, V), variances)."""
    X = np.asarray(X, dtype=np.float64)
    mean = X.mean(axis=0)
    Xc = X - mean
    cov = Xc.T @ Xc / (X.shape[0] - 1)
    evals, evecs = np.linalg.eigh(cov)
    order = np.argsort(evals)[::-1][:d]
    return mean, evecs[:, order].T.copy(), evals[order].copy()


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
