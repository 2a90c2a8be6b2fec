"""Weighted K-means with two-cluster assignment and centroid damping.

The modified algorithm differs from standard Lloyd iteration in three ways:
points carry query-relevance weights that scale their pull on centroids; a
point whose two nearest centroids are closer than a distance-gap threshold
is assigned to both clusters (and contributes to both updates); and each
new centroid blends in the previous one with a small damping weight so it
is neither erased nor frozen. Standard mode zeroes all three knobs and is
the classical Lloyd baseline.

Determinism contract: a fixed seed and fixed input produce an identical
model, including history. Every run computes in one thread: centroid
accumulation folds members in input (chunk) order, primaries before the
secondaries of dual-assigned points (one axis-0 sum per cluster over its
members' rows, which adds whole rows in order; a standard fit's unit
weights are not multiplied in, since x * 1.0 is x), and the distortion
sums its terms in the same order, so results are bit-stable. Every
returned distance is an exact per-row sum of squared differences, and
every label equals the label those exact sums give: the exact reference
(``_assign_exact``) takes the labels from the full table of those sums.
One screen (``_screen``), a matrix product into a centroid-major (k, n)
table with a margin that covers its rounding in any summation order, finds
each point's two nearest centroids (ties to the lowest index, as the exact
reference breaks them), and one assignment pass (``_assign_labels``) uses
it: a point's nearest, second and secondary labels come from the screen
where the margin proves them, and from the exact reference otherwise. The
iterations keep the labels; the final pass adds the exact sums for the
nearest and the second centroid only. So results do not depend on BLAS or
its threads. The elbow scan runs its independent runs on a pool of worker
processes (forked on Linux), each run computed alone in one worker, so its
result does not depend on the pool.
"""

from __future__ import annotations

import concurrent.futures
import logging
import math
import os
import sys
from dataclasses import asdict, dataclass, fields, replace
from typing import Any, Mapping, Optional, Sequence

import numpy as np

from .errors import NonFiniteInput, TooFewDistinctPoints

log = logging.getLogger(__name__)

MODES = ("standard", "modified")  # pipeline order: the baseline first
SEEDINGS = ("random_distinct", "partial")

DEFAULT_THRESHOLD = 0.01
DEFAULT_DAMPING = 0.01
DEFAULT_EPSILON = 1e-4
DEFAULT_MAX_ITER = 300
PARTIAL_FRACTION = 0.2
# the config is written into the model stage, whose reader keeps an integer
# exact only below 2**64 (corpus._loads); numpy's seeds are non-negative
INT_LIMIT = 2**64


@dataclass(frozen=True)
class ClusterConfig:
    """Knobs for one clustering run.

    ``threshold`` is the distance gap below which a point is dual-assigned;
    ``damping_weight`` is the weight of the previous centroid in each
    update; ``epsilon`` bounds the summed centroid movement at convergence.
    Standard mode forces threshold and damping to zero and treats every
    point weight as 1.
    """

    k: int
    threshold: float = DEFAULT_THRESHOLD
    damping_weight: float = DEFAULT_DAMPING
    epsilon: float = DEFAULT_EPSILON
    max_iter: int = DEFAULT_MAX_ITER
    mode: str = "modified"
    seeding: str = "random_distinct"
    seed: int = 0
    raw_denominator: bool = False

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.seeding not in SEEDINGS:
            raise ValueError(f"seeding must be one of {SEEDINGS}, got {self.seeding!r}")
        for name in ("threshold", "damping_weight", "epsilon"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.threshold < 0.0:
            raise ValueError("threshold must be >= 0")
        if self.damping_weight < 0.0:
            raise ValueError("damping_weight must be >= 0")
        if self.epsilon <= 0.0:
            raise ValueError("epsilon must be > 0")
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")
        for name in ("k", "max_iter"):
            if getattr(self, name) >= INT_LIMIT:
                raise ValueError(f"{name} must be < 2**64, got {getattr(self, name)}")
        if not 0 <= self.seed < INT_LIMIT:
            raise ValueError(f"seed must be >= 0 and < 2**64, got {self.seed}")
        if self.mode == "standard":
            object.__setattr__(self, "threshold", 0.0)
            object.__setattr__(self, "damping_weight", 0.0)

    def to_record(self) -> dict[str, Any]:
        """Every field: the model-reuse key, so a new field is part of it."""
        return asdict(self)

    @classmethod
    def from_record(cls, rec: Mapping[str, Any]) -> "ClusterConfig":
        return cls(**rec)


@dataclass(frozen=True)
class Assignment:
    """Primary (and possibly secondary) cluster of one point.

    ``d_secondary`` is the distance to the second-nearest centroid, infinity
    when k == 1. The secondary cluster is present iff
    ``d_secondary - d_primary < threshold`` (strict).
    """

    chunk_id: str
    primary_cluster: int
    secondary_cluster: Optional[int]
    d_primary: float
    d_secondary: float


@dataclass(eq=False)
class IterationSnapshot:
    """One iteration: the updated centroids and the labels, computed
    against the previous iteration's centroids, that produced them:
    ``primary`` and ``secondary`` cluster index per point (-1 for no
    secondary). Its dual-assigned points are that iteration's "black
    points"."""

    centroids: np.ndarray
    primary: np.ndarray
    secondary: np.ndarray


def _labels(rec: Mapping[str, Any]) -> dict[str, np.ndarray]:
    """The label arrays of a final pass's or a snapshot's record."""
    return {key: np.array(rec[key], dtype=np.int64) for key in ("primary", "secondary")}


@dataclass(eq=False)
class ClusterModel:
    """A fitted model: final centroids, the final assignment pass against
    them, and the per-iteration history.

    The final pass is parallel arrays over ``point_ids``: ``primary`` and
    ``secondary`` cluster indices (-1 for no secondary), ``d1`` and ``d2``
    the distances to the nearest and second-nearest centroids (``d2`` is
    infinite when k == 1). History snapshots keep centroids and labels
    only, as the record does, so a model read back from its record equals
    the fitted one in every field."""

    point_ids: list[str]
    primary: np.ndarray
    secondary: np.ndarray
    d1: np.ndarray
    d2: np.ndarray
    config: ClusterConfig
    centroids: np.ndarray
    iterations: int
    history: list[IterationSnapshot]
    distortion: float
    converged: bool

    @property
    def assignments(self) -> list[Assignment]:
        """A per-point view of the final pass, built on every access."""
        return [
            Assignment(cid, p, None if s < 0 else s, a, b)
            for cid, p, s, a, b in zip(
                self.point_ids, self.primary.tolist(), self.secondary.tolist(),
                self.d1.tolist(), self.d2.tolist(),
            )
        ]

    def to_record(self) -> dict[str, Any]:
        """The model stage's record; it holds the model's own arrays and id list,
        not copies, but a ``d2`` with an infinite distance is a list with None for each."""
        d2 = self.d2
        if np.isinf(d2).any():
            d2 = [None if math.isinf(d) else d for d in d2.tolist()]
        return {
            "config": self.config.to_record(),
            "point_ids": self.point_ids,
            "centroids": self.centroids,
            "iterations": self.iterations,
            "converged": self.converged,
            "distortion": self.distortion,
            "final": {
                "primary": self.primary,
                "secondary": self.secondary,
                "d1": self.d1,
                "d2": d2,
            },
            # a snapshot's record is every field of it
            "history": [{f.name: getattr(s, f.name) for f in fields(s)} for s in self.history],
        }

    @classmethod
    def from_record(cls, rec: Mapping[str, Any]) -> "ClusterModel":
        """The model of a record whose final pass holds, for each point, a
        primary in [0, k) and a secondary in [-1, k); else a ValueError."""
        final = rec["final"]
        d2 = np.array(final["d2"], dtype=np.float64)  # a JSON null becomes NaN
        d2[np.isnan(d2)] = np.inf
        labels, config, n = _labels(final), ClusterConfig.from_record(rec["config"]), len(rec["point_ids"])
        p, s = labels["primary"], labels["secondary"]
        if p.shape != (n,) or s.shape != (n,) or ((p < 0) | (p >= config.k) | (s < -1) | (s >= config.k)).any():
            raise ValueError(
                f"the final pass does not hold a primary in [0, {config.k}) and a secondary "
                f"in [-1, {config.k}) for each of the {n} points"
            )
        return cls(
            point_ids=list(rec["point_ids"]),
            **labels,
            d1=np.array(final["d1"], dtype=np.float64),
            d2=d2,
            config=config,
            centroids=np.array(rec["centroids"], dtype=np.float64),
            iterations=rec["iterations"],
            history=[
                IterationSnapshot(np.array(h["centroids"], dtype=np.float64), **_labels(h))
                for h in rec["history"]
            ],
            distortion=rec["distortion"],
            converged=rec["converged"],
        )


# ---------------------------------------------------------------------------
# array core


def _checked(ids: Sequence[str], X: Any, w: Any) -> tuple[list[str], np.ndarray, np.ndarray]:
    """The points ``ids`` with coordinates the rows of ``X`` and weights
    ``w``, as one id list, a C-contiguous float64 ``X`` (``X`` itself when it
    is one) and a float64 ``w``. A ValueError unless ``X`` is 2-D with one
    id and one weight per row; NonFiniteInput for a NaN or infinity."""
    X = np.ascontiguousarray(X, dtype=np.float64)
    w = np.asarray(w, dtype=np.float64)
    if X.ndim != 2 or len(ids) != X.shape[0] or w.shape != (X.shape[0],):
        raise ValueError(
            f"need an (n, d) X with n ids and n weights; got X of shape {X.shape}, "
            f"{len(ids)} ids and w of shape {w.shape}"
        )
    if not np.isfinite(X).all() or not np.isfinite(w).all():
        raise NonFiniteInput("points contain NaN or infinite coordinates/weights")
    return list(ids), X, w


def _distinct_row_indices(X: np.ndarray) -> list[int]:
    seen: dict[bytes, int] = {}
    for i, row in enumerate(X):
        seen.setdefault(row.tobytes(), i)
    return sorted(seen.values())


def _distances_sq(X: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """Squared Euclidean distances (n, k), one centroid at a time through
    one reused (n, d) buffer. Each row sum reduces the same d contiguous
    squares as an (n, k, d) broadcast would, so the result is bitwise the
    same without the two (n, k, d) temporaries."""
    out = np.empty((X.shape[0], centroids.shape[0]), dtype=np.float64)
    buf = np.empty_like(X, dtype=np.float64)
    for j, c in enumerate(centroids):
        np.subtract(X, c, out=buf)
        np.multiply(buf, buf, out=buf)
        np.sum(buf, axis=1, out=out[:, j])
    return out


def _assign_exact(
    X: np.ndarray, centroids: np.ndarray, threshold: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The exact reference of the assignment pass: each row's nearest and
    second-nearest centroid and its secondary label (-1 for none), from
    the full ``_distances_sq`` table.

    Ties are broken toward the lowest cluster index (argmin keeps the first
    minimum). Secondary assignment requires a strict gap below threshold,
    so threshold 0 never dual-assigns. The masked argmin returns the
    nearest itself only when every other sum is infinite (always with
    k == 1); the second distance is then infinite, so no point is
    dual-assigned.
    """
    d2all = _distances_sq(X, centroids)
    rows = np.arange(X.shape[0])
    prim = np.argmin(d2all, axis=1)
    d1 = np.sqrt(d2all[rows, prim])
    d2all[rows, prim] = np.inf
    second = np.argmin(d2all, axis=1)
    d2 = np.sqrt(d2all[rows, second])
    return prim, second, np.where((d2 - d1) < threshold, second, -1)


def _squared_norms(X: np.ndarray) -> np.ndarray:
    """``|x|^2`` of every row, the screen's input that depends on ``X`` only."""
    with np.errstate(over="ignore", invalid="ignore"):
        return np.einsum("ij,ij->i", X, X)


def _screen(
    X: np.ndarray, xx: np.ndarray, centroids: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """One matrix product's screen of each row's two nearest centroids.

    ``xx`` is ``_squared_norms(X)``. Returns the screen's nearest ``p`` and
    second ``q`` per row, their screen values ``ap`` and ``aq``, the margin
    ``B`` per row, and the rows to compute in full: those whose screen is
    not finite, has no second centroid (k == 1) or leaves a third
    candidate. Every screen value a lies within 2B of its exact row sum e,
    and on the other rows no centroid but ``p`` and ``q`` can be nearest,
    second or tied with either.

    The table is centroid-major, (k, n): each point's reductions run down
    its column, across k contiguous rows and vectorised over the points, in
    a number of numpy calls that does not depend on k. ``argmax(a == min)``
    picks the first centroid that attains the minimum, the lowest index, as
    ``argmin`` would.
    """
    cols = np.arange(X.shape[0])
    with np.errstate(over="ignore", invalid="ignore"):
        cc = np.einsum("ij,ij->i", centroids, centroids)
        # the screen a = |x|^2 - 2 x.c + |c|^2, rounded however BLAS sums
        a = centroids @ X.T
        a *= -2.0
        a += xx
        a += cc[:, None]
        # The margin. Let t be a true squared distance, e its exact row sum,
        # u = 2^-53 and R = |x| + max |c|. Rounding bounds |a - t| by
        # (d + 2) u R^2 for any order of the dot product's d terms, and
        # |e - t| by (d + 2) u t <= (d + 2) u R^2. B = (d + 4) (u R^2 + tiny)
        # bounds both, with room for rounding B and s2 + 4B; tiny, the
        # smallest normal number, covers products that underflow. Let s2 be
        # a row's second-smallest screen value. A centroid with a > s2 + 4B
        # has e >= a - 2B > s2 + 2B >= the e of both centroids screened
        # nearest, so it is neither nearest nor second, nor tied with either.
        radius = np.sqrt(xx) + np.sqrt(cc.max())
        bound = (X.shape[1] + 4) * (2.0**-53 * radius * radius + np.finfo(np.float64).tiny)
        full = ~(np.isfinite(a).all(axis=0) & np.isfinite(bound))
        ap = a.min(axis=0)
        p = np.argmax(a == ap, axis=0)
        a[p, cols] = np.inf
        aq = a.min(axis=0)
        q = np.argmax(a == aq, axis=0)
        # besides p, only q may lie within s2 + 4B
        full |= np.count_nonzero(a <= aq + 4.0 * bound, axis=0) != 1
        # with k == 1 there is no q: aq is the infinity that masked p
        full |= ~np.isfinite(aq)
    return p, q, ap, aq, bound, full


def _assign_labels(
    X: np.ndarray, xx: np.ndarray, centroids: np.ndarray, threshold: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The assignment pass: ``_assign_exact(X, centroids, threshold)``, bit
    for bit, with exact sums only for the rows that the screen's margin
    does not settle.

    ``xx`` is ``_squared_norms(X)``. With the exact sums e within 2B of the
    screen values (``_screen``), a row with ``aq - ap > 4B`` and no third
    candidate has e_p < e_q < every other e: p is the nearest and q the
    second, strictly, so no tie can go the other way. Its secondary then
    depends on ``sqrt(e_q) - sqrt(e_p) < threshold``, and that rounded gap
    is monotone in each sum, so it lies between its values at the ends of
    the intervals a -+ 3B (2B and room for rounding the ends). If both
    ends fall on one side of ``threshold``, so does the gap. Every other
    row, and any row where a comparison meets NaN, goes to
    ``_assign_exact``.
    """
    p, q, ap, aq, bound, full = _screen(X, xx, centroids)
    sec = np.full(X.shape[0], -1, dtype=np.int64)
    with np.errstate(over="ignore", invalid="ignore"):
        settled = ~full & (aq - ap > 4.0 * bound)
        # at threshold 0 no gap between ordered sums is below it
        if threshold > 0.0:
            wide = 3.0 * bound
            low = np.sqrt(np.maximum(aq - wide, 0.0)) - np.sqrt(ap + wide)
            high = np.sqrt(aq + wide) - np.sqrt(np.maximum(ap - wide, 0.0))
            dual = high < threshold
            settled &= dual | (low >= threshold)
            sec[dual] = q[dual]
    redo = np.flatnonzero(~settled)
    if redo.size:
        # X itself, not a copy, when every row is redone (with k == 1 the
        # screen settles none)
        rows = X if redo.size == X.shape[0] else X[redo]
        p[redo], q[redo], sec[redo] = _assign_exact(rows, centroids, threshold)
    return p, q, sec


def _assign_arrays(
    X: np.ndarray, xx: np.ndarray, centroids: np.ndarray, threshold: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The final pass: ``_assign_labels``' primary and secondary labels and
    the exact distances to the nearest and second-nearest centroids, as
    ``_assign_exact``'s table holds them, from two row sums per point."""
    prim, second, sec = _assign_labels(X, xx, centroids, threshold)
    d1 = np.sqrt(_paired_distances_sq(X, centroids, prim))
    d2 = np.sqrt(_paired_distances_sq(X, centroids, second))
    # the nearest is its own second only where every other sum is
    # infinite (always with k == 1): the exact reference's d2 is infinite
    d2[second == prim] = np.inf
    return prim, sec, d1, d2


def _paired_distances_sq(X: np.ndarray, centroids: np.ndarray, pick: np.ndarray) -> np.ndarray:
    """Squared distance from each row of ``X`` to its own centroid
    ``centroids[pick[i]]``, by the same subtract, square and row sum as
    ``_distances_sq``, so each value is bitwise that table's entry."""
    buf = np.take(centroids, pick, axis=0)
    np.subtract(X, buf, out=buf)
    np.multiply(buf, buf, out=buf)
    return np.sum(buf, axis=1)


def _update_arrays(
    X: np.ndarray,
    w: Optional[np.ndarray],
    prim: np.ndarray,
    sec: np.ndarray,
    previous: np.ndarray,
    damping_weight: float,
    raw_denominator: bool = False,
) -> tuple[np.ndarray, list[int]]:
    """Weighted centroid update; dual-assigned points count in both clusters.

    New centroid i = (sum_j w_j x_j + w_d * c_i_prev) / (sum_j w_j + w_d)
    over primary and secondary members. ``raw_denominator`` divides by the
    member count instead (plus one for the damping pseudo-member), the
    unnormalized form printed by the source algorithm. Empty clusters keep
    their previous centroid and are reported for reseeding. ``w`` is
    ``None`` in a standard fit, whose every weight is 1.
    """
    k, dim = previous.shape
    dual = sec >= 0
    # every membership in accumulation order: primaries, then the
    # secondaries of dual-assigned points, each in input order
    labels = np.concatenate([prim, sec[dual]])
    src = np.concatenate([np.arange(prim.shape[0]), np.flatnonzero(dual)])
    counts = np.bincount(labels, minlength=k)
    # with unit weights x * 1.0 is x and a sum of 1.0s is the count, exactly
    # (below 2**53 members), so a standard fit neither gathers nor multiplies
    # weights
    if w is None:
        wsum = counts.astype(np.float64)
    else:
        wsum = np.bincount(labels, weights=w[src], minlength=k)
    if dim == 1:
        # one column is numpy's fast axis, which it sums pairwise
        wx = X[src, 0] if w is None else X[src, 0] * w[src]
        sums = np.bincount(labels, weights=wx, minlength=k)[:, None]
    else:
        # a stable sort keeps accumulation order within each cluster, and an
        # axis-0 sum of a C-contiguous block adds whole rows in order, as
        # bincount does. Where numpy starts that sum from the first row
        # rather than from +0.0, an all-(-0.0) column sums to -0.0: add 0.0.
        # A stable sort's permutation is unique, so sorting the labels as the
        # narrowest unsigned type that holds k - 1 (uint8 up to k = 256) gives
        # the same order, and numpy radix-sorts 8- and 16-bit keys
        keys = labels.astype(np.min_scalar_type(k - 1))
        src = src[np.argsort(keys, kind="stable")]
        wx = X[src]
        if w is not None:
            wx *= w[src, None]
        sums = np.empty((k, dim), dtype=np.float64)
        end = 0
        for c, m in enumerate(counts.tolist()):
            np.sum(wx[end:end + m], axis=0, out=sums[c])
            end += m
        sums += 0.0
    if raw_denominator:
        den = counts + (1.0 if damping_weight > 0.0 else 0.0)
    else:
        den = wsum + damping_weight
    full = counts > 0
    new = previous.copy()
    new[full] = (sums[full] + damping_weight * previous[full]) / den[full, None]
    return new, np.flatnonzero(~full).tolist()


def _repair_empty(centroids: np.ndarray, empties: Sequence[int], X: np.ndarray) -> None:
    """Reseed each empty cluster to the point farthest from its nearest
    centroid. All empties are reseeded against the same (post-update)
    distance table; ties and already-taken points fall to the next index."""
    if not empties:
        return
    dmin = _distances_sq(X, centroids).min(axis=1)
    order = np.argsort(-dmin, kind="stable")
    taken = 0
    for ci in empties:
        pick = int(order[taken])
        taken += 1
        centroids[ci] = X[pick]
        log.info("reseeded empty cluster %d to point %d", ci, pick)


# ---------------------------------------------------------------------------
# public operations


def assign_point(
    chunk_id: str, coords: Any, centroids: np.ndarray, threshold: float
) -> Assignment:
    """Assign one point: primary is the nearest centroid (ties to the lowest
    index), secondary the second-nearest iff the distance gap is strictly
    below ``threshold``."""
    X = np.asarray([coords], dtype=np.float64)
    prim, sec, d1, d2 = _assign_arrays(
        X, _squared_norms(X), np.asarray(centroids, dtype=np.float64), threshold
    )
    return Assignment(
        chunk_id, int(prim[0]), None if sec[0] < 0 else int(sec[0]), float(d1[0]), float(d2[0])
    )


def update_centroids(
    X: np.ndarray,
    w: np.ndarray,
    labels: np.ndarray,
    previous: np.ndarray,
    damping_weight: float,
    raw_denominator: bool = False,
) -> tuple[np.ndarray, list[int]]:
    """Update every centroid from the rows of ``X`` labelled with it, each
    weighted by its entry of ``w`` (see ``_update_arrays``).

    Returns the new centroids and the indices of empty clusters, which keep
    their previous centroid and are flagged for reseeding by the caller.
    A ValueError unless there is one weight and one label in [0, k) per row.
    """
    X, w, previous = (np.asarray(a, dtype=np.float64) for a in (X, w, previous))
    labels = np.asarray(labels, dtype=np.int64)
    k = previous.shape[0]
    if not w.shape == labels.shape == (len(X),) or ((labels < 0) | (labels >= k)).any():
        raise ValueError(f"need one weight and one label in [0, {k}) per row of X")
    no_sec = np.full(len(labels), -1, dtype=np.int64)
    return _update_arrays(X, w, labels, no_sec, previous, damping_weight, raw_denominator)


def init_centroids(X: np.ndarray, config: ClusterConfig) -> np.ndarray:
    """Initial centroids: k distinct rows of ``X`` chosen by the seeded RNG,
    or (partial seeding) the final centroids of a standard K-means run on a
    seeded random 20% subset (at least 2k points)."""
    X = np.ascontiguousarray(X, dtype=np.float64)
    return _seed_centroids(X, _distinct_row_indices(X), config)


def _seed_centroids(X: np.ndarray, distinct: Sequence[int], config: ClusterConfig) -> np.ndarray:
    if len(distinct) < config.k:
        raise TooFewDistinctPoints(
            f"{len(distinct)} distinct points < k={config.k}"
        )
    rng = np.random.default_rng(config.seed)
    if config.seeding == "random_distinct":
        pick = rng.choice(len(distinct), size=config.k, replace=False)
        return X[[distinct[i] for i in pick]].copy()
    return _partial_seed(X, config, rng)


def _partial_seed(X: np.ndarray, config: ClusterConfig, rng: np.random.Generator) -> np.ndarray:
    n = X.shape[0]
    size = min(n, max(math.ceil(PARTIAL_FRACTION * n), min(2 * config.k, n)))
    while True:
        idx = np.sort(rng.choice(n, size=size, replace=False))
        distinct = _distinct_row_indices(X[idx])
        if len(distinct) >= config.k or size >= n:
            break
        size = min(n, size * 2)
    inner = replace(
        config,
        mode="standard",
        seeding="random_distinct",
        seed=int(rng.integers(2**63)),
    )
    # ``run`` on the subset's rows, whose ids are their row indices: only the
    # centroids are kept, and standard mode takes no weights
    return _fit(idx.tolist(), X[idx], None, distinct, inner).centroids.copy()


def run(ids: Sequence[str], X: np.ndarray, w: np.ndarray, config: ClusterConfig) -> ClusterModel:
    """Iterate assign-all / update-centroids until the summed centroid
    movement drops below epsilon or max_iter is reached.

    History records every iteration's updated centroids together with the
    labels that produced them (whose dual-assigned points are the "black
    points" of that iteration), without their distances. The final reported
    assignments are a fresh pass against the final centroids, with their
    distances, and the distortion dual-counts them.

    The points are ``ids``, the rows of the (n, d) array ``X`` and the
    weights ``w``, one per row, which a standard fit ignores. ``X`` is used
    in place when it is C-contiguous float64.
    """
    ids, X, w = _checked(ids, X, w)
    return _fit(ids, X, w, _distinct_row_indices(X), config)


def _fit(
    ids: list[str],
    X: np.ndarray,
    w: Optional[np.ndarray],
    distinct: Sequence[int],
    config: ClusterConfig,
) -> ClusterModel:
    """``run`` on prepared arrays: ``distinct`` holds the first index of
    every distinct row of ``X``; a standard fit ignores ``w``. Reads its
    arguments and writes nothing shared, so each of the elbow scan's
    independent fits is computed alone in one worker."""
    if config.mode == "standard":
        w = None  # every weight is 1 (see ``_update_arrays``)
    centroids = _seed_centroids(X, distinct, config)
    history: list[IterationSnapshot] = []
    converged = False
    xx = _squared_norms(X)
    for _ in range(config.max_iter):
        prim, _, sec = _assign_labels(X, xx, centroids, config.threshold)
        new, empties = _update_arrays(
            X, w, prim, sec, centroids, config.damping_weight, config.raw_denominator
        )
        _repair_empty(new, empties, X)
        movement = float(np.sum(np.sqrt(np.sum((new - centroids) ** 2, axis=1))))
        history.append(IterationSnapshot(new.copy(), prim, sec))
        centroids = new
        if movement < config.epsilon:
            converged = True
            break
    model = ClusterModel(
        ids,
        *_assign_arrays(X, xx, centroids, config.threshold),
        config=config,
        centroids=centroids,
        iterations=len(history),
        history=history,
        distortion=0.0,
        converged=converged,
    )
    model.distortion = _distortion(model)
    return model


def distortion(model: ClusterModel, include_secondary: bool = True) -> float:
    """Sum of squared distances from points to their assigned centroids.

    Dual-assigned points contribute one term per cluster, so this is never
    below the primary-only score.
    """
    return _distortion(model, include_secondary)


def _distortion(model: ClusterModel, include_secondary: bool = True) -> float:
    terms = model.d1 * model.d1
    if include_secondary:
        dual_sq = np.where(model.secondary >= 0, model.d2 * model.d2, 0.0)
        terms = np.column_stack([terms, dual_sq]).ravel()
    # cumsum adds point by point, primary term before secondary, so the
    # total is bit-stable; adding 0.0 for a single-assigned point is exact
    return float(np.cumsum(terms)[-1]) if terms.size else 0.0


def scan_workers(threads: int, runs: int) -> int:
    """The number of worker processes an elbow scan of ``runs`` runs uses
    when allowed ``threads``: at most one per run and one per usable CPU."""
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    return min(threads, runs, cpus)


def _pool_context():
    # imported with the first pool: a command that starts none keeps its
    # peak RSS (importing multiprocessing and the process pool took about
    # 0.7 MB on Python 3.11)
    import multiprocessing

    # fork: workers inherit the arrays instead of unpickling a copy, and no
    # resource tracker or forkserver outlives the scan; Python 3.14 makes
    # forkserver the Linux default, so it is named
    return multiprocessing.get_context("fork" if sys.platform == "linux" else None)


# the shared arguments of the scan's fits, set in each worker process
_scan_args: tuple = ()


def _scan_init(ids: list[str], X: np.ndarray, w: np.ndarray, distinct: list[int]) -> None:
    global _scan_args
    _scan_args = (ids, X, w, distinct)


def _scan_distortion(cfg: ClusterConfig) -> float:
    return _fit(*_scan_args, cfg).distortion


def elbow_scan(
    ids: Sequence[str],
    X: np.ndarray,
    w: np.ndarray,
    config: ClusterConfig,
    k_range: tuple[int, int],
    restarts: int = 10,
    threads: int = 1,
) -> list[tuple[int, float]]:
    """Best-of-``restarts`` distortion for every k in the inclusive range.

    The points are as ``run`` takes them. Restart seeds derive
    deterministically from (config.seed, k, restart), so a scan is
    reproducible and individual runs remain independent. With one worker
    (``scan_workers``) the runs are computed in the calling thread;
    otherwise they go to a pool of that many worker processes, which hold
    the input arrays (inherited under fork) and are joined before the scan
    returns. Each run is computed alone in one worker, so the result does
    not depend on ``threads``.
    """
    k_min, k_max = k_range
    if k_min < 1 or k_max < k_min:
        raise ValueError(f"bad k range [{k_min}, {k_max}]")
    if restarts < 1:
        raise ValueError("restarts must be >= 1")
    if threads < 1:
        raise ValueError("threads must be >= 1")
    ids, X, w = _checked(ids, X, w)
    distinct = _distinct_row_indices(X)
    if k_max > len(distinct):
        raise TooFewDistinctPoints(f"{len(distinct)} distinct points < k_max={k_max}")
    ks = range(k_min, k_max + 1)
    configs = [
        replace(config, k=k, seed=int(np.random.default_rng((config.seed, k, r)).integers(2**63)))
        for k in ks
        for r in range(restarts)
    ]

    # workers reach only private functions: the public ones may be wrapped
    # by a caller (a profiler, a tracer) that expects one span stack
    workers = scan_workers(threads, len(configs))
    if workers == 1:
        found = [_fit(ids, X, w, distinct, cfg).distortion for cfg in configs]
    else:
        with concurrent.futures.ProcessPoolExecutor(
            max_workers=workers, mp_context=_pool_context(),
            initializer=_scan_init, initargs=(ids, X, w, distinct),
        ) as pool:
            found = list(pool.map(_scan_distortion, configs))
    return [(k, min(found[i * restarts:(i + 1) * restarts])) for i, k in enumerate(ks)]
