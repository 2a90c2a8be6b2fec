"""Weighted K-means with two-cluster assignment and centroid damping.

The modified algorithm differs from standard Lloyd iteration in three ways:
points carry query-relevance weights that scale their pull on centroids; a
point whose two nearest centroids are closer than a distance-gap threshold
is assigned to both clusters (and contributes to both updates); and each
new centroid blends in the previous one with a small damping weight so it
is neither erased nor frozen. Standard mode zeroes all three knobs and is
the classical Lloyd baseline.

Determinism contract: a fixed seed and fixed input produce an identical
model, including history. Every step runs in one thread: centroid
accumulation folds members in input (chunk) order via ``np.add.at`` and
the distortion sums its terms in the same order, so results are
bit-stable.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, replace
from typing import Any, Mapping, Optional, Sequence

import numpy as np

from .errors import NonFiniteInput, TooFewDistinctPoints
from .weighting import WeightedPoint

log = logging.getLogger(__name__)

MODES = ("modified", "standard")
SEEDINGS = ("random_distinct", "partial")

DEFAULT_THRESHOLD = 0.01
DEFAULT_DAMPING = 0.01
DEFAULT_EPSILON = 1e-4
DEFAULT_MAX_ITER = 300
PARTIAL_FRACTION = 0.2


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
        if self.threshold < 0.0:
            raise ValueError("threshold must be >= 0")
        if self.damping_weight < 0.0:
            raise ValueError("damping_weight must be >= 0")
        if self.epsilon <= 0.0:
            raise ValueError("epsilon must be > 0")
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")
        if self.mode == "standard":
            object.__setattr__(self, "threshold", 0.0)
            object.__setattr__(self, "damping_weight", 0.0)

    def to_record(self) -> dict[str, Any]:
        return {
            "k": self.k,
            "threshold": self.threshold,
            "damping_weight": self.damping_weight,
            "epsilon": self.epsilon,
            "max_iter": self.max_iter,
            "mode": self.mode,
            "seeding": self.seeding,
            "seed": self.seed,
            "raw_denominator": self.raw_denominator,
        }

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
class _AssignmentPass:
    """One assignment pass over ``point_ids``, stored as parallel arrays:
    ``primary`` and ``secondary`` cluster indices (-1 for no secondary),
    ``d1`` and ``d2`` the distances to the nearest and second-nearest
    centroids (``d2`` is infinite when k == 1)."""

    point_ids: list[str]
    primary: np.ndarray
    secondary: np.ndarray
    d1: np.ndarray
    d2: np.ndarray

    @property
    def assignments(self) -> list[Assignment]:
        """A per-point view of the arrays, built on every access."""
        return [
            Assignment(cid, p, None if s < 0 else s, a, b)
            for cid, p, s, a, b in zip(
                self.point_ids, self.primary.tolist(), self.secondary.tolist(),
                self.d1.tolist(), self.d2.tolist(),
            )
        ]

    def _arrays_record(self) -> dict[str, list]:
        return {
            "primary": self.primary.tolist(),
            "secondary": self.secondary.tolist(),
            "d1": self.d1.tolist(),
            "d2": [None if math.isinf(d) else d for d in self.d2.tolist()],
        }


def _arrays_from_record(rec: Mapping[str, Any]) -> dict[str, np.ndarray]:
    d2 = np.asarray(rec["d2"], dtype=np.float64)  # a JSON null becomes NaN
    d2[np.isnan(d2)] = np.inf
    return {
        "primary": np.asarray(rec["primary"], dtype=np.int64),
        "secondary": np.asarray(rec["secondary"], dtype=np.int64),
        "d1": np.asarray(rec["d1"], dtype=np.float64),
        "d2": d2,
    }


@dataclass(eq=False)
class IterationSnapshot(_AssignmentPass):
    """One iteration: updated centroids plus the assignment pass (computed
    against the previous iteration's centroids) that produced them."""

    centroids: np.ndarray

    @property
    def dual_ids(self) -> list[str]:
        return [self.point_ids[i] for i in np.flatnonzero(self.secondary >= 0)]


@dataclass(eq=False)
class ClusterModel(_AssignmentPass):
    """A fitted model: final centroids, the final assignment pass against
    them, and the per-iteration history. Every pass shares ``point_ids``."""

    config: ClusterConfig
    centroids: np.ndarray
    iterations: int
    history: list[IterationSnapshot]
    distortion: float
    converged: bool

    def member_ids(self, cluster_index: int) -> list[str]:
        """Chunk ids assigned to a cluster (primary or secondary), input order."""
        hit = (self.primary == cluster_index) | (self.secondary == cluster_index)
        return [self.point_ids[i] for i in np.flatnonzero(hit)]

    def to_record(self) -> dict[str, Any]:
        return {
            "config": self.config.to_record(),
            "point_ids": list(self.point_ids),
            "centroids": self.centroids.tolist(),
            "iterations": self.iterations,
            "converged": self.converged,
            "distortion": self.distortion,
            "final": self._arrays_record(),
            "history": [
                {"centroids": snap.centroids.tolist(), **snap._arrays_record()}
                for snap in self.history
            ],
        }

    @classmethod
    def from_record(cls, rec: Mapping[str, Any]) -> "ClusterModel":
        ids = list(rec["point_ids"])
        return cls(
            config=ClusterConfig.from_record(rec["config"]),
            centroids=np.asarray(rec["centroids"], dtype=np.float64),
            point_ids=ids,
            **_arrays_from_record(rec["final"]),
            iterations=rec["iterations"],
            history=[
                IterationSnapshot(
                    centroids=np.asarray(h["centroids"], dtype=np.float64),
                    point_ids=ids,
                    **_arrays_from_record(h),
                )
                for h in rec["history"]
            ],
            distortion=rec["distortion"],
            converged=rec["converged"],
        )


# ---------------------------------------------------------------------------
# array core


def _as_arrays(points: Sequence[WeightedPoint]) -> tuple[list[str], np.ndarray, np.ndarray]:
    ids = [p.chunk_id for p in points]
    X = np.ascontiguousarray([p.coords for p in points], dtype=np.float64)
    w = np.asarray([p.weight for p in points], dtype=np.float64)
    if not np.isfinite(X).all() or not np.isfinite(w).all():
        raise NonFiniteInput("points contain NaN or infinite coordinates/weights")
    return ids, X, w


def _distinct_row_indices(X: np.ndarray) -> list[int]:
    seen: dict[bytes, int] = {}
    for i, row in enumerate(X):
        seen.setdefault(row.tobytes(), i)
    return sorted(seen.values())


def _distances_sq(X: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """Squared Euclidean distances (n, k)."""
    diff = X[:, None, :] - centroids[None, :, :]
    return np.sum(diff * diff, axis=2)


def _assign_arrays(
    X: np.ndarray, centroids: np.ndarray, threshold: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Primary/secondary labels and distances for every point.

    Ties are broken toward the lowest cluster index (argmin keeps the first
    minimum). Secondary assignment requires a strict gap below threshold,
    so threshold 0 never dual-assigns. With k == 1 every second distance
    is infinite, so no point is dual-assigned.
    """
    d2all = _distances_sq(X, centroids)
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


def _update_arrays(
    X: np.ndarray,
    w: np.ndarray,
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
    their previous centroid and are reported for reseeding.
    """
    k, dim = previous.shape
    sums = np.zeros((k, dim), dtype=np.float64)
    wsum = np.zeros(k, dtype=np.float64)
    counts = np.zeros(k, dtype=np.int64)
    wx = X * w[:, None]
    np.add.at(sums, prim, wx)
    np.add.at(wsum, prim, w)
    np.add.at(counts, prim, 1)
    dual = sec >= 0
    if dual.any():
        np.add.at(sums, sec[dual], wx[dual])
        np.add.at(wsum, sec[dual], w[dual])
        np.add.at(counts, sec[dual], 1)
    new = np.empty_like(previous)
    empties: list[int] = []
    for i in range(k):
        if counts[i] == 0:
            new[i] = previous[i]
            empties.append(i)
            continue
        num = sums[i] + damping_weight * previous[i]
        if raw_denominator:
            den = float(counts[i]) + (1.0 if damping_weight > 0.0 else 0.0)
        else:
            den = wsum[i] + damping_weight
        new[i] = num / den
    return new, empties


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
    point: WeightedPoint, centroids: np.ndarray, threshold: float
) -> Assignment:
    """Assign one point: primary is the nearest centroid (ties to the lowest
    index), secondary the second-nearest iff the distance gap is strictly
    below ``threshold``."""
    X = np.asarray([point.coords], dtype=np.float64)
    prim, sec, d1, d2 = _assign_arrays(X, np.asarray(centroids, dtype=np.float64), threshold)
    return Assignment(
        point.chunk_id, int(prim[0]), None if sec[0] < 0 else int(sec[0]), float(d1[0]), float(d2[0])
    )


def update_centroids(
    members: Sequence[Sequence[WeightedPoint]],
    previous: np.ndarray,
    damping_weight: float,
    raw_denominator: bool = False,
) -> tuple[np.ndarray, list[int]]:
    """Update every centroid from its member list (see ``_update_arrays``).

    Returns the new centroids and the indices of empty clusters, which keep
    their previous centroid and are flagged for reseeding by the caller.
    """
    previous = np.asarray(previous, dtype=np.float64)
    if len(members) != previous.shape[0]:
        raise ValueError("one member list per centroid required")
    flat = [p for mem in members for p in mem]
    if not flat:
        return previous.copy(), list(range(previous.shape[0]))
    _, X, w = _as_arrays(flat)
    labels = np.concatenate(
        [np.full(len(mem), i, dtype=np.int64) for i, mem in enumerate(members)]
    )
    no_sec = np.full(len(flat), -1, dtype=np.int64)
    return _update_arrays(X, w, labels, no_sec, previous, damping_weight, raw_denominator)


def init_centroids(points: Sequence[WeightedPoint], config: ClusterConfig) -> np.ndarray:
    """Initial centroids: k distinct input points chosen by the seeded RNG,
    or (partial seeding) the final centroids of a standard K-means run on a
    seeded random 20% subset (at least 2k points)."""
    ids, X, _ = _as_arrays(points)
    distinct = _distinct_row_indices(X)
    if len(distinct) < config.k:
        raise TooFewDistinctPoints(
            f"{len(distinct)} distinct points < k={config.k}"
        )
    rng = np.random.default_rng(config.seed)
    if config.seeding == "random_distinct":
        pick = rng.choice(len(distinct), size=config.k, replace=False)
        return X[[distinct[i] for i in pick]].copy()
    return _partial_seed(points, X, config, rng)


def _partial_seed(
    points: Sequence[WeightedPoint],
    X: np.ndarray,
    config: ClusterConfig,
    rng: np.random.Generator,
) -> np.ndarray:
    n = len(points)
    size = min(n, max(math.ceil(PARTIAL_FRACTION * n), min(2 * config.k, n)))
    while True:
        idx = np.sort(rng.choice(n, size=size, replace=False))
        if len(_distinct_row_indices(X[idx])) >= config.k or size >= n:
            break
        size = min(n, size * 2)
    subset = [points[int(i)] for i in idx]
    inner = replace(
        config,
        mode="standard",
        seeding="random_distinct",
        seed=int(rng.integers(2**63)),
    )
    return run(subset, inner).centroids.copy()


def run(points: Sequence[WeightedPoint], config: ClusterConfig) -> ClusterModel:
    """Iterate assign-all / update-centroids until the summed centroid
    movement drops below epsilon or max_iter is reached.

    History records every iteration's updated centroids together with the
    assignments that produced them (whose dual-assigned ids are the "black
    points" of that iteration). The final reported assignments are a fresh
    pass against the final centroids, and the distortion dual-counts them.
    """
    ids, X, w = _as_arrays(points)
    if config.mode == "standard":
        w = np.ones(len(points), dtype=np.float64)
    centroids = init_centroids(points, config)
    history: list[IterationSnapshot] = []
    converged = False
    for _ in range(config.max_iter):
        prim, sec, d1, d2 = _assign_arrays(X, centroids, config.threshold)
        new, empties = _update_arrays(
            X, w, prim, sec, centroids, config.damping_weight, config.raw_denominator
        )
        _repair_empty(new, empties, X)
        movement = float(np.sum(np.sqrt(np.sum((new - centroids) ** 2, axis=1))))
        history.append(IterationSnapshot(ids, prim, sec, d1, d2, centroids=new.copy()))
        centroids = new
        if movement < config.epsilon:
            converged = True
            break
    model = ClusterModel(
        ids,
        *_assign_arrays(X, centroids, config.threshold),
        config=config,
        centroids=centroids,
        iterations=len(history),
        history=history,
        distortion=0.0,
        converged=converged,
    )
    model.distortion = distortion(model, points)
    return model


def distortion(
    model: ClusterModel,
    points: Sequence[WeightedPoint] | None = None,
    include_secondary: bool = True,
) -> float:
    """Sum of squared distances from points to their assigned centroids.

    Dual-assigned points contribute one term per cluster, so this is never
    below the primary-only score. ``points`` is only validated against the
    model's assignment ids when given.
    """
    if points is not None:
        if [p.chunk_id for p in points] != model.point_ids:
            raise ValueError("model assignments do not cover the given points")
    terms = model.d1 * model.d1
    if include_secondary:
        dual_sq = np.where(model.secondary >= 0, model.d2 * model.d2, 0.0)
        terms = np.column_stack([terms, dual_sq]).ravel()
    # cumsum adds point by point, primary term before secondary, so the
    # total is bit-stable; adding 0.0 for a single-assigned point is exact
    return float(np.cumsum(terms)[-1]) if terms.size else 0.0


def elbow_scan(
    points: Sequence[WeightedPoint],
    config: ClusterConfig,
    k_range: tuple[int, int],
    restarts: int = 10,
) -> list[tuple[int, float]]:
    """Best-of-``restarts`` distortion for every k in the inclusive range.

    Restart seeds derive deterministically from (config.seed, k, restart),
    so a scan is reproducible and individual runs remain independent.
    """
    k_min, k_max = k_range
    if k_min < 1 or k_max < k_min:
        raise ValueError(f"bad k range [{k_min}, {k_max}]")
    if restarts < 1:
        raise ValueError("restarts must be >= 1")
    _, X, _ = _as_arrays(points)
    if k_max > len(_distinct_row_indices(X)):
        raise TooFewDistinctPoints(f"k_max={k_max} exceeds distinct point count")
    out: list[tuple[int, float]] = []
    for k in range(k_min, k_max + 1):
        best = math.inf
        for r in range(restarts):
            seed = int(np.random.default_rng((config.seed, k, r)).integers(2**63))
            cfg = replace(config, k=k, seed=seed)
            best = min(best, run(points, cfg).distortion)
        out.append((k, best))
    return out
