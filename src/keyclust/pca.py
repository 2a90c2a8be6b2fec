"""Principal component analysis by one dense eigendecomposition.

The components are the leading eigenvectors of the sample covariance.
Tall input (n >= V) builds the V-by-V covariance and hands it to LAPACK's
symmetric eigensolver (``numpy.linalg.eigh``); wide input (V > n) never
materializes it and takes the thin SVD of the centered data instead, whose
right singular vectors are the same eigenvectors.
"""

from __future__ import annotations

import logging
from array import array
from dataclasses import dataclass
from typing import Any, Iterable, Iterator, Mapping, Sequence

import numpy as np

from .errors import DimensionTooLarge, LengthMismatch

log = logging.getLogger(__name__)


@dataclass(eq=False)
class PcaModel:
    """Mean vector plus orthonormal component rows with their variances.

    ``degenerate`` flags an input whose total variance is numerically zero
    (all vectors identical); components are then an arbitrary orthonormal
    set with zero explained variance.
    """

    mean: np.ndarray  # (V,)
    components: np.ndarray  # (d, V), orthonormal rows
    explained_variance: np.ndarray  # (d,), non-increasing
    degenerate: bool = False

    @property
    def input_dim(self) -> int:
        return self.components.shape[1]

    def to_record(self) -> dict[str, Any]:
        """The pca stage's record; it holds the model's own arrays, not copies."""
        return {
            "mean": self.mean,
            "components": self.components,
            "explained_variance": self.explained_variance,
            "degenerate": self.degenerate,
        }

    @classmethod
    def from_record(cls, rec: Mapping[str, Any]) -> "PcaModel":
        return cls(
            mean=np.array(rec["mean"], dtype=np.float64),
            components=np.array(rec["components"], dtype=np.float64),
            explained_variance=np.array(rec["explained_variance"], dtype=np.float64),
            degenerate=rec["degenerate"],
        )


def read_points(records: Iterable[Mapping[str, Any]]) -> tuple[list[str], np.ndarray]:
    """The points stage as its chunk ids and an (n, d) float64 array, whose
    rows are the coordinates, each of the first point's length. Each
    record's coordinates are appended to one buffer as the records are taken."""
    ids: list[str] = []
    buf, width = array("d"), None
    for rec in records:
        ids.append(rec["chunk_id"])
        coords = rec["coords"]
        if width is None:
            width = np.asarray(coords, dtype=np.float64).size
        if type(coords) is list and len(coords) == width:
            buf.fromlist(coords)
            continue
        shape = np.asarray(coords, dtype=np.float64).shape
        if shape != (width,):
            raise ValueError(f"point {ids[-1]!r} has coordinates of shape {shape}, not ({width},)")
        buf.extend(coords)
    if width is None:
        return [], np.zeros((0, 0))
    return ids, np.frombuffer(buf, np.float64).reshape(len(ids), width)


def point_records(chunk_ids: Sequence[str], coords: np.ndarray) -> Iterator[dict[str, Any]]:
    """The points stage's records: each chunk id with its row of ``coords``."""
    for cid, row in zip(chunk_ids, coords):
        yield {"chunk_id": cid, "coords": row}


def fit_pca(vectors: np.ndarray, d: int, *, in_place: bool = False) -> PcaModel:
    """Extract the top ``d`` principal components of ``vectors`` (n, V).

    Components are eigenvectors of the sample covariance of the mean-centered
    input, ordered by non-increasing eigenvalue, from one LAPACK call: a
    symmetric eigendecomposition of the V-by-V covariance when V <= n, a thin
    SVD of the centered data otherwise. Variances are clipped at zero. The
    sign convention makes each component's largest-magnitude entry positive.

    ``in_place`` centres ``vectors`` itself, which must then be a C-contiguous
    float64 array, instead of a copy: it is left holding ``vectors - mean``,
    whose product with ``components.T`` is bitwise :func:`pca_transform` of
    the original rows.
    """
    X = np.ascontiguousarray(vectors, dtype=np.float64)
    if in_place and X is not vectors:
        raise TypeError("in-place centring needs a C-contiguous float64 array")
    if X.ndim != 2:
        raise LengthMismatch(f"expected a 2-D matrix, got shape {X.shape}")
    n, v = X.shape
    limit = min(v, n - 1)
    if not 1 <= d <= limit:
        raise DimensionTooLarge(
            f"d={d} outside [1, {limit}] for {n} vectors of dimension {v}"
        )
    mean = X.mean(axis=0)
    scale = max(1.0, _sum_squares(X) / n)
    if in_place:
        X -= mean
        resid = X
    else:
        resid = X - mean
    total_var = _sum_squares(resid) / (n - 1)
    degenerate = total_var <= 1e-24 * scale
    if degenerate:
        log.warning("degenerate input: zero covariance, components carry no variance")

    if v <= n:
        evals, evecs = np.linalg.eigh((resid.T @ resid) / (n - 1))  # ascending
        eig, comps = evals[::-1][:d], evecs[:, ::-1][:, :d].T
    else:
        _, s, vt = np.linalg.svd(resid, full_matrices=False)  # descending
        eig, comps = s[:d] ** 2 / (n - 1), vt[:d]
    largest = comps[np.arange(d), np.argmax(np.abs(comps), axis=1)]
    comps = comps * np.sign(largest)[:, None]
    return PcaModel(
        mean=mean, components=comps, explained_variance=np.maximum(eig, 0.0), degenerate=degenerate
    )


def _sum_squares(X: np.ndarray) -> float:
    """Sum of the squared entries of a C-contiguous array, without an array of squares."""
    flat = X.reshape(-1)
    return float(np.dot(flat, flat))


def pca_transform(vector: np.ndarray, model: PcaModel) -> np.ndarray:
    """Project one vector (V,) or a stack (n, V) onto the fitted components."""
    arr = np.asarray(vector, dtype=np.float64)
    if arr.shape[-1] != model.input_dim:
        raise LengthMismatch(
            f"vector length {arr.shape[-1]} != model input dimension {model.input_dim}"
        )
    return (arr - model.mean) @ model.components.T


def reduce_points(matrix: np.ndarray, d: int) -> tuple[PcaModel, np.ndarray]:
    """The PCA model of the rows of ``matrix`` (n, V) and their (n, d)
    coordinates. ``d`` is capped, with a warning, at ``min(V, n - 1)``, the most
    components the rows support. ``matrix`` is centred in place (see
    :func:`fit_pca`) and projected as it stands, without a second (n, V) array."""
    n, v = matrix.shape
    if n < 2:
        raise DimensionTooLarge(f"reduce needs at least two chunks with tokens to fit PCA, got {n}")
    dim = min(d, v, n - 1)
    if dim < d:
        log.warning("pca-dim %d capped to %d by the data", d, dim)
    model = fit_pca(matrix, dim, in_place=True)
    return model, matrix @ model.components.T
