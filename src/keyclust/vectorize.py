"""Corpus vocabulary and L2-normalized tf-idf chunk vectors.

tf-idf is used instead of raw counts so frequent words do not dominate the
vector values, and each vector is normalized onto the unit sphere so no
chunk becomes an outlier by sheer length.
"""

from __future__ import annotations

import math
from array import array
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, Iterable, Mapping, Sequence

import numpy as np

from .errors import EmptyCorpus


@dataclass
class Vocabulary:
    """Immutable after build; term indices are dense 0..V-1 in sorted term order."""

    term_to_index: dict[str, int]
    document_frequency: dict[str, int]
    n_chunks: int

    def __len__(self) -> int:
        return len(self.term_to_index)

    def __contains__(self, term: str) -> bool:
        return term in self.term_to_index

    def idf(self, term: str) -> float:
        """Smoothed inverse document frequency: ln((1+N)/(1+df)) + 1."""
        return math.log((1 + self.n_chunks) / (1 + self.document_frequency[term])) + 1.0

    @cached_property
    def idfs(self) -> dict[str, float]:
        """``idf(term)`` of every term, computed once per vocabulary."""
        return {term: self.idf(term) for term in self.term_to_index}

    def to_records(self) -> list[dict[str, Any]]:
        return [
            {"term": term, "index": idx, "df": self.document_frequency[term]}
            for term, idx in sorted(self.term_to_index.items(), key=lambda kv: kv[1])
        ]

    @classmethod
    def from_records(cls, records: Iterable[Mapping[str, Any]], n_chunks: int) -> "Vocabulary":
        term_to_index = {}
        df = {}
        for rec in records:
            term_to_index[rec["term"]] = rec["index"]
            df[rec["term"]] = rec["df"]
        return cls(term_to_index=term_to_index, document_frequency=df, n_chunks=n_chunks)


@dataclass
class TfIdfVector:
    """Sparse normalized term vector for one chunk.

    ``entries`` maps column index to weight; ``norm`` is the Euclidean norm
    of the stored entries (1 within 1e-9 for non-empty vectors, 0 for a
    chunk whose every token fell outside the vocabulary).
    """

    chunk_id: str
    entries: dict[int, float] = field(default_factory=dict)
    norm: float = 0.0

    @property
    def is_empty(self) -> bool:
        return not self.entries

    def to_record(self) -> dict[str, Any]:
        return {
            "chunk_id": self.chunk_id,
            "entries": [[i, w] for i, w in sorted(self.entries.items())],
            "norm": self.norm,
        }


def build_vocabulary(
    token_lists: Sequence[Sequence[str]], min_df: int = 2, max_df_ratio: float = 0.95
) -> Vocabulary:
    """Count document frequencies over the chunks' token lists and keep terms
    with min_df <= df <= max_df_ratio*N.

    Pruning both ends curbs the dimensionality blow-up from hapax typos and
    from boilerplate present in nearly every chunk. Index assignment is in
    sorted term order, so identical input always yields the same vocabulary.
    """
    if not token_lists:
        raise EmptyCorpus("cannot build a vocabulary from zero chunks")
    df: Counter[str] = Counter()
    for tokens in token_lists:
        df.update(set(tokens))
    n = len(token_lists)
    kept = sorted(t for t, c in df.items() if c >= min_df and c <= max_df_ratio * n)
    return Vocabulary(
        term_to_index={t: i for i, t in enumerate(kept)},
        document_frequency={t: df[t] for t in kept},
        n_chunks=n,
    )


def tfidf_vector(chunk_id: str, tokens: Sequence[str], vocab: Vocabulary) -> TfIdfVector:
    """tf * idf per vocabulary term of a chunk's tokens, L2-normalized.

    Out-of-vocabulary tokens are ignored; a chunk with no in-vocabulary
    token yields a zero vector (``is_empty``), left for the caller to flag.
    """
    tf = Counter(t for t in tokens if t in vocab)
    if not tf:
        return TfIdfVector(chunk_id=chunk_id)
    idfs = vocab.idfs
    weights = {vocab.term_to_index[t]: c * idfs[t] for t, c in tf.items()}
    raw_norm = math.sqrt(sum(w * w for w in weights.values()))
    entries = {i: w / raw_norm for i, w in sorted(weights.items())}
    norm = math.sqrt(sum(w * w for w in entries.values()))
    return TfIdfVector(chunk_id=chunk_id, entries=entries, norm=norm)


def read_rows(
    records: Iterable[Mapping[str, Any]],
) -> tuple[list[str], np.ndarray, np.ndarray, np.ndarray]:
    """The vectors stage (records of :meth:`TfIdfVector.to_record`) as CSR
    arrays: chunk ids, row offsets, column indices and weights. Row r's
    entries are ``indices[offsets[r]:offsets[r + 1]]`` and the same slice of
    ``weights``. The indices are checked against the vocabulary where the
    rows are scattered; a record without its norm is malformed."""
    chunk_ids: list[str] = []
    offsets, indices, weights = array("q", [0]), array("q"), array("d")
    for rec in records:
        entries, _norm = rec["entries"], rec["norm"]
        chunk_ids.append(rec["chunk_id"])
        indices.extend([i for i, _w in entries])
        weights.extend([w for _i, w in entries])
        offsets.append(len(indices))
    return (
        chunk_ids,
        np.frombuffer(offsets, dtype=np.int64),
        np.frombuffer(indices, dtype=np.int64),
        np.frombuffer(weights, dtype=np.float64),
    )


def densify(vectors: Sequence[TfIdfVector], vocab_size: int) -> np.ndarray:
    """Stack sparse vectors into a dense (n, V) float64 matrix."""
    out = np.zeros((len(vectors), vocab_size), dtype=np.float64)
    for row, vec in enumerate(vectors):
        for idx, w in vec.entries.items():
            out[row, idx] = w
    return out


def scatter_rows(
    chunk_ids: Sequence[str], offsets: np.ndarray, indices: np.ndarray, weights: np.ndarray,
    vocab_size: int,
) -> np.ndarray:
    """Stack the CSR rows of :func:`read_rows` into a dense (n, V) float64
    matrix, as :func:`densify` stacks vectors. A column index outside [0, V)
    is an IndexError naming the first chunk that holds one, never a write to
    another column."""
    # one check over every index, before the matrix exists
    if indices.size and not (0 <= indices.min() and indices.max() < vocab_size):
        first = np.flatnonzero((indices < 0) | (indices >= vocab_size))[0]
        row = int(np.searchsorted(offsets, first, side="right")) - 1
        bad = indices[offsets[row] : offsets[row + 1]]
        raise IndexError(
            f"chunk {chunk_ids[row]!r} has a column index outside [0, {vocab_size}): "
            f"{bad.min()} .. {bad.max()}"
        )
    out = np.zeros((len(chunk_ids), vocab_size), dtype=np.float64)
    out[np.repeat(np.arange(len(chunk_ids)), np.diff(offsets)), indices] = weights
    return out
