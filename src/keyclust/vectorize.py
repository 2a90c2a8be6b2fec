"""Corpus vocabulary and L2-normalized tf-idf chunk vectors.

tf-idf is used instead of raw counts so frequent words do not dominate the
vector values, and each vector is normalized onto the unit sphere so no
chunk becomes an outlier by sheer length.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from typing import Any, Iterable, Iterator, Mapping, Sequence

import numpy as np

from .errors import EmptyCorpus
from .preprocess import TokenTable


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


def build_vocabulary(table: TokenTable, min_df: int = 2, max_df_ratio: float = 0.95) -> Vocabulary:
    """Count document frequencies over the N rows of the chunks ``table``
    that hold tokens, and keep terms with min_df <= df <= max_df_ratio*N.

    Pruning both ends curbs the dimensionality blow-up from hapax typos and
    from boilerplate present in nearly every chunk. Index assignment is in
    sorted term order, so identical input always yields the same vocabulary.
    """
    n = len(table.point_rows)
    if not n:
        raise EmptyCorpus("cannot build a vocabulary from zero chunks")
    n_terms = len(table.terms)
    # a term's df is the number of distinct (row, term) keys that hold it
    df = np.bincount(_runs(_keys(table, np.arange(n_terms), n_terms))[0] % n_terms, minlength=n_terms)
    kept = np.flatnonzero((df >= min_df) & (df <= max_df_ratio * n))
    terms = [table.terms[t] for t in kept.tolist()]
    return Vocabulary(
        term_to_index={t: i for i, t in enumerate(terms)},
        document_frequency=dict(zip(terms, df[kept].tolist())),
        n_chunks=n,
    )


def tfidf_vector(table: TokenTable, vocab: Vocabulary) -> tuple[list[str], np.ndarray, np.ndarray, np.ndarray]:
    """tf * idf per vocabulary term of each row of the chunks ``table`` that
    holds tokens, L2-normalized: the CSR rows of :func:`read_rows`, in
    column order.

    Out-of-vocabulary tokens are ignored; a row with no in-vocabulary token
    is empty (a zero vector), left for the caller to flag. A row's norm adds
    its squared weights left to right in the order of each term's first
    token, as the per-chunk ``Counter`` of the first version did.
    """
    n, width, column = len(table.point_rows), max(len(vocab), 1), vocab.term_to_index
    columns = np.array([column.get(t, -1) for t in table.terms], dtype=np.int64)
    idf = np.zeros(len(vocab))
    idf[list(column.values())] = [vocab.idf(t) for t in column]
    pairs, tf, first = _runs(_keys(table, columns, width))
    offsets = np.r_[0, np.cumsum(np.bincount(pairs // width, minlength=n))]
    indices = pairs % width
    del pairs  # each of these is 5 MB at 30,000 chunks; freed once used, the peak is 4 MB lower
    weights = tf * idf[indices]
    del tf
    squares = np.square(weights[np.argsort(first)])  # each row in its terms' first-token order
    del first
    weights /= np.repeat(np.sqrt(_row_sums(squares, offsets)), np.diff(offsets))
    return table.point_ids, offsets, indices, weights


def _keys(table: TokenTable, columns: np.ndarray, width: int) -> np.ndarray:
    """``row * width + column`` (int64) of each token, in order, with rows
    counted among those with tokens; a term whose column is -1 has none."""
    cols = columns[table.term_ids]
    lengths = np.diff(table.offsets)[table.point_rows]
    keys = np.repeat(np.arange(len(lengths), dtype=np.int64) * width, lengths)
    keys += cols
    return keys[cols >= 0]


def _runs(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The distinct ``keys`` in ascending order, how many times each occurs,
    and the position of its first occurrence."""
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    starts = np.flatnonzero(np.diff(keys, prepend=-1))  # keys are >= 0
    return keys[starts], np.diff(starts, append=len(keys)), order[starts]


def _row_sums(values: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Each CSR row's sum of ``values``, added left to right on every Python
    and numpy (``np.add.reduceat`` and the builtin ``sum`` of 3.12+ do not)."""
    starts, lengths = offsets[:-1], np.diff(offsets)
    total = np.zeros(len(lengths))
    for j in range(int(lengths.max(initial=0))):
        live = np.flatnonzero(lengths > j)
        total[live] += values[starts[live] + j]
    return total


def vector_records(
    chunk_ids: Sequence[str], offsets: np.ndarray, indices: np.ndarray, weights: np.ndarray,
) -> Iterator[dict[str, Any]]:
    """The vectors stage's records of the CSR rows of :func:`tfidf_vector`,
    one per row from its slice: the chunk id, the ``[index, weight]``
    entries, and their norm, whose squares add left to right."""
    norms = np.sqrt(_row_sums(np.square(weights), offsets)).tolist()
    for chunk_id, a, b, norm in zip(chunk_ids, offsets.tolist(), offsets[1:].tolist(), norms):
        entries = list(zip(indices[a:b].tolist(), weights[a:b].tolist()))
        yield {"chunk_id": chunk_id, "entries": entries, "norm": norm}


def read_rows(
    records: Iterable[Mapping[str, Any]],
) -> tuple[list[str], np.ndarray, np.ndarray, np.ndarray]:
    """The vectors stage (records of :func:`vector_records`) as CSR
    arrays: chunk ids, row offsets, column indices and weights. Row r's
    entries are ``indices[offsets[r]:offsets[r + 1]]`` and the same slice of
    ``weights``. The indices are checked against the vocabulary where
    :func:`densify` stacks the rows; a record without its norm is malformed."""
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


def densify(rows: tuple[Sequence[str], np.ndarray, np.ndarray, np.ndarray], vocab_size: int) -> np.ndarray:
    """Stack CSR rows, as :func:`tfidf_vector` and :func:`read_rows` return
    them, into a dense (n, V) float64 matrix. A column index outside [0, V)
    is an IndexError naming the first chunk that holds one, never a write to
    another column."""
    chunk_ids, offsets, indices, weights = rows
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
