"""Query-relevance weights for clustered chunks.

A chunk the query never occurs in is "cloistered": it gets the floor
weight 0.01, keeping a minimal say in centroid updates without crowding
the clusters around the search term (a zero weight would erase it from
centroid calculation entirely). Chunks that do contain the query are
scored by their raw tf-idf for it and mapped onto (0.01, 1], so the
best-matching chunk pulls its centroid with weight exactly 1.
"""

from __future__ import annotations

from json.encoder import encode_basestring
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import QueryNotInVocabulary
from .preprocess import CleaningConfig, clean_text
from .vectorize import Vocabulary

FLOOR_WEIGHT = 0.01


def normalize_query(query: str, config: CleaningConfig) -> list[str]:
    """Run the query through the same cleaning rules as chunk tokens."""
    words = clean_text(query, config)
    if not words:
        raise QueryNotInVocabulary(f"query {query!r} reduces to no searchable tokens")
    return words


def assign_weights(
    chunks: Iterable[tuple[str, Sequence[str]]], query: str | Sequence[str], vocab: Vocabulary
) -> dict[str, float]:
    """Map chunk_id -> weight for a cleaned query term (or several), over
    ``(chunk_id, tokens)`` pairs that may be parsed as they are taken.

    A chunk's relevance score is tf(query) * idf(query), pre-normalization;
    multi-word queries take the maximum over words. Scores are scaled as
    0.01 + 0.99 * (s / s_max), so the top-scoring chunk gets exactly 1.0
    and chunks without the term get exactly the 0.01 floor.
    """
    words = [query] if isinstance(query, str) else list(query)
    in_vocab = [w for w in words if w in vocab]
    if not in_vocab:
        raise QueryNotInVocabulary(f"no query word of {words!r} is in the vocabulary")
    idf = {w: vocab.idf(w) for w in in_vocab}
    scores: dict[str, float] = {}
    for chunk_id, tokens in chunks:
        s = 0.0
        for w in in_vocab:
            tf = tokens.count(w)
            if tf:
                s = max(s, tf * idf[w])
        scores[chunk_id] = s
    s_max = max(scores.values(), default=0.0)
    if s_max <= 0.0:
        raise QueryNotInVocabulary(f"query {words!r} occurs in no chunk")
    return {
        cid: FLOOR_WEIGHT + (1.0 - FLOOR_WEIGHT) * (s / s_max) if s > 0.0 else FLOOR_WEIGHT
        for cid, s in scores.items()
    }


def weighted_points(chunk_ids: Sequence[str], weights: Mapping[str, float]) -> np.ndarray:
    """The weight of each of ``chunk_ids``, in order: the ``w`` that
    ``cluster.run`` takes. Every point must have a weight (else KeyError)."""
    return np.array([weights[cid] for cid in chunk_ids], dtype=np.float64)


def unit_points(chunk_ids: Sequence[str]) -> np.ndarray:
    """All-ones weights, for baseline runs that need no query."""
    return np.ones(len(chunk_ids))


def export_records(weights: Mapping[str, float]) -> list[str]:
    """The weights stage's record lines, by chunk id: each is
    ``encode_record({"chunk_id": cid, "weight": w})``, spelt out. The id is
    escaped by the function that encoder applies to a str, and the weight,
    finite by construction, is written as JSON writes a finite float."""
    return [
        f'{{"chunk_id":{encode_basestring(cid)},"weight":{float.__repr__(w)}}}'
        for cid, w in sorted(weights.items())
    ]
