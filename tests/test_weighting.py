import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from keyclust.errors import QueryNotInVocabulary, StageIoError
from keyclust.pca import ReducedPoint
from keyclust.vectorize import build_vocabulary
from keyclust.weighting import (
    FLOOR_WEIGHT,
    assign_weights,
    normalize_query,
    unit_points,
    weighted_points,
)

from conftest import toy_chunk


def three_chunk_corpus():
    # query tf ratio 2:1:0 -> scores s_max, s_max/2, 0
    chunks = [
        toy_chunk("cA", ["vaccine", "vaccine"]),
        toy_chunk("cB", ["vaccine", "mask"]),
        toy_chunk("cC", ["mask", "protocol"]),
    ]
    vocab = build_vocabulary(chunks, min_df=1, max_df_ratio=1.0)
    return chunks, vocab


class TestAssignWeights:
    def test_absent_chunk_gets_floor(self):
        chunks, vocab = three_chunk_corpus()
        weights = assign_weights(chunks, "vaccine", vocab)
        assert weights["cC"] == FLOOR_WEIGHT

    def test_max_score_chunk_gets_exactly_one(self):
        chunks, vocab = three_chunk_corpus()
        weights = assign_weights(chunks, "vaccine", vocab)
        assert weights["cA"] == 1.0

    def test_half_score_gives_0505(self):
        # frozen: 0.01 + 0.99 * 0.5 == 0.505 (idf cancels, tf ratio is 1/2)
        chunks, vocab = three_chunk_corpus()
        weights = assign_weights(chunks, "vaccine", vocab)
        assert weights["cB"] == pytest.approx(0.505, abs=1e-15)

    def test_weight_floor_iff_no_occurrence(self):
        chunks, vocab = three_chunk_corpus()
        weights = assign_weights(chunks, "vaccine", vocab)
        for chunk in chunks:
            if "vaccine" in chunk.tokens:
                assert weights[chunk.chunk_id] > FLOOR_WEIGHT
            else:
                assert weights[chunk.chunk_id] == FLOOR_WEIGHT

    def test_query_not_in_vocabulary(self):
        chunks, vocab = three_chunk_corpus()
        with pytest.raises(QueryNotInVocabulary):
            assign_weights(chunks, "nonexistent", vocab)

    def test_multi_word_query_takes_max(self):
        chunks, vocab = three_chunk_corpus()
        single = assign_weights(chunks, "vaccine", vocab)
        multi = assign_weights(chunks, ["vaccine", "protocol"], vocab)
        # cC contains "protocol" so it now scores above the floor
        assert multi["cC"] > FLOOR_WEIGHT
        assert multi["cA"] == single["cA"] == 1.0

    def test_multi_word_all_oov(self):
        chunks, vocab = three_chunk_corpus()
        with pytest.raises(QueryNotInVocabulary):
            assign_weights(chunks, ["zzz", "qqq"], vocab)

    @given(
        counts=st.lists(st.integers(min_value=0, max_value=9), min_size=2, max_size=25)
    )
    @settings(max_examples=80)
    def test_range_and_top_weight_property(self, counts):
        if not any(counts):
            counts[0] = 1
        chunks = [
            toy_chunk(f"c{i}", ["query"] * c + ["filler"] * (10 - c))
            for i, c in enumerate(counts)
        ]
        vocab = build_vocabulary(chunks, min_df=1, max_df_ratio=1.0)
        weights = assign_weights(chunks, "query", vocab)
        values = list(weights.values())
        assert all(FLOOR_WEIGHT <= w <= 1.0 for w in values)
        assert max(values) == 1.0
        # equal-length chunks: more occurrences never weigh less
        pairs = sorted(zip(counts, [weights[f"c{i}"] for i in range(len(counts))]))
        for (c1, w1), (c2, w2) in zip(pairs, pairs[1:]):
            if c1 <= c2:
                assert w1 <= w2 + 1e-15

    def test_no_weight_is_ever_zero(self):
        chunks, vocab = three_chunk_corpus()
        weights = assign_weights(chunks, "vaccine", vocab)
        assert all(w >= FLOOR_WEIGHT > 0.0 for w in weights.values())


class TestHelpers:
    def test_normalize_query_applies_cleaning(self, clean_config):
        assert normalize_query("The Vaccine", clean_config) == ["vaccine"]

    def test_normalize_query_vacuous(self, clean_config):
        with pytest.raises(QueryNotInVocabulary):
            normalize_query("the of 42", clean_config)

    def test_weighted_points_attaches_weights(self):
        points = [ReducedPoint(chunk_id="a", coords=np.array([0.0, 1.0]))]
        got = weighted_points(points, {"a": 0.25})
        assert got[0].weight == 0.25
        assert got[0].chunk_id == "a"

    def test_weighted_points_missing_id(self):
        points = [ReducedPoint(chunk_id="a", coords=np.array([0.0]))]
        with pytest.raises(StageIoError):
            weighted_points(points, {})

    def test_unit_points(self):
        points = [ReducedPoint(chunk_id="a", coords=np.array([1.0]))]
        assert unit_points(points)[0].weight == 1.0
