import argparse
import json
import logging

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from keyclust.errors import QueryNotInVocabulary
from keyclust.vectorize import build_vocabulary
from keyclust.weighting import (
    FLOOR_WEIGHT,
    assign_weights,
    export_records,
    normalize_query,
    unit_points,
    weighted_points,
)

from keyclust.cli import _query_weights, _Stages, main
from keyclust.corpus import StageStore, encode_record
from keyclust.preprocess import chunk_tokens

from conftest import token_table, toy_chunk, write_corpus_dir
from corpus_gen import TOPIC_KEYWORDS
from oracles import query_weights_oracle


def id_tokens(chunks):
    """The ``(chunk_id, tokens)`` pairs that ``assign_weights`` scores."""
    return [(c.chunk_id, c.tokens) for c in chunks]


def three_chunk_corpus():
    # query tf ratio 2:1:0 -> scores s_max, s_max/2, 0
    chunks = [
        toy_chunk("cA", ["vaccine", "vaccine"]),
        toy_chunk("cB", ["vaccine", "mask"]),
        toy_chunk("cC", ["mask", "protocol"]),
    ]
    vocab = build_vocabulary(token_table(chunks), min_df=1, max_df_ratio=1.0)
    return chunks, vocab


class TestAssignWeights:
    def test_absent_chunk_gets_floor(self):
        chunks, vocab = three_chunk_corpus()
        weights = assign_weights(id_tokens(chunks), "vaccine", vocab)
        assert weights["cC"] == FLOOR_WEIGHT

    def test_max_score_chunk_gets_exactly_one(self):
        chunks, vocab = three_chunk_corpus()
        weights = assign_weights(id_tokens(chunks), "vaccine", vocab)
        assert weights["cA"] == 1.0

    def test_half_score_gives_0505(self):
        # frozen: 0.01 + 0.99 * 0.5 == 0.505 (idf cancels, tf ratio is 1/2)
        chunks, vocab = three_chunk_corpus()
        weights = assign_weights(id_tokens(chunks), "vaccine", vocab)
        assert weights["cB"] == pytest.approx(0.505, abs=1e-15)

    def test_weight_floor_iff_no_occurrence(self):
        chunks, vocab = three_chunk_corpus()
        weights = assign_weights(id_tokens(chunks), "vaccine", vocab)
        for chunk in chunks:
            if "vaccine" in chunk.tokens:
                assert weights[chunk.chunk_id] > FLOOR_WEIGHT
            else:
                assert weights[chunk.chunk_id] == FLOOR_WEIGHT

    def test_query_not_in_vocabulary(self):
        chunks, vocab = three_chunk_corpus()
        with pytest.raises(QueryNotInVocabulary):
            assign_weights(id_tokens(chunks), "nonexistent", vocab)

    def test_query_in_no_given_chunk(self):
        chunks, vocab = three_chunk_corpus()
        without = id_tokens([c for c in chunks if "vaccine" not in c.tokens])
        with pytest.raises(QueryNotInVocabulary, match=r"query \['vaccine'\] occurs in no chunk"):
            assign_weights(without, "vaccine", vocab)

    def test_multi_word_query_takes_max(self):
        chunks, vocab = three_chunk_corpus()
        single = assign_weights(id_tokens(chunks), "vaccine", vocab)
        multi = assign_weights(id_tokens(chunks), ["vaccine", "protocol"], vocab)
        # cC contains "protocol" so it now scores above the floor
        assert multi["cC"] > FLOOR_WEIGHT
        assert multi["cA"] == single["cA"] == 1.0

    def test_query_word_not_in_vocabulary_is_named_in_a_warning(self, caplog):
        chunks, vocab = three_chunk_corpus()
        with caplog.at_level(logging.WARNING, logger="keyclust"):
            assert assign_weights(id_tokens(chunks), ["zzz", "vaccine", "qqq"], vocab) == assign_weights(
                id_tokens(chunks), "vaccine", vocab
            )
        assert [r.getMessage() for r in caplog.records] == [
            "query words ['zzz', 'qqq'] are not in the vocabulary, so no chunk is weighted for them"
        ]
        caplog.clear()
        assign_weights(id_tokens(chunks), ["vaccine", "protocol"], vocab)
        assert not caplog.records

    def test_multi_word_all_oov(self):
        chunks, vocab = three_chunk_corpus()
        with pytest.raises(QueryNotInVocabulary):
            assign_weights(id_tokens(chunks), ["zzz", "qqq"], vocab)

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
        vocab = build_vocabulary(token_table(chunks), min_df=1, max_df_ratio=1.0)
        weights = assign_weights(id_tokens(chunks), "query", vocab)
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
        weights = assign_weights(id_tokens(chunks), "vaccine", vocab)
        assert all(w >= FLOOR_WEIGHT > 0.0 for w in weights.values())


class TestHelpers:
    def test_normalize_query_applies_cleaning(self, clean_config):
        assert normalize_query("The Vaccine", clean_config) == ["vaccine"]

    def test_normalize_query_vacuous(self, clean_config):
        with pytest.raises(QueryNotInVocabulary):
            normalize_query("the of 42", clean_config)

    def test_weighted_points_attaches_weights(self):
        got = weighted_points(["a", "b"], {"b": 0.5, "a": 0.25})
        # one float64 weight per id, in the ids' order
        assert got.dtype == np.float64 and got.tolist() == [0.25, 0.5]
        with pytest.raises(KeyError):
            weighted_points(["a", "c"], {"a": 0.25})

    def test_unit_points(self):
        got = unit_points(["a", "b"])
        assert got.dtype == np.float64 and got.tolist() == [1.0, 1.0]


@pytest.fixture(scope="module")
def reference_stages(tmp_path_factory):
    """The ``chunks`` and ``vocabulary`` stages of the 20-article reference corpus."""
    root = tmp_path_factory.mktemp("streamed")
    write_corpus_dir(root / "corpus", n_articles=20, seed=0, n_sentences=90)
    out = ["--out", str(root / "out")]
    assert main(["ingest", *out, "--corpus", f"{root / 'corpus'}:synthetic"]) == 0
    assert main(["vectorize", *out]) == 0
    return root / "out"


@pytest.mark.parametrize("query", [*TOPIC_KEYWORDS, "vaccine genome"])
def test_streamed_weights_equal_whole_chunk_weights(reference_stages, query):
    """``cluster`` scores each chunk record as it is parsed; the weights equal,
    bit for bit and in order, those of the decoded chunks with tokens."""
    stages = _Stages(str(reference_stages))
    words, weights = _query_weights(argparse.Namespace(query=query), stages)
    records = StageStore(reference_stages / "stages", "chunks").load_with_meta("chunk")[0]
    chunks = [toy_chunk(r["chunk_id"], r["tokens"]) for r in records if r["tokens"]]
    vocab = stages.load("vocabulary")
    want = query_weights_oracle(chunks, {w: vocab.idf(w) for w in words if w in vocab})
    assert len(words) == len(query.split())
    assert [(cid, w.hex()) for cid, w in weights.items()] == [(cid, w.hex()) for cid, w in want.items()]
    assert len(weights) == len(records) and sum(w > FLOOR_WEIGHT for w in weights.values()) > 0


def test_chunk_tokens_skip_chunks_without_tokens_and_need_lists():
    records = [{"chunk_id": "a", "tokens": ["x"]}, {"chunk_id": "b", "tokens": []}]
    assert list(chunk_tokens(records)) == [("a", ["x"])]
    with pytest.raises(TypeError, match="'c' has tokens of type str"):
        list(chunk_tokens([{"chunk_id": "c", "tokens": "vaccine"}]))


@given(st.dictionaries(st.text(st.characters(exclude_categories=())), st.floats(FLOOR_WEIGHT, 1.0)))
@example({
    'say "hi"': FLOOR_WEIGHT,
    "back\\slash": 1.0,
    "controls \x00\x01\x1f\t\n\r\x7f": 0.5,
    "naïve café 日本語 \U0001f600": 0.123456789012345678,
    "lone \ud800 surrogate": 1e-05,
    "\u2028\u2029": 0.7,
    "numpy scalar": np.float64(1 / 3),
    "": 0.01 + 0.99 * (2.0 / 3.0),
})
@settings(max_examples=200, deadline=None)
def test_weight_lines_are_encoded_records(weights):
    # surrogates included: the lines are compared as text, never written
    assert [encode_record(rec) for rec in export_records(weights)] == [
        json.dumps({"chunk_id": cid, "weight": w}, sort_keys=True, ensure_ascii=False, separators=(",", ":"))
        for cid, w in sorted(weights.items())
    ]
