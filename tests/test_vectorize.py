import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from keyclust.errors import EmptyCorpus
from keyclust.vectorize import (
    TfIdfVector, Vocabulary, build_vocabulary, densify, read_rows, scatter_rows, tfidf_vector,
)

from conftest import toy_chunk
from oracles import densify_oracle, df_oracle, tfidf_oracle

token_lists = st.lists(
    st.lists(st.sampled_from("abcdefgh"), min_size=1, max_size=12),
    min_size=1,
    max_size=40,
)


class TestBuildVocabulary:
    def test_direct_counts(self):
        chunks = [toy_chunk("c1", ["a", "b"]), toy_chunk("c2", ["b", "c"])]
        vocab = build_vocabulary([c.tokens for c in chunks], min_df=1, max_df_ratio=1.0)
        assert set(vocab.term_to_index) == {"a", "b", "c"}
        assert vocab.document_frequency == {"a": 1, "b": 2, "c": 1}
        assert vocab.n_chunks == 2

    def test_min_df_threshold(self):
        chunks = [toy_chunk("c1", ["a", "b"]), toy_chunk("c2", ["b", "c"])]
        vocab = build_vocabulary([c.tokens for c in chunks], min_df=2, max_df_ratio=1.0)
        assert set(vocab.term_to_index) == {"b"}

    def test_max_df_ratio(self):
        chunks = [toy_chunk(f"c{i}", ["common", f"rare{i}", f"rare{i}b"]) for i in range(10)]
        vocab = build_vocabulary([c.tokens for c in chunks], min_df=1, max_df_ratio=0.95)
        assert "common" not in vocab

    def test_empty_corpus(self):
        with pytest.raises(EmptyCorpus):
            build_vocabulary([], min_df=1, max_df_ratio=1.0)

    def test_indices_dense_and_sorted(self):
        chunks = [toy_chunk("c1", ["zeta", "alpha", "mid"])]
        vocab = build_vocabulary([c.tokens for c in chunks], min_df=1, max_df_ratio=1.0)
        assert vocab.term_to_index == {"alpha": 0, "mid": 1, "zeta": 2}

    def test_df_matches_brute_force_counter_on_synthetic_corpus(self):
        rng = random.Random(7)
        lists = [
            [rng.choice("abcdefghijklmn") for _ in range(rng.randint(1, 15))]
            for _ in range(100)
        ]
        chunks = [toy_chunk(f"c{i}", toks) for i, toks in enumerate(lists)]
        vocab = build_vocabulary([c.tokens for c in chunks], min_df=1, max_df_ratio=1.0)
        assert vocab.document_frequency == df_oracle(lists)

    @given(token_lists)
    @settings(max_examples=60)
    def test_df_oracle_property(self, lists):
        chunks = [toy_chunk(f"c{i}", toks) for i, toks in enumerate(lists)]
        vocab = build_vocabulary([c.tokens for c in chunks], min_df=1, max_df_ratio=1.0)
        oracle = df_oracle(lists)
        assert vocab.document_frequency == oracle
        assert all(1 <= df <= vocab.n_chunks for df in oracle.values())


class TestTfIdfVector:
    def test_single_token_one_hot(self):
        chunks = [toy_chunk("c1", ["vaccine"]), toy_chunk("c2", ["mask"])]
        vocab = build_vocabulary([c.tokens for c in chunks], min_df=1, max_df_ratio=1.0)
        vec = tfidf_vector("c1", ["vaccine"], vocab)
        assert vec.entries == {vocab.term_to_index["vaccine"]: 1.0}
        assert vec.norm == 1.0

    def test_universal_term_idf_is_exactly_one(self):
        chunks = [toy_chunk(f"c{i}", ["shared", f"u{i}"]) for i in range(4)]
        vocab = build_vocabulary([c.tokens for c in chunks], min_df=1, max_df_ratio=1.0)
        assert vocab.idf("shared") == 1.0

    def test_three_chunk_corpus_matches_hand_computation(self):
        # frozen from the stated formula: w = tf * (ln((1+N)/(1+df)) + 1), L2-normed
        chunks = [
            toy_chunk("c1", ["vaccine", "vaccine", "trial"]),
            toy_chunk("c2", ["vaccine", "mask"]),
            toy_chunk("c3", ["mask", "trial", "mask", "distancing"]),
        ]
        vocab = build_vocabulary([c.tokens for c in chunks], min_df=1, max_df_ratio=1.0)
        assert vocab.term_to_index == {"distancing": 0, "mask": 1, "trial": 2, "vaccine": 3}
        assert vocab.idf("distancing") == pytest.approx(1.6931471805599454, abs=1e-15)
        assert vocab.idf("mask") == pytest.approx(1.2876820724517808, abs=1e-15)

        expected = {
            "c1": {2: 0.4472135954999579, 3: 0.8944271909999159},
            "c2": {1: 0.7071067811865476, 3: 0.7071067811865476},
            "c3": {0: 0.5068900148458076, 1: 0.7710058432202013, 2: 0.38550292161010064},
        }
        for chunk in chunks:
            vec = tfidf_vector(chunk.chunk_id, chunk.tokens, vocab)
            assert set(vec.entries) == set(expected[chunk.chunk_id])
            for idx, want in expected[chunk.chunk_id].items():
                assert vec.entries[idx] == pytest.approx(want, abs=1e-12)

    def test_out_of_vocabulary_tokens_ignored(self):
        chunks = [toy_chunk("c1", ["a", "b"]), toy_chunk("c2", ["b"])]
        vocab = build_vocabulary([c.tokens for c in chunks], min_df=2, max_df_ratio=1.0)  # only "b"
        vec = tfidf_vector("c3", ["a", "b", "zzz"], vocab)
        assert set(vec.entries) == {vocab.term_to_index["b"]}

    def test_all_oov_chunk_is_flagged_zero_vector(self):
        chunks = [toy_chunk("c1", ["a"]), toy_chunk("c2", ["a"])]
        vocab = build_vocabulary([c.tokens for c in chunks], min_df=1, max_df_ratio=1.0)
        vec = tfidf_vector("c3", ["zzz"], vocab)
        assert vec.is_empty
        assert vec.norm == 0.0

    @given(token_lists)
    @settings(max_examples=60)
    def test_unit_norm_and_oracle_agreement(self, lists):
        chunks = [toy_chunk(f"c{i}", toks) for i, toks in enumerate(lists)]
        vocab = build_vocabulary([c.tokens for c in chunks], min_df=1, max_df_ratio=1.0)
        oracle_index, oracle_vecs = tfidf_oracle(lists)
        assert vocab.term_to_index == oracle_index
        for chunk, want in zip(chunks, oracle_vecs):
            vec = tfidf_vector(chunk.chunk_id, chunk.tokens, vocab)
            assert abs(vec.norm - 1.0) < 1e-9
            assert set(vec.entries) == set(want)
            for idx, w in want.items():
                assert vec.entries[idx] == pytest.approx(w, abs=1e-12)
                assert vec.entries[idx] >= 0.0

    def test_idf_monotone_in_df(self):
        chunks = [toy_chunk(f"c{i}", ["rare"] if i == 0 else ["common"]) for i in range(6)]
        vocab = build_vocabulary([c.tokens for c in chunks], min_df=1, max_df_ratio=1.0)
        assert vocab.idf("common") < vocab.idf("rare")

    def test_record_round_trip(self):
        vec = TfIdfVector(chunk_id="c", entries={3: 0.6, 1: 0.8}, norm=1.0)
        chunk_ids, offsets, indices, values = read_rows([vec.to_record()])
        assert chunk_ids == ["c"] and offsets.tolist() == [0, 2]
        assert list(zip(indices.tolist(), values.tolist())) == sorted(vec.entries.items())

    def test_vocab_records_round_trip(self):
        chunks = [toy_chunk("c1", ["a", "b"]), toy_chunk("c2", ["b", "c"])]
        vocab = build_vocabulary([c.tokens for c in chunks], min_df=1, max_df_ratio=1.0)
        back = Vocabulary.from_records(vocab.to_records(), n_chunks=vocab.n_chunks)
        assert back.term_to_index == vocab.term_to_index
        assert back.document_frequency == vocab.document_frequency

    def test_densify(self):
        vecs = [
            TfIdfVector(chunk_id="a", entries={0: 1.0}, norm=1.0),
            TfIdfVector(chunk_id="b", entries={2: 0.6, 1: 0.8}, norm=1.0),
        ]
        m = densify(vecs, 4)
        assert m.shape == (2, 4)
        assert m[0].tolist() == [1.0, 0.0, 0.0, 0.0]
        assert m[1].tolist() == [0.0, 0.8, 0.6, 0.0]

    def test_scatter_rows_matches_densify(self):
        # the vectors stage read back from its records, and densify of the
        # vectors themselves, against the loop over their entries: empty
        # rows, the first and last columns included
        for seed in range(5):
            rng = random.Random(seed)
            vecs = [
                TfIdfVector(chunk_id=f"c{r}", entries={i: rng.random() for i in rng.sample(range(9), rng.randrange(6))})
                for r in range(40)
            ]
            vecs[0].entries, vecs[-1].entries = {}, {0: 0.25, 8: 0.75}
            chunk_ids, offsets, indices, weights = read_rows(v.to_record() for v in vecs)
            assert chunk_ids == [v.chunk_id for v in vecs] and len(offsets) == len(vecs) + 1
            want = densify_oracle(vecs, 9)
            for got in (scatter_rows(chunk_ids, offsets, indices, weights, 9), densify(vecs, 9)):
                assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
                assert not got[0].any() and got[-1, 0] and got[-1, 8]

    def test_scatter_rows_of_no_rows_is_empty(self):
        assert scatter_rows(*read_rows([]), 4).shape == (0, 4)

    @pytest.mark.parametrize(
        "builder, index",
        [(builder, index) for builder in ("scatter_rows", "densify") for index in (4, -1, -4)],
        ids=[f"{prefix}{case}" for prefix in ("", "densify-")
             for case in ("past-end", "negative", "negative-in-range")],
    )
    def test_scatter_rows_rejects_a_column_outside_the_vocabulary(self, builder, index):
        # of several rows with an index outside [0, V), the error names the
        # first, whether the rows come from the stage's records or from densify
        vecs = [
            TfIdfVector(chunk_id="a", entries={0: 1.0}, norm=1.0),
            TfIdfVector(chunk_id="b", entries={}, norm=0.0),
            TfIdfVector(chunk_id="c", entries={1: 0.6, index: 0.8}, norm=1.0),
            TfIdfVector(chunk_id="d", entries={-1: 0.6, 4: 0.8}, norm=1.0),
            TfIdfVector(chunk_id="e", entries={index: 1.0}, norm=1.0),
        ]
        with pytest.raises(IndexError, match=r"chunk 'c' has a column index outside \[0, 4\)"):
            if builder == "densify":
                densify(vecs, 4)
            else:
                scatter_rows(*read_rows(v.to_record() for v in vecs), 4)

    def test_read_rows_needs_whole_records(self):
        vec = TfIdfVector(chunk_id="c", entries={3: 0.6, 1: 0.8}, norm=1.0)
        with pytest.raises(KeyError, match="norm"):
            read_rows([{k: v for k, v in vec.to_record().items() if k != "norm"}])
        with pytest.raises(TypeError):
            read_rows([{**vec.to_record(), "entries": [[1.5, 0.8]]}])
