import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from keyclust.errors import EmptyCorpus
from keyclust.vectorize import (
    Vocabulary, build_vocabulary, densify, read_rows, tfidf_vector, vector_records,
)

from conftest import toy_chunk, token_table
from oracles import TfIdfVector, densify_oracle, df_oracle, tfidf_oracle

token_lists = st.lists(
    st.lists(st.sampled_from("abcdefgh"), min_size=1, max_size=12),
    min_size=1,
    max_size=40,
)


def table_of(lists):
    """The token table of chunks ``c0``, ``c1``, … with these token lists."""
    return token_table(toy_chunk(f"c{i}", toks) for i, toks in enumerate(lists))


def vectors(table, vocab) -> dict:
    """The vectors stage's record of each row of ``table`` with tokens, by chunk id."""
    return {rec["chunk_id"]: rec for rec in vector_records(*tfidf_vector(table, vocab))}


@st.composite
def pruned_tables(draw):
    """Token lists (some empty, with repeated tokens, up to 16 distinct
    terms in one, where numpy's pairwise sums would add in another order)
    and the bounds of a vocabulary over them: ``min_df`` and
    ``max_df_ratio`` drawn at a document frequency the lists hold, or past
    every one (no term kept)."""
    lists = draw(st.lists(st.lists(st.sampled_from("abcdefghijklmnop"), max_size=24), min_size=1, max_size=30))
    lists[draw(st.integers(0, len(lists) - 1))] += draw(st.lists(st.sampled_from("ab"), min_size=1, max_size=3))
    n = sum(1 for toks in lists if toks)
    dfs = sorted(set(df_oracle(lists).values()))
    min_df = draw(st.sampled_from([0, 1, *dfs, n + 1]))
    max_df_ratio = draw(st.one_of(st.sampled_from([0.0, 1.0, *(d / n for d in dfs)]), st.floats(0.0, 1.5)))
    return lists, min_df, max_df_ratio


class TestBuildVocabulary:
    def test_direct_counts(self):
        vocab = build_vocabulary(table_of([["a", "b"], ["b", "c"]]), min_df=1, max_df_ratio=1.0)
        assert set(vocab.term_to_index) == {"a", "b", "c"}
        assert vocab.document_frequency == {"a": 1, "b": 2, "c": 1}
        assert vocab.n_chunks == 2

    def test_min_df_threshold(self):
        vocab = build_vocabulary(table_of([["a", "b"], ["b", "c"]]), min_df=2, max_df_ratio=1.0)
        assert set(vocab.term_to_index) == {"b"}

    def test_max_df_ratio(self):
        lists = [["common", f"rare{i}", f"rare{i}b"] for i in range(10)]
        vocab = build_vocabulary(table_of(lists), min_df=1, max_df_ratio=0.95)
        assert "common" not in vocab

    def test_empty_corpus(self):
        for lists in ([], [[], []]):
            with pytest.raises(EmptyCorpus):
                build_vocabulary(table_of(lists), min_df=1, max_df_ratio=1.0)

    def test_indices_dense_and_sorted(self):
        vocab = build_vocabulary(table_of([["zeta", "alpha", "mid"]]), min_df=1, max_df_ratio=1.0)
        assert vocab.term_to_index == {"alpha": 0, "mid": 1, "zeta": 2}

    def test_df_matches_brute_force_counter_on_synthetic_corpus(self):
        rng = random.Random(7)
        lists = [
            [rng.choice("abcdefghijklmn") for _ in range(rng.randint(1, 15))]
            for _ in range(100)
        ]
        vocab = build_vocabulary(table_of(lists), min_df=1, max_df_ratio=1.0)
        assert vocab.document_frequency == df_oracle(lists)

    def test_chunks_without_tokens_count_in_no_df(self):
        vocab = build_vocabulary(table_of([["a"], [], ["a", "b"], []]), min_df=1, max_df_ratio=0.5)
        assert vocab.n_chunks == 2
        assert vocab.document_frequency == {"b": 1}

    @given(token_lists)
    @settings(max_examples=60)
    def test_df_oracle_property(self, lists):
        vocab = build_vocabulary(table_of(lists), min_df=1, max_df_ratio=1.0)
        oracle = df_oracle(lists)
        assert vocab.document_frequency == oracle
        assert all(1 <= df <= vocab.n_chunks for df in oracle.values())


class TestTfIdfVector:
    def test_single_token_one_hot(self):
        vocab = build_vocabulary(table_of([["vaccine"], ["mask"]]), min_df=1, max_df_ratio=1.0)
        vec = vectors(table_of([["vaccine"]]), vocab)["c0"]
        assert vec["entries"] == [(vocab.term_to_index["vaccine"], 1.0)]
        assert vec["norm"] == 1.0

    def test_universal_term_idf_is_exactly_one(self):
        vocab = build_vocabulary(table_of([["shared", f"u{i}"] for i in range(4)]), min_df=1, max_df_ratio=1.0)
        assert vocab.idf("shared") == 1.0

    def test_three_chunk_corpus_matches_hand_computation(self):
        # frozen from the stated formula: w = tf * (ln((1+N)/(1+df)) + 1), L2-normed
        table = table_of([
            ["vaccine", "vaccine", "trial"],
            ["vaccine", "mask"],
            ["mask", "trial", "mask", "distancing"],
        ])
        vocab = build_vocabulary(table, min_df=1, max_df_ratio=1.0)
        assert vocab.term_to_index == {"distancing": 0, "mask": 1, "trial": 2, "vaccine": 3}
        assert vocab.idf("distancing") == pytest.approx(1.6931471805599454, abs=1e-15)
        assert vocab.idf("mask") == pytest.approx(1.2876820724517808, abs=1e-15)

        expected = {
            "c0": {2: 0.4472135954999579, 3: 0.8944271909999159},
            "c1": {1: 0.7071067811865476, 3: 0.7071067811865476},
            "c2": {0: 0.5068900148458076, 1: 0.7710058432202013, 2: 0.38550292161010064},
        }
        for cid, rec in vectors(table, vocab).items():
            entries = dict(rec["entries"])
            assert set(entries) == set(expected[cid])
            for idx, want in expected[cid].items():
                assert entries[idx] == pytest.approx(want, abs=1e-12)

    def test_out_of_vocabulary_tokens_ignored(self):
        vocab = build_vocabulary(table_of([["a", "b"], ["b"]]), min_df=2, max_df_ratio=1.0)  # only "b"
        vec = vectors(table_of([["a", "b", "zzz"]]), vocab)["c0"]
        assert [i for i, _ in vec["entries"]] == [vocab.term_to_index["b"]]

    def test_all_oov_chunk_is_flagged_zero_vector(self):
        vocab = build_vocabulary(table_of([["a"], ["a"]]), min_df=1, max_df_ratio=1.0)
        rows = tfidf_vector(table_of([["a"], ["zzz"], ["a", "zzz"]]), vocab)
        assert rows[1].tolist() == [0, 1, 1, 2]
        assert list(vector_records(*rows))[1] == {"chunk_id": "c1", "entries": [], "norm": 0.0}

    @given(token_lists)
    @settings(max_examples=60)
    def test_unit_norm_and_oracle_agreement(self, lists):
        table = table_of(lists)
        vocab = build_vocabulary(table, min_df=1, max_df_ratio=1.0)
        oracle_index, oracle_vecs = tfidf_oracle([(f"c{i}", toks) for i, toks in enumerate(lists)])
        assert vocab.term_to_index == oracle_index
        got = vectors(table, vocab)
        for want in oracle_vecs:
            rec = got[want.chunk_id]
            assert abs(rec["norm"] - 1.0) < 1e-9
            assert rec == want.to_record()
            assert all(w >= 0.0 for _, w in rec["entries"])

    @given(pruned_tables())
    @settings(max_examples=200, deadline=None)
    def test_pruned_vocabulary_and_vectors_equal_the_oracle_bit_for_bit(self, case):
        # repeated tokens, chunks without tokens, chunks whose every token is
        # pruned, min_df and max_df_ratio at a document frequency, and no term
        # kept at all; floats compare by value, so every bit must agree
        lists, min_df, max_df_ratio = case
        table = table_of(lists)
        vocab = build_vocabulary(table, min_df=min_df, max_df_ratio=max_df_ratio)
        chunks = [(f"c{i}", toks) for i, toks in enumerate(lists)]
        oracle_index, oracle_vecs = tfidf_oracle(chunks, min_df=min_df, max_df_ratio=max_df_ratio)
        df = df_oracle(lists)
        assert vocab.term_to_index == oracle_index
        assert vocab.document_frequency == {t: df[t] for t in oracle_index}
        assert vocab.n_chunks == len(oracle_vecs)
        rows = tfidf_vector(table, vocab)
        assert rows[0] == [want.chunk_id for want in oracle_vecs]
        records = list(vector_records(*rows))
        assert records == [want.to_record() for want in oracle_vecs]
        assert [r["norm"].hex() for r in records] == [want.norm.hex() for want in oracle_vecs]
        if not oracle_index:
            assert all(r["entries"] == [] and r["norm"] == 0.0 for r in records)

    def test_raw_norm_adds_in_first_token_order(self):
        # chunk c2's squared weights, added in column order (a, c, d, e), give
        # a raw norm one bit above the sum in first-token order (e, a, c, d),
        # and every entry one bit below the pinned ones
        lists = [["e", "e", "b"], ["a", "a", "c"], ["e", "a", "c", "d"], ["e", "b", "e"]]
        table = table_of(lists)
        rows = tfidf_vector(table, build_vocabulary(table, min_df=1, max_df_ratio=1.0))
        got = rows[3][rows[1][2] : rows[1][3]].tolist()
        assert got == [0.48426290003607125, 0.48426290003607125, 0.6142260844216119, 0.3920525532545391]
        _, oracle = tfidf_oracle([(f"c{i}", toks) for i, toks in enumerate(lists)])
        assert got == list(oracle[2].entries.values())

    def test_idf_monotone_in_df(self):
        vocab = build_vocabulary(table_of([["rare"] if i == 0 else ["common"] for i in range(6)]), min_df=1, max_df_ratio=1.0)
        assert vocab.idf("common") < vocab.idf("rare")

    def test_record_round_trip(self):
        vec = TfIdfVector(chunk_id="c", entries={3: 0.6, 1: 0.8}, norm=1.0)
        chunk_ids, offsets, indices, values = read_rows([vec.to_record()])
        assert chunk_ids == ["c"] and offsets.tolist() == [0, 2]
        assert list(zip(indices.tolist(), values.tolist())) == sorted(vec.entries.items())
        assert list(vector_records(chunk_ids, offsets, indices, values)) == [vec.to_record()]

    def test_vocab_records_round_trip(self):
        vocab = build_vocabulary(table_of([["a", "b"], ["b", "c"]]), min_df=1, max_df_ratio=1.0)
        back = Vocabulary.from_records(vocab.to_records(), n_chunks=vocab.n_chunks)
        assert back.term_to_index == vocab.term_to_index
        assert back.document_frequency == vocab.document_frequency

    def test_densify(self):
        vecs = [
            TfIdfVector(chunk_id="a", entries={0: 1.0}, norm=1.0),
            TfIdfVector(chunk_id="b", entries={2: 0.6, 1: 0.8}, norm=1.0),
        ]
        m = densify(read_rows(v.to_record() for v in vecs), 4)
        assert m.shape == (2, 4)
        assert m[0].tolist() == [1.0, 0.0, 0.0, 0.0]
        assert m[1].tolist() == [0.0, 0.8, 0.6, 0.0]
        table = table_of([["vaccine", "dose"], ["mask"]])
        vocab = build_vocabulary(table, min_df=1, max_df_ratio=1.0)
        rows = tfidf_vector(table, vocab)
        assert densify(rows, len(vocab)).tobytes() == densify_oracle(
            [TfIdfVector(r["chunk_id"], dict(r["entries"])) for r in vector_records(*rows)], len(vocab)
        ).tobytes()

    def test_densify_matches_the_entry_loop(self):
        # the vectors stage read back from its records and stacked, against
        # the loop over their entries: empty rows, the first and last columns
        # included
        for seed in range(5):
            rng = random.Random(seed)
            vecs = [
                TfIdfVector(chunk_id=f"c{r}", entries={i: rng.random() for i in rng.sample(range(9), rng.randrange(6))})
                for r in range(40)
            ]
            vecs[0].entries, vecs[-1].entries = {}, {0: 0.25, 8: 0.75}
            rows = read_rows(v.to_record() for v in vecs)
            assert rows[0] == [v.chunk_id for v in vecs] and len(rows[1]) == len(vecs) + 1
            want, got = densify_oracle(vecs, 9), densify(rows, 9)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
            assert not got[0].any() and got[-1, 0] and got[-1, 8]

    def test_densify_of_no_rows_is_empty(self):
        assert densify(read_rows([]), 4).shape == (0, 4)

    @pytest.mark.parametrize("index", [4, -1, -4], ids=["past-end", "negative", "negative-in-range"])
    def test_densify_rejects_a_column_outside_the_vocabulary(self, index):
        # of several rows with an index outside [0, V), the error names the first
        vecs = [
            TfIdfVector(chunk_id="a", entries={0: 1.0}, norm=1.0),
            TfIdfVector(chunk_id="b", entries={}, norm=0.0),
            TfIdfVector(chunk_id="c", entries={1: 0.6, index: 0.8}, norm=1.0),
            TfIdfVector(chunk_id="d", entries={-1: 0.6, 4: 0.8}, norm=1.0),
            TfIdfVector(chunk_id="e", entries={index: 1.0}, norm=1.0),
        ]
        rows = read_rows(v.to_record() for v in vecs)
        with pytest.raises(IndexError, match=r"chunk 'c' has a column index outside \[0, 4\)"):
            densify(rows, 4)

    def test_read_rows_needs_whole_records(self):
        vec = TfIdfVector(chunk_id="c", entries={3: 0.6, 1: 0.8}, norm=1.0)
        with pytest.raises(KeyError, match="norm"):
            read_rows([{k: v for k, v in vec.to_record().items() if k != "norm"}])
        with pytest.raises(TypeError):
            read_rows([{**vec.to_record(), "entries": [[1.5, 0.8]]}])
