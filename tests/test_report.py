import csv
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from keyclust.cluster import Assignment, ClusterConfig, ClusterModel
from keyclust.errors import InvalidClusterIndex
from keyclust.report import (
    ComparisonRow,
    cluster_reports,
    comparison_table,
    extract_cluster_text,
    keyword_search_count,
    relevant_clusters,
    top_terms,
    write_comparison_csv,
    write_elbow_csv,
    write_extracts,
    write_iteration_csv,
    write_iteration_svgs,
    write_top_terms_csv,
)

from conftest import toy_chunk
from oracles import term_count_oracle


def pass_arrays(assignments):
    """The array fields of an assignment pass holding these assignments."""
    return dict(
        point_ids=[a.chunk_id for a in assignments],
        primary=np.array([a.primary_cluster for a in assignments], dtype=np.int64),
        secondary=np.array(
            [-1 if a.secondary_cluster is None else a.secondary_cluster for a in assignments],
            dtype=np.int64,
        ),
        d1=np.array([a.d_primary for a in assignments], dtype=np.float64),
        d2=np.array([a.d_secondary for a in assignments], dtype=np.float64),
    )


def make_model(assignments, k=2, history=None):
    return ClusterModel(
        config=ClusterConfig(k=k),
        centroids=np.zeros((k, 2)),
        **pass_arrays(assignments),
        iterations=len(history or []),
        history=history or [],
        distortion=0.0,
        converged=True,
    )


def asg(cid, primary, secondary=None, d1=0.1, d2=0.2):
    return Assignment(cid, primary, secondary, d1, d2)


class TestTopTerms:
    def test_counts_and_tie_break(self):
        members = [toy_chunk("c1", ["a", "a", "b"]), toy_chunk("c2", ["b", "c"])]
        assert top_terms(members) == [("a", 2), ("b", 2), ("c", 1)]

    def test_empty_members(self):
        assert top_terms([]) == []

    def test_limit(self):
        members = [toy_chunk("c1", [f"t{i}" for i in range(20)])]
        assert len(top_terms(members, 10)) == 10

    def test_planted_frequencies_match_brute_force(self):
        rng = random.Random(5)
        lists = [
            [rng.choice("abcdefghij") for _ in range(rng.randint(1, 12))]
            for _ in range(50)
        ]
        members = [toy_chunk(f"c{i}", toks) for i, toks in enumerate(lists)]
        oracle = term_count_oracle(lists)
        got = top_terms(members, n=len(oracle))
        assert dict(got) == dict(oracle)
        counts = [c for _, c in got]
        assert counts == sorted(counts, reverse=True)

    @given(
        lists=st.lists(
            st.lists(st.sampled_from("abcde"), max_size=8), min_size=1, max_size=20
        ),
        n=st.integers(min_value=0, max_value=6),
    )
    @settings(max_examples=60)
    def test_prefix_property(self, lists, n):
        members = [toy_chunk(f"c{i}", toks) for i, toks in enumerate(lists)]
        assert top_terms(members, n) == top_terms(members, n + 1)[:n]


class TestKeywordSearchCount:
    def test_direct_count(self):
        chunks = [toy_chunk(f"c{i}", ["q"] if i < 4 else ["x"]) for i in range(10)]
        assert keyword_search_count(chunks, "q") == 4

    def test_no_match(self):
        assert keyword_search_count([toy_chunk("c", ["x"])], "q") == 0

    def test_multiword_any(self):
        chunks = [toy_chunk("c1", ["a"]), toy_chunk("c2", ["b"]), toy_chunk("c3", ["c"])]
        assert keyword_search_count(chunks, ["a", "b"]) == 2

    def test_counts_chunk_once_despite_repeats(self):
        assert keyword_search_count([toy_chunk("c", ["q", "q", "q"])], "q") == 1


class TestClusterMembership:
    def test_reports_and_relevance(self):
        chunks = {
            "c1": toy_chunk("c1", ["vaccine", "trial"]),
            "c2": toy_chunk("c2", ["vaccine", "dose"]),
            "c3": toy_chunk("c3", ["economy", "market"]),
        }
        model = make_model([asg("c1", 0), asg("c2", 0), asg("c3", 1)])
        reps = cluster_reports(model, chunks)
        assert reps[0].member_count == 2
        assert reps[0].top_terms[0] == ("vaccine", 2)
        assert relevant_clusters(model, chunks, "vaccine") == [0]

    def test_extract_in_corpus_order(self):
        chunks = [toy_chunk("c1", ["x"]), toy_chunk("c2", ["y"]), toy_chunk("c3", ["z"])]
        model = make_model([asg("c1", 0), asg("c2", 1), asg("c3", 0)])
        got = extract_cluster_text(model, 0, chunks)
        assert got == [chunks[0].raw_text, chunks[2].raw_text]

    def test_dual_assigned_appears_in_both_extracts(self):
        chunks = [toy_chunk("c1", ["x"]), toy_chunk("c2", ["y"])]
        model = make_model([asg("c1", 0, secondary=1), asg("c2", 1)])
        assert chunks[0].raw_text in extract_cluster_text(model, 0, chunks)
        assert chunks[0].raw_text in extract_cluster_text(model, 1, chunks)

    def test_empty_cluster_extract(self):
        model = make_model([asg("c1", 0)], k=2)
        assert extract_cluster_text(model, 1, [toy_chunk("c1", ["x"])]) == []

    def test_invalid_cluster_index(self):
        model = make_model([asg("c1", 0)])
        with pytest.raises(InvalidClusterIndex):
            extract_cluster_text(model, 5, [])


class TestComparisonTable:
    def _chunks(self):
        return [
            toy_chunk("c1", ["vaccine", "trial"], doc_id="d1"),
            toy_chunk("c2", ["vaccine", "dose"], doc_id="d1"),
            toy_chunk("c3", ["market", "economy"], doc_id="d2"),
            toy_chunk("c4", ["market", "vaccine"], doc_id="d2"),
        ]

    def test_counts_per_label(self):
        chunks = self._chunks()
        model = make_model(
            [asg("c1", 0), asg("c2", 0), asg("c3", 1), asg("c4", 1)]
        )
        rows = comparison_table(
            chunks, "vaccine", model, model, {"d1": "alpha", "d2": "beta"}
        )
        by_label = {r.corpus_label: r for r in rows}
        assert by_label["alpha"].total_paragraphs == 2
        assert by_label["alpha"].search_count == 2
        assert by_label["beta"].search_count == 1
        # cluster 0 tops on vaccine; cluster 1 tops on market (vaccine count 1
        # ties to rank 2 of <=10, so cluster 1 is also relevant)
        assert by_label["alpha"].standard_kmeans_count == 2

    def test_identical_models_give_equal_counts(self):
        chunks = self._chunks()
        model = make_model([asg("c1", 0), asg("c2", 0), asg("c3", 1), asg("c4", 1)])
        rows = comparison_table(chunks, "vaccine", model, model)
        for row in rows:
            assert row.standard_kmeans_count == row.modified_kmeans_count

    def test_counts_bounded_by_totals(self):
        chunks = self._chunks()
        model = make_model(
            [asg("c1", 0, secondary=1), asg("c2", 0), asg("c3", 1), asg("c4", 1)]
        )
        rows = comparison_table(chunks, "vaccine", model, model, {"d1": "a", "d2": "b"})
        for row in rows:
            assert row.search_count <= row.total_paragraphs
            assert row.standard_kmeans_count <= row.total_paragraphs
            assert row.modified_kmeans_count <= row.total_paragraphs

    def test_dual_assigned_counted_once_per_cell(self):
        chunks = [
            toy_chunk("c1", ["vaccine"], doc_id="d1"),
            toy_chunk("c2", ["vaccine"], doc_id="d1"),
        ]
        # both clusters relevant; c1 is in both -> still one count
        model = make_model([asg("c1", 0, secondary=1), asg("c2", 1)])
        rows = comparison_table(chunks, "vaccine", model, model)
        assert rows[0].modified_kmeans_count == 2

    def test_no_relevant_cluster_yields_zero_row(self, caplog):
        chunks = self._chunks()
        model = make_model([asg("c1", 0), asg("c2", 0), asg("c3", 1), asg("c4", 1)])
        rows = comparison_table(chunks, ["absent"], model, model)
        assert rows[0].standard_kmeans_count == 0
        assert rows[0].modified_kmeans_count == 0

    def test_planted_relevant_chunks_bound_modified_count(self):
        # 40 planted query chunks in cluster 0, 60 fillers in cluster 1
        chunks = [toy_chunk(f"q{i}", ["vaccine", "dose"]) for i in range(40)]
        chunks += [toy_chunk(f"f{i}", ["market", "economy"]) for i in range(60)]
        assignments = [asg(c.chunk_id, 0 if c.chunk_id.startswith("q") else 1) for c in chunks]
        standard = make_model(list(assignments))
        # modified dual-assigns five fillers into cluster 0: they do not
        # carry the query term but top-10 of cluster 0 still says vaccine
        dualed = [
            asg(a.chunk_id, a.primary_cluster, secondary=0)
            if a.chunk_id in {f"f{i}" for i in range(5)}
            else a
            for a in assignments
        ]
        modified = make_model(dualed)
        rows = comparison_table(chunks, "vaccine", standard, modified)
        assert rows[0].standard_kmeans_count == 40
        assert rows[0].modified_kmeans_count == 45
        assert rows[0].modified_kmeans_count >= rows[0].standard_kmeans_count


class TestWriters:
    def test_comparison_csv(self, tmp_path):
        rows = [ComparisonRow("lab", 10, 5, 3, 4)]
        path = tmp_path / "cmp.csv"
        write_comparison_csv(path, rows)
        got = list(csv.reader(path.open()))
        assert got[0] == ["corpus", "total_paragraphs", "search_count",
                          "standard_kmeans", "modified_kmeans"]
        assert got[1] == ["lab", "10", "5", "3", "4"]

    def test_elbow_csv_round_trip_floats(self, tmp_path):
        path = tmp_path / "elbow.csv"
        write_elbow_csv(path, [(1, 12.25), (2, 3.0000000000000004)])
        got = list(csv.reader(path.open()))
        assert float(got[1][1]) == 12.25
        assert float(got[2][1]) == 3.0000000000000004

    def test_top_terms_csv(self, tmp_path):
        chunks = {"c1": toy_chunk("c1", ["a", "a", "b"])}
        model = make_model([asg("c1", 0)])
        reps = cluster_reports(model, chunks)
        path = tmp_path / "tt.csv"
        write_top_terms_csv(path, reps)
        got = list(csv.reader(path.open()))
        assert got[1] == ["0", "1", "1", "a", "2"]

    def test_extracts_files(self, tmp_path):
        chunks = [toy_chunk("c1", ["x"]), toy_chunk("c2", ["y"])]
        model = make_model([asg("c1", 0), asg("c2", 1)])
        paths = write_extracts(tmp_path, model, chunks)
        assert [p.name for p in paths] == ["cluster_00.txt", "cluster_01.txt"]
        assert paths[0].read_text().strip() == chunks[0].raw_text

    def _history_model(self):
        from keyclust.cluster import IterationSnapshot

        history_assignments = [asg("c1", 0), asg("c2", 1, secondary=0)]
        history = [
            IterationSnapshot(
                centroids=np.array([[0.0, 0.0], [1.0, 1.0]]),
                **pass_arrays(history_assignments),
            )
        ]
        return make_model(history_assignments, history=history)

    def test_iteration_csv_and_svg(self, tmp_path):
        model = self._history_model()
        coords = {"c1": np.array([0.0, 0.5]), "c2": np.array([1.0, 0.25])}
        csv_path = tmp_path / "iters.csv"
        write_iteration_csv(csv_path, model, coords)
        got = list(csv.reader(csv_path.open()))
        assert got[0] == ["iteration", "chunk_id", "x", "y", "primary", "secondary"]
        assert got[1] == ["1", "c1", "0.0", "0.5", "0", ""]
        assert got[2] == ["1", "c2", "1.0", "0.25", "1", "0"]

        svgs = write_iteration_svgs(tmp_path, model, coords)
        assert [p.name for p in svgs] == ["iteration_001.svg"]
        body = svgs[0].read_text()
        assert body.startswith("<svg")
        assert 'fill="black"' in body  # the dual-assigned series

    def test_writers_byte_deterministic(self, tmp_path):
        model = self._history_model()
        coords = {"c1": np.array([0.0, 0.5]), "c2": np.array([1.0, 0.25])}
        a, b = tmp_path / "a", tmp_path / "b"
        a.mkdir(), b.mkdir()
        for d in (a, b):
            write_iteration_csv(d / "i.csv", model, coords)
            write_iteration_svgs(d, model, coords)
            write_comparison_csv(d / "c.csv", [ComparisonRow("l", 1, 1, 1, 1)])
        assert (a / "i.csv").read_bytes() == (b / "i.csv").read_bytes()
        assert (a / "iteration_001.svg").read_bytes() == (b / "iteration_001.svg").read_bytes()
        assert (a / "c.csv").read_bytes() == (b / "c.csv").read_bytes()
