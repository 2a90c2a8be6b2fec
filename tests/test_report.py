import csv
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from keyclust.cluster import Assignment, ClusterConfig, ClusterModel, IterationSnapshot, run
from keyclust.errors import InvalidClusterIndex
from keyclust.preprocess import Chunk
from keyclust.report import (
    TOP_TERMS_DEFAULT,
    ComparisonRow,
    TokenTable,
    cluster_reports,
    comparison_table,
    extract_cluster_text,
    keyword_search_count,
    plot_xy,
    relevant_clusters,
    top_terms,
    write_comparison_csv,
    write_elbow_csv,
    write_extracts,
    write_iteration_csv,
    write_iteration_svgs,
    write_top_terms_csv,
)

from conftest import token_table, toy_chunk
from oracles import term_count_oracle, write_iteration_csv_oracle, write_iteration_svgs_oracle


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


def member_top_terms(members, n=TOP_TERMS_DEFAULT):
    """``top_terms`` of the members' summed token counts."""
    table = token_table(members)
    return top_terms(np.bincount(table.term_ids, minlength=len(table.terms)), table.terms, n)


class TestTopTerms:
    def test_counts_and_tie_break(self):
        members = [toy_chunk("c1", ["a", "a", "b"]), toy_chunk("c2", ["b", "c"])]
        assert member_top_terms(members) == [("a", 2), ("b", 2), ("c", 1)]

    def test_empty_members(self):
        assert member_top_terms([]) == []

    def test_limit(self):
        members = [toy_chunk("c1", [f"t{i}" for i in range(20)])]
        assert len(member_top_terms(members, 10)) == 10

    def test_planted_frequencies_match_brute_force(self):
        rng = random.Random(5)
        lists = [
            [rng.choice("abcdefghij") for _ in range(rng.randint(1, 12))]
            for _ in range(50)
        ]
        members = [toy_chunk(f"c{i}", toks) for i, toks in enumerate(lists)]
        oracle = term_count_oracle(lists)
        got = member_top_terms(members, n=len(oracle))
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
        assert member_top_terms(members, n) == member_top_terms(members, n + 1)[:n]


class TestTokenTable:
    # few terms, so that counts tie; non-ASCII ones, whose order is by code point
    TERMS = ["a", "b", "B", "é", "e", "ß", "ss", "日本", "z", "Ω"]

    @given(
        lists=st.lists(st.lists(st.sampled_from(TERMS), max_size=8), min_size=1, max_size=25),
        k=st.integers(min_value=1, max_value=4),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=80, deadline=None)
    def test_cluster_top_terms_equal_the_counted_members(self, lists, k, seed):
        """Each cluster's terms, counted over its members' tokens (primary or
        secondary) by one bincount, equal the brute-force counts sorted by
        (-count, term)."""
        chunks = [toy_chunk(f"c{i:02d}", toks) for i, toks in enumerate(lists)]
        table = token_table(chunks)
        ids = [c.chunk_id for c in chunks if c.tokens]
        assert table.point_ids == ids
        rng = random.Random(seed)
        primary = [rng.randrange(k) for _ in ids]
        secondary = [rng.choice([None, *(c for c in range(k) if c != p)]) for p in primary]
        model = make_model(
            [asg(cid, p, s) for cid, p, s in zip(ids, primary, secondary)], k=k
        )
        tokens = {c.chunk_id: c.tokens for c in chunks}
        for rep in cluster_reports(model, table, n=None):
            members = [
                cid for cid, p, s in zip(ids, primary, secondary) if rep.cluster_index in (p, s)
            ]
            oracle = term_count_oracle([tokens[cid] for cid in members])
            assert rep.top_terms == sorted(oracle.items(), key=lambda kv: (-kv[1], kv[0]))
            assert rep.member_count == len(members)

    def test_terms_in_string_order_and_rows_with_tokens_are_points(self):
        chunks = [toy_chunk("c1", ["é", "b", "é"]), toy_chunk("c2", []), toy_chunk("c3", ["B", "b"])]
        table = token_table(chunks)
        assert table.terms == ["B", "b", "é"]
        assert table.term_ids.tolist() == [2, 1, 2, 0, 1]
        assert table.offsets.tolist() == [0, 3, 3, 5]
        assert table.point_ids == ["c1", "c3"]

    def test_tokens_that_are_not_a_list_are_a_type_error(self):
        record = {"chunk_id": "c1", "doc_id": "d", "raw_text": "vaccine", "tokens": "vaccine"}
        with pytest.raises(TypeError, match="'c1' has tokens of type str"):
            TokenTable.from_records([record])

    def test_chunk_without_tokens_counts_in_the_total_and_no_extract(self, tmp_path):
        chunks = [
            toy_chunk("c1", ["vaccine", "dose"], doc_id="d1"),
            Chunk("c2", "d1", "It is the of and.", 1, ()),
            toy_chunk("c3", ["vaccine", "trial"], doc_id="d2"),
        ]
        table = token_table(chunks)
        model = make_model([asg("c1", 0, secondary=1), asg("c3", 1)])
        rows = comparison_table(table, "vaccine", model, model, {"d1": "a", "d2": "b"})
        assert [(r.corpus_label, r.total_paragraphs, r.search_count) for r in rows] == [
            ("a", 2, 1), ("b", 1, 1)
        ]
        assert [r.modified_kmeans_count for r in rows] == [1, 1]
        texts = [p.read_text() for p in write_extracts(tmp_path, model, table)]
        assert texts == [chunks[0].raw_text + "\n", chunks[0].raw_text + "\n\n" + chunks[2].raw_text + "\n"]


class TestKeywordSearchCount:
    def test_direct_count(self):
        chunks = [toy_chunk(f"c{i}", ["q"] if i < 4 else ["x"]) for i in range(10)]
        assert keyword_search_count(token_table(chunks), "q") == 4

    def test_no_match(self):
        assert keyword_search_count(token_table([toy_chunk("c", ["x"])]), "q") == 0

    def test_multiword_any(self):
        chunks = [toy_chunk("c1", ["a"]), toy_chunk("c2", ["b"]), toy_chunk("c3", ["c"])]
        assert keyword_search_count(token_table(chunks), ["a", "b"]) == 2

    def test_counts_chunk_once_despite_repeats(self):
        assert keyword_search_count(token_table([toy_chunk("c", ["q", "q", "q"])]), "q") == 1


class TestClusterMembership:
    def test_reports_and_relevance(self):
        chunks = token_table([
            toy_chunk("c1", ["vaccine", "trial"]),
            toy_chunk("c2", ["vaccine", "dose"]),
            toy_chunk("c3", ["economy", "market"]),
        ])
        model = make_model([asg("c1", 0), asg("c2", 0), asg("c3", 1)])
        reps = cluster_reports(model, chunks)
        assert reps[0].member_count == 2
        assert reps[0].top_terms[0] == ("vaccine", 2)
        assert relevant_clusters(model, chunks, "vaccine") == [0]

    def test_precomputed_full_reports_give_the_same_table_and_csv(self, tmp_path):
        chunks = [
            toy_chunk("c1", ["vaccine", "trial", "dose"], doc_id="d1"),
            toy_chunk("c2", ["vaccine", "dose", "dose"], doc_id="d2"),
            toy_chunk("c3", ["economy", "market", "vaccine"], doc_id="d2"),
        ]
        table = token_table(chunks)
        standard = make_model([asg("c1", 0), asg("c2", 0), asg("c3", 1)])
        modified = make_model([asg("c1", 1), asg("c2", 0, secondary=1), asg("c3", 1)])
        labels = {"d1": "a", "d2": "b"}
        full = {name: cluster_reports(m, table, n=None)
                for name, m in (("standard", standard), ("modified", modified))}
        for query in ("vaccine", "dose", ["market", "absent"]):
            assert comparison_table(table, query, standard, modified, labels, full) == \
                comparison_table(table, query, standard, modified, labels)
        for n in (1, 2, 10):
            write_top_terms_csv(tmp_path / "full.csv", full["modified"], n)
            write_top_terms_csv(tmp_path / "top.csv", cluster_reports(modified, table, n))
            assert (tmp_path / "full.csv").read_bytes() == (tmp_path / "top.csv").read_bytes()

    def test_extract_in_corpus_order(self):
        chunks = [toy_chunk("c1", ["x"]), toy_chunk("c2", ["y"]), toy_chunk("c3", ["z"])]
        model = make_model([asg("c1", 0), asg("c2", 1), asg("c3", 0)])
        got = extract_cluster_text(model, 0, token_table(chunks))
        assert got == [chunks[0].raw_text, chunks[2].raw_text]

    def test_dual_assigned_appears_in_both_extracts(self):
        chunks = [toy_chunk("c1", ["x"]), toy_chunk("c2", ["y"])]
        model = make_model([asg("c1", 0, secondary=1), asg("c2", 1)])
        table = token_table(chunks)
        assert chunks[0].raw_text in extract_cluster_text(model, 0, table)
        assert chunks[0].raw_text in extract_cluster_text(model, 1, table)

    def test_empty_cluster_extract(self):
        model = make_model([asg("c1", 0)], k=2)
        assert extract_cluster_text(model, 1, token_table([toy_chunk("c1", ["x"])])) == []

    def test_invalid_cluster_index(self):
        model = make_model([asg("c1", 0)])
        with pytest.raises(InvalidClusterIndex):
            extract_cluster_text(model, 5, token_table([]))


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
            token_table(chunks), "vaccine", model, model, {"d1": "alpha", "d2": "beta"}
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
        rows = comparison_table(token_table(chunks), "vaccine", model, model)
        for row in rows:
            assert row.standard_kmeans_count == row.modified_kmeans_count

    def test_counts_bounded_by_totals(self):
        chunks = self._chunks()
        model = make_model(
            [asg("c1", 0, secondary=1), asg("c2", 0), asg("c3", 1), asg("c4", 1)]
        )
        rows = comparison_table(token_table(chunks), "vaccine", model, model, {"d1": "a", "d2": "b"})
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
        rows = comparison_table(token_table(chunks), "vaccine", model, model)
        assert rows[0].modified_kmeans_count == 2

    def test_no_relevant_cluster_yields_zero_row(self, caplog):
        chunks = self._chunks()
        model = make_model([asg("c1", 0), asg("c2", 0), asg("c3", 1), asg("c4", 1)])
        rows = comparison_table(token_table(chunks), ["absent"], model, model)
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
        rows = comparison_table(token_table(chunks), "vaccine", standard, modified)
        assert rows[0].standard_kmeans_count == 40
        assert rows[0].modified_kmeans_count == 45
        assert rows[0].modified_kmeans_count >= rows[0].standard_kmeans_count


class TestWriters:
    def test_plot_xy_takes_the_first_two_columns(self):
        X = np.arange(12.0).reshape(4, 3)
        assert plot_xy(X).tolist() == X[:, :2].tolist()
        assert plot_xy(X[:, :1]).tolist() == [[0.0, 0.0], [3.0, 0.0], [6.0, 0.0], [9.0, 0.0]]
        assert plot_xy(np.zeros((0, 0))).shape == (0, 2)

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
        chunks = token_table([toy_chunk("c1", ["a", "a", "b"])])
        model = make_model([asg("c1", 0)])
        reps = cluster_reports(model, chunks)
        path = tmp_path / "tt.csv"
        write_top_terms_csv(path, reps)
        got = list(csv.reader(path.open()))
        assert got[1] == ["0", "1", "1", "a", "2"]

    def test_extracts_files(self, tmp_path):
        chunks = [toy_chunk("c1", ["x"]), toy_chunk("c2", ["y"])]
        model = make_model([asg("c1", 0), asg("c2", 1)])
        paths = write_extracts(tmp_path, model, token_table(chunks))
        assert [p.name for p in paths] == ["cluster_00.txt", "cluster_01.txt"]
        assert paths[0].read_text().strip() == chunks[0].raw_text

    def test_extracts_of_clusters_beyond_k_are_removed(self, tmp_path):
        for name in ("cluster_02.txt", "cluster_07.txt", "cluster_123.txt", "notes.txt"):
            (tmp_path / name).write_text("old\n")
        chunks = [toy_chunk("c1", ["x"]), toy_chunk("c2", ["y"])]
        write_extracts(tmp_path, make_model([asg("c1", 0), asg("c2", 1)]), token_table(chunks))
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "cluster_00.txt", "cluster_01.txt", "notes.txt"
        ]

    def _history_model(self):
        history_assignments = [asg("c1", 0), asg("c2", 1, secondary=0)]
        labels = pass_arrays(history_assignments)
        history = [
            IterationSnapshot(
                centroids=np.array([[0.0, 0.0], [1.0, 1.0]]),
                primary=labels["primary"],
                secondary=labels["secondary"],
            )
        ]
        return make_model(history_assignments, history=history)

    def test_iteration_csv_and_svg(self, tmp_path):
        model = self._history_model()
        xy = np.array([[0.0, 0.5], [1.0, 0.25]])  # c1, c2
        csv_path = tmp_path / "iters.csv"
        write_iteration_csv(csv_path, model, xy)
        got = list(csv.reader(csv_path.open()))
        assert got[0] == ["iteration", "chunk_id", "x", "y", "primary", "secondary"]
        assert got[1] == ["1", "c1", "0.0", "0.5", "0", ""]
        assert got[2] == ["1", "c2", "1.0", "0.25", "1", "0"]

        svgs = write_iteration_svgs(tmp_path, model, xy)
        assert [p.name for p in svgs] == ["iteration_001.svg"]
        body = svgs[0].read_text()
        assert body.startswith("<svg")
        assert 'fill="black"' in body  # the dual-assigned series

    def test_writers_byte_deterministic(self, tmp_path):
        model = self._history_model()
        xy = np.array([[0.0, 0.5], [1.0, 0.25]])  # c1, c2
        a, b = tmp_path / "a", tmp_path / "b"
        a.mkdir(), b.mkdir()
        for d in (a, b):
            write_iteration_csv(d / "i.csv", model, xy)
            write_iteration_svgs(d, model, xy)
            write_comparison_csv(d / "c.csv", [ComparisonRow("l", 1, 1, 1, 1)])
        assert (a / "i.csv").read_bytes() == (b / "i.csv").read_bytes()
        assert (a / "iteration_001.svg").read_bytes() == (b / "iteration_001.svg").read_bytes()
        assert (a / "c.csv").read_bytes() == (b / "c.csv").read_bytes()


def snapshot_model(ids, k, snaps):
    """A model whose history is ``snaps``, (centroids, primary, secondary)
    triples."""
    history = [
        IterationSnapshot(
            centroids=np.asarray(c, dtype=np.float64),
            primary=np.asarray(p, dtype=np.int64),
            secondary=np.asarray(s, dtype=np.int64),
        )
        for c, p, s in snaps
    ]
    last = history[-1]
    n = len(ids)
    return ClusterModel(
        point_ids=list(ids), primary=last.primary, secondary=last.secondary,
        d1=np.zeros(n), d2=np.zeros(n), config=ClusterConfig(k=k), centroids=last.centroids,
        iterations=len(history), history=history, distortion=0.0, converged=False,
    )


def _awkward_ids_case():
    rng = np.random.default_rng(5)
    ids = ["a,b", 'say "hi"', "line\nbreak", "cr\rhere", ',"\n', "plain", ""]
    coords = {cid: rng.standard_normal(3) for cid in ids}
    snaps = [
        (rng.standard_normal((3, 3)) * 0.1, rng.integers(0, 3, 7), [-1, 2, -1, 0, 1, -1, -1])
        for _ in range(3)
    ]
    return snapshot_model(ids, 3, snaps), coords


def _run_case(cfg, n=30, offset=0.0, weight=1.0, seed=9, dim=2):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, dim)) + offset
    ids = [f"p{i:02d}" for i in range(n)]
    return run(ids, X, np.full(n, weight), cfg), dict(zip(ids, X))


def _all_dual_case():
    rng = np.random.default_rng(6)
    ids = [f"d{i}" for i in range(12)]
    coords = {cid: rng.standard_normal(2) for cid in ids}
    prim = rng.integers(0, 4, 12)
    snaps = [(rng.standard_normal((4, 2)), prim, (prim + 1) % 4) for _ in range(2)]
    return snapshot_model(ids, 4, snaps), coords


def _single_point_case():
    # one 1-d point sitting on the only centroid: zero span on both axes
    return snapshot_model(["only"], 1, [([[0.75]], [0], [-1])] * 2), {"only": np.array([0.75])}


def _hull_exits_case():
    # a centroid inside the points' hull, then outside on each side, then inside again
    ids = ["a", "b", "c"]
    coords = {"a": np.array([0.0, 0.0]), "b": np.array([1.0, 2.0]), "c": np.array([2.0, 1.0])}
    inside = [[0.5, 0.5], [1.5, 1.5]]
    labels = ([0, 1, 1], [-1, -1, 0])
    snaps = [
        (inside, *labels),
        ([[-3.0, 0.5], [1.5, 1.5]], *labels),
        ([[0.5, 0.5], [1.5, 7.25]], *labels),
        (inside, *labels),
        (inside, *labels),
    ]
    return snapshot_model(ids, 2, snaps), coords


def _two_digit_labels_case():
    # k = 12: labels 10 and 11 as primaries and secondaries, beside -1
    rng = np.random.default_rng(7)
    ids = [f"t{i:02d}" for i in range(40)]
    coords = {cid: rng.standard_normal(2) for cid in ids}
    snaps = []
    for _ in range(3):
        prim = rng.integers(0, 12, 40)
        prim[:2] = 10, 11
        sec = np.where(rng.random(40) < 0.5, -1, (prim + rng.integers(1, 12, 40)) % 12)
        sec[:3] = 11, 10, -1
        snaps.append((rng.standard_normal((12, 2)), prim, sec))
    return snapshot_model(ids, 12, snaps), coords


def _text_ids_case():
    # ids the csv writer leaves unquoted: a leading space, a tab, non-ASCII text
    rng = np.random.default_rng(8)
    ids = [" lead", "tab\there", "naïve café", "日本語", "\tboth ", "Ωmega"]
    coords = {cid: rng.standard_normal(4) for cid in ids}
    snaps = [(rng.standard_normal((2, 4)), rng.integers(0, 2, 6), [-1, 0, 1, -1, -1, 0]) for _ in range(2)]
    return snapshot_model(ids, 2, snaps), coords


ITERATION_CASES = {
    "awkward-chunk-ids": _awkward_ids_case,
    "two-digit-labels": _two_digit_labels_case,
    "text-chunk-ids": _text_ids_case,
    # a fit on 1-D points, plotted at y = 0.0
    "one-dimensional-run": lambda: _run_case(ClusterConfig(k=3, threshold=0.3, seed=3), n=25, dim=1),
    "k-equals-1": lambda: _run_case(ClusterConfig(k=1, seed=2)),
    "all-dual": _all_dual_case,
    "single-point": _single_point_case,
    "hull-exits": _hull_exits_case,
    # weights 0.5 and a member-count denominator pull centroids toward the
    # origin, outside these points' hull, by a different amount each iteration
    "raw-denominator-run": lambda: _run_case(
        ClusterConfig(k=3, seed=4, raw_denominator=True, max_iter=8), offset=10.0, weight=0.5
    ),
    "dual-assigning-run": lambda: _run_case(ClusterConfig(k=4, threshold=0.4, seed=1), n=60),
}


class TestIterationWritersMatchOracle:
    @pytest.mark.parametrize("case", sorted(ITERATION_CASES))
    def test_same_bytes_as_oracle(self, case, tmp_path):
        model, coords = ITERATION_CASES[case]()
        # the writers take the points' plotted plane; the oracles their coordinates
        xy = plot_xy(np.array([coords[cid] for cid in model.point_ids]))
        new, old = tmp_path / "new", tmp_path / "old"
        write_iteration_csv(tmp_path / "new.csv", model, xy)
        write_iteration_csv_oracle(tmp_path / "old.csv", model, coords)
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()
        paths = write_iteration_svgs(new, model, xy)
        want = write_iteration_svgs_oracle(old, model, coords)
        assert [p.name for p in paths] == [p.name for p in want]
        for got, ref in zip(paths, want):
            assert got.read_bytes() == ref.read_bytes(), got.name

    def test_cases_cover_moving_bounds(self):
        """The raw-denominator run leaves the points' hull, so its plot
        bounds move between iterations."""
        model, coords = ITERATION_CASES["raw-denominator-run"]()
        xy = np.array([coords[cid] for cid in model.point_ids])
        lo, hi = xy.min(axis=0), xy.max(axis=0)
        outside = [bool(((s.centroids < lo) | (s.centroids > hi)).any()) for s in model.history]
        assert any(outside)
        bounds = {
            (*np.minimum(lo, s.centroids.min(axis=0)), *np.maximum(hi, s.centroids.max(axis=0)))
            for s in model.history
        }
        assert len(bounds) > 1
