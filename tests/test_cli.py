import csv
import json
import logging
import multiprocessing
import os
import re
import shutil
import threading
from pathlib import Path

import pytest

from keyclust import cli
from keyclust.cli import build_parser, main
from keyclust.corpus import StageStore
from keyclust.preprocess import default_stoplist

from conftest import tree_digest, write_corpus_dir


def edit_header(path: Path, **fields) -> None:
    """Set a stage's header fields; a field set to None is dropped."""
    head, rest = path.read_text(encoding="utf-8").split("\n", 1)
    header = {k: v for k, v in {**json.loads(head), **fields}.items() if v is not None}
    path.write_text(json.dumps(header) + "\n" + rest, encoding="utf-8")


def drop_first_record_field(path: Path, field: str) -> None:
    """Delete ``field`` from the first record of a stage file."""
    head, first, rest = path.read_text(encoding="utf-8").split("\n", 2)
    record = json.loads(first)
    del record[field]
    path.write_text("\n".join([head, json.dumps(record), rest]), encoding="utf-8")


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("corpus")
    write_corpus_dir(path, n_articles=12, seed=3, n_sentences=45)
    return path


# stale-stage cases: articles ingested first, articles re-ingested, and the
# words added to the default stoplist for the re-ingest
STALE_CASES = {
    "shrunk": (8, 4, ()),
    "grown": (4, 8, ()),
    "retokenized": (4, 4, ("antibody", "booster", "dose")),
}


CLUSTER_BOTH = [["cluster", "--query", "vaccine", "--k", "3", "--mode", m] for m in ("standard", "modified")]


def reingest(tmp_path, monkeypatch, case, *between):
    """Ingest, vectorize and reduce the first corpus of ``case``, run the
    ``between`` steps, then ingest its second corpus over the same --out."""
    first, second, extra = STALE_CASES[case]
    out = ["--out", str(tmp_path / "out")]
    for n in (first, second):
        write_corpus_dir(tmp_path / f"c{n}", n_articles=n, seed=0, n_sentences=20)
    assert main(["ingest", *out, "--corpus", f"{tmp_path / f'c{first}'}:synthetic"]) == 0
    assert main(["vectorize", *out]) == 0
    assert main(["reduce", *out, "--pca-dim", "10"]) == 0
    for step in between:
        assert main([*step, *out]) == 0
    chunks = tmp_path / "out" / "stages" / "chunks.jsonl"
    before = chunks.read_text(encoding="utf-8").splitlines()[1:]
    if extra:
        stop = tmp_path / "stop.txt"
        stop.write_text("\n".join([*sorted(default_stoplist()), *extra]) + "\n", encoding="utf-8")
        monkeypatch.setenv("KEYCLUST_STOPLIST", str(stop))
    assert main(["ingest", *out, "--corpus", f"{tmp_path / f'c{second}'}:synthetic"]) == 0
    if extra:  # the same chunk ids with other tokens
        after = chunks.read_text(encoding="utf-8").splitlines()[1:]
        ids = [[json.loads(line)["chunk_id"] for line in lines] for lines in (before, after)]
        assert ids[0] == ids[1] and before != after
    return out


def run_pipeline(corpus, out, seed=7, threads=1, k=4):
    base = ["--out", str(out)]
    assert main(["ingest", *base, "--corpus", f"{corpus}:demo", "--batch-size", "5"]) == 0
    assert main(["vectorize", *base]) == 0
    assert main(["reduce", *base, "--pca-dim", "8"]) == 0
    for mode in ("standard", "modified"):
        assert main([
            "cluster", *base, "--query", "vaccine", "--k", str(k),
            "--mode", mode, "--seed", str(seed), "--threads", str(threads),
        ]) == 0
    assert main(["report", *base, "--query", "vaccine"]) == 0
    return out


class TestPipeline:
    def test_stages_and_reports_exist(self, corpus_dir, tmp_path):
        out = run_pipeline(corpus_dir, tmp_path / "out")
        stages = out / "stages"
        for name in ("documents", "chunks", "vocabulary", "vectors", "pca",
                     "points", "weights", "model_standard", "model_modified"):
            assert (stages / f"{name}.jsonl").is_file(), name
        reports = out / "reports"
        assert (reports / "comparison.csv").is_file()
        assert (reports / "iterations_modified.csv").is_file()
        assert list(reports.glob("iteration_modified_*.svg"))
        assert (reports / "extracts" / "modified" / "cluster_00.txt").is_file()

    def test_rerun_is_byte_identical(self, corpus_dir, tmp_path):
        # no stage header may record where the corpus or --out lives
        moved = shutil.copytree(corpus_dir, tmp_path / "elsewhere" / "corpus")
        first = run_pipeline(corpus_dir, tmp_path / "one")
        second = run_pipeline(moved, tmp_path / "two")
        assert tree_digest(first) == tree_digest(second)

    def test_vectorize_warns_of_each_zero_vector(self, corpus_dir, tmp_path, caplog):
        out = tmp_path / "out"
        assert main(["ingest", "--out", str(out), "--corpus", f"{corpus_dir}:demo"]) == 0
        # a vocabulary of the few commonest terms leaves some chunks none of them
        assert main(["vectorize", "--out", str(out), "--min-df", "30"]) == 0
        lines = (out / "stages" / "vectors.jsonl").read_text(encoding="utf-8").splitlines()[1:]
        zero = sum(1 for line in lines if not json.loads(line)["entries"])
        assert 0 < zero < len(lines)
        assert f"{zero} chunks have no in-vocabulary token (zero vectors)" in caplog.text

    def test_threads_do_not_change_outputs(self, corpus_dir, tmp_path):
        one = run_pipeline(corpus_dir, tmp_path / "t1", threads=1)
        four = run_pipeline(corpus_dir, tmp_path / "t4", threads=4)
        for out, threads in ((one, 1), (four, 4)):
            assert main([
                "elbow", "--out", str(out), "--k-max", "5", "--restarts", "3",
                "--seed", "7", "--threads", str(threads),
            ]) == 0
        assert (one / "reports" / "elbow.csv").is_file()
        assert tree_digest(one) == tree_digest(four)

    def test_cluster_stage_identical_across_reruns(self, corpus_dir, tmp_path):
        out = run_pipeline(corpus_dir, tmp_path / "out")
        model_path = out / "stages" / "model_modified.jsonl"
        before = model_path.read_bytes()
        assert main([
            "cluster", "--out", str(out), "--query", "vaccine", "--k", "4",
            "--mode", "modified", "--seed", "7",
        ]) == 0
        assert model_path.read_bytes() == before

    def test_elbow_csv_non_increasing(self, corpus_dir, tmp_path):
        out = run_pipeline(corpus_dir, tmp_path / "out")
        assert main([
            "elbow", "--out", str(out), "--k-min", "1", "--k-max", "6",
            "--restarts", "4", "--seed", "3",
        ]) == 0
        rows = (out / "reports" / "elbow.csv").read_text().strip().splitlines()[1:]
        values = [float(r.split(",")[1]) for r in rows]
        assert len(values) == 6
        assert all(b <= a + 1e-9 for a, b in zip(values, values[1:]))

    @pytest.mark.parametrize("mode", ["standard", "modified"])
    def test_elbow_csv_same_bytes_on_1_2_and_4_threads(self, corpus_dir, tmp_path, mode):
        # from k = 1, whose screen settles no row, to k = 6; a standard scan
        # updates with unit weights, a modified one with the query's
        base = ["--out", str(tmp_path / "out")]
        assert main(["ingest", *base, "--corpus", f"{corpus_dir}:demo"]) == 0
        assert main(["vectorize", *base]) == 0
        assert main(["reduce", *base, "--pca-dim", "8"]) == 0
        csv = tmp_path / "out" / "reports" / "elbow.csv"
        found = {}
        for threads in (1, 2, 4):
            assert main([
                "elbow", *base, "--mode", mode, "--query", "vaccine", "--k-min", "1",
                "--k-max", "6", "--restarts", "3", "--seed", "7", "--threads", str(threads),
            ]) == 0
            found[threads] = csv.read_bytes()
            csv.unlink()
        assert len(found[1].splitlines()) == 7
        assert found[1] == found[2] == found[4]

    def test_elbow_modified_mode_needs_query(self, corpus_dir, tmp_path, capsys):
        out = tmp_path / "out"
        run_pipeline(corpus_dir, out)
        args = ["elbow", "--out", str(out), "--k-min", "2", "--k-max", "3",
                "--restarts", "2", "--mode", "modified"]
        assert main(args) == 1
        assert "query" in capsys.readouterr().err
        assert main(args + ["--query", "vaccine"]) == 0

    def test_run_all(self, corpus_dir, tmp_path):
        out = tmp_path / "all"
        assert main([
            "run-all", "--out", str(out), "--corpus", f"{corpus_dir}:demo",
            "--query", "vaccine", "--k", "4", "--seed", "1", "--pca-dim", "8",
        ]) == 0
        assert (out / "reports" / "comparison.csv").is_file()

    def test_shorter_rerun_removes_stale_iteration_svgs(self, corpus_dir, tmp_path):
        out, fresh = tmp_path / "out", tmp_path / "fresh"
        assert main(["ingest", "--out", str(out), "--corpus", f"{corpus_dir}:demo"]) == 0
        assert main(["vectorize", "--out", str(out)]) == 0
        assert main(["reduce", "--out", str(out), "--pca-dim", "8"]) == 0
        shutil.copytree(out / "stages", fresh / "stages")
        cluster = ["cluster", "--query", "vaccine", "--k", "4", "--seed", "7"]
        for mode in ("standard", "modified"):
            assert main([*cluster, "--mode", mode, "--out", str(out), "--max-iter", "5"]) == 0
        assert (out / "reports" / "iteration_modified_005.svg").is_file()
        assert main([*cluster, "--mode", "modified", "--out", str(out), "--max-iter", "3"]) == 0
        assert not (out / "reports" / "iteration_modified_004.svg").exists()
        # the other prefix's files are left alone until its own rerun
        assert (out / "reports" / "iteration_standard_005.svg").is_file()
        assert main([*cluster, "--mode", "standard", "--out", str(out), "--max-iter", "3"]) == 0
        for mode in ("standard", "modified"):
            assert main([*cluster, "--mode", mode, "--out", str(fresh), "--max-iter", "3"]) == 0
        assert tree_digest(out / "reports") == tree_digest(fresh / "reports")

    def test_smaller_k_rerun_removes_stale_extracts(self, corpus_dir, tmp_path):
        out, fresh = tmp_path / "out", tmp_path / "fresh"
        flags = ["--corpus", f"{corpus_dir}:demo", "--query", "vaccine", "--pca-dim", "8",
                 "--seed", "7", "--max-iter", "5"]
        assert main(["run-all", "--out", str(out), *flags, "--k", "6"]) == 0
        assert (out / "reports" / "extracts" / "modified" / "cluster_05.txt").is_file()
        assert main(["run-all", "--out", str(out), *flags, "--k", "3"]) == 0
        assert main(["run-all", "--out", str(fresh), *flags, "--k", "3"]) == 0
        assert tree_digest(out) == tree_digest(fresh)

    def test_report_counts_each_clusters_terms_once(self, corpus_dir, tmp_path, monkeypatch):
        from keyclust import report

        out = run_pipeline(corpus_dir, tmp_path / "out", k=4)
        calls = []
        top_terms = report.top_terms
        monkeypatch.setattr(report, "top_terms", lambda *a, **kw: calls.append(1) or top_terms(*a, **kw))
        assert main(["report", "--out", str(out), "--query", "vaccine", "--top-n", "3"]) == 0
        assert len(calls) == 2 * 4

    def test_later_stages_never_mutate_earlier_ones(self, corpus_dir, tmp_path):
        out = tmp_path / "out"
        base = ["--out", str(out)]
        assert main(["ingest", *base, "--corpus", f"{corpus_dir}:demo"]) == 0
        chunks_bytes = (out / "stages" / "chunks.jsonl").read_bytes()
        docs_bytes = (out / "stages" / "documents.jsonl").read_bytes()
        assert main(["vectorize", *base]) == 0
        vec_bytes = (out / "stages" / "vectors.jsonl").read_bytes()
        assert main(["reduce", *base, "--pca-dim", "6"]) == 0
        assert main(["cluster", *base, "--query", "vaccine", "--k", "3"]) == 0
        assert main(["report", *base, "--query", "vaccine"]) == 1  # one model missing
        assert (out / "stages" / "chunks.jsonl").read_bytes() == chunks_bytes
        assert (out / "stages" / "documents.jsonl").read_bytes() == docs_bytes
        assert (out / "stages" / "vectors.jsonl").read_bytes() == vec_bytes

    def test_empty_token_chunks_retained_but_not_vectorized(self, tmp_path):
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        stopword_body = ["It is the of and. Was it the of?"]
        real_body = ["The vaccine trial improved efficacy outcomes measurably."]
        (corpus / "a.json").write_text(
            json.dumps({"paper_id": "a", "title": "", "body_text": stopword_body}),
            encoding="utf-8",
        )
        (corpus / "b.json").write_text(
            json.dumps({"paper_id": "b", "title": "", "body_text": real_body * 40}),
            encoding="utf-8",
        )
        out = tmp_path / "out"
        assert main(["ingest", "--out", str(out), "--corpus", f"{corpus}:demo"]) == 0
        assert main(["vectorize", "--out", str(out), "--min-df", "1"]) == 0
        chunk_lines = (out / "stages" / "chunks.jsonl").read_text().splitlines()[1:]
        chunk_records = [json.loads(line) for line in chunk_lines]
        empty_ids = {r["chunk_id"] for r in chunk_records if not r["tokens"]}
        assert empty_ids  # the all-stopword chunk is retained in the stage
        vec_lines = (out / "stages" / "vectors.jsonl").read_text().splitlines()[1:]
        vec_ids = {json.loads(line)["chunk_id"] for line in vec_lines}
        assert not (empty_ids & vec_ids)  # but never vectorized

    def test_chunk_without_tokens_counts_in_the_report_total_and_no_extract(self, tmp_path):
        corpus = tmp_path / "corpus"
        write_corpus_dir(corpus, n_articles=4, seed=0, n_sentences=20)
        stopwords = "It is the of and. Was it the of?"
        (corpus / "stopwords.json").write_text(
            json.dumps({"paper_id": "stopwords", "title": "", "body_text": [stopwords]}),
            encoding="utf-8",
        )
        out = run_pipeline(corpus, tmp_path / "out", k=3)
        records = [
            json.loads(line)
            for line in (out / "stages" / "chunks.jsonl").read_text(encoding="utf-8").splitlines()[1:]
        ]
        assert [r["raw_text"] for r in records if not r["tokens"]] == [stopwords]
        with open(out / "reports" / "comparison.csv", encoding="utf-8") as fh:
            assert int(list(csv.DictReader(fh))[0]["total_paragraphs"]) == len(records)
        extracts = list((out / "reports" / "extracts").glob("*/cluster_*.txt"))
        assert len(extracts) == 6
        assert not any(stopwords in path.read_text(encoding="utf-8") for path in extracts)


class TestParser:
    @pytest.mark.parametrize(
        "argv, mode",
        [
            (["cluster", "--query", "x"], "modified"),
            (["cluster", "--query", "x", "--mode", "modified"], "modified"),
            (["elbow"], "standard"),
            (["cluster", "--query", "x", "--mode", "standard"], "standard"),
            (["elbow", "--mode", "modified"], "modified"),
        ],
    )
    def test_mode_defaults(self, argv, mode):
        assert build_parser().parse_args(argv).mode == mode

    @pytest.mark.parametrize(
        "argv",
        [["run-all", "--query", "x", "--corpus", "c:l", "--mode", "standard"], ["elbow", "--k", "3"]],
        ids=["run-all-mode", "elbow-k"],
    )
    def test_flag_the_command_does_not_read_is_a_usage_error(self, argv):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(argv)
        assert exc.value.code == 2

    def test_every_subcommand_keeps_its_flags_defaults_and_order(self, capsys):
        common = [("--out", "out", False), ("--cleaning-config", None, False)]
        ingest = [("--corpus", None, True), ("--batch-size", 50, False)]
        vectorize = [("--min-df", 2, False), ("--max-df-ratio", 0.95, False)]
        fit = [
            ("--threshold", 0.01, False), ("--damping", 0.01, False), ("--epsilon", 0.0001, False),
            ("--max-iter", 300, False), ("--seeding", "random", False), ("--seed", 0, False),
            ("--threads", 1, False), ("--raw-denominator", False, False),
        ]
        query, k, top_n = ("--query", None, True), ("--k", 5, False), ("--top-n", 10, False)
        expected = {
            "ingest": common + ingest,
            "vectorize": common + vectorize,
            "reduce": common + [("--pca-dim", 50, False)],
            "cluster": common + fit + [query, k, ("--mode", "modified", False)],
            "elbow": common + fit + [
                ("--query", None, False), ("--mode", "standard", False), ("--k-min", 1, False),
                ("--k-max", 10, False), ("--restarts", 10, False),
            ],
            "report": common + [query, top_n],
            "run-all": common + ingest + vectorize + [("--pca-dim", 50, False)] + fit + [query, k, top_n],
        }
        parser = build_parser()
        commands = next(a for a in parser._actions if a.dest == "command").choices
        assert {
            name: [
                (option, action.default, action.required)
                for action in command._actions if action.dest != "help"
                for option in action.option_strings
            ]
            for name, command in commands.items()
        } == expected
        # the required flags are named in the order they are declared
        with pytest.raises(SystemExit):
            parser.parse_args(["run-all"])
        assert "the following arguments are required: --corpus, --query" in capsys.readouterr().err

    def test_defaults_independent_of_parse_order(self):
        parser = build_parser()
        assert parser.parse_args(["elbow"]).mode == "standard"
        assert parser.parse_args(["cluster", "--query", "x"]).mode == "modified"
        assert parser.parse_args(["elbow"]).mode == "standard"


class TestFailureModes:
    def test_report_without_model_stage_exits_1(self, corpus_dir, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["ingest", "--out", str(out), "--corpus", f"{corpus_dir}:demo"]) == 0
        assert main(["report", "--out", str(out), "--query", "vaccine"]) == 1
        assert "missing stage" in capsys.readouterr().err

    def test_usage_error_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["cluster"])  # --query missing
        assert exc.value.code == 2

    def test_unknown_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_bad_corpus_spec_exits_1(self, tmp_path, capsys):
        assert main(["ingest", "--out", str(tmp_path), "--corpus", "no-label"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_missing_corpus_dir_exits_1(self, tmp_path, capsys):
        assert main([
            "ingest", "--out", str(tmp_path), "--corpus", f"{tmp_path}/ghost:x",
        ]) == 1
        assert "corpus directory not found" in capsys.readouterr().err

    def test_vacuous_query_exits_1(self, corpus_dir, tmp_path, capsys):
        out = tmp_path / "out"
        run_pipeline(corpus_dir, out)
        assert main(["cluster", "--out", str(out), "--query", "the", "--k", "2"]) == 1

    @pytest.mark.parametrize(
        "command",
        [
            ["cluster", "--query", "vaccine", "--k", "3"],
            ["cluster", "--query", "vaccine", "--k", "3", "--mode", "standard"],
            ["elbow", "--mode", "modified", "--query", "vaccine", "--k-max", "3"],
            ["elbow", "--k-max", "3"],
        ],
        ids=["cluster-modified", "cluster-standard", "elbow-modified", "elbow-standard"],
    )
    @pytest.mark.parametrize("case", list(STALE_CASES))
    def test_stale_points_stage_exits_1(self, tmp_path, monkeypatch, capsys, case, command):
        out = reingest(tmp_path, monkeypatch, case)
        capsys.readouterr()
        assert main([*command, *out]) == 1
        err = self.only_error_line(capsys)
        assert "error: stale stage 'points'" in err
        assert "'keyclust vectorize' and 'keyclust reduce'" in err

    def test_stale_model_remedy_on_grown_corpus_stops_at_points(self, tmp_path, monkeypatch, capsys):
        # report's remedy for a stale model is to re-run cluster, which must
        # then stop at the stale points rather than fit the old subset again
        out = reingest(tmp_path, monkeypatch, "grown", *CLUSTER_BOTH)
        capsys.readouterr()
        assert main(["report", *out, "--query", "vaccine"]) == 1
        assert "re-run 'keyclust cluster --mode standard'" in capsys.readouterr().err
        assert main(["cluster", *out, "--query", "vaccine", "--k", "3", "--mode", "standard"]) == 1
        err = capsys.readouterr().err
        assert "error: stale stage 'points'" in err
        assert "'keyclust reduce'" in err

    @pytest.mark.parametrize(
        "done, command, stage, writer",
        [
            (0, ["vectorize"], "chunks", "keyclust ingest"),
            (1, ["reduce"], "vocabulary", "keyclust vectorize"),
            (2, ["cluster", "--query", "vaccine", "--k", "3"], "points", "keyclust reduce"),
            (2, ["elbow", "--k-max", "3"], "points", "keyclust reduce"),
            (3, ["report", "--query", "vaccine"], "model_standard",
             "keyclust cluster --mode standard"),
            (4, ["report", "--query", "vaccine"], "model_modified",
             "keyclust cluster --mode modified"),
        ],
        ids=["vectorize", "reduce", "cluster", "elbow", "report-standard", "report-modified"],
    )
    def test_missing_stage_message(
        self, corpus_dir, tmp_path, capsys, done, command, stage, writer
    ):
        out = tmp_path / "out"
        steps = [
            ["ingest", "--corpus", f"{corpus_dir}:demo"],
            ["vectorize"],
            ["reduce", "--pca-dim", "8"],
            ["cluster", "--query", "vaccine", "--k", "3", "--mode", "standard"],
        ]
        for step in steps[:done]:
            assert main([*step, "--out", str(out)]) == 0
        capsys.readouterr()
        assert main([*command, "--out", str(out)]) == 1
        path = out / "stages" / f"{stage}.jsonl"
        assert capsys.readouterr().err.splitlines()[-1] == (
            f"error: missing stage {stage!r} (stage not found: {path}) — run '{writer}' first"
        )

    @pytest.mark.parametrize("case", list(STALE_CASES))
    def test_stale_model_stage_exits_1(self, tmp_path, monkeypatch, capsys, case):
        out = reingest(tmp_path, monkeypatch, case, *CLUSTER_BOTH)
        capsys.readouterr()
        assert main(["report", *out, "--query", "vaccine"]) == 1
        err = self.only_error_line(capsys)
        assert "error: stale stage 'model_standard'" in err
        assert "re-run 'keyclust cluster --mode standard'" in err
        assert not (tmp_path / "out" / "reports" / "comparison.csv").exists()

    def test_report_query_other_than_the_weights_query_exits_1(self, pipeline_out, tmp_path, capsys):
        out = shutil.copytree(pipeline_out, tmp_path / "out")
        comparison = out / "reports" / "comparison.csv"
        comparison.unlink()
        capsys.readouterr()
        assert main(["report", "--out", str(out), "--query", "genome"]) == 1
        assert self.only_error_line(capsys) == (
            "error: the modified model was weighted for the query words ['vaccine'], not ['genome']"
            " — re-run 'keyclust cluster --mode modified' with this --query"
        )
        assert not comparison.exists()
        assert main(["report", "--out", str(out), "--query", "Vaccine"]) == 0  # the same words
        assert comparison.is_file()

    def test_report_query_compares_the_set_of_words(self, pipeline_out, tmp_path, capsys):
        # the weights take a maximum over the words, so their order and
        # repeats do not change the weights stage
        out = shutil.copytree(pipeline_out, tmp_path / "out")
        assert main(cluster_argv(out, "modified", query="vaccine dose")) == 0
        weights = (out / "stages" / "weights.jsonl").read_bytes()
        for query in ("dose vaccine", "vaccine dose dose"):
            assert main(["report", "--out", str(out), "--query", query]) == 0
            assert main(cluster_argv(out, "modified", query=query)) == 0
            assert (out / "stages" / "weights.jsonl").read_bytes().split(b"\n", 1)[1] == (
                weights.split(b"\n", 1)[1]
            )
        capsys.readouterr()
        assert main(["report", "--out", str(out), "--query", "vaccine"]) == 1
        assert self.only_error_line(capsys).startswith(
            "error: the modified model was weighted for the query words ['vaccine', 'dose', 'dose'], "
            "not ['vaccine']"
        )

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--damping", "nan", "damping_weight must be finite, got nan"),
            ("--damping", "inf", "damping_weight must be finite, got inf"),
            ("--epsilon", "nan", "epsilon must be finite, got nan"),
            ("--threshold", "nan", "threshold must be finite, got nan"),
        ],
        ids=["damping-nan", "damping-inf", "epsilon-nan", "threshold-nan"],
    )
    def test_non_finite_cluster_flag_exits_1(self, pipeline_out, tmp_path, capsys, flag, value, message):
        out = shutil.copytree(pipeline_out, tmp_path / "out")
        before = tree_digest(out)
        capsys.readouterr()
        assert main(cluster_argv(out, "modified", flag, value)) == 1
        assert self.only_error_line(capsys) == f"error: {message}"
        assert tree_digest(out) == before

    @pytest.mark.parametrize(
        "command, flags, message",
        [
            (["cluster", "--query", "vaccine"], ["--seed", "-1"], "seed must be >= 0 and < 2**64, got -1"),
            (["cluster", "--query", "vaccine"], ["--seed", str(2**64)], f"seed must be >= 0 and < 2**64, got {2**64}"),
            (["cluster", "--query", "vaccine"], ["--max-iter", str(2**64)], f"max_iter must be < 2**64, got {2**64}"),
            (["elbow", "--k-max", "3"], ["--seed", "-1"], "seed must be >= 0 and < 2**64, got -1"),
        ],
        ids=["cluster-seed-negative", "cluster-seed-2**64", "cluster-max-iter-2**64", "elbow-seed-negative"],
    )
    def test_cluster_int_out_of_range_exits_1(self, pipeline_out, tmp_path, capsys, command, flags, message):
        # a model record takes these from the command line, and the stage
        # reader keeps integers exact only below 2**64
        out = shutil.copytree(pipeline_out, tmp_path / "out")
        before = tree_digest(out)
        capsys.readouterr()
        assert main([*command, "--out", str(out), *flags]) == 1
        assert self.only_error_line(capsys) == f"error: {message}"
        assert tree_digest(out) == before

    @pytest.mark.parametrize(
        "command, bound",
        [(["cluster", "--query", "vaccine", "--k", "5000"], "k=5000"), (["elbow", "--k-max", "5000"], "k_max=5000")],
        ids=["cluster", "elbow"],
    )
    def test_more_clusters_than_distinct_points_exits_1(self, pipeline_out, tmp_path, capsys, command, bound):
        out = shutil.copytree(pipeline_out, tmp_path / "out")
        before = tree_digest(out)
        # every point of this corpus is distinct: one line per point after the header
        n_points = len((out / "stages" / "points.jsonl").read_text("utf-8").splitlines()) - 1
        capsys.readouterr()
        assert main([*command, "--out", str(out)]) == 1
        assert self.only_error_line(capsys) == f"error: {n_points} distinct points < {bound}"
        assert tree_digest(out) == before

    @pytest.mark.parametrize("top_n", ["0", "-1"])
    def test_top_n_below_1_exits_1(self, pipeline_out, tmp_path, capsys, top_n):
        out = shutil.copytree(pipeline_out, tmp_path / "out")
        for path in (out / "reports").glob("top_terms_*.csv"):
            path.unlink()
        capsys.readouterr()
        assert main(["report", "--out", str(out), "--query", "vaccine", "--top-n", top_n]) == 1
        assert self.only_error_line(capsys) == f"error: --top-n must be >= 1, got {top_n}"
        assert not list((out / "reports").glob("top_terms_*.csv"))

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--top-n", "0"], "--top-n must be >= 1, got 0"),
            (["--damping", "nan"], "damping_weight must be finite, got nan"),
            (["--k", "0"], "k must be >= 1, got 0"),
            (["--seed", "-1"], "seed must be >= 0 and < 2**64, got -1"),
            (["--pca-dim", "0"], "--pca-dim must be >= 1, got 0"),
            (["--max-df-ratio", "nan"], "--max-df-ratio must be a number, got nan"),
        ],
        ids=["top-n-0", "damping-nan", "k-0", "seed-negative", "pca-dim-0", "max-df-ratio-nan"],
    )
    def test_run_all_checks_later_flags_before_it_writes(self, corpus_dir, tmp_path, capsys, flags, message):
        out = tmp_path / "out"
        argv = ["run-all", "--out", str(out), "--corpus", f"{corpus_dir}:demo", "--query", "vaccine", *flags]
        assert main(argv) == 1
        assert self.only_error_line(capsys) == f"error: {message}"
        assert not out.exists()

    @pytest.mark.parametrize("pca_dim", ["0", "-3"])
    def test_reduce_pca_dim_below_1_exits_1(self, pipeline_out, tmp_path, capsys, pca_dim):
        out = shutil.copytree(pipeline_out, tmp_path / "out")
        before = tree_digest(out)
        capsys.readouterr()
        assert main(["reduce", "--out", str(out), "--pca-dim", pca_dim]) == 1
        assert self.only_error_line(capsys) == f"error: --pca-dim must be >= 1, got {pca_dim}"
        assert tree_digest(out) == before

    def test_vectorize_nan_max_df_ratio_exits_1(self, pipeline_out, tmp_path, capsys):
        out = shutil.copytree(pipeline_out, tmp_path / "out")
        before = tree_digest(out)
        capsys.readouterr()
        assert main(["vectorize", "--out", str(out), "--max-df-ratio", "nan"]) == 1
        assert self.only_error_line(capsys) == "error: --max-df-ratio must be a number, got nan"
        assert tree_digest(out) == before

    def test_reduce_of_an_empty_vocabulary_exits_1(self, corpus_dir, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["ingest", "--out", str(out), "--corpus", f"{corpus_dir}:demo"]) == 0
        # every term occurs in more than 0.0001 of the chunks
        assert main(["vectorize", "--out", str(out), "--max-df-ratio", "0.0001"]) == 0
        before = tree_digest(out)
        capsys.readouterr()
        assert main(["reduce", "--out", str(out)]) == 1
        # one error line and no "pca-dim capped to 0" warning before it
        lines = capsys.readouterr().err.splitlines()
        assert [line for line in lines if line.startswith(("error:", "WARNING", "Traceback"))] == [
            "error: the vocabulary is empty: no term passed vectorize's --min-df and --max-df-ratio "
            "— re-run 'keyclust vectorize' with a lower --min-df or a higher --max-df-ratio"
        ]
        assert tree_digest(out) == before

    def test_reduce_of_one_chunk_with_tokens_exits_1(self, tmp_path, capsys):
        corpus, out = tmp_path / "corpus", tmp_path / "out"
        corpus.mkdir()
        body = "The vaccine trial enrolled many volunteers. The booster dose raised antibody levels."
        (corpus / "a.json").write_text(json.dumps({"paper_id": "a", "title": "A", "body_text": [body]}))
        assert main(["ingest", "--out", str(out), "--corpus", f"{corpus}:one"]) == 0
        assert main(["vectorize", "--out", str(out), "--min-df", "1", "--max-df-ratio", "1"]) == 0
        before = tree_digest(out)
        capsys.readouterr()
        assert main(["reduce", "--out", str(out), "--pca-dim", "50"]) == 1
        # one error line and no "pca-dim capped to 0" warning before it
        lines = capsys.readouterr().err.splitlines()
        assert [line for line in lines if line.startswith(("error:", "WARNING", "Traceback"))] == [
            "error: reduce needs at least two chunks with tokens to fit PCA, got 1"
        ]
        assert tree_digest(out) == before

    @pytest.mark.parametrize(
        "header, message",
        [("", "stage 'chunks' has no header"), ("{not json", "stage 'chunks' header is not valid JSON")],
        ids=["empty", "not-json"],
    )
    def test_damaged_header_line_exits_1(self, corpus_dir, tmp_path, capsys, header, message):
        out = tmp_path / "out"
        assert main(["ingest", "--out", str(out), "--corpus", f"{corpus_dir}:demo"]) == 0
        chunks = out / "stages" / "chunks.jsonl"
        rest = chunks.read_text(encoding="utf-8").split("\n", 1)[1]
        chunks.write_text(f"{header}\n{rest}", encoding="utf-8")
        capsys.readouterr()
        assert main(["vectorize", "--out", str(out)]) == 1
        assert self.only_error_line(capsys) == f"error: {message}"

    @pytest.mark.parametrize(
        "files, env_stoplist, message",
        [
            ({"cleaning.json": "{bad"}, None, "cleaning config {dir}/cleaning.json is not valid JSON: "),
            ({}, None, "cannot read cleaning config: [Errno 2] No such file or directory: '{dir}/cleaning.json'"),
            (
                {"cleaning.json": '{"stoplist_path": "stop.txt"}'}, None,
                "cannot read stoplist: [Errno 2] No such file or directory: '{dir}/stop.txt'",
            ),
            (
                {"cleaning.json": '{"removal_patterns_path": "patterns.txt"}'}, None,
                "cannot read removal pattern file: [Errno 2] No such file or directory: '{dir}/patterns.txt'",
            ),
            (
                {"cleaning.json": "{}"}, "stop.txt",
                "cannot read stoplist: [Errno 2] No such file or directory: '{dir}/stop.txt'",
            ),
            (
                {"cleaning.json": '{"stoplist_path": "stop.txt"}', "stop.txt": b"caf\xe9\n"}, None,
                "stoplist {dir}/stop.txt is not valid UTF-8: ",
            ),
            (
                {"cleaning.json": '{"min_token_length": "x"}'}, None,
                "cleaning config {dir}/cleaning.json: min_token_length must be of type int, got 'x'",
            ),
            (
                {"cleaning.json": '{"disallowed_pos": 5}'}, None,
                "cleaning config {dir}/cleaning.json: disallowed_pos must be a list of strings, got 5",
            ),
            (
                {"cleaning.json": '{"removal_patterns": [1]}'}, None,
                "cleaning config {dir}/cleaning.json: removal_patterns must be a list of strings, got [1]",
            ),
            (
                {"cleaning.json": '{"extra_stopwords": "vaccine"}'}, None,
                "cleaning config {dir}/cleaning.json: extra_stopwords must be a list of strings, got 'vaccine'",
            ),
            ({"cleaning.json": '["PRON"]'}, None, "cleaning config {dir}/cleaning.json must be a JSON object"),
            (
                # pos_tag gives only upper-case tags, and no VERB: this filter would drop nothing
                {"cleaning.json": '{"disallowed_pos": ["pron", "VERB"]}'}, None,
                "cleaning config {dir}/cleaning.json: disallowed_pos must hold tags of "
                "NUM, DET, PRON, CONJ, PREP, OPEN, got ['VERB', 'pron']",
            ),
        ],
        ids=[
            "invalid-json", "missing-config", "missing-stoplist-path", "missing-removal-patterns-path",
            "missing-env-stoplist", "stoplist-not-utf8", "min-token-length-str", "disallowed-pos-int",
            "removal-patterns-int", "extra-stopwords-str", "json-array", "disallowed-pos-unknown-tag",
        ],
    )
    def test_bad_cleaning_config_exits_1(
        self, corpus_dir, tmp_path, monkeypatch, capsys, files, env_stoplist, message
    ):
        config_dir = tmp_path / "config"
        config_dir.mkdir()
        for name, content in files.items():
            (config_dir / name).write_bytes(content if isinstance(content, bytes) else content.encode("utf-8"))
        if env_stoplist:
            monkeypatch.setenv("KEYCLUST_STOPLIST", str(config_dir / env_stoplist))
        out = tmp_path / "out"
        config = str(config_dir / "cleaning.json")
        assert main(["ingest", "--out", str(out), "--corpus", f"{corpus_dir}:demo", "--cleaning-config", config]) == 1
        assert self.only_error_line(capsys).startswith("error: " + message.format(dir=config_dir))
        assert not out.exists()

    @pytest.mark.parametrize(
        "command",
        [["cluster", "--query", "vaccine", "--k", "3"], ["report", "--query", "vaccine"],
         ["elbow", "--mode", "modified", "--query", "vaccine"]],
        ids=["cluster", "report", "elbow"],
    )
    def test_bad_cleaning_config_stops_cluster_and_report(self, pipeline_out, tmp_path, capsys, command):
        out = shutil.copytree(pipeline_out, tmp_path / "out")
        before = tree_digest(out)
        config = tmp_path / "cleaning.json"
        config.write_text('{"extra_stopwords": "vaccine"}', encoding="utf-8")
        capsys.readouterr()
        assert main([*command, "--out", str(out), "--cleaning-config", str(config)]) == 1
        assert self.only_error_line(capsys) == (
            f"error: cleaning config {config}: extra_stopwords must be a list of strings, got 'vaccine'"
        )
        assert tree_digest(out) == before

    def test_ingest_of_no_document_exits_1(self, tmp_path, capsys):
        empty, broken = tmp_path / "empty", tmp_path / "broken"
        empty.mkdir()
        broken.mkdir()
        (broken / "a.json").write_text("[]", encoding="utf-8")
        (broken / "b.json").write_text(
            json.dumps({"paper_id": "p1", "title": "T", "body_text": ["Alpha \ud800 beta."]}), encoding="utf-8"
        )
        out = tmp_path / "out"
        argv = ["ingest", "--out", str(out), "--corpus", f"{empty}:a", "--corpus", f"{broken}:b"]
        assert main(argv) == 1
        assert self.only_error_line(capsys) == "error: no documents loaded from any corpus"
        assert not out.exists()

    def test_ingest_under_a_file_exits_1(self, corpus_dir, tmp_path, capsys):
        (tmp_path / "file").write_text("", encoding="utf-8")
        out = tmp_path / "file" / "out"
        assert main(["ingest", "--out", str(out), "--corpus", f"{corpus_dir}:demo"]) == 1
        assert self.only_error_line(capsys).startswith("error: cannot write stage 'documents': ")

    @pytest.mark.parametrize(
        "command",
        [["cluster", "--query", "vaccine", "--k", "3", "--mode", "standard"], ["report", "--query", "vaccine"]],
        ids=["cluster", "report"],
    )
    def test_reports_that_cannot_be_written_exit_1(self, pipeline_out, tmp_path, capsys, command):
        out = shutil.copytree(pipeline_out, tmp_path / "out")
        shutil.rmtree(out / "reports")
        (out / "reports").write_text("", encoding="utf-8")  # a file where the directory goes
        capsys.readouterr()
        assert main([*command, "--out", str(out)]) == 1
        assert self.only_error_line(capsys) == f"error: [Errno 17] File exists: '{out / 'reports'}'"

    def test_zero_batch_size_leaves_stages_unchanged(self, corpus_dir, tmp_path, capsys):
        other = tmp_path / "other"
        write_corpus_dir(other, n_articles=3, seed=1, n_sentences=10)
        out = ["--out", str(tmp_path / "out")]
        assert main(["ingest", *out, "--corpus", f"{corpus_dir}:demo"]) == 0
        before = tree_digest(tmp_path / "out" / "stages")
        capsys.readouterr()
        assert main(["ingest", *out, "--corpus", f"{other}:demo", "--batch-size", "0"]) == 1
        assert "error: batch_size must be >= 1, got 0" in capsys.readouterr().err
        assert tree_digest(tmp_path / "out" / "stages") == before

    def test_truncated_record_line_exits_1(self, corpus_dir, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["ingest", "--out", str(out), "--corpus", f"{corpus_dir}:demo"]) == 0
        chunks = out / "stages" / "chunks.jsonl"
        n_lines = len(chunks.read_text(encoding="utf-8").splitlines())
        with chunks.open("a", encoding="utf-8") as fh:
            fh.write('{"chunk_id": "x", "doc')
        capsys.readouterr()
        assert main(["vectorize", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert f"error: stage 'chunks' line {n_lines + 1} is not valid JSON" in err

    def test_vocabulary_header_without_n_chunks_exits_1(self, corpus_dir, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["ingest", "--out", str(out), "--corpus", f"{corpus_dir}:demo"]) == 0
        assert main(["vectorize", "--out", str(out)]) == 0
        vocab = out / "stages" / "vocabulary.jsonl"
        head, rest = vocab.read_text(encoding="utf-8").split("\n", 1)
        header = json.loads(head)
        del header["n_chunks"]
        vocab.write_text(json.dumps(header) + "\n" + rest, encoding="utf-8")
        capsys.readouterr()
        assert main(["reduce", "--out", str(out)]) == 1
        assert "error: stage 'vocabulary' header has no 'n_chunks'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--restarts", "0"], "restarts must be >= 1"),
            (["--k-min", "3", "--k-max", "2"], "bad k range [3, 2]"),
            (["--threads", "0"], "threads must be >= 1"),
            (["--threads", "-2"], "threads must be >= 1"),
        ],
        ids=["restarts-0", "k-min-above-k-max", "threads-0", "threads-negative"],
    )
    def test_bad_elbow_arguments_exit_1(self, corpus_dir, tmp_path, capsys, flags, message):
        out = tmp_path / "out"
        assert main(["ingest", "--out", str(out), "--corpus", f"{corpus_dir}:demo"]) == 0
        assert main(["vectorize", "--out", str(out)]) == 0
        assert main(["reduce", "--out", str(out), "--pca-dim", "8"]) == 0
        capsys.readouterr()
        assert main(["elbow", "--out", str(out), *flags]) == 1
        assert self.only_error_line(capsys) == f"error: {message}"
        assert not (out / "reports" / "elbow.csv").exists()

    @staticmethod
    def only_error_line(capsys) -> str:
        lines = capsys.readouterr().err.splitlines()
        errors = [line for line in lines if line.startswith("error:")]
        assert len(errors) == 1 and not any("Traceback" in line for line in lines), lines
        return errors[0]

    @pytest.mark.parametrize(
        "damage, message",
        [
            (
                lambda out: main(["vectorize", "--out", str(out), "--min-df", "3"]),
                "stale stage 'points': 'pca' does not record the current digests of its inputs"
                " — re-run 'keyclust reduce'",
            ),
            (
                lambda out: edit_header(out / "stages" / "points.jsonl", inputs=None),
                "stale stage 'points': 'points' does not record the current digests of its inputs"
                " — re-run 'keyclust reduce'",
            ),
            (
                lambda out: edit_header(out / "stages" / "points.jsonl", inputs=[]),
                "stale stage 'points': 'points' does not record the current digests of its inputs"
                " — re-run 'keyclust reduce'",
            ),
            (
                lambda out: edit_header(out / "stages" / "chunks.jsonl", version=1),
                "stage 'chunks' has format version 1, expected 3",
            ),
        ],
        ids=["upstream-rewritten", "inputs-missing", "inputs-not-object", "version-1"],
    )
    def test_damaged_provenance_exits_1(self, pipeline_out, tmp_path, capsys, damage, message):
        out = shutil.copytree(pipeline_out, tmp_path / "out")
        assert damage(out) in (0, None)
        capsys.readouterr()
        assert main(cluster_argv(out, "standard")) == 1
        assert self.only_error_line(capsys) == f"error: {message}"

    def test_header_only_model_stage_exits_1(self, corpus_dir, tmp_path, capsys):
        out = run_pipeline(corpus_dir, tmp_path / "out")
        model = out / "stages" / "model_standard.jsonl"
        model.write_text(model.read_text(encoding="utf-8").split("\n", 1)[0] + "\n", encoding="utf-8")
        capsys.readouterr()
        assert main(["report", "--out", str(out), "--query", "vaccine"]) == 1
        line = self.only_error_line(capsys)
        assert line.startswith("error: stage 'model_standard' holds a record of the wrong shape")

    def test_chunk_record_without_tokens_exits_1(self, corpus_dir, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["ingest", "--out", str(out), "--corpus", f"{corpus_dir}:demo"]) == 0
        drop_first_record_field(out / "stages" / "chunks.jsonl", "tokens")
        capsys.readouterr()
        assert main(["vectorize", "--out", str(out)]) == 1
        assert self.only_error_line(capsys) == (
            "error: stage 'chunks' holds a record of the wrong shape (KeyError: 'tokens')"
        )

    @pytest.mark.parametrize(
        "edit, message",
        [
            (" ".join, "chunk {!r} has tokens of type str"),
            (lambda tokens: dict.fromkeys(tokens, 1), "chunk {!r} has tokens of type dict"),
            (lambda tokens: [tokens], "unhashable type: 'list'"),
        ],
        ids=["str", "dict", "list-in-list"],
    )
    def test_chunk_tokens_that_are_not_a_list_of_strings_exit_1(self, corpus_dir, tmp_path, capsys, edit, message):
        # tokens held as one string were read as its characters and those of
        # an object as its keys, and vectorize wrote both stages; a list among
        # the tokens ended vectorize in a traceback
        out = tmp_path / "out"
        assert main(["ingest", "--out", str(out), "--corpus", f"{corpus_dir}:demo"]) == 0
        chunks = out / "stages" / "chunks.jsonl"
        head, first, rest = chunks.read_text(encoding="utf-8").split("\n", 2)
        record = json.loads(first)
        assert record["tokens"]
        record["tokens"] = edit(record["tokens"])
        chunks.write_text("\n".join([head, json.dumps(record), rest]), encoding="utf-8")
        capsys.readouterr()
        assert main(["vectorize", "--out", str(out)]) == 1
        assert self.only_error_line(capsys) == (
            "error: stage 'chunks' holds a record of the wrong shape "
            f"(TypeError: {message.format(record['chunk_id'])})"
        )
        assert not (out / "stages" / "vocabulary.jsonl").exists()
        assert not (out / "stages" / "vectors.jsonl").exists()

    @pytest.mark.parametrize(
        "field, edit, message",
        [
            (
                "point_ids", lambda ids: ids[1::-1] + ids[2:],
                "stale stage 'model_standard': its points are not the chunks with tokens"
                " — re-run 'keyclust cluster --mode standard'",
            ),
            (
                "point_ids", lambda ids: [*ids[:-1], "other"],
                "stale stage 'model_standard': its points are not the chunks with tokens"
                " — re-run 'keyclust cluster --mode standard'",
            ),
            (
                "point_ids", lambda ids: ids[:-1],
                "stage 'model_standard' holds a record of the wrong shape (ValueError: the final"
                " pass does not hold a primary in [0, 4) and a secondary in [-1, 4) for each of the",
            ),
            (
                "primary", lambda labels: [4, *labels[1:]],
                "stage 'model_standard' holds a record of the wrong shape (ValueError: the final pass",
            ),
            (
                "secondary", lambda labels: [-2, *labels[1:]],
                "stage 'model_standard' holds a record of the wrong shape (ValueError: the final pass",
            ),
        ],
        ids=["swapped", "renamed", "one-id-fewer", "primary-k", "secondary-below-minus-1"],
    )
    def test_model_of_other_points_or_labels_exits_1(self, pipeline_out, tmp_path, capsys, field, edit, message):
        # a model record edited after the fit keeps its header's inputs, so
        # no provenance check stops it before report reads its points and labels
        out = shutil.copytree(pipeline_out, tmp_path / "out")
        path = out / "stages" / "model_standard.jsonl"
        head, line = path.read_text(encoding="utf-8").splitlines()
        record = json.loads(line)
        part = record if field == "point_ids" else record["final"]
        part[field] = edit(part[field])
        path.write_text(f"{head}\n{json.dumps(record)}\n", encoding="utf-8")
        capsys.readouterr()
        assert main(["report", "--out", str(out), "--query", "vaccine"]) == 1
        assert self.only_error_line(capsys).startswith(f"error: {message}")

    def test_document_record_without_label_exits_1(self, pipeline_out, tmp_path, capsys):
        out = shutil.copytree(pipeline_out, tmp_path / "out")
        drop_first_record_field(out / "stages" / "documents.jsonl", "corpus_label")
        capsys.readouterr()
        assert main(["report", "--out", str(out), "--query", "vaccine"]) == 1
        assert self.only_error_line(capsys) == (
            "error: stage 'documents' holds a record of the wrong shape (KeyError: 'corpus_label')"
        )

    @pytest.mark.parametrize("index", [9999, -1], ids=["past-vocabulary", "negative"])
    def test_vector_column_index_outside_vocabulary_exits_1(self, corpus_dir, tmp_path, capsys, index):
        out = tmp_path / "out"
        assert main(["ingest", "--out", str(out), "--corpus", f"{corpus_dir}:demo"]) == 0
        assert main(["vectorize", "--out", str(out)]) == 0
        vectors = out / "stages" / "vectors.jsonl"
        head, first, rest = vectors.read_text(encoding="utf-8").split("\n", 2)
        record = json.loads(first)
        record["entries"][0][0] = index
        vectors.write_text("\n".join([head, json.dumps(record), rest]), encoding="utf-8")
        capsys.readouterr()
        assert main(["reduce", "--out", str(out), "--pca-dim", "8"]) == 1
        line = self.only_error_line(capsys)
        assert line.startswith("error: stage 'vectors' holds a record of the wrong shape")
        assert record["chunk_id"] in line
        assert not (out / "stages" / "points.jsonl").exists()

    def test_vector_column_index_past_int64_exits_1(self, corpus_dir, tmp_path, capsys):
        # JSON reads 2**64 - 1 as an int, which no int64 index array holds
        out = tmp_path / "out"
        assert main(["ingest", "--out", str(out), "--corpus", f"{corpus_dir}:demo"]) == 0
        assert main(["vectorize", "--out", str(out)]) == 0
        vectors = out / "stages" / "vectors.jsonl"
        head, first, rest = vectors.read_text(encoding="utf-8").split("\n", 2)
        record = json.loads(first)
        record["entries"][0][0] = 2**64 - 1
        vectors.write_text("\n".join([head, json.dumps(record), rest]), encoding="utf-8")
        capsys.readouterr()
        assert main(["reduce", "--out", str(out), "--pca-dim", "8"]) == 1
        assert self.only_error_line(capsys).startswith(
            "error: stage 'vectors' holds a record of the wrong shape (OverflowError:"
        )
        assert not (out / "stages" / "points.jsonl").exists()

    @pytest.mark.parametrize(
        "argv",
        [["cluster", "--query", "vaccine", "--k", "3", "--mode", "standard"], ["elbow", "--k-max", "3"]],
        ids=["cluster", "elbow"],
    )
    def test_ragged_point_record_exits_1(self, corpus_dir, tmp_path, capsys, argv):
        out = tmp_path / "out"
        assert main(["ingest", "--out", str(out), "--corpus", f"{corpus_dir}:demo"]) == 0
        assert main(["vectorize", "--out", str(out)]) == 0
        assert main(["reduce", "--out", str(out), "--pca-dim", "8"]) == 0
        points = out / "stages" / "points.jsonl"
        head, first, second, rest = points.read_text(encoding="utf-8").split("\n", 3)
        record = json.loads(second)
        record["coords"].pop()
        points.write_text("\n".join([head, first, json.dumps(record), rest]), encoding="utf-8")
        capsys.readouterr()
        assert main([*argv, "--out", str(out)]) == 1
        line = self.only_error_line(capsys)
        assert line.startswith("error: stage 'points' holds a record of the wrong shape")
        assert record["chunk_id"] in line

    def test_old_model_schema_exits_1(self, corpus_dir, tmp_path, capsys):
        out = run_pipeline(corpus_dir, tmp_path / "out")
        model = out / "stages" / "model_modified.jsonl"
        head, rest = model.read_text(encoding="utf-8").split("\n", 1)
        header = json.loads(head)
        header["schema"] = "cluster-model"  # the record with per-iteration distances
        model.write_text(json.dumps(header) + "\n" + rest, encoding="utf-8")
        capsys.readouterr()
        assert main(["report", "--out", str(out), "--query", "vaccine"]) == 1
        assert self.only_error_line(capsys) == (
            "error: stage 'model_modified' holds schema 'cluster-model', expected 'cluster-model-2'"
        )

    def test_parse_failures_logged_but_not_fatal(self, tmp_path, caplog):
        corpus = tmp_path / "corpus"
        write_corpus_dir(corpus, n_articles=3, seed=0, n_sentences=12)
        (corpus / "broken.json").write_text("{", encoding="utf-8")
        (corpus / "surrogate.json").write_text(
            json.dumps({"paper_id": "bad", "title": "T", "body_text": ["Alpha \ud800 beta."]}), encoding="utf-8"
        )
        out = tmp_path / "out"
        assert main(["ingest", "--out", str(out), "--corpus", f"{corpus}:demo"]) == 0
        assert caplog.text.count("skipped") == 2 and "surrogates not allowed" in caplog.text
        lines = (out / "stages" / "documents.jsonl").read_text(encoding="utf-8").splitlines()[1:]
        assert [json.loads(line)["doc_id"] for line in lines] == [f"demo/paper000{i}" for i in range(3)]

    def test_one_label_for_two_corpora_loads_each_id_once(self, tmp_path, caplog):
        # both corpora hold paper0000..paper0003, so under one label they share ids
        caplog.set_level(logging.INFO)
        corpora = [f"{tmp_path / f'c{seed}'}:x" for seed in (0, 1)]
        for seed in (0, 1):
            write_corpus_dir(tmp_path / f"c{seed}", n_articles=4, seed=seed, n_sentences=12)
        out, first = tmp_path / "out", tmp_path / "first"
        assert main(["ingest", "--out", str(out), "--corpus", corpora[0], "--corpus", corpora[1]]) == 0
        for stage, key in (("documents", "doc_id"), ("chunks", "chunk_id")):
            lines = (out / "stages" / f"{stage}.jsonl").read_text(encoding="utf-8").splitlines()[1:]
            ids = [json.loads(line)[key] for line in lines]
            assert ids and len(ids) == len(set(ids)), stage
        assert caplog.text.count("duplicate paper_id 'x/paper") == 4
        assert "(4 files failed)" in caplog.text
        # the first corpus's documents are kept
        assert main(["ingest", "--out", str(first), "--corpus", corpora[0]]) == 0
        assert tree_digest(out) == tree_digest(first)


@pytest.fixture(scope="module")
def pipeline_out(corpus_dir, tmp_path_factory):
    return run_pipeline(corpus_dir, tmp_path_factory.mktemp("pipeline") / "out")


def standard_outputs(out: Path) -> dict[str, str]:
    digests = tree_digest(out)
    return {
        name: digest for name, digest in digests.items()
        if name == "stages/model_standard.jsonl"
        or (name.startswith("reports/iteration") and "_standard" in name)
    }


def cluster_argv(out: Path, mode: str, *flags: str, query: str = "vaccine") -> list[str]:
    # the cluster call of run_pipeline, plus flags
    return ["cluster", "--out", str(out), "--query", query, "--k", "4", "--mode", mode,
            "--seed", "7", *flags]


class TestModelReuse:
    """A model stage whose header records this call's inputs, and whose
    record and iteration reports still hash to their recorded digests, is
    reused: ``cluster`` fits nothing (modified mode still writes the weights)."""

    @pytest.fixture
    def out(self, pipeline_out, tmp_path):
        copy = tmp_path / "out"
        shutil.copytree(pipeline_out, copy)
        return copy

    @pytest.fixture
    def fits(self, monkeypatch):
        from keyclust import cluster

        calls = []
        real_run = cluster.run

        def counting_run(ids, X, w, config):
            calls.append(config.mode)
            return real_run(ids, X, w, config)

        monkeypatch.setattr(cluster, "run", counting_run)
        return calls

    def test_standard_model_reused_for_a_new_query(self, out, monkeypatch, caplog):
        from keyclust import cluster

        def no_fit(ids, X, w, config):
            raise AssertionError("the standard model was fitted again")

        monkeypatch.setattr(cluster, "run", no_fit)
        caplog.set_level(logging.INFO, logger="keyclust")
        before = standard_outputs(out)
        weights = (out / "stages" / "weights.jsonl").read_bytes()
        assert main(cluster_argv(out, "standard", query="genome")) == 0
        assert "standard model is current; reused" in caplog.text
        assert standard_outputs(out) == before
        assert len(before) > 2  # the model stage, the CSV and at least one SVG
        assert (out / "stages" / "weights.jsonl").read_bytes() == weights  # standard reads no query

    def test_modified_model_refitted_for_a_new_query(self, out, fits):
        model = out / "stages" / "model_modified.jsonl"
        before = model.read_bytes()
        assert main(cluster_argv(out, "modified", query="genome")) == 0
        assert fits == ["modified"]
        assert model.read_bytes() != before

    @pytest.mark.parametrize(
        "mode, flags",
        [
            ("standard", ["--k", "3"]),
            ("standard", ["--seed", "8"]),
            ("standard", ["--max-iter", "2"]),
            ("modified", ["--threshold", "0.05"]),
            ("standard", ["--seeding", "partial"]),
        ],
        ids=["k", "seed", "max-iter", "threshold", "seeding"],
    )
    def test_changed_config_refits(self, out, fits, mode, flags):
        assert main(cluster_argv(out, mode, *flags)) == 0
        assert fits == [mode]
        header = json.loads((out / "stages" / f"model_{mode}.jsonl").read_text().split("\n", 1)[0])
        flag, value = flags
        assert str(header["inputs"]["config"][flag[2:].replace("-", "_")]) == value

    def test_new_points_refit(self, out, fits):
        assert main(["reduce", "--out", str(out), "--pca-dim", "6"]) == 0
        assert main(cluster_argv(out, "standard")) == 0
        assert fits == ["standard"]

    def test_standard_threshold_is_not_an_input(self, out, fits):
        # standard mode forces threshold and damping to zero
        before = standard_outputs(out)
        assert main(cluster_argv(out, "standard", "--threshold", "0.05", "--damping", "0.2")) == 0
        assert fits == []
        assert standard_outputs(out) == before

    @staticmethod
    def _edit_line(path: Path, index: int, edit) -> None:
        lines = path.read_text(encoding="utf-8").split("\n")
        lines[index] = edit(lines[index])
        path.write_text("\n".join(lines), encoding="utf-8")

    DAMAGE = {
        "svg-deleted": lambda r, s: (r / "iteration_standard_001.svg").unlink(),
        "svg-edited": lambda r, s: (r / "iteration_standard_001.svg").write_text("<svg/>\n"),
        "csv-deleted": lambda r, s: (r / "iterations_standard.csv").unlink(),
        "csv-edited": lambda r, s: (r / "iterations_standard.csv").write_text("iteration\n"),
        "extra-svg": lambda r, s: (r / "iteration_standard_099.svg").write_text("<svg/>\n"),
        "record-edited": lambda r, s: TestModelReuse._edit_line(
            s, 1, lambda line: line.replace('"converged":', '"converged": ', 1)
        ),
        "header-only": lambda r, s: s.write_text(s.read_text().split("\n", 1)[0] + "\n"),
        "truncated": lambda r, s: s.write_bytes(s.read_bytes()[:-100]),
        "previous-format": lambda r, s: TestModelReuse._edit_line(
            s, 0, lambda line: json.dumps(
                {k: v for k, v in json.loads(line).items() if k not in ("inputs", "outputs")}
            )
        ),
    }

    @pytest.mark.parametrize("damage", list(DAMAGE))
    def test_damaged_outputs_refit_to_a_fresh_tree(self, out, pipeline_out, fits, damage):
        self.DAMAGE[damage](out / "reports", out / "stages" / "model_standard.jsonl")
        assert main(cluster_argv(out, "standard")) == 0
        assert fits == ["standard"]
        assert tree_digest(out) == tree_digest(pipeline_out)

    @staticmethod
    def resave_chunks(out: Path, edit) -> None:
        store = StageStore(out / "stages", "chunks")
        records, meta = store.load_with_meta("chunk")
        edit(records)
        store.save(records, "chunk", {**meta, "note": "re-saved"})

    def test_header_only_rewrite_keeps_downstream_current(self, out, fits, capsys):
        chunks = out / "stages" / "chunks.jsonl"
        before = chunks.read_bytes()
        self.resave_chunks(out, lambda records: None)
        assert chunks.read_bytes() != before
        assert chunks.read_bytes().split(b"\n", 1)[1] == before.split(b"\n", 1)[1]
        capsys.readouterr()
        assert main(cluster_argv(out, "standard")) == 0
        assert fits == []  # the points and the model are still current
        assert main(["report", "--out", str(out), "--query", "vaccine"]) == 0
        self.resave_chunks(out, lambda records: records[0].update(raw_text="edited"))
        assert main(cluster_argv(out, "standard")) == 1
        assert "error: stale stage 'points': 'vocabulary' does not record" in capsys.readouterr().err

    def test_reused_run_equals_fresh_run(self, corpus_dir, pipeline_out, tmp_path, fits, caplog):
        out = tmp_path / "twice"
        argv = ["run-all", "--out", str(out), "--corpus", f"{corpus_dir}:demo",
                "--query", "vaccine", "--k", "4", "--seed", "7", "--pca-dim", "8"]
        assert main(argv) == 0
        assert fits == ["standard", "modified"]
        caplog.set_level(logging.INFO, logger="keyclust")
        caplog.clear()
        assert main(argv) == 0
        assert fits == ["standard", "modified"]  # no fit on the second run
        assert "standard model is current; reused" in caplog.text
        assert "modified model is current; reused" in caplog.text
        assert tree_digest(out) == tree_digest(run_pipeline(corpus_dir, tmp_path / "fresh"))


class TestCommandLog:
    """Each command logs one line with its name, wall time and the process's
    peak resident memory, and writes nothing for it under --out."""

    @staticmethod
    def timing_lines(caplog) -> list[str]:
        return [r.getMessage() for r in caplog.records if r.name == "keyclust" and " took " in r.getMessage()]

    def test_one_line_per_command(self, corpus_dir, tmp_path, caplog):
        caplog.set_level(logging.INFO, logger="keyclust")
        out = tmp_path / "out"
        assert main(["ingest", "--out", str(out), "--corpus", f"{corpus_dir}:demo"]) == 0
        assert main(["vectorize", "--out", str(out)]) == 0
        lines = self.timing_lines(caplog)
        assert len(lines) == 2, lines
        for line, command in zip(lines, ("ingest", "vectorize")):
            assert re.fullmatch(rf"{command} took \d+\.\d{{3}} s, peak RSS \d+\.\d MB", line), line
            assert float(line.rsplit(" ", 2)[1]) > 0
        assert sorted(p.name for p in out.rglob("*")) == [
            "chunks.jsonl", "documents.jsonl", "stages", "vectors.jsonl", "vocabulary.jsonl",
        ]

    def test_failed_and_chained_commands(self, corpus_dir, tmp_path, caplog, monkeypatch):
        caplog.set_level(logging.INFO, logger="keyclust")
        assert main(["reduce", "--out", str(tmp_path / "empty")]) == 1
        monkeypatch.setattr(cli, "resource", None)  # as on a platform without it
        assert main([
            "run-all", "--out", str(tmp_path / "out"), "--corpus", f"{corpus_dir}:demo",
            "--query", "vaccine", "--k", "3", "--pca-dim", "8",
        ]) == 0
        lines = self.timing_lines(caplog)
        assert len(lines) == 2, lines
        assert re.fullmatch(r"reduce took \d+\.\d{3} s, peak RSS \d+\.\d MB", lines[0]), lines[0]
        assert re.fullmatch(r"run-all took \d+\.\d{3} s", lines[1]), lines[1]


class TestElbowWorkerLog:
    """``elbow`` logs its runs and worker processes on a line of its own,
    and leaves no worker process or thread behind."""

    @pytest.fixture
    def out(self, pipeline_out, tmp_path, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        return shutil.copytree(pipeline_out, tmp_path / "out")

    @staticmethod
    def elbow(out, threads):
        return main([
            "elbow", "--out", str(out), "--k-min", "1", "--k-max", "4", "--restarts", "3",
            "--seed", "7", "--threads", str(threads),
        ])

    @staticmethod
    def worker_lines(caplog) -> list[str]:
        return [r.getMessage() for r in caplog.records if r.getMessage().startswith("elbow: ")]

    def test_pooled_scan(self, out, caplog):
        caplog.set_level(logging.INFO, logger="keyclust")
        threads = threading.active_count()
        assert self.elbow(out, 2) == 0
        assert multiprocessing.active_children() == []
        assert threading.active_count() == threads
        [line] = self.worker_lines(caplog)
        match = re.fullmatch(r"elbow: 12 runs on 2 worker processes, largest worker peak RSS (\d+\.\d) MB", line)
        assert match, line
        assert float(match.group(1)) > 0
        [took] = TestCommandLog.timing_lines(caplog)
        assert re.fullmatch(r"elbow took \d+\.\d{3} s, peak RSS \d+\.\d MB", took), took

    def test_one_worker_and_no_resource_module(self, out, caplog, monkeypatch):
        caplog.set_level(logging.INFO, logger="keyclust")
        assert self.elbow(out, 1) == 0
        monkeypatch.setattr(cli, "resource", None)  # as on a platform without it
        assert self.elbow(out, 4) == 0
        assert self.worker_lines(caplog) == [
            "elbow: 12 runs in this process", "elbow: 12 runs on 2 worker processes",
        ]


class TestStageScans:
    """Each stage file is scanned (header checked, records hashed) at most
    once per command."""

    @pytest.fixture
    def out(self, pipeline_out, tmp_path):
        return shutil.copytree(pipeline_out, tmp_path / "out")

    @pytest.mark.parametrize(
        "argv",
        [
            lambda out: cluster_argv(out, "standard"),
            lambda out: cluster_argv(out, "standard", "--k", "3"),
            lambda out: cluster_argv(out, "modified"),
            lambda out: cluster_argv(out, "modified", "--threshold", "0.05"),
            lambda out: ["report", "--out", str(out), "--query", "vaccine"],
        ],
        ids=["standard-reused", "standard-refit", "modified-reused", "modified-refit", "report"],
    )
    def test_each_stage_scanned_at_most_once(self, out, monkeypatch, argv):
        scans = []
        real_scan = StageStore.scan
        monkeypatch.setattr(
            StageStore, "scan", lambda store, schema: scans.append(store.stage_name) or real_scan(store, schema)
        )
        assert main(argv(out)) == 0
        assert scans and len(scans) == len(set(scans)), scans


class TestEnvOverride:
    def test_cleaning_config_flag_resolves_its_stoplist_path(self, corpus_dir, tmp_path, monkeypatch):
        config_dir = tmp_path / "config"
        config_dir.mkdir()
        stoplist = sorted(default_stoplist() | {"vaccine"})
        (config_dir / "stop.txt").write_text("\n".join(stoplist) + "\n", encoding="utf-8")
        (config_dir / "cleaning.json").write_text('{"stoplist_path": "stop.txt"}', encoding="utf-8")
        elsewhere = tmp_path / "elsewhere"
        elsewhere.mkdir()
        monkeypatch.chdir(elsewhere)  # a relative path resolves against the config's directory
        out = tmp_path / "out"
        assert main([
            "ingest", "--out", str(out), "--corpus", f"{corpus_dir}:demo",
            "--cleaning-config", str(config_dir / "cleaning.json"),
        ]) == 0
        chunks = (out / "stages" / "chunks.jsonl").read_text().splitlines()[1:]
        tokens = {t for line in chunks for t in json.loads(line)["tokens"]}
        assert "vaccine" not in tokens and "antibody" in tokens

    def test_stoplist_env_var(self, corpus_dir, tmp_path, monkeypatch):
        stop = tmp_path / "stop.txt"
        # an empty stoplist keeps determiners out via POS tagging but admits
        # verbs like "the"? no: "the" is DET, still POS-removed; use a marker
        stop.write_text("within\n", encoding="utf-8")
        out = tmp_path / "out"
        monkeypatch.setenv("KEYCLUST_STOPLIST", str(stop))
        assert main(["ingest", "--out", str(out), "--corpus", f"{corpus_dir}:demo"]) == 0
        chunks = (out / "stages" / "chunks.jsonl").read_text().splitlines()[1:]
        tokens = {t for line in chunks for t in json.loads(line)["tokens"]}
        assert "within" not in tokens  # stoplisted by the override file
        assert "study" in tokens or "sample" in tokens  # normal words survive
