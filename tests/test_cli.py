import hashlib
import json
import shutil
from pathlib import Path

import pytest

from keyclust.cli import main

from conftest import write_corpus_dir


def tree_digest(root: Path) -> dict[str, str]:
    out = {}
    for path in sorted(root.rglob("*")):
        if path.is_file():
            out[str(path.relative_to(root))] = hashlib.sha256(path.read_bytes()).hexdigest()
    return out


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("corpus")
    write_corpus_dir(path, n_articles=12, seed=3, n_sentences=45)
    return path


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
        first = run_pipeline(corpus_dir, tmp_path / "one")
        second = run_pipeline(corpus_dir, tmp_path / "two")
        assert tree_digest(first) == tree_digest(second)

    def test_threads_do_not_change_outputs(self, corpus_dir, tmp_path):
        one = run_pipeline(corpus_dir, tmp_path / "t1", threads=1)
        four = run_pipeline(corpus_dir, tmp_path / "t4", threads=4)
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
            ["elbow", "--mode", "modified", "--query", "vaccine", "--k-max", "3"],
        ],
    )
    def test_stale_points_stage_exits_1(self, tmp_path, capsys, command):
        corpus, first_half = tmp_path / "corpus", tmp_path / "first_half"
        write_corpus_dir(corpus, n_articles=8, seed=0, n_sentences=20)
        write_corpus_dir(first_half, n_articles=4, seed=0, n_sentences=20)
        out = ["--out", str(tmp_path / "out")]
        assert main(["ingest", *out, "--corpus", f"{corpus}:synthetic"]) == 0
        assert main(["vectorize", *out]) == 0
        assert main(["reduce", *out, "--pca-dim", "10"]) == 0
        assert main(["ingest", *out, "--corpus", f"{first_half}:synthetic"]) == 0
        capsys.readouterr()
        assert main([*command, *out]) == 1
        err = capsys.readouterr().err
        assert "error: stale stage 'points'" in err
        assert "'keyclust reduce'" in err

    def test_parse_failures_logged_but_not_fatal(self, tmp_path, caplog):
        corpus = tmp_path / "corpus"
        write_corpus_dir(corpus, n_articles=3, seed=0, n_sentences=12)
        (corpus / "broken.json").write_text("{", encoding="utf-8")
        out = tmp_path / "out"
        assert main(["ingest", "--out", str(out), "--corpus", f"{corpus}:demo"]) == 0
        assert "skipped" in caplog.text


class TestEnvOverride:
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
