import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from keyclust.corpus import Document, StageStore, batch_iter, encode_record, load_corpus
from keyclust.errors import InvalidBatchSize, MissingPath, SchemaMismatch, StageIoError

from conftest import toy_chunk


def write_article(path, paper_id="p1", title="T", body=("Alpha beta.", "Gamma delta.")):
    path.write_text(
        json.dumps({"paper_id": paper_id, "title": title, "body_text": list(body)}),
        encoding="utf-8",
    )


class TestLoadCorpus:
    def test_empty_directory(self, tmp_path):
        report = load_corpus(tmp_path, "lab")
        assert report.documents == []
        assert report.errors == []

    def test_two_valid_files_in_filename_order(self, tmp_path):
        write_article(tmp_path / "b.json", paper_id="second")
        write_article(tmp_path / "a.json", paper_id="first")
        report = load_corpus(tmp_path, "lab")
        assert [d.doc_id for d in report.documents] == ["lab/first", "lab/second"]
        assert report.errors == []

    def test_malformed_file_reported_not_dropped(self, tmp_path):
        write_article(tmp_path / "a.json")
        (tmp_path / "b.json").write_text("{not json", encoding="utf-8")
        report = load_corpus(tmp_path, "lab")
        assert len(report.documents) == 1
        assert len(report.errors) == 1
        assert "b.json" in report.errors[0].path

    def test_body_joined_with_blank_lines(self, tmp_path):
        write_article(tmp_path / "a.json", body=["One.", "Two."])
        report = load_corpus(tmp_path, "lab")
        assert report.documents[0].body == "One.\n\nTwo."
        assert report.documents[0].corpus_label == "lab"

    def test_empty_body_rejected(self, tmp_path):
        write_article(tmp_path / "a.json", body=[])
        write_article(tmp_path / "b.json", body=["  ", ""])
        report = load_corpus(tmp_path, "lab")
        assert report.documents == []
        assert len(report.errors) == 2

    def test_missing_required_field(self, tmp_path):
        (tmp_path / "a.json").write_text(json.dumps({"paper_id": "x"}), encoding="utf-8")
        report = load_corpus(tmp_path, "lab")
        assert len(report.errors) == 1
        assert "missing required field" in report.errors[0].message

    @pytest.mark.parametrize(
        "article, message",
        [
            (["p1", "T", ["Alpha."]], "article JSON must be an object"),
            ({"paper_id": "", "title": "T", "body_text": ["Alpha."]}, "paper_id must be a non-empty string"),
            ({"paper_id": "p1", "title": None, "body_text": ["Alpha."]}, "title must be a string"),
            ({"paper_id": "p1", "title": "T", "body_text": "Alpha."}, "body_text must be a list of paragraph strings"),
            # json.loads reads the escape "\\ud800" as a lone surrogate, which no UTF-8 stage can hold
            (
                {"paper_id": "p1", "title": "T", "body_text": ["Alpha \ud800."]},
                "'utf-8' codec can't encode character '\\ud800' in position 6: surrogates not allowed",
            ),
        ],
        ids=["not-an-object", "paper-id-empty", "title-not-str", "body-text-str", "lone-surrogate"],
    )
    def test_article_of_the_wrong_shape_reported(self, tmp_path, article, message):
        (tmp_path / "a.json").write_text(json.dumps(article), encoding="utf-8")
        report = load_corpus(tmp_path, "lab")
        assert report.documents == []
        assert [e.message for e in report.errors] == [message]

    def test_duplicate_paper_id(self, tmp_path):
        write_article(tmp_path / "a.json", paper_id="same")
        write_article(tmp_path / "b.json", paper_id="same")
        report = load_corpus(tmp_path, "lab")
        assert len(report.documents) == 1
        assert "duplicate" in report.errors[0].message

    def test_missing_path(self, tmp_path):
        with pytest.raises(MissingPath):
            load_corpus(tmp_path / "nope", "lab")

    def test_deterministic(self, tmp_path):
        for i in range(5):
            write_article(tmp_path / f"f{i}.json", paper_id=f"p{i}")
        first = load_corpus(tmp_path, "lab")
        second = load_corpus(tmp_path, "lab")
        assert first.documents == second.documents


class TestBatchIter:
    def test_paper_batching_120_docs(self):
        docs = list(range(120))
        sizes = [len(b) for b in batch_iter(docs, 50)]
        assert sizes == [50, 50, 20]

    def test_fewer_docs_than_batch(self):
        assert [len(b) for b in batch_iter([1, 2, 3], 50)] == [3]

    def test_empty(self):
        assert list(batch_iter([], 7)) == []

    def test_zero_batch_size(self):
        with pytest.raises(InvalidBatchSize):
            list(batch_iter([1], 0))

    def test_zero_batch_size_raises_at_call(self):
        with pytest.raises(InvalidBatchSize):
            batch_iter([1], 0)

    @given(st.lists(st.integers(), max_size=200), st.integers(min_value=1, max_value=60))
    def test_flatten_is_identity(self, docs, batch_size):
        batches = list(batch_iter(docs, batch_size))
        assert [x for b in batches for x in b] == docs
        assert all(len(b) == batch_size for b in batches[:-1])


class TestStageStore:
    def test_chunk_round_trip(self, tmp_path):
        chunks = [toy_chunk(f"c{i}", ["alpha", "beta"]) for i in range(5)]
        store = StageStore(root_path=tmp_path, stage_name="chunks")
        assert store.save((c.to_record() for c in chunks), schema="chunk") == 5
        loaded = store.load_with_meta("chunk")[0]
        assert loaded == [{**c.to_record(), "tokens": list(c.tokens)} for c in chunks]

    def test_document_round_trip(self, tmp_path):
        docs = [
            Document(doc_id=f"l/p{i}", title=f"T{i}", body="Some body.", corpus_label="l")
            for i in range(3)
        ]
        store = StageStore(root_path=tmp_path, stage_name="documents")
        store.save([d.to_record() for d in docs], schema="document")
        assert [Document.from_record(r) for r in store.load_with_meta("document")[0]] == docs

    def test_load_missing_stage(self, tmp_path):
        store = StageStore(root_path=tmp_path, stage_name="ghost")
        with pytest.raises(StageIoError):
            store.load_with_meta("chunk")[0]

    def test_schema_mismatch(self, tmp_path):
        store = StageStore(root_path=tmp_path, stage_name="stage")
        store.save([{"a": 1}], schema="alpha")
        with pytest.raises(SchemaMismatch):
            store.load_with_meta("beta")[0]

    def test_empty_sequence(self, tmp_path):
        store = StageStore(root_path=tmp_path, stage_name="empty")
        assert store.save([], schema="chunk") == 0
        assert store.load_with_meta("chunk")[0] == []

    def test_save_is_byte_deterministic(self, tmp_path):
        recs = [{"b": 2.5, "a": [1, 2], "c": "x"}] * 3
        s1 = StageStore(root_path=tmp_path / "one", stage_name="s")
        s2 = StageStore(root_path=tmp_path / "two", stage_name="s")
        s1.save(recs, schema="r")
        s2.save(recs, schema="r")
        assert s1.path.read_bytes() == s2.path.read_bytes()

    def test_failed_save_keeps_old_file_and_leaves_no_temp(self, tmp_path):
        store = StageStore(root_path=tmp_path, stage_name="s")
        store.save([{"a": 1}], schema="r")
        before = store.path.read_bytes()

        def records():
            yield {"a": 2}
            raise ValueError("bad record")

        with pytest.raises(ValueError, match="bad record"):
            store.save(records(), schema="r")
        assert store.path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["s.jsonl"]

    def test_unwritable_stage_is_a_stage_io_error(self, tmp_path):
        store = StageStore(root_path=tmp_path, stage_name="s")
        (tmp_path / "s.jsonl" / "inside").mkdir(parents=True)  # a directory the stage cannot replace
        with pytest.raises(StageIoError, match="cannot write stage 's': "):
            store.save([{"a": 1}], schema="r")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["s.jsonl"]

    def test_stage_root_under_a_file_is_a_stage_io_error(self, tmp_path):
        (tmp_path / "out").write_text("", encoding="utf-8")
        store = StageStore(root_path=tmp_path / "out" / "stages", stage_name="s")
        with pytest.raises(StageIoError, match="cannot write stage 's': .*Not a directory"):
            store.save([{"a": 1}], schema="r")

    def test_temp_file_that_cannot_be_removed_keeps_the_write_error(self, tmp_path):
        # open fails on the directory, and so does removing it afterwards
        (tmp_path / "s.jsonl.tmp").mkdir()
        store = StageStore(root_path=tmp_path, stage_name="s")
        with pytest.raises(StageIoError, match="cannot write stage 's': .*Is a directory"):
            store.save([{"a": 1}], schema="r")
        assert [p.name for p in tmp_path.iterdir()] == ["s.jsonl.tmp"]

    def test_undecodable_record_line(self, tmp_path):
        store = StageStore(root_path=tmp_path, stage_name="s")
        store.save([{"a": 1}, {"a": 2}], schema="r")
        with store.path.open("a", encoding="utf-8") as fh:
            fh.write('{"a": 3, "b')
        with pytest.raises(SchemaMismatch, match="stage 's' line 4 is not valid JSON"):
            store.load_with_meta("r")[0]

    def test_undecodable_bytes(self, tmp_path):
        store = StageStore(root_path=tmp_path, stage_name="s")
        store.save([{"a": 1}], schema="r")
        with store.path.open("ab") as fh:
            fh.write(b"\xff\n")
        with pytest.raises(SchemaMismatch, match="stage 's' is not valid UTF-8"):
            store.load_with_meta("r")[0]

    @pytest.mark.parametrize(
        "line",
        [
            b"NaN", b"Infinity", b"-Infinity", b"-0.0", b"5e-324", b"1e400",
            str(2**63).encode(), str(2**64 - 1).encode(), b'"\\ud800"', b'{"a":1,"a":2}',
            "\"na\u00efve \u2603 \U0001f600\"".encode(), b"[1,2,]", b'{"a":', b"\xff",
            b" \t", "\u00a0".encode(),
        ],
        ids=[
            "nan", "inf", "-inf", "-0.0", "subnormal", "overflow", "2**63", "2**64-1", "lone-surrogate",
            "duplicate-key", "non-ascii", "trailing-comma", "truncated", "xff", "blank", "nbsp-blank",
        ],
    )
    def test_record_line_reads_as_json_loads_reads_its_text(self, tmp_path, line):
        # the value json.loads gives the line's UTF-8 text, compared as encoded
        # so that -0.0 and NaN count, or the error it raises; blank lines are skipped
        line += b"\n"
        store = StageStore(root_path=tmp_path, stage_name="s")
        store.save([], schema="r")
        with store.path.open("ab") as fh:
            fh.write(line)
        try:
            text = line.decode("utf-8")
            expected = [] if not text.strip() else [json.loads(text)]
        except UnicodeDecodeError:
            with pytest.raises(SchemaMismatch, match="^stage 's' is not valid UTF-8: 'utf-8' codec can't decode"):
                store.load_with_meta("r")
            return
        except json.JSONDecodeError as exc:
            with pytest.raises(SchemaMismatch) as info:
                store.load_with_meta("r")
            assert str(info.value) == f"stage 's' line 2 is not valid JSON: {exc}"
            return
        records = store.load_with_meta("r")[0]
        assert [encode_record({"v": r}) for r in records] == [encode_record({"v": r}) for r in expected]

    def test_decoder_takes_records_one_line_at_a_time(self, tmp_path):
        store = StageStore(root_path=tmp_path, stage_name="s")
        store.save([{"a": 1}, {"a": 2}], schema="r", meta={"n": 2})
        with store.path.open("a", encoding="utf-8") as fh:
            fh.write('{"a": 3, "b')
        seen = []

        def decode(records, meta):
            assert meta == {"n": 2}
            for record in records:
                seen.append(record["a"])
            return seen

        with pytest.raises(SchemaMismatch, match="stage 's' line 4 is not valid JSON"):
            store.load_with_meta("r", decode)
        assert seen == [1, 2]  # decoded before the bad line was parsed
        store.save([{"a": 1}, {"a": 2}], schema="r", meta={"n": 2})
        assert store.load_with_meta("r", lambda rs, meta: sum(r["a"] for r in rs) * meta["n"]) == (6, {"n": 2})

    def test_meta_round_trip(self, tmp_path):
        store = StageStore(root_path=tmp_path, stage_name="vocab")
        store.save([{"term": "x"}], schema="vocab-term", meta={"n_chunks": 7})
        records, meta = store.load_with_meta("vocab-term")
        assert meta == {"n_chunks": 7}
        assert records == [{"term": "x"}]

    @settings(max_examples=50)
    @given(
        records=st.lists(
            st.dictionaries(
                st.text(
                    alphabet=st.characters(blacklist_categories=("Cs",)), max_size=8
                ),
                st.one_of(
                    st.integers(min_value=-(2**53), max_value=2**53),
                    st.floats(allow_nan=False),
                    st.text(
                        alphabet=st.characters(blacklist_categories=("Cs",)), max_size=8
                    ),
                    st.booleans(),
                    st.none(),
                ),
                max_size=4,
            ),
            max_size=10,
        )
    )
    @example(records=[{"a": -0.0, "b": 5e-324, "c": 2**53}])
    def test_round_trip_identity_property(self, records, tmp_path_factory):
        store = StageStore(
            root_path=tmp_path_factory.mktemp("stage"), stage_name="prop"
        )
        store.save(records, schema="any")
        # compared as encoded: == would let -0.0 pass for 0.0
        assert [encode_record(r) for r in store.load_with_meta("any")[0]] == [encode_record(r) for r in records]


class TestEncodeRecord:
    @pytest.mark.parametrize(
        "record",
        [
            {"v": float("nan")},
            {"v": [float("inf"), float("-inf")]},
            {"v": -0.0},
            {"v": "\ud800 lone surrogate"},
            {"v": "naïve café — 東京"},
            {"z": {"b": [1, {"y": 2, "x": None}], "a": True}, "a": 1.5},
        ],
        ids=["nan", "inf", "negative-zero", "lone-surrogate", "non-ascii", "nested-unsorted-keys"],
    )
    def test_same_text_as_json_dumps(self, record):
        want = json.dumps(record, ensure_ascii=False, sort_keys=True, separators=(",", ":"))
        assert encode_record(record) == want
        # reused, the encoder keeps no state from one record to the next
        assert encode_record(record) == want
