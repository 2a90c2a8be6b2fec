import json
import pickle
import time
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from keyclust.errors import InvalidPattern
from keyclust.preprocess import (
    _STRIP_CHARS,
    _TERMINAL,
    ABBREVIATIONS,
    Chunk,
    POS_TAGS,
    CleaningConfig,
    chunk_sizes,
    clean_text,
    clean_tokens,
    load_cleaning_config,
    load_stoplist,
    make_chunks,
    pos_tag,
    segment_sentences,
)

from oracles import clean_token_oracle, segment_sentences_oracle


def segment_oracle(body):
    return segment_sentences_oracle(body, ABBREVIATIONS, _TERMINAL, _STRIP_CHARS)



class TestSegmentSentences:
    def test_basic_boundary(self):
        assert segment_sentences("A b. C d.") == ["A b.", "C d."]

    def test_decimal_guard(self):
        got = segment_sentences("Rate was 2.5 per day. Next.")
        assert got == ["Rate was 2.5 per day.", "Next."]

    def test_empty(self):
        assert segment_sentences("") == []
        assert segment_sentences("   \n ") == []

    def test_abbreviation_guard(self):
        got = segment_sentences("See Fig. 3 for details. More follows.")
        assert got == ["See Fig. 3 for details.", "More follows."]
        got = segment_sentences("The study by Smith et al. Showed nothing new.")
        assert got == ["The study by Smith et al. Showed nothing new."]

    def test_initial_guard(self):
        got = segment_sentences("Written by V. B. Surya and others. Next point.")
        assert got == ["Written by V. B. Surya and others.", "Next point."]

    def test_lowercase_continuation_not_split(self):
        got = segment_sentences("The virus (approx. 120 nm) spreads. It mutates.")
        assert got == ["The virus (approx. 120 nm) spreads.", "It mutates."]

    def test_question_and_exclamation(self):
        got = segment_sentences("Why did it spread? Nobody knew! The data came later.")
        assert got == ["Why did it spread?", "Nobody knew!", "The data came later."]

    def test_whitespace_normalized_content_preserved(self):
        body = "First   sentence here.\n\nSecond  one   follows. And a third."
        got = segment_sentences(body)
        assert "".join("".join(s.split()) for s in got) == "".join(body.split())

    @given(st.text(max_size=300))
    @settings(max_examples=150)
    def test_non_whitespace_content_always_preserved(self, body):
        sentences = segment_sentences(body)
        assert "".join("".join(s.split()) for s in sentences) == "".join(body.split())

    @pytest.mark.parametrize(
        "body",
        [
            "See Fig. 3 for details. More follows. The study by Smith et al. Showed it.",
            "Written by V. B. Surya and others. Next point. I. Roman numeral? Yes.",
            'He said "Stop." Then left. (See the table.) After that [ref.] Nothing.',
            "It ended.\u201d Then it began.\u2019 Again! Really? Yes.",
            "First paragraph ends here.\n\nSecond paragraph starts. Fig.\n\nThree.",
            "Non-breaking\xa0space.\xa0Next one. Thin\u2009space.\u2009After it.",
            "Ideographic\u3000space.\u3000After. Separator.\x1cControl. Em\u2003space.\u2003Done.",
            "Written by\xa0V. Smith. Shown in\u2009Fig. Three. The\u3000approx. Value.",
            "Them\x1cvs. Us. That\u2003i.e. This. Smith\u202fet al. Found it.",
            "Trailing e.g. Example here. i.e. That one. approx. Ten. vs. Them.",
            "Nested \"quote.\") Next. Multiple stops... Then more!! Really?! Yes.",
        ],
    )
    def test_matches_prefix_regex_oracle(self, body):
        assert segment_sentences(body) == segment_oracle(body)

    @given(st.text(alphabet="Ab .!?\"')]\n\xa0\u2009\u3000eFig", max_size=200))
    @settings(max_examples=200)
    def test_matches_oracle_on_generated_bodies(self, body):
        assert segment_sentences(body) == segment_oracle(body)

    def test_long_body_segments_in_linear_time(self):
        body = " ".join(
            f"Sentence {i} cites Fig. {i % 7} and Smith et al. on the vaccine trial."
            for i in range(4000)
        )
        started = time.perf_counter()
        got = segment_sentences(body)
        elapsed = time.perf_counter() - started
        assert len(got) == 4000
        assert elapsed < 2.0, f"4000 sentences took {elapsed:.2f}s"


class TestMakeChunks:
    @pytest.mark.parametrize(
        "n,expected",
        [
            (0, []),
            (1, [1]),
            (2, [2]),
            (3, [3]),
            (4, [2, 2]),
            (5, [3, 2]),
            (6, [3, 3]),
            (7, [3, 2, 2]),
            (9, [3, 3, 3]),
            (10, [3, 3, 2, 2]),
        ],
    )
    def test_size_policy(self, n, expected):
        assert chunk_sizes(n) == expected

    def test_chunks_carry_text_and_ids(self, clean_config):
        sentences = [f"Sentence {i}." for i in range(7)]
        chunks = make_chunks("doc1", sentences, clean_config)
        assert [c.sentence_count for c in chunks] == [3, 2, 2]
        assert [c.chunk_id for c in chunks] == ["doc1#0000", "doc1#0001", "doc1#0002"]
        assert chunks[0].raw_text == "Sentence 0. Sentence 1. Sentence 2."
        assert all(c.tokens == tuple(clean_text(c.raw_text, clean_config)) for c in chunks)

    @given(st.integers(min_value=0, max_value=400))
    def test_every_sentence_in_exactly_one_chunk(self, clean_config, n):
        sentences = [f"S{i}" for i in range(n)]
        chunks = make_chunks("d", sentences, clean_config)
        regrouped = [s for c in chunks for s in c.raw_text.split()]
        assert regrouped == sentences
        if n > 1:
            assert all(2 <= c.sentence_count <= 3 for c in chunks)


class TestPosTag:
    @pytest.mark.parametrize(
        "token,tag",
        [
            ("they", "PRON"),
            ("the", "DET"),
            ("because", "CONJ"),
            ("between", "PREP"),
            ("42", "NUM"),
            ("2.5", "NUM"),
            ("seven", "NUM"),
            ("vaccine", "OPEN"),
            ("codon", "OPEN"),
        ],
    )
    def test_tags(self, token, tag):
        assert pos_tag(token) == tag


@pytest.fixture(scope="module")
def cleaning_configs(clean_config):
    """The default rules, a larger stoplist, and custom patterns with a longer
    minimum length and another part-of-speech filter."""
    return [
        clean_config,
        CleaningConfig(stoplist=clean_config.stoplist | {"vaccine", "trial", "codon", "xray"}),
        CleaningConfig(stoplist=frozenset({"Codon"}), removal_patterns=(r"^zap\d+$", r"^x", r"^\W+$"),
                       disallowed_pos=frozenset({"PREP", "DET"}), min_token_length=4),
    ]


class TestCleanTokens:
    def test_spec_sentence(self, clean_config):
        got = clean_text("The vaccine was tested in 2020 (https://x.y) [12].", clean_config)
        assert got == ["vaccine", "tested"]

    def test_all_stopword_chunk_keeps_empty_tokens(self, clean_config):
        chunk = Chunk(
            chunk_id="c", doc_id="d", raw_text="It is the of.", sentence_count=1
        )
        cleaned = clean_tokens(chunk, clean_config)
        assert cleaned.tokens == ()
        assert cleaned.raw_text == "It is the of."

    def test_codon_sentence(self, clean_config):
        # expected list fixed by hand-running the documented rules
        got = clean_text("Codon adaptation predicts the best codon", clean_config)
        assert got == ["codon", "adaptation", "predicts", "best", "codon"]

    def test_citation_and_figure_references(self, clean_config):
        got = clean_text("Results in Table 3 and [4, 5] match fig. 2 (see www.x.org/a).", clean_config)
        assert got == ["results", "match", "see"]

    def test_hyphenated_terms_survive(self, clean_config):
        assert clean_text("The SARS-CoV-2 genome.", clean_config) == ["sars-cov-2", "genome"]

    def test_min_token_length(self, clean_config):
        assert clean_text("x vaccine y", clean_config) == ["vaccine"]

    def test_idempotent_on_examples(self, clean_config):
        texts = [
            "The vaccine was tested in 2020 (https://x.y) [12].",
            "Codon adaptation predicts the best codon",
            "Numbers 1 2.5 1,000 10.1101/2020 and doi:10.1101/x go away.",
        ]
        for text in texts:
            once = clean_text(text, clean_config)
            again = clean_text(" ".join(once), clean_config)
            assert again == once

    @given(text=st.text(alphabet=st.characters(blacklist_categories=("Cs",)), max_size=120))
    @settings(max_examples=150)
    def test_output_never_contains_removed_classes(self, text, clean_config):
        out = clean_text(text, clean_config)
        for tok in out:
            assert tok == tok.lower()
            assert len(tok) >= clean_config.min_token_length
            assert tok not in clean_config.stoplist
            assert pos_tag(tok) not in clean_config.disallowed_pos

    @given(text=st.text(alphabet=st.characters(blacklist_categories=("Cs",)), max_size=120))
    @settings(max_examples=100)
    def test_idempotence_property(self, text, clean_config):
        once = clean_text(text, clean_config)
        assert clean_text(" ".join(once), clean_config) == once

    def test_determinism(self, clean_config):
        text = "The efficacy of the vaccine trial [3] was 95% by 2021."
        assert clean_text(text, clean_config) == clean_text(text, clean_config)


    def test_memo_is_per_config(self, clean_config):
        text = "Vaccine vaccine, VACCINE trial (trial) 95% the vaccine."
        want = ["vaccine", "vaccine", "vaccine", "trial", "trial", "vaccine"]
        assert clean_text(text, clean_config) == want
        equal = CleaningConfig(stoplist=set(clean_config.stoplist))
        assert equal == clean_config and equal is not clean_config
        assert clean_text(text, equal) == want
        stricter = CleaningConfig(stoplist=clean_config.stoplist | {"vaccine"})
        assert clean_text(text, stricter) == ["trial", "trial"]
        looser = CleaningConfig(stoplist=clean_config.stoplist, min_token_length=6)
        assert clean_text(text, looser) == ["vaccine", "vaccine", "vaccine", "vaccine"]
        assert clean_text(text, clean_config) == want
        # each config holds its own cleaner, which equality and hashing leave out
        assert equal.clean is not clean_config.clean
        assert hash(equal) == hash(clean_config)
        copied = replace(clean_config)
        assert copied == clean_config and copied.clean is not clean_config.clean
        unpickled = pickle.loads(pickle.dumps(looser))
        assert unpickled == looser and clean_text(text, unpickled) == clean_text(text, looser)
        assert clean_text(text, replace(clean_config, min_token_length=6)) == clean_text(text, looser)
        with pytest.raises(InvalidPattern):
            CleaningConfig(stoplist=frozenset(), removal_patterns=("[unclosed",))
        with pytest.raises(InvalidPattern):
            replace(clean_config, removal_patterns=("(",))

    @given(st.lists(
        st.sampled_from(["The", "vaccine,", "Vaccine", "(trial)", "Trial.", "[12]", "Fig.", "fig2", "95%",
                         "2.5", "www.x.org/a", "doi:10.1/x", "it", "Between", "zap12", "xray", "codon;", "--",
                         "SARS-CoV-2", "seven"])
        | st.text(alphabet=st.characters(blacklist_categories=("Cs",)), max_size=12),
        max_size=40,
    ))
    @settings(max_examples=200)
    def test_memoized_cleaner_equals_the_rules(self, cleaning_configs, raw_tokens):
        # the configs live across examples, so repeated tokens hit each memo
        text = " ".join(raw_tokens)
        for config in cleaning_configs:
            want = [clean_token_oracle(tok, config, _STRIP_CHARS, pos_tag) for tok in text.split()]
            assert [config.clean(tok) for tok in text.split()] == want
            assert clean_text(text, config) == [tok for tok in want if tok is not None]


class TestCleaningConfig:
    def test_invalid_pattern(self):
        with pytest.raises(InvalidPattern):
            CleaningConfig(stoplist=frozenset(), removal_patterns=("[unclosed",))

    def test_tag_the_tagger_never_gives(self, clean_config):
        # upper-case tags only, and no VERB: such a filter would drop nothing
        message = r"disallowed_pos must hold tags of NUM, DET, PRON, CONJ, PREP, OPEN, got \['VERB', 'pron'\]"
        with pytest.raises(InvalidPattern, match=message):
            CleaningConfig(stoplist=frozenset(), disallowed_pos=frozenset({"VERB", "pron"}))
        with pytest.raises(InvalidPattern, match=message):
            replace(clean_config, disallowed_pos=frozenset({"pron", "VERB", "PRON"}))

    def test_stoplist_normalized_lowercase(self):
        cfg = CleaningConfig(stoplist=frozenset({"The", "AND"}))
        assert cfg.stoplist == frozenset({"the", "and"})

    def test_load_stoplist_file(self, tmp_path):
        path = tmp_path / "stop.txt"
        path.write_text("Alpha\nbeta\n\n  gamma \n", encoding="utf-8")
        assert load_stoplist(path) == frozenset({"alpha", "beta", "gamma"})

    def test_config_from_json(self, tmp_path):
        cfg_path = tmp_path / "cleaning.json"
        cfg_path.write_text(
            '{"extra_stopwords": ["virus"], "min_token_length": 3}', encoding="utf-8"
        )
        cfg = load_cleaning_config(cfg_path)
        assert "virus" in cfg.stoplist
        assert "the" in cfg.stoplist
        assert cfg.min_token_length == 3

    @pytest.mark.parametrize(
        "tags, kept",
        [
            ([], ["although", "another", "anybody", "vaccine", "seven"]),
            (["PRON", "CONJ"], ["another", "vaccine", "seven"]),
            (list(POS_TAGS), []),
        ],
        ids=["none", "pron-conj", "every-tag"],
    )
    def test_config_filters_each_tag_pos_tag_gives(self, tmp_path, tags, kept):
        cfg_path = tmp_path / "cleaning.json"
        cfg_path.write_text(json.dumps({"disallowed_pos": tags}), encoding="utf-8")
        cfg = load_cleaning_config(cfg_path)
        assert clean_text("although another anybody vaccine seven", cfg) == kept

    def test_config_stoplist_override(self, tmp_path):
        alt = tmp_path / "alt.txt"
        alt.write_text("onlyme\n", encoding="utf-8")
        cfg_path = tmp_path / "cleaning.json"
        cfg_path.write_text("{}", encoding="utf-8")
        cfg = load_cleaning_config(cfg_path, stoplist_override=alt)
        assert cfg.stoplist == frozenset({"onlyme"})

    def test_default_config_loads_packaged_stoplist(self, clean_config):
        assert "the" in clean_config.stoplist
        assert "best" not in clean_config.stoplist

    def test_pattern_file(self, tmp_path):
        (tmp_path / "patterns.txt").write_text(r"^zap\d+$" + "\n\n", encoding="utf-8")
        cfg_path = tmp_path / "cleaning.json"
        cfg_path.write_text(
            '{"removal_patterns_path": "patterns.txt"}', encoding="utf-8"
        )
        cfg = load_cleaning_config(cfg_path)
        assert cfg.removal_patterns == (r"^zap\d+$",)
        assert clean_text("zap12 keeper", cfg) == ["keeper"]


class TestChunkDocument:
    def test_sentence_coverage_per_document(self, clean_config):
        from keyclust.corpus import Document
        from keyclust.preprocess import chunk_document

        body = " ".join(f"Sentence number {i} talks about vaccines." for i in range(11))
        doc = Document(doc_id="lab/p1", title="T", body=body, corpus_label="lab")
        chunks = chunk_document(doc, clean_config)
        regrouped = " ".join(c.raw_text for c in chunks)
        assert regrouped == " ".join(segment_sentences(body))
        assert [c.sentence_count for c in chunks] == [3, 3, 3, 2]
        assert all(c.doc_id == "lab/p1" for c in chunks)
        assert all("vaccines" in c.tokens for c in chunks)

    def test_each_chunk_is_built_once_with_its_tokens(self, clean_config):
        # each chunk's tokens are its raw text cleaned, under an equal config made apart too
        from keyclust.corpus import Document
        from keyclust.preprocess import chunk_document

        body = "The vaccine trial ended. It enrolled 95 people, see Fig. 2. " * 7
        doc = Document(doc_id="lab/p2", title="T", body=body, corpus_label="lab")
        equal = CleaningConfig(stoplist=set(clean_config.stoplist))
        chunks = chunk_document(doc, equal)
        assert len(chunks) == 5
        assert [c.tokens for c in chunks] == [tuple(clean_text(c.raw_text, clean_config)) for c in chunks]
        assert chunks == make_chunks(doc.doc_id, segment_sentences(body), clean_config)
        assert all(c.tokens for c in chunks)
