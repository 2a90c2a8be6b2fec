"""Document chunking and token cleaning.

Each document body is segmented into sentences, grouped into 2-3 sentence
chunks (the unit that gets vectorized and clustered), and tokenized.
Cleaning strips everything that carries no topical signal: stopwords,
numbers, URLs, citation markers, figure/table references, and closed-class
words caught by a small lexicon POS tagger.
"""

from __future__ import annotations

import functools
import json
import re
import string
from dataclasses import dataclass, field, replace
from importlib import resources
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, Mapping, Sequence

import numpy as np

from .corpus import Document
from .errors import InvalidPattern, MissingPath

_TERMINAL = ".!?"

# Words that commonly precede a period without ending the sentence.
ABBREVIATIONS = frozenset(
    {
        "al", "approx", "ca", "cf", "dr", "e.g", "eq", "eqs", "et", "etc",
        "fig", "figs", "i.e", "mr", "mrs", "ms", "no", "prof", "ref", "refs",
        "sec", "st", "tab", "vs",
    }
)

# Leading/trailing characters stripped from tokens. Interior punctuation is
# kept so hyphenated terms and URLs survive until pattern matching.
_STRIP_CHARS = string.punctuation + "“”‘’–—…"

DEFAULT_REMOVAL_PATTERNS: tuple[str, ...] = (
    r"^\d+(?:[.,:/]\d+)*$",
    r"^[+-]?\d+(?:\.\d+)?%?$",
    r"^(?:https?://|www\.)\S+$",
    r"^doi:?\S*$",
    r"^\[\d+(?:\s*[,;–-]\s*\d+)*\]$",
    r"^(?:fig|figs|figure|figures|tab|table|tables|eq|eqs|sec|ref|refs)\.?\d*$",
)

# Closed-class lexicons for the rule tagger. Anything not matched is treated
# as an open-class word and kept.
PRONOUNS = frozenset(
    """i me my mine myself we us our ours ourselves you your yours yourself
    yourselves he him his himself she her hers herself it its itself they
    them their theirs themselves this that these those who whom whose which
    what anyone anybody anything everyone everybody everything someone
    somebody something none nobody nothing oneself""".split()
)
DETERMINERS = frozenset(
    """a an the some any no every each either neither both all few many much
    several enough such another other certain""".split()
)
CONJUNCTIONS = frozenset(
    """and or but nor so yet for because although though while whereas if
    unless since until when whenever where wherever after before once than
    whether lest""".split()
)
PREPOSITIONS = frozenset(
    """of in on at by with from to into onto over under between among
    through during without within against about above below across behind
    beyond per via upon toward towards off out up down around near beside
    besides despite except along amid throughout underneath""".split()
)
NUMBER_WORDS = frozenset(
    """zero one two three four five six seven eight nine ten eleven twelve
    thirteen fourteen fifteen sixteen seventeen eighteen nineteen twenty
    thirty forty fifty sixty seventy eighty ninety hundred thousand million
    billion first second third fourth fifth sixth seventh eighth ninth
    tenth""".split()
)
_NUMERAL = re.compile(r"^[+-]?\d[\d.,:/%-]*$")

DEFAULT_DISALLOWED_POS = frozenset({"PRON", "DET", "CONJ", "NUM"})
POS_TAGS = ("NUM", "DET", "PRON", "CONJ", "PREP", "OPEN")  # every tag pos_tag gives
# distinct raw tokens whose cleaned form is remembered per config
CLEAN_CACHE_SIZE = 1 << 14


def pos_tag(token: str) -> str:
    """Tag a lowercase token with its closed-class part of speech.

    Precedence: NUM (digit pattern or number word), DET, PRON, CONJ, PREP.
    Unmatched tokens are open class ("OPEN").
    """
    if _NUMERAL.match(token) or token in NUMBER_WORDS:
        return "NUM"
    if token in DETERMINERS:
        return "DET"
    if token in PRONOUNS:
        return "PRON"
    if token in CONJUNCTIONS:
        return "CONJ"
    if token in PREPOSITIONS:
        return "PREP"
    return "OPEN"


@dataclass(frozen=True)
class Chunk:
    """A 2-3 sentence unit of one document; the clustering atom."""

    chunk_id: str
    doc_id: str
    raw_text: str
    sentence_count: int
    tokens: tuple[str, ...] = ()

    def to_record(self) -> dict[str, Any]:
        return dict(vars(self))


def _token_list(rec: Mapping[str, Any]) -> list[str]:
    """The tokens of chunk record ``rec``, which must be a list."""
    tokens = rec["tokens"]
    if not isinstance(tokens, list):
        raise TypeError(f"chunk {rec['chunk_id']!r} has tokens of type {type(tokens).__name__}")
    return tokens


def chunk_tokens(records: Iterable[Mapping[str, Any]]) -> Iterator[tuple[str, list[str]]]:
    """``(chunk_id, tokens)`` of each chunk record with tokens, read from the
    record as it comes, with no ``Chunk`` built. A record's tokens must be a list."""
    for rec in records:
        tokens = _token_list(rec)
        if tokens:
            yield rec["chunk_id"], tokens


@dataclass(frozen=True, eq=False)
class TokenTable:
    """The chunks stage, one row per chunk in stage order. Row r's tokens are
    ``term_ids[offsets[r]:offsets[r + 1]]``, ids into ``terms``, which is in
    Python string order, so term ids order as their terms do. ``point_rows``
    are the rows with tokens: the vectors' rows and a model's points, in order."""

    chunk_ids: list[str]
    doc_ids: list[str]
    raw_texts: list[str]
    terms: list[str]
    term_ids: np.ndarray
    offsets: np.ndarray
    point_rows: np.ndarray

    @classmethod
    def from_records(cls, records: Iterable[Mapping[str, Any]], tokens_only: bool = False) -> "TokenTable":
        """The table of chunk records, taking what it keeps of each record as
        the record is parsed. A record's tokens must be a list. With
        ``tokens_only`` it reads only ids and tokens, and ``doc_ids`` and
        ``raw_texts`` are empty."""
        chunk_ids, doc_ids, raw_texts, tokens = [], [], [], []
        offsets = [0]
        first: dict[str, str] = {}  # each term's first string, so that repeats are freed
        for rec in records:
            toks = _token_list(rec)
            chunk_ids.append(rec["chunk_id"])
            if not tokens_only:
                doc_ids.append(rec["doc_id"])
                raw_texts.append(rec["raw_text"])
            tokens += map(first.setdefault, toks, toks)
            offsets.append(len(tokens))
        terms = sorted(first)
        index = {term: i for i, term in enumerate(terms)}
        term_ids = np.fromiter(map(index.__getitem__, tokens), dtype=np.intp, count=len(tokens))
        ends = np.array(offsets, dtype=np.intp)
        return cls(chunk_ids, doc_ids, raw_texts, terms, term_ids, ends, np.flatnonzero(np.diff(ends)))

    @property
    def point_ids(self) -> list[str]:
        """The ids of the chunks with tokens, in order: a current model's ``point_ids``."""
        return [self.chunk_ids[r] for r in self.point_rows.tolist()]


def chunk_sizes(n_sentences: int) -> list[int]:
    """Greedy grouping of ``n_sentences`` sentences into chunks of three.

    A remainder of one sentence would leave a lonely chunk, so the last
    four sentences are split 2+2 instead; only a single-sentence document
    yields a one-sentence chunk.
    """
    if n_sentences >= 4 and n_sentences % 3 == 1:
        return [3] * ((n_sentences - 4) // 3) + [2, 2]
    full, rem = divmod(n_sentences, 3)
    return [3] * full + ([rem] if rem else [])


@dataclass(frozen=True)
class CleaningConfig:
    """Token-cleaning rules: stoplist, removal regexes, POS filter.

    ``clean`` is the rules as a function of one whitespace-free token,
    returning its kept form or None if dropped. It is built with the config
    from its patterns, compiled once, and remembers each distinct raw token's
    result for as long as the config lives. Equality, hashing and ``repr``
    leave it out, and ``replace`` builds a new one. A removal pattern that
    does not compile, or a ``disallowed_pos`` tag not in ``POS_TAGS``, is an
    InvalidPattern; a ``min_token_length`` not an int is a TypeError.
    """

    stoplist: frozenset[str]
    removal_patterns: tuple[str, ...] = DEFAULT_REMOVAL_PATTERNS
    disallowed_pos: frozenset[str] = DEFAULT_DISALLOWED_POS
    min_token_length: int = 2
    clean: Callable[[str], str | None] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if type(self.min_token_length) is not int:
            raise TypeError(f"min_token_length must be an int, got {self.min_token_length!r}")
        object.__setattr__(self, "stoplist", frozenset(map(str.lower, self.stoplist)))
        object.__setattr__(self, "removal_patterns", tuple(self.removal_patterns))
        object.__setattr__(self, "disallowed_pos", frozenset(self.disallowed_pos))
        patterns = []
        for pat in self.removal_patterns:
            try:
                patterns.append(re.compile(pat))
            except re.error as exc:
                raise InvalidPattern(f"removal pattern {pat!r} does not compile: {exc}") from exc
        unknown = sorted(set(self.disallowed_pos) - set(POS_TAGS))
        if unknown:  # a tag the tagger never gives would filter nothing
            raise InvalidPattern(f"disallowed_pos must hold tags of {', '.join(POS_TAGS)}, got {unknown}")
        # the memo holds the rules, not the config, so it makes no reference cycle
        stoplist, min_length, disallowed = self.stoplist, self.min_token_length, self.disallowed_pos

        @functools.lru_cache(maxsize=CLEAN_CACHE_SIZE)
        def clean(raw: str) -> str | None:
            tok = raw.lower()
            if any(p.match(tok) for p in patterns):
                return None
            tok = tok.strip(_STRIP_CHARS)
            if not tok or any(p.match(tok) for p in patterns):
                return None
            if len(tok) < min_length:
                return None
            if tok in stoplist:
                return None
            if pos_tag(tok) in disallowed:
                return None
            return tok

        object.__setattr__(self, "clean", clean)

    def __reduce__(self):
        # the memo is a local function, which pickle cannot name: rebuild from the rules
        return CleaningConfig, (self.stoplist, self.removal_patterns, self.disallowed_pos, self.min_token_length)

    def to_record(self) -> dict[str, Any]:
        """The rules as JSON values, sets sorted: ``CleaningConfig(**record)`` rebuilds an equal config."""
        return {"stoplist": sorted(self.stoplist), "removal_patterns": list(self.removal_patterns),
                "disallowed_pos": sorted(self.disallowed_pos), "min_token_length": self.min_token_length}


def default_stoplist() -> frozenset[str]:
    text = resources.files("keyclust").joinpath("data/stopwords_en.txt").read_text("utf-8")
    return frozenset(w.strip().lower() for w in text.splitlines() if w.strip())


def _read_text(path: str | Path, what: str) -> str:
    """The text of UTF-8 file ``path``; a file that cannot be read is a
    MissingPath, and one not UTF-8 an InvalidPattern, each naming ``what``."""
    try:
        return Path(path).read_text("utf-8")
    except OSError as exc:
        raise MissingPath(f"cannot read {what}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise InvalidPattern(f"{what} {path} is not valid UTF-8: {exc}") from exc


def load_stoplist(path: str | Path) -> frozenset[str]:
    """Plain UTF-8 stoplist, one entry per line."""
    return frozenset(w.strip().lower() for w in _read_text(path, "stoplist").splitlines() if w.strip())


def load_patterns(path: str | Path) -> tuple[str, ...]:
    """Plain UTF-8 removal-pattern file, one regular expression per line."""
    return tuple(line.strip() for line in _read_text(path, "removal pattern file").splitlines() if line.strip())


def default_cleaning_config() -> CleaningConfig:
    return CleaningConfig(stoplist=default_stoplist())


# the type of each field of a cleaning config; a list holds strings
_CONFIG_FIELDS = {"stoplist_path": str, "extra_stopwords": list, "removal_patterns": list,
                  "removal_patterns_path": str, "disallowed_pos": list, "min_token_length": int}


def load_cleaning_config(path: str | Path) -> CleaningConfig:
    """Build a :class:`CleaningConfig` from a JSON config file.

    Recognized keys (all optional): ``stoplist_path``, ``extra_stopwords``,
    ``removal_patterns`` (inline list, replaces the defaults),
    ``removal_patterns_path`` (pattern file, one regex per line; not with
    ``removal_patterns``), ``disallowed_pos``, ``min_token_length``. Relative
    paths resolve against the config file's directory. A file that cannot be
    read is a MissingPath; text not JSON, a field of another type
    (``_CONFIG_FIELDS``), both pattern keys, or a ``disallowed_pos`` tag not
    in ``POS_TAGS``, an InvalidPattern.
    """
    path = Path(path)
    try:
        raw = json.loads(_read_text(path, "cleaning config"))
    except json.JSONDecodeError as exc:
        raise InvalidPattern(f"cleaning config {path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise InvalidPattern(f"cleaning config {path} must be a JSON object")
    for key, kind in _CONFIG_FIELDS.items():
        value = raw.get(key, kind())
        if type(value) is not kind or kind is list and not all(isinstance(v, str) for v in value):
            kind_name = "a list of strings" if kind is list else f"of type {kind.__name__}"
            raise InvalidPattern(f"cleaning config {path}: {key} must be {kind_name}, got {value!r}")
    if "removal_patterns" in raw and "removal_patterns_path" in raw:
        raise InvalidPattern(f"cleaning config {path} names both removal_patterns and removal_patterns_path")
    # a relative path resolves against the config's directory; ``/`` keeps an absolute one
    stoplist_path = raw.get("stoplist_path")
    stop = set(load_stoplist(path.parent / stoplist_path) if stoplist_path else default_stoplist())
    stop.update(w.lower() for w in raw.get("extra_stopwords", []))
    patterns = tuple(raw.get("removal_patterns", DEFAULT_REMOVAL_PATTERNS))
    if "removal_patterns_path" in raw:
        patterns = load_patterns(path.parent / raw["removal_patterns_path"])
    try:
        return CleaningConfig(
            stoplist=frozenset(stop),
            removal_patterns=patterns,
            disallowed_pos=frozenset(raw.get("disallowed_pos", DEFAULT_DISALLOWED_POS)),
            min_token_length=raw.get("min_token_length", 2),
        )
    except InvalidPattern as exc:  # a tag or pattern the config itself rejects
        raise InvalidPattern(f"cleaning config {path}: {exc}") from exc


def segment_sentences(body: str) -> list[str]:
    """Split ``body`` into sentences.

    A boundary is a run of ``.``, ``!`` or ``?`` (plus any closing quotes or
    brackets) followed by whitespace and an uppercase letter. Two guards
    suppress false boundaries: the preceding word is a known abbreviation
    ("fig.", "et al.", "i.e.") or a single capital initial ("V. B. Surya").
    Periods inside numbers never match because a digit, not whitespace,
    follows them. Whitespace inside each sentence is normalized to single
    spaces, so joining the result with single spaces preserves the body's
    non-whitespace content.
    """
    if not body or not body.strip():
        return []
    sentences: list[str] = []
    start = 0
    for m in re.finditer(r"[.!?]+[\"'”’)\]]*\s+", body):
        nxt = body[m.end()] if m.end() < len(body) else ""
        if not nxt.isupper():
            continue
        # the preceding word runs back from the terminal to the last
        # whitespace (str.isspace is the test the regex \s uses)
        word_start = m.start()
        while word_start > 0 and not body[word_start - 1].isspace():
            word_start -= 1
        raw = body[word_start : m.start() + 1]
        word = raw.rstrip(_TERMINAL).lstrip(_STRIP_CHARS).lower()
        if word in ABBREVIATIONS:
            continue
        if len(word) == 1 and word.isalpha() and raw[0].isupper():
            continue
        piece = " ".join(body[start : m.end()].split())
        if piece:
            sentences.append(piece)
        start = m.end()
    tail = " ".join(body[start:].split())
    if tail:
        sentences.append(tail)
    return sentences


def make_chunks(doc_id: str, sentences: Sequence[str], config: CleaningConfig) -> list[Chunk]:
    """Group sentences into chunks per ``chunk_sizes``, each with its tokens
    cleaned by ``config``'s rules.

    Every sentence lands in exactly one chunk, in order. Chunk ids are the
    document id plus a zero-padded ordinal.
    """
    chunks: list[Chunk] = []
    pos = 0
    for ordinal, size in enumerate(chunk_sizes(len(sentences))):
        text = " ".join(sentences[pos : pos + size])
        pos += size
        tokens = tuple(clean_text(text, config))
        chunks.append(Chunk(f"{doc_id}#{ordinal:04d}", doc_id, text, size, tokens))
    return chunks


def clean_text(text: str, config: CleaningConfig) -> list[str]:
    """Apply the cleaning rules to whitespace-split tokens of ``text``.

    Per token: lowercase; drop removal-pattern matches (checked both before
    and after stripping surrounding punctuation); drop short tokens,
    stoplist members, and disallowed parts of speech. Each distinct raw
    token is cleaned once per config (``CleaningConfig.clean``).
    """
    return [tok for tok in map(config.clean, text.split()) if tok is not None]


def clean_tokens(chunk: Chunk, config: CleaningConfig) -> Chunk:
    """Return ``chunk`` with its token list populated from ``raw_text``.

    A chunk whose every token is eliminated keeps an empty token list; it
    stays in stage files for traceability but is skipped by vectorization.
    """
    return replace(chunk, tokens=tuple(clean_text(chunk.raw_text, config)))


def chunk_document(doc: Document, config: CleaningConfig) -> list[Chunk]:
    """Segment, chunk, and clean one document."""
    return make_chunks(doc.doc_id, segment_sentences(doc.body), config)
