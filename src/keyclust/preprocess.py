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
from dataclasses import dataclass, replace
from importlib import resources
from pathlib import Path
from typing import Any, Mapping, Pattern, Sequence

from .corpus import Document
from .errors import InvalidPattern

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
        return {
            "chunk_id": self.chunk_id,
            "doc_id": self.doc_id,
            "raw_text": self.raw_text,
            "sentence_count": self.sentence_count,
            "tokens": list(self.tokens),
        }

    @classmethod
    def from_record(cls, rec: Mapping[str, Any]) -> "Chunk":
        return cls(
            chunk_id=rec["chunk_id"],
            doc_id=rec["doc_id"],
            raw_text=rec["raw_text"],
            sentence_count=rec["sentence_count"],
            tokens=tuple(rec["tokens"]),
        )


@dataclass(frozen=True)
class ChunkPolicy:
    """Greedy grouping of sentences into chunks of ``group_size``.

    With the default size 3, a remainder of one sentence would leave a
    lonely chunk, so the last four sentences are split 2+2 instead; only a
    single-sentence document yields a one-sentence chunk.
    """

    group_size: int = 3

    def sizes(self, n_sentences: int) -> list[int]:
        n, g = n_sentences, self.group_size
        if g < 2:
            raise ValueError("group_size must be >= 2")
        if n == 0:
            return []
        if g == 3 and n >= 4 and n % g == 1:
            return [g] * ((n - 4) // g) + [2, 2]
        full, rem = divmod(n, g)
        return [g] * full + ([rem] if rem else [])


@dataclass(frozen=True)
class CleaningConfig:
    """Token-cleaning rules: stoplist, removal regexes, POS filter."""

    stoplist: frozenset[str]
    removal_patterns: tuple[str, ...] = DEFAULT_REMOVAL_PATTERNS
    disallowed_pos: frozenset[str] = DEFAULT_DISALLOWED_POS
    min_token_length: int = 2

    def __post_init__(self) -> None:
        object.__setattr__(self, "stoplist", frozenset(w.lower() for w in self.stoplist))
        _compiled(self.removal_patterns)  # validate eagerly


@functools.lru_cache(maxsize=32)
def _compiled(patterns: tuple[str, ...]) -> tuple[Pattern[str], ...]:
    out = []
    for pat in patterns:
        try:
            out.append(re.compile(pat))
        except re.error as exc:
            raise InvalidPattern(f"removal pattern {pat!r} does not compile: {exc}") from exc
    return tuple(out)


def default_stoplist() -> frozenset[str]:
    text = resources.files("keyclust").joinpath("data/stopwords_en.txt").read_text("utf-8")
    return frozenset(w.strip().lower() for w in text.splitlines() if w.strip())


def load_stoplist(path: str | Path) -> frozenset[str]:
    """Plain UTF-8 stoplist, one entry per line."""
    text = Path(path).read_text("utf-8")
    return frozenset(w.strip().lower() for w in text.splitlines() if w.strip())


def load_patterns(path: str | Path) -> tuple[str, ...]:
    """Plain UTF-8 removal-pattern file, one regular expression per line."""
    text = Path(path).read_text("utf-8")
    return tuple(line.strip() for line in text.splitlines() if line.strip())


def default_cleaning_config(stoplist_path: str | Path | None = None) -> CleaningConfig:
    stop = load_stoplist(stoplist_path) if stoplist_path else default_stoplist()
    return CleaningConfig(stoplist=stop)


def load_cleaning_config(
    path: str | Path, stoplist_override: str | Path | None = None
) -> CleaningConfig:
    """Build a :class:`CleaningConfig` from a JSON config file.

    Recognized keys (all optional): ``stoplist_path``, ``extra_stopwords``,
    ``removal_patterns`` (inline list, replaces the defaults),
    ``removal_patterns_path`` (pattern file, one regex per line),
    ``disallowed_pos``, ``min_token_length``. Relative paths resolve against
    the config file's directory; ``stoplist_override`` wins over
    ``stoplist_path``.
    """
    path = Path(path)
    raw = json.loads(path.read_text("utf-8"))
    if not isinstance(raw, dict):
        raise InvalidPattern(f"cleaning config {path} must be a JSON object")

    def resolve(p):
        p = Path(p)
        return p if p.is_absolute() else path.parent / p

    stoplist_path = stoplist_override or raw.get("stoplist_path")
    if stoplist_path and not stoplist_override:
        stoplist_path = resolve(stoplist_path)
    stop = set(load_stoplist(stoplist_path) if stoplist_path else default_stoplist())
    stop.update(w.lower() for w in raw.get("extra_stopwords", []))
    patterns = tuple(raw.get("removal_patterns", DEFAULT_REMOVAL_PATTERNS))
    if "removal_patterns_path" in raw:
        patterns = load_patterns(resolve(raw["removal_patterns_path"]))
    return CleaningConfig(
        stoplist=frozenset(stop),
        removal_patterns=patterns,
        disallowed_pos=frozenset(raw.get("disallowed_pos", DEFAULT_DISALLOWED_POS)),
        min_token_length=int(raw.get("min_token_length", 2)),
    )


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


def make_chunks(
    doc_id: str, sentences: Sequence[str], policy: ChunkPolicy = ChunkPolicy()
) -> list[Chunk]:
    """Group sentences into chunks per ``policy``; raw text only, no tokens.

    Every sentence lands in exactly one chunk, in order. Chunk ids are the
    document id plus a zero-padded ordinal.
    """
    chunks: list[Chunk] = []
    pos = 0
    for ordinal, size in enumerate(policy.sizes(len(sentences))):
        group = sentences[pos : pos + size]
        pos += size
        chunks.append(
            Chunk(
                chunk_id=f"{doc_id}#{ordinal:04d}",
                doc_id=doc_id,
                raw_text=" ".join(group),
                sentence_count=size,
            )
        )
    return chunks


def clean_text(text: str, config: CleaningConfig) -> list[str]:
    """Apply the cleaning rules to whitespace-split tokens of ``text``.

    Per token: lowercase; drop removal-pattern matches (checked both before
    and after stripping surrounding punctuation); drop short tokens,
    stoplist members, and disallowed parts of speech.
    """
    patterns = _compiled(config.removal_patterns)
    out: list[str] = []
    for raw in text.split():
        tok = raw.lower()
        if any(p.match(tok) for p in patterns):
            continue
        tok = tok.strip(_STRIP_CHARS)
        if not tok or any(p.match(tok) for p in patterns):
            continue
        if len(tok) < config.min_token_length:
            continue
        if tok in config.stoplist:
            continue
        if pos_tag(tok) in config.disallowed_pos:
            continue
        out.append(tok)
    return out


def clean_tokens(chunk: Chunk, config: CleaningConfig) -> Chunk:
    """Return ``chunk`` with its token list populated from ``raw_text``.

    A chunk whose every token is eliminated keeps an empty token list; it
    stays in stage files for traceability but is skipped by vectorization.
    """
    return replace(chunk, tokens=tuple(clean_text(chunk.raw_text, config)))


def chunk_document(
    doc: Document, config: CleaningConfig, policy: ChunkPolicy = ChunkPolicy()
) -> list[Chunk]:
    """Segment, chunk, and clean one document."""
    sentences = segment_sentences(doc.body)
    return [clean_tokens(c, config) for c in make_chunks(doc.doc_id, sentences, policy)]
