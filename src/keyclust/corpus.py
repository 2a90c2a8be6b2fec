"""Corpus loading, batching, and disk-backed stage persistence.

Documents are chunked in fixed-size batches, and every pipeline phase
writes its output to a stage file that a later phase reads back. A stage is
written record by record and decoded record by record:
``StageStore.load_with_meta`` hands a decoder the records one parsed line at
a time, so a stage's raw JSON records never sit in memory together, only
what the decoder keeps of each. Stage lines are read by orjson (see
``_loads``) and written by :func:`encode_record`, the one line writer: the
stdlib ``json`` text of a record, whose numpy arrays and number lists
:func:`json_floats` writes with orjson.
"""

from __future__ import annotations

import hashlib
import json
import logging
import math
import os
import re
from contextlib import contextmanager, suppress
from dataclasses import dataclass, field, fields
from json.encoder import c_make_encoder, encode_basestring
from pathlib import Path
from typing import Any, BinaryIO, Callable, Iterable, Iterator, Mapping, Sequence, TypeVar

import numpy as np
import orjson

from .errors import InvalidBatchSize, MissingPath, SchemaMismatch, StageIoError

log = logging.getLogger(__name__)

STAGE_FORMAT_VERSION = 3
DEFAULT_BATCH_SIZE = 50
HASH_BLOCK_BYTES = 1 << 20

T = TypeVar("T")


@dataclass(frozen=True)
class Document:
    """One scholarly article. ``doc_id`` is namespaced by corpus label so
    that ids stay unique when several corpora are merged."""

    doc_id: str
    title: str
    body: str
    corpus_label: str

    def to_record(self) -> dict[str, Any]:
        return dict(vars(self))

    @classmethod
    def from_record(cls, rec: Mapping[str, Any]) -> "Document":
        """Each field of ``rec`` read by name: a missing one is a KeyError
        naming it, and other keys are ignored."""
        return cls(**{f.name: rec[f.name] for f in fields(cls)})


@dataclass(frozen=True)
class ParseFailure:
    path: str
    message: str


@dataclass
class LoadReport:
    """Documents that loaded plus per-file failures (never silently dropped)."""

    documents: list[Document] = field(default_factory=list)
    errors: list[ParseFailure] = field(default_factory=list)


def load_corpus(path: str | Path, label: str, seen: set[str] | None = None) -> LoadReport:
    """Load every ``*.json`` article file under ``path``.

    Files are read in lexicographic filename order. Each file must hold one
    JSON object with string fields ``paper_id`` and ``title`` and a
    ``body_text`` list of paragraph strings; paragraphs are joined with
    blank lines to form the document body. Malformed files, duplicate ids,
    and empty bodies are collected as :class:`ParseFailure` entries.
    ``seen`` holds the ids of documents already loaded, from other corpora;
    they are duplicates too, and the ids loaded here are added to it.
    """
    root = Path(path)
    if not root.is_dir():
        raise MissingPath(f"corpus directory not found: {root}")
    report = LoadReport()
    seen = set() if seen is None else seen
    for fp in sorted(root.glob("*.json")):
        try:
            doc = _parse_article(fp, label)
        except (json.JSONDecodeError, UnicodeDecodeError, OSError, ValueError) as exc:
            report.errors.append(ParseFailure(str(fp), str(exc)))
            continue
        if doc.doc_id in seen:
            report.errors.append(ParseFailure(str(fp), f"duplicate paper_id {doc.doc_id!r}"))
            continue
        seen.add(doc.doc_id)
        report.documents.append(doc)
    return report


def _parse_article(fp: Path, label: str) -> Document:
    raw = json.loads(fp.read_text("utf-8"))
    if not isinstance(raw, dict):
        raise ValueError("article JSON must be an object")
    for key in ("paper_id", "title", "body_text"):
        if key not in raw:
            raise ValueError(f"missing required field {key!r}")
    paper_id = raw["paper_id"]
    title = raw["title"]
    body_text = raw["body_text"]
    if not isinstance(paper_id, str) or not paper_id:
        raise ValueError("paper_id must be a non-empty string")
    if not isinstance(title, str):
        raise ValueError("title must be a string")
    if not isinstance(body_text, list) or not all(isinstance(p, str) for p in body_text):
        raise ValueError("body_text must be a list of paragraph strings")
    body = "\n\n".join(body_text)
    if not body.strip():
        raise ValueError("empty body")
    for text in (paper_id, title, body):
        text.encode("utf-8")  # a lone surrogate escape loads, but no UTF-8 stage can hold it (UnicodeEncodeError)
    return Document(doc_id=f"{label}/{paper_id}", title=title, body=body, corpus_label=label)


def batch_iter(items: Sequence[T], batch_size: int) -> Iterator[list[T]]:
    """Consecutive batches; every batch except possibly the last has exactly
    ``batch_size`` items, and their concatenation is the input. The size is
    checked at the call, before the first batch is taken."""
    if batch_size < 1:
        raise InvalidBatchSize(f"batch_size must be >= 1, got {batch_size}")
    return (list(items[s : s + batch_size]) for s in range(0, len(items), batch_size))


@dataclass
class StageStore:
    """Line-delimited JSON persistence for one named pipeline stage.

    The first line is a header carrying the stage name, the record schema,
    the format version and the fields of ``meta``; each following line is
    one record. Records are written with sorted keys and full-precision
    floats, so a save/load round trip is bit-exact and re-saving identical
    records is byte-identical.
    """

    root_path: Path
    stage_name: str

    @property
    def path(self) -> Path:
        return Path(self.root_path) / f"{self.stage_name}.jsonl"

    def save(
        self,
        records: Iterable[Mapping[str, Any] | str],
        schema: str,
        meta: Mapping[str, Any] | None = None,
    ) -> int:
        """Write the header and one line per record; a record given as a
        ``str`` is a line already made by :func:`encode_record`."""
        path = self.path
        header = {
            "stage": self.stage_name,
            "schema": schema,
            "version": STAGE_FORMAT_VERSION,
        }
        if meta:
            header.update(meta)
        tmp = path.with_suffix(path.suffix + ".tmp")
        count = 0
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(encode_record(header) + "\n")
                for rec in records:
                    fh.write((rec if isinstance(rec, str) else encode_record(rec)) + "\n")
                    count += 1
            os.replace(tmp, path)
        except BaseException as exc:
            # a failing record iterator leaves no debris and the old file intact;
            # a temporary file that cannot be removed does not hide the error
            with suppress(OSError):
                tmp.unlink(missing_ok=True)
            if isinstance(exc, OSError):
                raise StageIoError(f"cannot write stage {self.stage_name!r}: {exc}") from exc
            raise
        return count

    def scan(self, schema: str) -> tuple[dict[str, Any], str]:
        """The header fields, checked as :meth:`load_with_meta` checks them,
        and the hex sha256 of the bytes after the header line (the records)."""
        with self._open(schema) as (fh, meta):
            return meta, _sha256(fh)

    def load_with_meta(
        self,
        schema: str,
        decode: Callable[[Iterator[dict[str, Any]], dict[str, Any]], T] | None = None,
    ) -> tuple[list[dict[str, Any]] | T, dict[str, Any]]:
        """The records and the header fields. With ``decode``, the records are
        ``decode(records, meta)`` instead of a list, where ``records`` parses
        one line each time it is advanced: each raw record can be freed once
        ``decode`` has taken what it keeps of it."""
        with self._open(schema) as (fh, meta):
            records = self._parse(fh)
            return (list(records) if decode is None else decode(records, meta)), meta

    @contextmanager
    def _open(self, schema: str) -> Iterator[tuple[BinaryIO, dict[str, Any]]]:
        """The stage file, read past its checked header, and the header fields. A
        file missing or unreadable is a StageIoError, and text not UTF-8 a SchemaMismatch."""
        path = self.path
        if not path.is_file():
            raise StageIoError(f"stage not found: {path}")
        try:
            with open(path, "rb") as fh:
                yield fh, self._check_header(fh.readline(), schema)
        except OSError as exc:
            raise StageIoError(f"cannot read stage {self.stage_name!r}: {exc}") from exc
        except UnicodeDecodeError as exc:
            raise SchemaMismatch(f"stage {self.stage_name!r} is not valid UTF-8: {exc}") from exc

    def _parse(self, fh: Iterable[bytes]) -> Iterator[dict[str, Any]]:
        """The record lines after the header of ``fh``, parsed one at a time;
        blank lines are skipped."""
        for lineno, line in enumerate(fh, start=2):
            try:
                record = _loads(line)
            except json.JSONDecodeError as exc:
                if not exc.doc.strip():
                    continue
                raise SchemaMismatch(
                    f"stage {self.stage_name!r} line {lineno} is not valid JSON: {exc}"
                ) from exc
            yield record

    def _check_header(self, line: bytes, schema: str) -> dict[str, Any]:
        """The fields of header ``line`` beside the stage, schema and version,
        once the schema is ``schema`` and the version this module's."""
        if not line.strip():
            raise SchemaMismatch(f"stage {self.stage_name!r} has no header")
        try:
            header = _loads(line)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise SchemaMismatch(f"stage {self.stage_name!r} header is not valid JSON") from exc
        if not isinstance(header, dict) or header.get("schema") != schema:
            raise SchemaMismatch(
                f"stage {self.stage_name!r} holds schema "
                f"{header.get('schema') if isinstance(header, dict) else None!r}, "
                f"expected {schema!r}"
            )
        if header.get("version") != STAGE_FORMAT_VERSION:
            raise SchemaMismatch(
                f"stage {self.stage_name!r} has format version "
                f"{header.get('version')!r}, expected {STAGE_FORMAT_VERSION}"
            )
        return {k: v for k, v in header.items() if k not in ("stage", "schema", "version")}


def _loads(line: bytes) -> Any:
    """The value of one stage line, as ``json.loads`` reads its UTF-8 text.

    orjson parses the line. It rejects a few lines that ``json.loads``
    accepts: the ``NaN`` and ``±Infinity`` that :func:`encode_record` writes
    for non-finite floats, lone surrogate escapes and numbers beyond a
    double's range. Those, and lines not JSON at all, go to ``json.loads``,
    which gives the value or the error. orjson reads an integer outside
    [-2**63, 2**64) as a float, so keyclust writes none (``ClusterConfig``).
    Raises ``json.JSONDecodeError`` (also for a blank line) or
    ``UnicodeDecodeError``.
    """
    try:
        return orjson.loads(line)
    except orjson.JSONDecodeError:
        pass
    return json.loads(line.decode("utf-8"))


def _unencodable(obj: Any) -> Any:
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


if c_make_encoder is None:
    raise ImportError("keyclust needs the C accelerator of the json module (json._json)")
# built once (``json.dumps`` builds one per call): ``"".join(_C_ENCODER(obj, 0))`` is
# ``json.dumps(obj, sort_keys=True, ensure_ascii=False, separators=(",", ":"))``, with no check for cycles
_C_ENCODER = c_make_encoder(None, _unencodable, encode_basestring, None, ":", ",", True, False, True)
_NUMBER = (int, float, type(None))  # None is an infinite distance (``ClusterModel.to_record``)
_WALKED = (*_NUMBER, dict, np.ndarray)
_SCALAR = frozenset({str, int, float, bool, type(None)})


def encode_record(obj: Any) -> str:
    """One stage line, or a value within one: the stdlib encoder's text of
    ``obj`` (sorted keys, full-precision floats, ``ensure_ascii=False``, no
    spaces) with each numpy array in it written as its ``tolist()``.

    Dicts are walked key by key and lists of dicts or arrays item by item.
    Arrays and lists whose first leaf is a number or None are written by
    :func:`json_floats`, strings by the encoder's ``encode_basestring``, a
    finite float by ``float.__repr__``, and all else by the stdlib encoder,
    as is a dict whole if it walks no value.
    """
    if isinstance(obj, str):
        return encode_basestring(obj)
    if isinstance(obj, float) and math.isfinite(obj):
        return float.__repr__(obj)
    if isinstance(obj, np.ndarray):
        return json_floats(obj)
    if isinstance(obj, dict):
        for value in obj.values():
            if type(value) not in _SCALAR and isinstance(_first_leaf(value), _WALKED):
                # joined once, so no value's text is copied on the way (a model line is megabytes)
                parts = ["{"]
                for k in sorted(obj):
                    parts += (encode_basestring(k), ":", encode_record(obj[k]), ",")
                parts[-1] = "}"
                return "".join(parts)
    elif isinstance(obj, (list, tuple)):
        leaf = _first_leaf(obj)
        if isinstance(leaf, _NUMBER):
            return json_floats(obj)
        if isinstance(leaf, (dict, np.ndarray)):
            parts = ["["]
            for item in obj:
                parts += (encode_record(item), ",")
            parts[-1] = "]"
            return "".join(parts)
    return "".join(_C_ENCODER(obj, 0))


def _first_leaf(obj: Any) -> Any:
    """``obj``, or for a list or tuple the first item of its first item …"""
    while isinstance(obj, (list, tuple)) and obj:
        obj = obj[0]
    return obj


# orjson writes a finite double with ``repr``'s digits (the shortest that read back) and
# spells two kinds of token otherwise: an exponent without its sign or second digit (``1e-7``
# and ``1e16``, not ``1e-07`` and ``1e+16``) and a number below 1e-4 written out (``0.00001``,
# not ``1e-05``). Each regex starts with a literal, so a search skips to where it can match.
_EXPONENT = re.compile(r"e(-?)(\d+)")
_BELOW_1E_4 = re.compile(r"0\.0000\d*")
# text that may hold a number written out: ``0.0000`` or a whole float ``….0``
_WRITTEN_OUT = re.compile(r"\.0(?:000|[,\]])")


def json_floats(a: np.ndarray | list | tuple) -> str:
    """The stdlib encoder's text of ``a.tolist()`` for an array of any shape,
    and of ``a`` for a list; floats are written as float64.

    orjson writes the numbers, and its exponents and numbers below 1e-4 are
    spelt again as ``repr`` spells them. Text holding anything but numbers
    (a quote; the l or t of null, which orjson writes for NaN and infinity,
    false or true) or a whole float (which might be one of 17 digits), and
    a value orjson cannot write, is the stdlib encoder's instead.
    """
    if isinstance(a, np.ndarray):
        a = np.asarray(a, dtype=np.float64 if a.dtype.kind == "f" else None, order="C")
    try:
        text = orjson.dumps(a, option=orjson.OPT_SERIALIZE_NUMPY).decode()
    except TypeError:  # a value orjson cannot write goes to the stdlib, as a string does
        text = '"'
    written_out = _WRITTEN_OUT.search(text)
    if '"' in text or "l" in text or "t" in text or written_out and (".0," in text or ".0]" in text):
        return "".join(_C_ENCODER(a.tolist() if isinstance(a, np.ndarray) else a, 0))
    if "e" in text:
        text = _EXPONENT.sub(lambda m: f"e{m[1] or '+'}{m[2].zfill(2)}", text)
    if written_out:
        text = _BELOW_1E_4.sub(_below_1e_4, text)
    return text


def _below_1e_4(m: re.Match[str]) -> str:
    # a match within a number of 1 or more (``10.00001``) is spelt as ``repr`` spells it
    return m[0] if m.string[m.start() - 1] in "0123456789." else float.__repr__(float(m[0]))


def file_sha256(path: str | Path) -> str:
    """Hex sha256 of a file's bytes."""
    with open(path, "rb") as fh:
        return _sha256(fh)


def _sha256(fh: BinaryIO) -> str:
    """Hex sha256 of the rest of ``fh``, read in blocks of ``HASH_BLOCK_BYTES``."""
    digest = hashlib.sha256()
    while block := fh.read(HASH_BLOCK_BYTES):
        digest.update(block)
    return digest.hexdigest()
