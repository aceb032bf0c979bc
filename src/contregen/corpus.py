"""Passage corpus, evaluation queries, and the how-to benchmark builder.

File formats (both UTF-8, one JSON object per line, read and written
through ``backend_io``):

* passage file: ``{"id": str, "text": str, "meta": {str: str}|null}`` (meta optional)
* query file: ``{"id": str, "query": str, "gold_ids": [str], "reference": str|null,
  "facet_of": {passage_id: str}|null}`` plus an optional ``short_answers``
  list of str used by the string-EM metric.

An id (a passage's, a query's, a ``gold_ids`` item) may also be an integer,
which stands for its decimal string.
"""

from __future__ import annotations

import hashlib
import json
import logging
import threading
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Optional, Sequence

from contregen.backend_io import (atomic_write, jsonl_record, read_json, read_jsonl,
                                  read_jsonl_blocks)
from contregen.errors import DataError, DuplicateIdError, MalformedRecordError

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class Passage:
    """One corpus document unit; the retrieval atom."""

    id: str
    text: str
    meta: Mapping[str, str] = field(default_factory=dict)


@dataclass(frozen=True)
class QueryRecord:
    """One evaluation instance: input query, gold evidence ids, optional reference output."""

    id: str
    query: str
    gold_ids: frozenset[str]
    reference: Optional[str] = None
    facet_of: Optional[Mapping[str, str]] = None
    short_answers: Optional[tuple[str, ...]] = None


@dataclass
class ArticleDump:
    """A structured how-to article: title, author summary, and methods of step paragraphs."""

    title: str
    summary: str
    methods: list[tuple[str, list[str]]]
    article_id: Optional[str] = None


_FINGERPRINT_CHUNK = 1024  # (id, text) pairs joined into one string per sha256 update


class CorpusStore:
    """Immutable-after-ingestion passage store; safe for concurrent readers.

    It keeps one id -> text dict, in insertion order, and the meta of only the
    passages whose meta is not empty, so a passage costs the store its two
    strings and a dict entry. ``get`` and iteration build each ``Passage`` on
    demand, with the stored meta or a fresh empty one. The fingerprint is
    hashed when first asked for, not at ingestion, and kept until the store
    grows.
    """

    def __init__(self, passages: Iterable[Passage] = ()) -> None:
        self._texts: dict[str, str] = {}  # in insertion order
        self._meta: dict[str, Mapping[str, str]] = {}  # only the non-empty ones
        # (passage count, digest) of the last fingerprint; a store only grows
        # and its ids are unique, so an equal count means the same passages
        self._fingerprint: tuple[int, str] = (-1, "")
        self._fingerprint_lock = threading.Lock()
        for passage in passages:
            self.add(passage)

    def _put(self, passage_id: str, text: str, meta: Mapping[str, str]) -> None:
        if passage_id in self._texts:
            raise DuplicateIdError(passage_id)
        self._texts[passage_id] = text
        if meta:
            self._meta[passage_id] = meta

    def add(self, passage: Passage) -> None:
        """Store passage; a DataError for a field that is not a string or that
        ingest_corpus rejects."""
        if not all(isinstance(part, str) for part in (passage.id, passage.text, *passage.meta,
                                                      *passage.meta.values())):
            raise DataError(f"passage {passage.id!r}: id, text and meta must be strings")
        if not passage.text.strip():
            raise DataError(f"passage {passage.id!r} has empty text")
        fault = _passage_fault(passage.id, passage.text, passage.meta)
        if fault:
            raise DataError(f"passage {passage.id!r}: {fault}")
        self._put(passage.id, passage.text, passage.meta)

    def __len__(self) -> int:
        return len(self._texts)

    def __contains__(self, passage_id: str) -> bool:
        return passage_id in self._texts

    def __iter__(self) -> Iterator[Passage]:
        return map(self.get, self._texts)

    def get(self, passage_id: str) -> Passage:
        meta = self._meta.get(passage_id)
        return Passage(id=passage_id, text=self.text(passage_id),
                       meta={} if meta is None else meta)

    def text(self, passage_id: str) -> str:
        try:
            return self._texts[passage_id]
        except KeyError:
            raise DataError(f"unknown passage id: {passage_id}") from None

    def ids(self) -> list[str]:
        return list(self._texts)

    def fingerprint(self) -> str:
        """sha256 over the (id, text) pairs in id order, NUL-separated: the
        bytes of id, NUL, text, NUL for each pair (neither holds a NUL, so
        the pairs are told apart). Hashed at most once while
        the store does not grow, under a lock, so threads asking together
        hash it once between them."""
        with self._fingerprint_lock:
            if self._fingerprint[0] != len(self._texts):
                self._fingerprint = (len(self._texts), self._digest())
            return self._fingerprint[1]

    def _digest(self) -> str:
        """The fingerprint hashed afresh, a chunk of _FINGERPRINT_CHUNK pairs
        per sha256 update."""
        digest = hashlib.sha256()
        ids = sorted(self._texts)  # ids are unique: the order of the pairs
        parts = [""] * (2 * len(ids))  # id, text, id, text, ...
        parts[::2] = ids
        parts[1::2] = map(self._texts.__getitem__, ids)
        for start in range(0, len(parts), 2 * _FINGERPRINT_CHUNK):
            digest.update("\0".join(parts[start:start + 2 * _FINGERPRINT_CHUNK]).encode("utf-8"))
            digest.update(b"\0")
        return digest.hexdigest()


def id_text(value: object) -> str:
    """An id read from JSON: a string, or an integer (not a boolean) standing
    for its decimal string. A ValueError for anything else."""
    if type(value) is int:
        return str(value)
    if not isinstance(value, str):
        raise ValueError(f"id {value!r} is not a string or an integer")
    return value


def _record_id(value: object, path: str | Path, line_no: int, name: str) -> str:
    try:
        return id_text(value)
    except ValueError:
        raise MalformedRecordError(str(path), line_no,
                                   f"{name} must be a string or an integer") from None


def _lone_surrogate(fields: Iterable[tuple[str, str]]) -> Optional[str]:
    """Why the first of the (name, text) fields holding a lone surrogate is
    bad, or None when none does. JSON can spell one (\\ud800), but UTF-8
    cannot encode it, so neither a fingerprint nor an output file could take it."""
    for name, text in fields:
        if not text.isascii():
            try:
                text.encode("utf-8")
            except UnicodeEncodeError:
                return f"{name} holds a lone surrogate, which is not UTF-8 text"
    return None


def _nul(fields: Iterable[tuple[str, str]]) -> Optional[str]:
    """Why the first of the (name, text) fields holding a NUL is bad, or None
    when none does. The corpus fingerprint separates passage ids and texts
    with NUL, so one inside them would let two corpora share it."""
    for name, text in fields:
        if "\0" in text:
            return f"{name} holds a NUL, which the corpus fingerprint uses as a separator"
    return None


def _passage_fault(passage_id: str, text: str, meta: Mapping[str, str]) -> Optional[str]:
    """Why a passage of string fields is bad, or None: a lone surrogate in
    any field, or a NUL in the id or text."""
    return (_lone_surrogate((("id", passage_id), ("text", text),
                             *(("meta", part) for item in meta.items() for part in item)))
            or _nul((("id", passage_id), ("text", text))))


_PASSAGE_KEYS = frozenset({"id", "text"})
_NO_META = (None, {})  # the meta of a passage line checked inline: absent, null or empty


def ingest_corpus(path: str | Path) -> CorpusStore:
    """Load a passage file into a store; duplicate ids and malformed lines,
    a lone surrogate in an id, text or meta or a NUL in an id or text among
    them, are errors.

    A well-formed line (see read_jsonl_blocks) whose id and text are strings,
    the text not blank, and whose meta is absent, null or empty goes straight
    into the store; every other line is read and checked one field at a time."""
    store = CorpusStore()
    texts = store._texts
    for first, lines, records in read_jsonl_blocks(path):
        for line_no, record in enumerate(records, first):
            # a well-formed line is ASCII without \u escapes: no NUL, no surrogate
            if record is not None and (
                    type(passage_id := record.get("id")) is str
                    and type(text := record.get("text")) is str and text and not text.isspace()
                    and record.get("meta") in _NO_META):
                if passage_id in texts:
                    raise DuplicateIdError(passage_id)
                texts[passage_id] = text
                continue
            if record is None or not record.keys() >= _PASSAGE_KEYS:
                record = jsonl_record(path, line_no, lines[line_no - first], _PASSAGE_KEYS)
                if record is None:  # a blank line
                    continue
            meta = record.get("meta")
            if meta is None:
                meta = {}
            elif not isinstance(meta, dict):
                raise MalformedRecordError(str(path), line_no, "meta must be an object")
            elif not all(isinstance(value, str) for value in meta.values()):
                raise MalformedRecordError(str(path), line_no, "each meta value must be a string")
            text = record["text"]
            # `not text or text.isspace()` is `not text.strip()` without the copy
            if not isinstance(text, str) or not text or text.isspace():
                raise MalformedRecordError(str(path), line_no, "text must be a non-empty string")
            passage_id = record["id"]
            if type(passage_id) is not str:
                passage_id = _record_id(passage_id, path, line_no, "id")
            fault = _passage_fault(passage_id, text, meta)
            if fault:
                raise MalformedRecordError(str(path), line_no, fault)
            store._put(passage_id, text, meta)
    if len(store) == 0:
        logger.warning("corpus file %s contained no passages", path)
    else:
        logger.info("loaded %d passages from %s", len(store), path)
    return store


def _write_jsonl(objects: Iterable[dict], path: str | Path) -> int:
    lines = [json.dumps(obj, ensure_ascii=False, sort_keys=True) + "\n" for obj in objects]
    atomic_write(path, "".join(lines))
    return len(lines)


def write_passages(passages: Iterable[Passage], path: str | Path) -> int:
    return _write_jsonl(({"id": passage.id, "text": passage.text, "meta": dict(passage.meta)}
                         for passage in passages), path)


# Optional query fields and the JSON type each must have when not null.
_QUERY_FIELD_TYPES = {"gold_ids": (list, "a list"), "short_answers": (list, "a list"),
                      "facet_of": (dict, "an object"), "reference": (str, "a string")}
_QUERY_KEYS = frozenset({"id", "query"})


def load_queries(path: str | Path) -> list[QueryRecord]:
    """The query records of a query file, each line checked one field at a
    time. A well-formed line (see read_jsonl_blocks) is ASCII without a \\u
    escape, so it holds no lone surrogate and skips only that check."""
    records: dict[str, QueryRecord] = {}
    for first, lines, objs in read_jsonl_blocks(path):
        for line_no, obj in enumerate(objs, first):
            scanned = obj is not None
            if not scanned or not obj.keys() >= _QUERY_KEYS:
                obj = jsonl_record(path, line_no, lines[line_no - first], _QUERY_KEYS)
                if obj is None:  # a blank line
                    continue
            for name, (kind, noun) in _QUERY_FIELD_TYPES.items():
                if obj.get(name) is not None and not isinstance(obj[name], kind):
                    raise MalformedRecordError(str(path), line_no, f"{name} must be {noun}")
            qid = _record_id(obj["id"], path, line_no, "id")
            if qid in records:
                raise DuplicateIdError(qid)
            query = obj["query"]
            if not isinstance(query, str):
                raise MalformedRecordError(str(path), line_no, "query must be a string")
            gold = frozenset(g if type(g) is str
                             else _record_id(g, path, line_no, "each gold_ids item")
                             for g in obj.get("gold_ids") or ())
            facet_of = obj.get("facet_of")
            if facet_of is not None:
                if not all(isinstance(facet, str) for facet in facet_of.values()):
                    raise MalformedRecordError(str(path), line_no,
                                               "each facet_of value must be a string")
                extra = set(facet_of) - gold
                if extra:
                    raise MalformedRecordError(
                        str(path), line_no, f"facet_of keys not in gold_ids: {sorted(extra)}")
            short = obj.get("short_answers")
            if short and not all(isinstance(answer, str) for answer in short):
                raise MalformedRecordError(str(path), line_no,
                                           "each short_answers item must be a string")
            fault = not scanned and _lone_surrogate((
                ("id", qid), ("query", query), ("reference", obj.get("reference") or ""),
                *(("gold_ids", g) for g in gold),
                *(("short_answers", answer) for answer in short or ()),
                *(("facet_of", part) for item in (facet_of or {}).items() for part in item)))
            if fault:
                raise MalformedRecordError(str(path), line_no, fault)
            records[qid] = QueryRecord(
                id=qid,
                query=query,
                gold_ids=gold,
                reference=obj.get("reference"),
                facet_of=facet_of,
                short_answers=tuple(short) if short else None,
            )
    return list(records.values())


def write_queries(records: Iterable[QueryRecord], path: str | Path) -> int:
    return _write_jsonl(({
        "id": record.id,
        "query": record.query,
        "gold_ids": sorted(record.gold_ids),
        "reference": record.reference,
        "facet_of": dict(record.facet_of) if record.facet_of else None,
        **({"short_answers": list(record.short_answers)} if record.short_answers else {}),
    } for record in records), path)


def validate_queries(records: Sequence[QueryRecord], store: CorpusStore) -> None:
    """Check that every gold id resolves to a passage in the store."""
    for record in records:
        missing = [g for g in sorted(record.gold_ids) if g not in store]
        if missing:
            raise DataError(
                f"query {record.id}: gold ids not in corpus: {missing}")


def load_article_dumps(path: str | Path) -> list[ArticleDump]:
    """Read article dumps from a JSON array or JSONL file.

    Two record shapes are accepted: ``{"title", "summary", "methods": [{"title",
    "steps"}]}`` and the single-method ``{"title", "summary", "steps": [...]}``,
    which becomes one method titled as the article. An optional ``id`` field, a
    string or an integer, overrides the positional article id. Every title,
    summary and step must be a string, no field may hold a lone surrogate,
    and an id or step, which become passage ids and texts, may not hold a
    NUL; any other value is a DataError naming the record.
    """
    try:
        array = read_json(path, "input file")
    except DataError:  # missing, empty, or not one JSON document: JSONL
        array = None
    if isinstance(array, list):
        records = [(f"{path}: item {index}", obj) for index, obj in enumerate(array)]
    else:
        records = [(f"{path}:{line_no}", obj) for line_no, obj in read_jsonl(path)]
    dumps: list[ArticleDump] = []
    for where, obj in records:
        if not isinstance(obj, dict):
            raise DataError(f"{where}: record must be a JSON object")
        title, summary = obj.get("title", ""), obj.get("summary", "")
        raw_methods = obj.get("methods", [{"title": title, "steps": obj.get("steps", [])}])
        if not isinstance(raw_methods, list) or not all(isinstance(m, dict) for m in raw_methods):
            raise DataError(f"{where}: methods must be a list of objects")
        methods = [(m.get("title", title), m.get("steps", [])) for m in raw_methods]
        if not all(isinstance(steps, list) and all(isinstance(step, str) for step in steps)
                   for _, steps in methods):
            raise DataError(f"{where}: steps must be a list of strings")
        for name, value in (("title", title), ("summary", summary),
                            *(("method title", method_title) for method_title, _ in methods)):
            if not isinstance(value, str):
                raise DataError(f"{where}: {name} must be a string")
        try:
            article_id = id_text(obj["id"]) if "id" in obj else None
        except ValueError:
            raise DataError(f"{where}: id must be a string or an integer") from None
        id_field = ("id", article_id or "")
        step_fields = [("step", step) for _, steps in methods for step in steps]
        fault = _lone_surrogate((id_field, ("title", title), ("summary", summary),
                                 *(("method title", method_title) for method_title, _ in methods),
                                 *step_fields)) or _nul((id_field, *step_fields))
        if fault:
            raise DataError(f"{where}: {fault}")
        dumps.append(ArticleDump(title=title, summary=summary, methods=methods,
                                 article_id=article_id))
    return dumps


def build_wikihow_benchmark(
    dumps: Sequence[ArticleDump],
) -> tuple[list[Passage], list[QueryRecord]]:
    """Turn article dumps into a passage corpus plus one query per article.

    Each step paragraph becomes one passage with id
    ``{article_id}:{method_index}:{step_index}``; the method title is the
    facet label. The article title is the query and the author summary the
    reference output. Articles with no step paragraphs are skipped with a
    warning. An article id, its own or ``a{position}``, that repeats an earlier
    one is a DataError naming it.
    """
    passages: list[Passage] = []
    queries: list[QueryRecord] = []
    first_at: dict[str, int] = {}
    for position, dump in enumerate(dumps):
        article_id = dump.article_id or f"a{position}"
        if first_at.setdefault(article_id, position) != position:
            raise DataError(f"article {position}: id {article_id} repeats the id of "
                            f"article {first_at[article_id]}")
        gold: list[str] = []
        facet_of: dict[str, str] = {}
        for method_index, (method_title, steps) in enumerate(dump.methods):
            for step_index, step_text in enumerate(steps):
                if not step_text.strip():
                    continue
                pid = f"{article_id}:{method_index}:{step_index}"
                passages.append(Passage(
                    id=pid,
                    text=step_text,
                    meta={
                        "article": article_id,
                        "facet": method_title,
                        "step": str(step_index),
                    },
                ))
                gold.append(pid)
                facet_of[pid] = method_title
        if not gold:
            logger.warning("article %r (%s) has no step paragraphs; skipped",
                           dump.title, article_id)
            continue
        queries.append(QueryRecord(
            id=article_id,
            query=dump.title,
            gold_ids=frozenset(gold),
            reference=dump.summary or None,
            facet_of=facet_of,
        ))
    return passages, queries


__all__ = [
    "ArticleDump",
    "CorpusStore",
    "Passage",
    "QueryRecord",
    "build_wikihow_benchmark",
    "id_text",
    "ingest_corpus",
    "load_article_dumps",
    "load_queries",
    "validate_queries",
    "write_passages",
    "write_queries",
]
