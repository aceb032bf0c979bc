"""Passage corpus, evaluation queries, and the how-to benchmark builder.

File formats (both UTF-8, one JSON object per line, read and written
through ``backend_io``):

* passage file: ``{"id": str, "text": str, "meta": {str: str}}`` (meta optional)
* query file: ``{"id": str, "query": str, "gold_ids": [str], "reference": str|null,
  "facet_of": {passage_id: facet}|null}`` plus an optional ``short_answers``
  list used by the string-EM metric.

An id (a passage's, a query's, a ``gold_ids`` item) may also be an integer,
which stands for its decimal string.
"""

from __future__ import annotations

import hashlib
import json
import logging
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Optional, Sequence

from contregen.backend_io import atomic_write, read_json, read_jsonl
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


class CorpusStore:
    """Immutable-after-ingestion passage store; safe for concurrent readers."""

    def __init__(self, passages: Iterable[Passage] = ()) -> None:
        self._by_id: dict[str, Passage] = {}  # in insertion order
        for passage in passages:
            self.add(passage)

    def add(self, passage: Passage) -> None:
        if passage.id in self._by_id:
            raise DuplicateIdError(passage.id)
        if not passage.text.strip():
            raise DataError(f"passage {passage.id!r} has empty text")
        self._by_id[passage.id] = passage

    def __len__(self) -> int:
        return len(self._by_id)

    def __contains__(self, passage_id: str) -> bool:
        return passage_id in self._by_id

    def __iter__(self) -> Iterator[Passage]:
        return iter(self._by_id.values())

    def get(self, passage_id: str) -> Passage:
        try:
            return self._by_id[passage_id]
        except KeyError:
            raise DataError(f"unknown passage id: {passage_id}") from None

    def text(self, passage_id: str) -> str:
        return self.get(passage_id).text

    def ids(self) -> list[str]:
        return list(self._by_id)

    def fingerprint(self) -> str:
        """sha256 over the (id, text) pairs in id order, NUL-separated."""
        digest = hashlib.sha256()
        for pid in sorted(self._by_id):
            text = self._by_id[pid].text
            digest.update(b"%s\0%s\0" % (pid.encode("utf-8"), text.encode("utf-8")))
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


def ingest_corpus(path: str | Path) -> CorpusStore:
    """Load a passage file into a store; duplicate ids and malformed lines are errors."""
    store = CorpusStore()
    for line_no, record in read_jsonl(path, {"id", "text"}):
        meta = record.get("meta") or {}
        if not isinstance(meta, dict):
            raise MalformedRecordError(str(path), line_no, "meta must be an object")
        text = record["text"]
        if not isinstance(text, str) or not text.strip():
            raise MalformedRecordError(str(path), line_no, "text must be a non-empty string")
        store.add(Passage(id=_record_id(record["id"], path, line_no, "id"), text=text,
                          meta={str(k): str(v) for k, v in meta.items()}))
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


def load_queries(path: str | Path) -> list[QueryRecord]:
    records: dict[str, QueryRecord] = {}
    for line_no, obj in read_jsonl(path, {"id", "query"}):
        for name, (kind, noun) in _QUERY_FIELD_TYPES.items():
            if obj.get(name) is not None and not isinstance(obj[name], kind):
                raise MalformedRecordError(str(path), line_no, f"{name} must be {noun}")
        qid = _record_id(obj["id"], path, line_no, "id")
        if qid in records:
            raise DuplicateIdError(qid)
        if not isinstance(obj["query"], str):
            raise MalformedRecordError(str(path), line_no, "query must be a string")
        gold = frozenset(_record_id(g, path, line_no, "each gold_ids item")
                         for g in obj.get("gold_ids") or [])
        facet_of = obj.get("facet_of")
        if facet_of is not None:
            facet_of = {str(k): str(v) for k, v in facet_of.items()}
            extra = set(facet_of) - gold
            if extra:
                raise MalformedRecordError(
                    str(path), line_no,
                    f"facet_of keys not in gold_ids: {sorted(extra)}")
        short = obj.get("short_answers")
        records[qid] = QueryRecord(
            id=qid,
            query=obj["query"],
            gold_ids=gold,
            reference=obj.get("reference"),
            facet_of=facet_of,
            short_answers=tuple(str(s) for s in short) if short else None,
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
    summary and step must be a string; any other value is a DataError naming
    the record.
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
    warning.
    """
    passages: list[Passage] = []
    queries: list[QueryRecord] = []
    for position, dump in enumerate(dumps):
        article_id = dump.article_id or f"a{position}"
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
