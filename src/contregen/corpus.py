"""Passage corpus, evaluation queries, and the how-to benchmark builder.

File formats (both UTF-8, one JSON object per line):

* passage file: ``{"id": str, "text": str, "meta": {str: str}}`` (meta optional)
* query file: ``{"id": str, "query": str, "gold_ids": [str], "reference": str|null,
  "facet_of": {passage_id: facet}|null}`` plus an optional ``short_answers``
  list used by the string-EM metric.
"""

from __future__ import annotations

import hashlib
import json
import logging
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Optional, Sequence

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
        self._by_id: dict[str, Passage] = {}
        self._order: list[str] = []
        for passage in passages:
            self.add(passage)

    def add(self, passage: Passage) -> None:
        if passage.id in self._by_id:
            raise DuplicateIdError(passage.id)
        if not passage.text.strip():
            raise DataError(f"passage {passage.id!r} has empty text")
        self._by_id[passage.id] = passage
        self._order.append(passage.id)

    def __len__(self) -> int:
        return len(self._order)

    def __contains__(self, passage_id: str) -> bool:
        return passage_id in self._by_id

    def __iter__(self) -> Iterator[Passage]:
        for pid in self._order:
            yield self._by_id[pid]

    def get(self, passage_id: str) -> Passage:
        try:
            return self._by_id[passage_id]
        except KeyError:
            raise DataError(f"unknown passage id: {passage_id}") from None

    def text(self, passage_id: str) -> str:
        return self.get(passage_id).text

    def ids(self) -> list[str]:
        return list(self._order)

    def fingerprint(self) -> str:
        """sha256 over the (id, text) pairs in id order, NUL-separated."""
        digest = hashlib.sha256()
        for pid in sorted(self._by_id):
            text = self._by_id[pid].text
            digest.update(b"%s\0%s\0" % (pid.encode("utf-8"), text.encode("utf-8")))
        return digest.hexdigest()


def ingest_corpus(path: str | Path) -> CorpusStore:
    """Load a passage file into a store; duplicate ids and malformed lines are errors."""
    path = Path(path)
    store = CorpusStore()
    count = 0
    for line_no, raw in enumerate(_lines(path), start=1):
        try:
            record = json.loads(raw)
        except json.JSONDecodeError as exc:
            raise MalformedRecordError(str(path), line_no, f"invalid JSON ({exc.msg})")
        if not isinstance(record, dict) or "id" not in record or "text" not in record:
            raise MalformedRecordError(str(path), line_no, "record must carry id and text")
        meta = record.get("meta") or {}
        if not isinstance(meta, dict):
            raise MalformedRecordError(str(path), line_no, "meta must be an object")
        text = record["text"]
        if not isinstance(text, str) or not text.strip():
            raise MalformedRecordError(str(path), line_no, "text must be a non-empty string")
        store.add(Passage(id=str(record["id"]), text=text,
                          meta={str(k): str(v) for k, v in meta.items()}))
        count += 1
    if count == 0:
        logger.warning("corpus file %s contained no passages", path)
    else:
        logger.info("loaded %d passages from %s", count, path)
    return store


def write_passages(passages: Iterable[Passage], path: str | Path) -> int:
    path = Path(path)
    count = 0
    with path.open("w", encoding="utf-8") as fh:
        for passage in passages:
            fh.write(json.dumps(
                {"id": passage.id, "text": passage.text, "meta": dict(passage.meta)},
                ensure_ascii=False, sort_keys=True))
            fh.write("\n")
            count += 1
    return count


def load_queries(path: str | Path) -> list[QueryRecord]:
    path = Path(path)
    records: list[QueryRecord] = []
    seen: set[str] = set()
    for line_no, raw in enumerate(_lines(path), start=1):
        try:
            obj = json.loads(raw)
        except json.JSONDecodeError as exc:
            raise MalformedRecordError(str(path), line_no, f"invalid JSON ({exc.msg})")
        if not isinstance(obj, dict) or "id" not in obj or "query" not in obj:
            raise MalformedRecordError(str(path), line_no, "record must carry id and query")
        qid = str(obj["id"])
        if qid in seen:
            raise DuplicateIdError(qid)
        seen.add(qid)
        gold = frozenset(str(g) for g in obj.get("gold_ids") or [])
        facet_of = obj.get("facet_of")
        if facet_of is not None:
            facet_of = {str(k): str(v) for k, v in facet_of.items()}
            extra = set(facet_of) - gold
            if extra:
                raise MalformedRecordError(
                    str(path), line_no,
                    f"facet_of keys not in gold_ids: {sorted(extra)}")
        short = obj.get("short_answers")
        records.append(QueryRecord(
            id=qid,
            query=str(obj["query"]),
            gold_ids=gold,
            reference=obj.get("reference"),
            facet_of=facet_of,
            short_answers=tuple(str(s) for s in short) if short else None,
        ))
    return records


def write_queries(records: Iterable[QueryRecord], path: str | Path) -> int:
    path = Path(path)
    count = 0
    with path.open("w", encoding="utf-8") as fh:
        for record in records:
            obj = {
                "id": record.id,
                "query": record.query,
                "gold_ids": sorted(record.gold_ids),
                "reference": record.reference,
                "facet_of": dict(record.facet_of) if record.facet_of else None,
            }
            if record.short_answers:
                obj["short_answers"] = list(record.short_answers)
            fh.write(json.dumps(obj, ensure_ascii=False, sort_keys=True))
            fh.write("\n")
            count += 1
    return count


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
    which becomes one method titled as the article. An optional ``id`` field
    overrides the positional article id.
    """
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8").strip()
    except FileNotFoundError:
        raise DataError(f"input file not found: {path}")
    if not text:
        return []
    if text.startswith("["):
        raw_records = json.loads(text)
    else:
        raw_records = [json.loads(line) for line in text.splitlines() if line.strip()]
    dumps: list[ArticleDump] = []
    for obj in raw_records:
        title = str(obj.get("title", ""))
        summary = str(obj.get("summary", ""))
        if "methods" in obj:
            methods = [(str(m.get("title", title)), [str(s) for s in m.get("steps", [])])
                       for m in obj["methods"]]
        else:
            methods = [(title, [str(s) for s in obj.get("steps", [])])]
        dumps.append(ArticleDump(title=title, summary=summary, methods=methods,
                                 article_id=str(obj["id"]) if "id" in obj else None))
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


def _lines(path: Path) -> Iterator[str]:
    try:
        fh = path.open("r", encoding="utf-8")
    except FileNotFoundError:
        raise DataError(f"input file not found: {path}")
    with fh:
        for line in fh:
            if line.strip():
                yield line


__all__ = [
    "ArticleDump",
    "CorpusStore",
    "Passage",
    "QueryRecord",
    "build_wikihow_benchmark",
    "ingest_corpus",
    "load_article_dumps",
    "load_queries",
    "validate_queries",
    "write_passages",
    "write_queries",
]
