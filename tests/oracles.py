"""Independent reference implementations used to check the real ones, and
the checks and tallies only the tests read.

Everything here is written the straightforward, slow way on purpose:
per-document scoring loops, a full LCS table, a cubic closure. The BM25
oracle keeps the same per-term arithmetic expression and accumulation order
as the engine so that agreement can be exact, not approximate.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
from collections import Counter

from contregen.backend_io import _parse_json
from contregen.corpus import Passage, QueryRecord
from contregen.errors import DuplicateIdError, MalformedRecordError, TemplateRenderError
from contregen.llm import PromptRole

_TOKEN_RE = re.compile(r"[a-z0-9]+")
_PLACEHOLDER_RE = re.compile(r"\{([a-z_]+)\}")

K1 = 1.2
B = 0.75


def toks(text: str) -> list[str]:
    return _TOKEN_RE.findall(text.lower())


def bm25_rank(corpus: dict[str, str], query: str, topk: int) -> list[tuple[str, float]]:
    """Exhaustive scoring of every document, then sort and cut."""
    doc_tokens = {pid: toks(text) for pid, text in corpus.items()}
    n_docs = len(corpus)
    avgdl = sum(len(t) for t in doc_tokens.values()) / n_docs
    df: dict[str, int] = {}
    for tokens in doc_tokens.values():
        for term in set(tokens):
            df[term] = df.get(term, 0) + 1

    query_terms: list[str] = []
    for term in toks(query):
        if term not in query_terms:
            query_terms.append(term)

    scored = []
    for pid in sorted(corpus):
        tokens = doc_tokens[pid]
        dl = len(tokens)
        score = 0.0
        for term in query_terms:
            tf = tokens.count(term)
            if tf == 0 or term not in df:
                continue
            idf = math.log(1.0 + (n_docs - df[term] + 0.5) / (df[term] + 0.5))
            score += idf * ((tf * (K1 + 1.0)) / (tf + K1 * (1.0 - B + B * (dl / avgdl))))
        if score > 0.0:
            scored.append((pid, score))
    scored.sort(key=lambda item: (-item[1], item[0]))
    return scored[:topk]


def bm25_postings(texts: list[str]) -> dict[str, tuple[list[int], list[float]]]:
    """The index of texts, document d being texts[d]: term -> (ascending
    document indices, BM25 impacts), each document's tokens counted with a
    Counter and each impact computed in one expression, in the engine's
    operation order."""
    counts = [Counter(toks(text)) for text in texts]
    lens = [sum(count.values()) for count in counts]
    n_docs = len(texts)
    avgdl = sum(lens) / n_docs or 1.0
    postings: dict[str, list[tuple[int, int]]] = {}
    for d, count in enumerate(counts):
        for term, tf in count.items():
            postings.setdefault(term, []).append((d, tf))
    index = {}
    for term, pairs in postings.items():
        df = len(pairs)
        idf = math.log(1.0 + (n_docs - df + 0.5) / (df + 0.5))
        index[term] = ([d for d, _ in pairs],
                       [idf * (tf * (K1 + 1.0) / (tf + K1 * (1.0 - B + B * (lens[d] / avgdl))))
                        for d, tf in pairs])
    return index


def forced_postings(index) -> dict:
    """A LexicalIndex's postings with every term finalized: a first retrieval
    builds the index if it is not built yet, and one naming every term
    finalizes each rare term the way a query naming it first does."""
    index.retrieve("x", 1)  # builds the index, so its terms can be named
    index.retrieve(" ".join(index._built), 1)
    return dict(index._built)


def corpus_fingerprint(texts: dict[str, str]) -> str:
    """The corpus fingerprint as first written: one sha256 update per
    (id, text) pair in id order, id and text each followed by a NUL."""
    digest = hashlib.sha256()
    for pid, text in sorted(texts.items()):
        digest.update(b"%s\0%s\0" % (pid.encode("utf-8"), text.encode("utf-8")))
    return digest.hexdigest()


def lcs_len(left: list, right: list) -> int:
    """Full-table dynamic program, no shared code with the kernels."""
    rows = len(left)
    cols = len(right)
    table = [[0] * (cols + 1) for _ in range(rows + 1)]
    for i in range(1, rows + 1):
        for j in range(1, cols + 1):
            if left[i - 1] == right[j - 1]:
                table[i][j] = table[i - 1][j - 1] + 1
            else:
                table[i][j] = max(table[i - 1][j], table[i][j - 1])
    return table[rows][cols]


def reachable_from(start, nodes, edges) -> set:
    """Transitive closure by cubic relaxation, then one row read."""
    order = sorted(nodes | {start})
    index = {node: i for i, node in enumerate(order)}
    size = len(order)
    reach = [[False] * size for _ in range(size)]
    for a, b in edges:
        reach[index[a]][index[b]] = True
    for k in range(size):
        for i in range(size):
            if reach[i][k]:
                row_k = reach[k]
                row_i = reach[i]
                for j in range(size):
                    if row_k[j]:
                        row_i[j] = True
    return {node for node in nodes if reach[index[start]][index[node]]}


def recall_count(retrieved, gold) -> float:
    hits = 0
    for pid in set(retrieved):
        if pid in set(gold):
            hits += 1
    return hits / len(set(gold))


def rouge_from_lcs(cand_tokens: list[str], ref_tokens: list[str]) -> float:
    lcs = lcs_len(cand_tokens, ref_tokens)
    if lcs == 0 or not cand_tokens:
        return 0.0
    p = lcs / len(cand_tokens)
    r = lcs / len(ref_tokens)
    return 100.0 * 2.0 * p * r / (p + r)


def count_calls(calls) -> dict[str, int]:
    """Per-role call counts, every role present, plus a total, from LlmCalls."""
    counts = {role.value: 0 for role in PromptRole}
    for call in calls:
        counts[call.role] = counts.get(call.role, 0) + 1
    counts["total"] = sum(counts.values())
    return counts


def slot_names(template) -> frozenset[str]:
    """The {slot} placeholders a PromptTemplate's text names."""
    return frozenset(_PLACEHOLDER_RE.findall(template.text))


def render(template, slots) -> str:
    """A PromptTemplate's text with its placeholders filled in one regex pass,
    a callback per placeholder; the first missing slot in template order is a
    TemplateRenderError."""

    def fill(match: re.Match) -> str:
        name = match.group(1)
        if name not in slots:
            raise TemplateRenderError(template.role.value, name)
        return str(slots[name])

    return _PLACEHOLDER_RE.sub(fill, template.text)


def cache_key(*parts) -> str:
    """A cache key: the sha256 of the key parts as one JSON array."""
    return hashlib.sha256(json.dumps(list(parts), ensure_ascii=True).encode("utf-8")).hexdigest()


def per_round_sets(run) -> list[set[str]]:
    """A BaselineRun's accumulated ids after each round, as sets."""
    return [set(ids) for ids in run.rounds]


def check_invariants(root, config) -> None:
    """Raise AssertionError when a query tree breaks a structural guarantee
    of its TreeConfig."""
    assert root.depth == 0 and root.path == "0"
    for node in root.walk():
        assert node.depth <= config.max_depth
        assert len(node.children) <= config.max_plan_size
        assert len(node.retrieved) <= config.topk
        ids = [pid for pid, _ in node.retrieved]
        assert len(ids) == len(set(ids)), f"duplicate hits at {node.path}"
        scores = [score for _, score in node.retrieved]
        assert all(a >= b for a, b in zip(scores, scores[1:])), \
            f"scores out of order at {node.path}"
        if node.depth == config.max_depth:
            assert node.is_leaf()
        for index, child in enumerate(node.children):
            assert child.depth == node.depth + 1
            assert child.path == f"{node.path}.{index}"


def read_jsonl(path, required=frozenset()):
    """(line number, object) for each nonblank line of a JSONL file, each
    line parsed and checked on its own, as the readers did before they took
    a well-formed line from one scanner call."""
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        for line_no, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                record = _parse_json(line.encode("utf-8", "surrogateescape").decode("utf-8"))
            except UnicodeDecodeError as exc:
                raise MalformedRecordError(str(path), line_no, f"not UTF-8 text ({exc.reason})")
            except ValueError as exc:
                reason = exc.msg if isinstance(exc, json.JSONDecodeError) else exc
                raise MalformedRecordError(str(path), line_no, f"invalid JSON ({reason})")
            if not isinstance(record, dict) or not record.keys() >= required:
                raise MalformedRecordError(str(path), line_no, (
                    f"record must carry {' and '.join(sorted(required))}" if required
                    else "record must be a JSON object"))
            yield line_no, record


def _record_id(value, path, line_no, name) -> str:
    if type(value) is int:
        return str(value)
    if not isinstance(value, str):
        raise MalformedRecordError(str(path), line_no, f"{name} must be a string or an integer")
    return value


def _lone_surrogate(fields):
    for name, text in fields:
        try:
            text.encode("utf-8")
        except UnicodeEncodeError:
            return f"{name} holds a lone surrogate, which is not UTF-8 text"
    return None


def ingest_corpus(path) -> list[Passage]:
    """The passages of a passage file in file order, every field of every
    line checked in turn."""
    passages: dict[str, Passage] = {}
    for line_no, record in read_jsonl(path, {"id", "text"}):
        meta = record.get("meta")
        if meta is None:
            meta = {}
        elif not isinstance(meta, dict):
            raise MalformedRecordError(str(path), line_no, "meta must be an object")
        elif not all(isinstance(value, str) for value in meta.values()):
            raise MalformedRecordError(str(path), line_no, "each meta value must be a string")
        text = record["text"]
        if not isinstance(text, str) or not text.strip():
            raise MalformedRecordError(str(path), line_no, "text must be a non-empty string")
        passage_id = _record_id(record["id"], path, line_no, "id")
        fault = _lone_surrogate((("id", passage_id), ("text", text),
                                 *(("meta", part) for item in meta.items() for part in item)))
        nul = [name for name, value in (("id", passage_id), ("text", text)) if "\0" in value]
        if not fault and nul:
            fault = f"{nul[0]} holds a NUL, which the corpus fingerprint uses as a separator"
        if fault:
            raise MalformedRecordError(str(path), line_no, fault)
        if passage_id in passages:
            raise DuplicateIdError(passage_id)
        passages[passage_id] = Passage(id=passage_id, text=text, meta=meta)
    return list(passages.values())


_QUERY_FIELD_TYPES = {"gold_ids": (list, "a list"), "short_answers": (list, "a list"),
                      "facet_of": (dict, "an object"), "reference": (str, "a string")}


def load_queries(path) -> list[QueryRecord]:
    """The query records of a query file, every field of every line checked
    in turn."""
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
            if not all(isinstance(facet, str) for facet in facet_of.values()):
                raise MalformedRecordError(str(path), line_no,
                                           "each facet_of value must be a string")
            extra = set(facet_of) - gold
            if extra:
                raise MalformedRecordError(str(path), line_no,
                                           f"facet_of keys not in gold_ids: {sorted(extra)}")
        short = obj.get("short_answers")
        if short and not all(isinstance(answer, str) for answer in short):
            raise MalformedRecordError(str(path), line_no,
                                       "each short_answers item must be a string")
        fault = _lone_surrogate((("id", qid), ("query", obj["query"]),
                                 ("reference", obj.get("reference") or ""),
                                 *(("gold_ids", g) for g in gold),
                                 *(("short_answers", answer) for answer in short or ()),
                                 *(("facet_of", part) for item in (facet_of or {}).items()
                                   for part in item)))
        if fault:
            raise MalformedRecordError(str(path), line_no, fault)
        records[qid] = QueryRecord(id=qid, query=obj["query"], gold_ids=gold,
                                   reference=obj.get("reference"), facet_of=facet_of,
                                   short_answers=tuple(short) if short else None)
    return list(records.values())
