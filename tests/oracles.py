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

from contregen.errors import TemplateRenderError
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
