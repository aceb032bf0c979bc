"""Evaluation metrics: retrieval recall, Rouge-L, string exact match.

All pure functions. Rouge-L is the summary-level variant: one LCS over the
whole candidate and reference after normalization (lowercase, punctuation
stripped, whitespace collapsed), P = LCS/|cand|, R = LCS/|ref|, reported as
100 * F1.
"""

from __future__ import annotations

import logging
import string
from typing import Hashable, Iterable, Mapping, Optional, Sequence

logger = logging.getLogger(__name__)

_PUNCT_TABLE = str.maketrans({ch: " " for ch in string.punctuation})


def normalize(text: str) -> str:
    """Lowercase, strip punctuation, collapse whitespace."""
    return " ".join(text.lower().translate(_PUNCT_TABLE).split())


def recall(retrieved: Iterable[str], gold: Iterable[str]) -> float:
    gold_set = set(gold)
    if not gold_set:
        raise ValueError("recall undefined for empty gold set")
    return len(set(retrieved) & gold_set) / len(gold_set)


def lcs_length(left: Sequence[Hashable], right: Sequence[Hashable]) -> int:
    """Length of the longest common subsequence of two token sequences, exact
    and bit-parallel (Allison & Dix 1986; Hyyrö 2004): ``v`` is one row of the
    dynamic program over the shorter sequence, a 0 bit where the row steps up."""
    if len(left) < len(right):
        left, right = right, left
    match: dict[Hashable, int] = {}
    for j, token in enumerate(right):
        match[token] = match.get(token, 0) | 1 << j
    full = (1 << len(right)) - 1
    v = full
    for token in left:
        u = v & match.get(token, 0)
        v = ((v + u) | (v - u)) & full
    return len(right) - v.bit_count()


def rouge_l(candidate: str, reference: str) -> float:
    ref_tokens = normalize(reference).split()
    if not ref_tokens:
        raise ValueError("rouge_l undefined for empty reference")
    cand_tokens = normalize(candidate).split()
    if not cand_tokens:
        return 0.0
    lcs = lcs_length(cand_tokens, ref_tokens)
    if lcs == 0:
        return 0.0
    precision = lcs / len(cand_tokens)
    recall_ = lcs / len(ref_tokens)
    return 100.0 * 2.0 * precision * recall_ / (precision + recall_)


def string_em(short_answers: Sequence[str], long_answer: str) -> float:
    """Fraction of the short answers that normalize to at least one word
    appearing verbatim in the normalized long answer. An answer that
    normalizes to nothing is not counted: it is in every long answer."""
    answers = [answer for answer in map(normalize, short_answers) if answer]
    if not answers:
        raise ValueError("string_em undefined without a short answer of at least one word")
    haystack = normalize(long_answer)
    return sum(1 for answer in answers if answer in haystack) / len(answers)


_METRIC_ORDER = ("recall", "rouge_l", "em")


def evaluate_run(queries, answers: Mapping[str, str],
                 retrieved: Mapping[str, Sequence[str]]) -> dict:
    """{"per_query": {query id: {"recall", "rouge_l", "em"}}, "aggregates":
    {metric: mean}}. Each answered query is scored, None where a metric does
    not apply; aggregates are plain means over the queries where it applied.
    An empty gold set skips recall with a warning rather than failing the run."""
    per_query: dict[str, dict[str, Optional[float]]] = {}
    aggregates: dict[str, float] = {}
    for record in queries:
        if record.id not in answers:
            continue
        row: dict[str, Optional[float]] = {}
        if record.gold_ids:
            row["recall"] = recall(retrieved.get(record.id, ()), record.gold_ids)
        else:
            logger.warning("query %s has no gold passages; recall skipped", record.id)
            row["recall"] = None
        row["rouge_l"] = (rouge_l(answers[record.id], record.reference)
                          if record.reference and normalize(record.reference) else None)
        row["em"] = (string_em(record.short_answers, answers[record.id])
                     if any(map(normalize, record.short_answers or ())) else None)
        per_query[record.id] = row
    for name in _METRIC_ORDER:
        values = [row[name] for row in per_query.values() if row.get(name) is not None]
        if values:
            aggregates[name] = sum(values) / len(values)
    return {"per_query": per_query, "aggregates": aggregates}


def render_table(report: Mapping[str, dict]) -> str:
    """Fixed-width text table with a mean row, for terminal output."""
    header = f"{'query':<24} {'recall':>8} {'rouge_l':>8} {'em':>8}"
    rule = "-" * len(header)
    lines = [header, rule]

    def fmt(value: Optional[float]) -> str:
        return f"{value:8.4f}" if value is not None else f"{'-':>8}"

    per_query, aggregates = report.get("per_query", {}), report.get("aggregates", {})
    for qid in sorted(per_query):
        row = per_query[qid]
        lines.append(f"{qid:<24} {fmt(row.get('recall'))} "
                     f"{fmt(row.get('rouge_l'))} {fmt(row.get('em'))}")
    lines.append(rule)
    lines.append(f"{'mean':<24} {fmt(aggregates.get('recall'))} "
                 f"{fmt(aggregates.get('rouge_l'))} {fmt(aggregates.get('em'))}")
    return "\n".join(lines)


__all__ = [
    "evaluate_run",
    "lcs_length",
    "normalize",
    "recall",
    "render_table",
    "rouge_l",
    "string_em",
]
