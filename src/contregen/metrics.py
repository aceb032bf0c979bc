"""Evaluation metrics: retrieval recall, Rouge-L, string exact match.

All pure functions. Rouge-L is the summary-level variant: one LCS over the
whole candidate and reference after normalization (lowercase, punctuation
stripped, whitespace collapsed), P = LCS/|cand|, R = LCS/|ref|, reported as
100 * F1.
"""

from __future__ import annotations

import logging
import string
from array import array
from typing import Iterable, Mapping, Optional, Sequence

from contregen._kernels import lcs_length

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


def _encode(tokens: Sequence[str], vocab: dict[str, int]) -> array:
    out = array("i")
    for token in tokens:
        out.append(vocab.setdefault(token, len(vocab)))
    return out


def rouge_l(candidate: str, reference: str) -> float:
    ref_tokens = normalize(reference).split()
    if not ref_tokens:
        raise ValueError("rouge_l undefined for empty reference")
    cand_tokens = normalize(candidate).split()
    if not cand_tokens:
        return 0.0
    vocab: dict[str, int] = {}
    lcs = lcs_length(_encode(cand_tokens, vocab), _encode(ref_tokens, vocab))
    if lcs == 0:
        return 0.0
    precision = lcs / len(cand_tokens)
    recall_ = lcs / len(ref_tokens)
    return 100.0 * 2.0 * precision * recall_ / (precision + recall_)


def string_em(short_answers: Sequence[str], long_answer: str) -> float:
    """Fraction of normalized short answers appearing verbatim in the
    normalized long answer."""
    if not short_answers:
        raise ValueError("string_em undefined for empty short-answer list")
    haystack = normalize(long_answer)
    hits = sum(1 for answer in short_answers if normalize(answer) in haystack)
    return hits / len(short_answers)


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
                     if record.short_answers else None)
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
    "normalize",
    "recall",
    "render_table",
    "rouge_l",
    "string_em",
]
