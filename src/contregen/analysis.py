"""Diagnostic analyses of retrieval behavior.

Reachability: for one query, probe the retriever with the question, then
with the text of each gold passage it reaches, hop by hop. Splitting gold
into passages reachable from the question versus not explains where recall
is lost. Facet coverage and per-iteration recall curves quantify the
breadth side of the comparison.
"""

from __future__ import annotations

import io
from typing import Mapping, Optional, Sequence

from contregen.corpus import QueryRecord
from contregen.metrics import recall
from contregen.retrieval import RetrieverHandle, tokenize

PROBE_TOKEN_LIMIT = 512


def reachability(retriever: RetrieverHandle, query: QueryRecord,
                 topk: int) -> tuple[frozenset[str], frozenset[str]]:
    """The query's gold passages split into (reachable, not reachable).

    The question is probed first, then the text of each gold passage as it is
    reached, cut to PROBE_TOKEN_LIMIT tokens. A hit counts only when it lands
    on a gold passage not reached yet, so hops go only to gold passages and a
    passage reaching itself adds nothing. A gold passage never reached is
    never probed: its hops could not change the split."""
    gold = frozenset(query.gold_ids)
    if not gold:
        raise ValueError("reachability needs a non-empty gold set")
    reached: set[str] = set()
    probes = [query.query]
    for probe in probes:  # grows as gold passages are reached, in hit order
        for pid, _ in retriever.retrieve(probe, topk):
            if pid in gold and pid not in reached:
                reached.add(pid)
                probes.append(" ".join(tokenize(retriever.text(pid))[:PROBE_TOKEN_LIMIT]))
    rep = frozenset(reached)
    return rep, gold - rep


def recall_by_split(retrieved: Sequence[str], rep: frozenset[str],
                    nrep: frozenset[str]) -> tuple[Optional[float], Optional[float]]:
    """Recall over each class separately; an empty class yields None so it
    can be excluded from aggregation rather than counted as zero."""
    if not rep and not nrep:
        raise ValueError("both reachability classes are empty")
    retrieved_set = set(retrieved)
    rep_recall = len(retrieved_set & rep) / len(rep) if rep else None
    nrep_recall = len(retrieved_set & nrep) / len(nrep) if nrep else None
    return rep_recall, nrep_recall


def facet_coverage(retrieved: Sequence[str], facet_of: Mapping[str, str]) -> float:
    """Fraction of facets with at least one retrieved passage."""
    if not facet_of:
        raise ValueError("facet map is empty")
    facets = set(facet_of.values())
    covered = {facet_of[pid] for pid in retrieved if pid in facet_of}
    return len(covered) / len(facets)


def recall_curve(per_round_sets: Sequence[set], gold) -> list[float]:
    """Recall after each round; rounds must be nested (each a superset of the
    previous), which makes the curve non-decreasing by construction."""
    previous: set = set()
    curve = []
    for index, ids in enumerate(per_round_sets):
        if not previous <= set(ids):
            raise ValueError(f"round {index} is not a superset of round {index - 1}")
        previous = set(ids)
        curve.append(recall(ids, gold))
    return curve


def curve_csv(curves: Mapping[str, Sequence[float]]) -> str:
    """One row per method: method, then recall per round."""
    out = io.StringIO()
    width = max((len(c) for c in curves.values()), default=0)
    out.write("method," + ",".join(f"round_{i + 1}" for i in range(width)) + "\n")
    for method in sorted(curves):
        values = [f"{v:.6f}" for v in curves[method]]
        values += [""] * (width - len(values))
        out.write(method + "," + ",".join(values) + "\n")
    return out.getvalue()


__all__ = [
    "PROBE_TOKEN_LIMIT",
    "curve_csv",
    "facet_coverage",
    "reachability",
    "recall_by_split",
    "recall_curve",
]
