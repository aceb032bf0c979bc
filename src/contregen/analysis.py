"""Diagnostic analyses of retrieval behavior.

Reachability: for one query, probe the retriever with the question and with
each gold passage's text; an edge A->B means A's probe returned B. Splitting
gold into passages reachable from the question versus not explains where
recall is lost. Facet coverage and per-iteration recall curves quantify the
breadth side of the comparison.
"""

from __future__ import annotations

import io
from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

from contregen.corpus import QueryRecord
from contregen.metrics import recall
from contregen.retrieval import RetrieverHandle, tokenize

QUERY_SENTINEL = "__query__"

PROBE_TOKEN_LIMIT = 512


@dataclass(frozen=True)
class ReachabilityGraph:
    query_id: str
    passage_ids: frozenset[str]
    edges: frozenset[tuple[str, str]]  # source is a passage id or the sentinel


@dataclass(frozen=True)
class ReachSplit:
    rep_ids: frozenset[str]
    nrep_ids: frozenset[str]


def build_reach_graph(retriever: RetrieverHandle, query: QueryRecord,
                      topk: int) -> ReachabilityGraph:
    """One probe for the question plus one per gold passage; edges land only
    on gold passages of this query and never on the probing passage itself."""
    if not query.gold_ids:
        raise ValueError("reachability needs a non-empty gold set")
    gold = frozenset(query.gold_ids)
    edges: set[tuple[str, str]] = set()
    for pid, _ in retriever.retrieve(query.query, topk):
        if pid in gold:
            edges.add((QUERY_SENTINEL, pid))
    for source in sorted(gold):
        probe = " ".join(tokenize(retriever.text(source))[:PROBE_TOKEN_LIMIT])
        for target, _ in retriever.retrieve(probe, topk):
            if target in gold and target != source:
                edges.add((source, target))
    return ReachabilityGraph(query_id=query.id, passage_ids=gold,
                             edges=frozenset(edges))


def split_reachability(graph: ReachabilityGraph) -> ReachSplit:
    """Breadth-first reachability from the question sentinel."""
    adjacency: dict[str, list[str]] = {}
    for source, target in graph.edges:
        adjacency.setdefault(source, []).append(target)
    reached: set[str] = set()
    frontier = list(adjacency.get(QUERY_SENTINEL, ()))
    while frontier:
        node = frontier.pop()
        if node in reached:
            continue
        reached.add(node)
        frontier.extend(adjacency.get(node, ()))
    rep = frozenset(reached & graph.passage_ids)
    return ReachSplit(rep_ids=rep, nrep_ids=graph.passage_ids - rep)


def recall_by_split(retrieved: Sequence[str],
                    split: ReachSplit) -> tuple[Optional[float], Optional[float]]:
    """Recall over each class separately; an empty class yields None so it
    can be excluded from aggregation rather than counted as zero."""
    if not split.rep_ids and not split.nrep_ids:
        raise ValueError("both reachability classes are empty")
    retrieved_set = set(retrieved)
    rep = (len(retrieved_set & split.rep_ids) / len(split.rep_ids)
           if split.rep_ids else None)
    nrep = (len(retrieved_set & split.nrep_ids) / len(split.nrep_ids)
            if split.nrep_ids else None)
    return rep, nrep


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
    "QUERY_SENTINEL",
    "ReachSplit",
    "ReachabilityGraph",
    "build_reach_graph",
    "curve_csv",
    "facet_coverage",
    "recall_by_split",
    "recall_curve",
    "split_reachability",
]
