"""Span tracer for the benchmark: wraps program functions by name, in process.

Each wrapped call records a span (name, parent span, query, start, end, an
optional numeric tag and whether an exception passed through). Spans are kept
in memory and written out by the caller when the run ends. Wrappers are
installed on the attribute the program looks the function up through, and
`uninstall` puts every original object back. A target that no longer exists
is reported in `missing` (an unmeasured layer) instead of raising.
"""

from __future__ import annotations

import importlib
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional


def _is_hit(args, result) -> int:
    return int(result is not None)


def _postings(args, result) -> int:
    return len(args[1])


def _cells(args, result) -> int:
    return len(args[0]) * len(args[1])


def _trace_bytes(args, result) -> int:
    return len(args[1]) if Path(args[0]).name == "trace.json" else 0


def _tree_nodes(args, result) -> int:
    return sum(1 for _ in result.walk())


@dataclass(frozen=True)
class Spec:
    target: str                       # "module:attr" or "module:Class.attr"
    name: str                         # span name; several targets may share one
    tag: Optional[Callable] = None    # (args, result) -> number
    query: Optional[Callable] = None  # (args) -> query text; marks a per-query engine call


# Per-query engine calls, the only spans of an untraced run (query latency).
QUERY_SPECS = (
    Spec("contregen.runtrace:build_tree", "tree.build", _tree_nodes, lambda a: a[2]),
    Spec("contregen.tree:build_tree", "tree.build", _tree_nodes, lambda a: a[2]),
    Spec("contregen.runtrace:synthesize", "synthesis.synthesize",
         lambda a, r: r.fold_merges, lambda a: a[1].query),
    Spec("contregen.synthesis:synthesize", "synthesis.synthesize",
         lambda a, r: r.fold_merges, lambda a: a[1].query),
    Spec("contregen.baselines:run_retgen", "baselines.run",
         lambda a, r: len(r.rounds), lambda a: a[2]),
    Spec("contregen.baselines:run_iterretgen", "baselines.run",
         lambda a, r: len(r.rounds), lambda a: a[2]),
    Spec("contregen.baselines:run_selfask", "baselines.run",
         lambda a, r: len(r.rounds), lambda a: a[2]),
)

LAYER_SPECS = (
    Spec("contregen.runtrace:ingest_corpus", "corpus.ingest"),
    Spec("contregen.corpus:ingest_corpus", "corpus.ingest"),
    Spec("contregen.retrieval:LexicalIndex.__init__", "retrieval.index_build"),
    Spec("contregen.retrieval:LexicalIndex.retrieve", "retrieval.retrieve"),
    Spec("contregen.retrieval:tokenize", "retrieval.tokenize"),
    Spec("contregen.retrieval:bm25_accumulate", "kernels.bm25", _postings),
    Spec("contregen.retrieval:RetrieverHandle.retrieve", "retrieval.handle"),
    Spec("contregen.retrieval:RetrievalCache.__init__", "retrieval.cache_load"),
    Spec("contregen.retrieval:RetrievalCache.key", "retrieval.cache_key"),
    Spec("contregen.retrieval:RetrievalCache.get", "retrieval.cache_get", _is_hit),
    Spec("contregen.retrieval:RetrievalCache.put", "retrieval.cache_put"),
    Spec("contregen.metrics:lcs_length", "kernels.lcs", _cells),
    Spec("contregen.llm:LlmGateway.complete", "llm.gateway"),
    Spec("contregen.llm:PromptTemplate.render", "llm.render"),
    Spec("contregen.llm:CachingAdapter.complete", "llm.caching"),
    Spec("contregen.llm:ScriptedAdapter.complete", "llm.backend"),
    Spec("contregen.llm:LlmCache.__init__", "llm.cache_load"),
    Spec("contregen.llm:LlmCache.key", "llm.cache_key"),
    Spec("contregen.llm:LlmCache.get", "llm.cache_get", _is_hit),
    Spec("contregen.llm:LlmCache.put", "llm.cache_put"),
    Spec("contregen.tree:propose_plan", "planner.plan"),
    Spec("contregen.tree:render_passages", "planner.render_passages"),
    Spec("contregen.verifier:render_passages", "planner.render_passages"),
    Spec("contregen.synthesis:render_passages", "planner.render_passages"),
    Spec("contregen.baselines:render_passages", "planner.render_passages"),
    Spec("contregen.tree:verify", "verifier.verify", lambda a, r: int(r.accepted)),
    Spec("contregen.runtrace:evaluate_run", "metrics.evaluate"),
    Spec("contregen.runtrace:RunTrace.to_dict", "runtrace.to_dict"),
    Spec("contregen.runtrace:canonical_json", "runtrace.serialize"),
    Spec("contregen.runtrace:atomic_write", "runtrace.write", _trace_bytes),
    Spec("contregen.cli:run", "runtrace.run"),
) + QUERY_SPECS

# Span fields, in the order a span is stored. TOP marks a per-query engine call.
NAME, PARENT, QUERY, START, END, TAG, ERROR, TOP = range(8)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.queries: list[str] = []     # query text per query index
        self.missing: list[str] = []     # targets that could not be resolved
        self._query_index: dict[str, int] = {}
        self._stack: list[int] = []
        self._installed: list[tuple[object, str, bool, object]] = []

    def wrap(self, fn: Callable, name: str, tag: Optional[Callable] = None,
             query: Optional[Callable] = None) -> Callable:
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if query is not None:
                qid = self._query_id(query(args))
            else:
                qid = spans[stack[-1]][QUERY] if stack else -1
            span = [name, stack[-1] if stack else -1, qid, 0.0, 0.0, 0, False,
                    query is not None]
            stack.append(len(spans))
            spans.append(span)
            span[START] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[ERROR] = True
                raise
            finally:
                span[END] = clock()
                stack.pop()
            if tag is not None:
                span[TAG] = tag(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _query_id(self, text: str) -> int:
        index = self._query_index.get(text)
        if index is None:
            index = self._query_index[text] = len(self.queries)
            self.queries.append(text)
        return index

    def install(self, specs) -> None:
        for spec in specs:
            module_name, _, path = spec.target.partition(":")
            try:
                owner = importlib.import_module(module_name)
                *parents, attr = path.split(".")
                for part in parents:
                    owner = getattr(owner, part)
                getattr(owner, attr)
            except (ImportError, AttributeError):
                self.missing.append(spec.target)
                continue
            self.wrap_attr(owner, attr, spec.name, spec.tag, spec.query)

    def wrap_attr(self, owner, attr: str, name: str, tag=None, query=None) -> None:
        """Replace owner.attr with a traced version; staticmethods stay static."""
        own = attr in vars(owner)
        original = vars(owner)[attr] if own else getattr(owner, attr)
        if isinstance(original, staticmethod):
            replacement = staticmethod(self.wrap(original.__func__, name, tag, query))
        else:
            replacement = self.wrap(original, name, tag, query)
        setattr(owner, attr, replacement)
        self._installed.append((owner, attr, own, original))

    def uninstall(self) -> None:
        while self._installed:
            owner, attr, own, original = self._installed.pop()
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    def dump(self) -> dict:
        return {"spans": self.spans, "queries": self.queries, "missing": self.missing}


class Aggregate:
    """Per-name totals over span dumps: count, time, self time, tag sum."""

    def __init__(self, dumps) -> None:
        self.count: dict[str, int] = {}
        self.total: dict[str, float] = {}
        self.self_time: dict[str, float] = {}
        self.tags: dict[str, float] = {}
        self.errors = 0
        self.query_phase = 0.0  # wall time inside the per-query engine calls
        self.missing: list[str] = []
        for dump in dumps:
            self._add(dump)

    def _add(self, dump: dict) -> None:
        spans = dump["spans"]
        child_time = [0.0] * len(spans)
        for span in spans:
            if span[PARENT] >= 0:
                child_time[span[PARENT]] += span[END] - span[START]
        for index, span in enumerate(spans):
            name, duration = span[NAME], span[END] - span[START]
            self.count[name] = self.count.get(name, 0) + 1
            self.total[name] = self.total.get(name, 0.0) + duration
            self.self_time[name] = (self.self_time.get(name, 0.0)
                                    + duration - child_time[index])
            self.tags[name] = self.tags.get(name, 0) + span[TAG]
            self.errors += span[ERROR]
            if span[TOP]:
                self.query_phase += duration
        self.missing += [t for t in dump.get("missing", ()) if t not in self.missing]

    def n(self, name: str) -> int:
        return self.count.get(name, 0)

    def s(self, name: str) -> float:
        return self.total.get(name, 0.0)

    def self_s(self, name: str) -> float:
        return self.self_time.get(name, 0.0)

    def tag(self, name: str) -> float:
        return self.tags.get(name, 0)

    def ratio(self, name: str) -> float:
        return self.tag(name) / self.n(name) if self.n(name) else 0.0


def query_intervals(dump: dict) -> dict[str, list[tuple[float, float]]]:
    """(start, end) of every top-level engine call, per query text."""
    out: dict[str, list[tuple[float, float]]] = {}
    for span in dump["spans"]:
        if span[TOP]:
            out.setdefault(dump["queries"][span[QUERY]], []).append((span[START], span[END]))
    return out


def layer_metrics(agg: Aggregate, queries: int) -> dict[str, tuple[float, str]]:
    """The per-layer metrics, name -> (value, unit)."""

    def per(numerator: float, denominator: float, scale: float = 1.0) -> float:
        return numerator * scale / denominator if denominator else 0.0

    wait = agg.s("llm.model_wait") or agg.s("llm.backend")
    return {
        "corpus.ingest_s": (agg.s("corpus.ingest"), "s"),
        "retrieval.index_build_s": (agg.s("retrieval.index_build"), "s"),
        "retrieval.retrieve_calls": (agg.n("retrieval.retrieve"), "count"),
        "retrieval.retrieve_s": (agg.s("retrieval.retrieve"), "s"),
        "retrieval.retrieve_share": (per(agg.s("retrieval.retrieve"), agg.query_phase), "ratio"),
        "retrieval.select_self_s": (agg.self_s("retrieval.retrieve"), "s"),
        "retrieval.cache_load_s": (agg.s("retrieval.cache_load"), "s"),
        "retrieval.cache_put_s": (agg.s("retrieval.cache_put"), "s"),
        "retrieval.cache_hit_ratio": (agg.ratio("retrieval.cache_get"), "ratio"),
        "kernels.bm25_calls": (agg.n("kernels.bm25"), "count"),
        "kernels.bm25_s": (agg.s("kernels.bm25"), "s"),
        "kernels.bm25_postings": (agg.tag("kernels.bm25"), "count"),
        "kernels.bm25_ns_per_posting": (per(agg.s("kernels.bm25"), agg.tag("kernels.bm25"), 1e9),
                                        "ns/posting"),
        "kernels.lcs_calls": (agg.n("kernels.lcs"), "count"),
        "kernels.lcs_s": (agg.s("kernels.lcs"), "s"),
        "kernels.lcs_cells": (agg.tag("kernels.lcs"), "count"),
        "kernels.lcs_ns_per_cell": (per(agg.s("kernels.lcs"), agg.tag("kernels.lcs"), 1e9),
                                    "ns/cell"),
        "llm.calls": (agg.n("llm.gateway"), "count"),
        "llm.backend_calls": (agg.n("llm.backend"), "count"),
        "llm.render_s": (agg.s("llm.render"), "s"),
        "llm.gateway_self_s": (agg.self_s("llm.gateway"), "s"),
        "llm.cache_load_s": (agg.s("llm.cache_load"), "s"),
        "llm.cache_lookup_s": (agg.s("llm.cache_key") + agg.s("llm.cache_get"), "s"),
        "llm.cache_put_s": (agg.s("llm.cache_put"), "s"),
        "llm.cache_hit_ratio": (agg.ratio("llm.cache_get"), "ratio"),
        "llm.backend_wait_s": (wait, "s"),
        "llm.wait_concurrency": (per(wait, agg.query_phase), "ratio"),
        "planner.plan_calls": (agg.n("planner.plan"), "count"),
        "planner.plan_self_s": (agg.self_s("planner.plan"), "s"),
        "planner.render_passages_s": (agg.s("planner.render_passages"), "s"),
        "verifier.verify_calls": (agg.n("verifier.verify"), "count"),
        "verifier.accept_ratio": (agg.ratio("verifier.verify"), "ratio"),
        "verifier.self_s": (agg.self_s("verifier.verify"), "s"),
        "tree.build_s": (agg.s("tree.build"), "s"),
        "tree.self_s": (agg.self_s("tree.build"), "s"),
        "tree.nodes": (agg.tag("tree.build"), "count"),
        "synthesis.s": (agg.s("synthesis.synthesize"), "s"),
        "synthesis.self_s": (agg.self_s("synthesis.synthesize"), "s"),
        "synthesis.fold_merges": (agg.tag("synthesis.synthesize"), "count"),
        "baselines.runs": (agg.n("baselines.run"), "count"),
        "baselines.rounds": (agg.tag("baselines.run"), "count"),
        "baselines.self_s": (agg.self_s("baselines.run"), "s"),
        "metrics.evaluate_s": (agg.s("metrics.evaluate"), "s"),
        "runtrace.to_dict_s": (agg.s("runtrace.to_dict"), "s"),
        "runtrace.serialize_s": (agg.s("runtrace.serialize"), "s"),
        "runtrace.write_s": (agg.s("runtrace.write"), "s"),
        "runtrace.trace_bytes_per_query": (per(agg.tag("runtrace.write"), queries), "bytes/query"),
        "runtrace.self_s": (agg.self_s("runtrace.run"), "s"),
        "query_phase_s": (agg.query_phase, "s"),
        "spans.errors": (agg.errors, "count"),
    }
