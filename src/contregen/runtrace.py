"""Run configuration, deterministic traces, persistence, replay, diffing.

A trace records every logical generation and retrieval call with enough
context to re-run or audit a run. Each record's dataclass is the only
definition of its format: a section, a call or a tree node serializes as its
own fields, and QueryRun's field metadata holds the checks load_trace makes
and the wording diff_traces uses. Serialization is canonical (sorted keys,
fixed separators, ascii) so equal runs produce byte-identical files.
Physical backend invocation counts live on the backend objects, never in
the trace: a warm-cache rerun must serialize identically to the original.
"""

from __future__ import annotations

import dataclasses
import json
import logging
import os
import re
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator, Mapping, Optional

from contregen import baselines
from contregen.backend_io import atomic_write, atomic_writer, read_json, read_text
from contregen.corpus import (
    CorpusStore,
    QueryRecord,
    _lone_surrogate,
    ingest_corpus,
    load_queries,
    validate_queries,
)
from contregen.errors import ConfigError, ContregenError, DataError
from contregen.llm import (
    Adapter,
    CachingAdapter,
    LlmCache,
    LlmCall,
    LlmGateway,
    OpenAiChatAdapter,
    ScriptedAdapter,
    load_templates,
)
from contregen.metrics import evaluate_run
from contregen.retrieval import (
    LexicalIndex,
    RemoteRetriever,
    RetrievalCache,
    RetrievalCall,
    RetrieverHandle,
)
from contregen.synthesis import SUMMARY_CHAR_BUDGET, synthesize
from contregen.tree import TreeConfig, build_tree, collect_passages, export_tree

logger = logging.getLogger(__name__)


def _run_tree(config: RunConfig, gateway: LlmGateway, handle: RetrieverHandle,
              query: str, section: QueryRun) -> None:
    tree_config = TreeConfig(max_depth=config.max_depth,
                             max_plan_size=config.max_plan_size, topk=config.topk)
    root = build_tree(gateway, handle, query, tree_config)
    section.answer = synthesize(gateway, root, handle.text,
                                char_budget=config.char_budget).answer
    section.retrieved_ids = tuple(collect_passages(root, dedup=config.dedup_passages))
    section.tree = export_tree(root)


def _record_chain(section: QueryRun, run: baselines.BaselineRun) -> None:
    section.answer = run.answer
    section.retrieved_ids = run.retrieved_ids
    section.rounds = [list(ids) for ids in run.rounds]


# Method name -> runner(config, gateway, handle, query, section). Runners look
# the engine functions up at call time and pass the query as the third
# positional argument, so wrappers installed on them see every query.
METHODS = {
    "contregen": _run_tree,
    "retgen": lambda config, gateway, handle, query, section: _record_chain(
        section, baselines.run_retgen(gateway, handle, query, config.topk)),
    "iterretgen": lambda config, gateway, handle, query, section: _record_chain(
        section, baselines.run_iterretgen(gateway, handle, query, config.topk,
                                          config.max_iterations)),
    "selfask": lambda config, gateway, handle, query, section: _record_chain(
        section, baselines.run_selfask(gateway, handle, query, config.topk,
                                       config.max_iterations)),
}

# Allowed values and integer floors of RunConfig fields, for validate() and the CLI.
CHOICES = {
    "method": tuple(METHODS),
    "adapter": ("scripted", "openai"),
    "retriever_backend": ("lexical", "remote"),
}
INT_FLOORS = {"topk": 1, "max_depth": 0, "max_plan_size": 1, "max_iterations": 1,
              "char_budget": 1, "parallel": 1}


@dataclass(frozen=True)
class RunConfig:
    method: str = "contregen"
    corpus_path: str = ""
    queries_path: str = ""
    out_dir: str = "runs/out"
    topk: int = 5
    max_depth: int = 2
    max_plan_size: int = 5
    dedup_passages: bool = True
    max_iterations: int = 5
    char_budget: int = SUMMARY_CHAR_BUDGET
    adapter: str = "scripted"
    fixtures_path: Optional[str] = None
    model: str = ""
    retriever_backend: str = "lexical"
    remote_endpoint: Optional[str] = None
    template_dir: Optional[str] = None
    cache_dir: Optional[str] = None
    replay: bool = False                 # strict: any cache miss is an error
    parallel: int = 1
    seed_tag: str = ""

    def validate(self) -> None:
        for f in dataclasses.fields(self):  # typed as its default; Optional means Optional[str]
            value, kind = getattr(self, f.name), str if f.default is None else type(f.default)
            if type(value) is not kind and not (f.default is None and value is None):
                raise ConfigError(f"{f.name} must be {kind.__name__}, not {type(value).__name__}")
        for name, allowed in CHOICES.items():
            if getattr(self, name) not in allowed:
                raise ConfigError(f"unknown {name.replace('_', ' ')}: {getattr(self, name)}")
        if self.adapter == "scripted" and not self.fixtures_path:
            raise ConfigError("scripted adapter needs fixtures_path")
        if self.adapter == "openai" and not self.model:
            raise ConfigError("openai adapter needs a model name")
        if self.retriever_backend == "remote" and not self.remote_endpoint:
            raise ConfigError("remote retriever needs remote_endpoint")
        for name, floor in INT_FLOORS.items():
            if getattr(self, name) < floor:
                raise ConfigError(f"{name} must be an integer >= {floor}")

    def snapshot(self) -> dict:
        """The part of the config that defines the experiment; execution
        details (replay, parallel) are excluded so a warm-cache rerun
        serializes identically."""
        data = dataclasses.asdict(self)
        data.pop("replay")
        data.pop("parallel")
        return data


def load_config(path: Optional[str] = None,
                overrides: Optional[Mapping[str, object]] = None) -> RunConfig:
    """Defaults, then the config file, then flag overrides."""
    values: dict = {}
    if path is not None:
        import yaml  # deferred: only a run with a config file pays for loading it
        try:  # an unreadable file is a ConfigError, as a missing one is
            loaded = yaml.safe_load(read_text(path, "config file")) or {}
        except DataError as exc:
            raise ConfigError(str(exc)) from None
        except yaml.YAMLError as exc:
            raise ConfigError(f"config file {path} is not valid YAML: {exc}")
        if not isinstance(loaded, dict):
            raise ConfigError(f"config file {path} must hold a mapping")
        values.update(loaded)
    if overrides:
        values.update({k: v for k, v in overrides.items() if v is not None})
    known = {f.name for f in dataclasses.fields(RunConfig)}
    unknown = set(values) - known
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(sorted(map(str, unknown)))}")
    config = RunConfig(**values)
    config.validate()
    return config


def _is(*kinds):
    """A check that a value is of one of kinds; None among them admits null."""
    types = tuple(type(None) if kind is None else kind for kind in kinds)
    return lambda value: isinstance(value, types)


def _list_of(check):
    return lambda value: isinstance(value, list) and all(map(check, value))


def _dict_of(check):
    return lambda value: isinstance(value, dict) and all(map(check, value.values()))


# Tree calls sit at "" or "0", "0.1", ...; chain calls at "<method>[.<round>|.final]".
_NODE_PATH_RE = re.compile(r"|0(\.[0-9]+)*|(%s)(\.([0-9]+|final))?" % "|".join(
    name for name, runner in METHODS.items() if runner is not _run_tree))


def _llm_call(call) -> bool:
    """An object whose node_path, when present, is a tree or chain method path."""
    path = call.get("node_path", "") if isinstance(call, dict) else None
    return isinstance(path, str) and _NODE_PATH_RE.fullmatch(path) is not None


def _field(check, kind: str, differs: Optional[str], **default) -> dataclasses.Field:
    """A QueryRun field whose metadata holds the check load_trace makes, how it
    names a bad value, and what diff_traces says when two traces differ in it
    (None: the llm calls, compared one by one)."""
    return field(metadata={"check": check, "kind": kind, "differs": differs}, **default)


@dataclass
class QueryRun:
    """A query's section of the trace, keyed by its query id. The fields are
    the section's keys, in diff order, and each carries its own load_trace
    check and diff_traces wording; calls serialize as their own fields."""

    method: str = _field(_is(str), "a string", "method differs")
    answer: str = _field(_is(str), "a string", "answer differs", default="")
    retrieved_ids: tuple[str, ...] = _field(_list_of(_is(str)), "a list of strings",
                                            "retrieved ids differ", default=())
    llm_calls: list[LlmCall] = _field(
        _list_of(_llm_call), "a list of objects whose node_path is a tree or chain method path",
        None, default_factory=list)
    retrieval_calls: list[RetrievalCall] = _field(
        _list_of(_is(dict)), "a list of objects", "retrieval calls differ", default_factory=list)
    tree: Optional[dict] = _field(_is(dict, None), "null or an object", "tree differs",
                                  default=None)
    rounds: Optional[list[list[str]]] = _field(
        lambda v: v is None or _list_of(_list_of(_is(str)))(v),
        "null or a list of lists of strings", "rounds differ", default=None)
    error: Optional[str] = _field(_is(str, None), "null or a string", "error field differs",
                                  default=None)


def _section_dict(q: QueryRun) -> dict:
    """A query's section of the trace, as serialized."""
    return {**vars(q), "llm_calls": [vars(c) for c in q.llm_calls],
            "retrieval_calls": [vars(c) for c in q.retrieval_calls]}


@dataclass
class RunTrace:
    """One run: the config snapshot, a section per query and the report, all
    serialized by json_pieces, plus physical backend call counts, which are not."""

    config_snapshot: dict
    queries: dict[str, QueryRun]
    report: dict
    backend_stats: dict[str, int]

    def to_dict(self) -> dict:
        """The trace as json_pieces writes it, parsed back."""
        return json.loads("".join(self.json_pieces()))

    def json_pieces(self) -> Iterator[str]:
        """The canonical trace file in pieces: the config head, one piece per
        query section in query id order (the order sort_keys gives), then the
        report tail. Only one section is serialized at once."""
        yield '{"config":' + canonical_json(self.config_snapshot) + ',"queries":{'
        separator = ""
        for qid, q in sorted(self.queries.items()):
            yield separator + canonical_json(qid) + ":" + canonical_json(_section_dict(q))
            separator = ","
        yield '},"report":' + canonical_json(self.report) + "}\n"

    def write_json(self, path: str | Path) -> None:
        """Write json_pieces to path through atomic_writer."""
        with atomic_writer(path) as fh:
            fh.writelines(self.json_pieces())


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), ensure_ascii=True)


def _build_adapter(config: RunConfig) -> Adapter:
    if config.adapter == "scripted":
        return ScriptedAdapter.from_file(config.fixtures_path)
    api_key = os.environ.get("OPENAI_API_KEY", "")
    if not api_key:
        raise ConfigError("openai adapter needs OPENAI_API_KEY in the environment")
    return OpenAiChatAdapter(model=config.model, api_key=api_key)


def _build_backend(config: RunConfig, store: CorpusStore):
    if config.retriever_backend == "lexical":
        return LexicalIndex(store)
    token = os.environ.get("CONTREGEN_RETRIEVER_TOKEN")
    return RemoteRetriever(config.remote_endpoint, token=token)


def _run_one(config: RunConfig, record: QueryRecord, adapter: Adapter,
             backend, store: CorpusStore, templates,
             retrieval_cache: Optional[RetrievalCache]) -> QueryRun:
    section = QueryRun(method=config.method)
    gateway = LlmGateway(adapter, templates, on_call=section.llm_calls.append)
    handle = RetrieverHandle(backend, store, cache=retrieval_cache,
                             on_call=section.retrieval_calls.append)
    try:
        METHODS[config.method](config, gateway, handle, record.query, section)
    except ContregenError as exc:
        logger.error("query %s failed: %s", record.id, exc)
        section.error = f"{type(exc).__name__}: {exc}"
    return section


def run(config: RunConfig) -> RunTrace:
    """Execute the configured method over every query and persist artifacts.

    Per-query failures are recorded in the trace and the run continues;
    only configuration problems abort.
    """
    config.validate()
    required = ["corpus_path", "queries_path"]
    if config.adapter == "scripted":
        required.append("fixtures_path")
    for path_name in required:
        value = getattr(config, path_name)
        if not value or not Path(value).exists():
            raise ConfigError(f"{path_name} does not exist: {value!r}")

    store = ingest_corpus(config.corpus_path)
    records = load_queries(config.queries_path)
    validate_queries(records, store)
    templates = load_templates(config.template_dir)

    adapter = _build_adapter(config)
    backend = _build_backend(config, store)
    retrieval_cache = llm_cache = None
    if config.cache_dir:
        cache_dir = Path(config.cache_dir)
        retrieval_cache = RetrievalCache(cache_dir / "retrieval.jsonl", strict=config.replay)
        llm_cache = LlmCache(cache_dir / "llm.jsonl", strict=config.replay)
        adapter = CachingAdapter(adapter, llm_cache)
    elif config.replay:
        raise ConfigError("replay mode needs cache_dir")

    ordered = sorted(records, key=lambda r: r.id)
    try:
        if config.parallel > 1:
            with ThreadPoolExecutor(max_workers=config.parallel) as pool:
                sections = list(pool.map(
                    lambda rec: _run_one(config, rec, adapter, backend, store,
                                         templates, retrieval_cache),
                    ordered))
        else:
            sections = [_run_one(config, rec, adapter, backend, store,
                                 templates, retrieval_cache)
                        for rec in ordered]
    finally:
        for cache in (retrieval_cache, llm_cache):
            if cache is not None:
                cache.close()
    queries = {record.id: section for record, section in zip(ordered, sections)}

    answers = {qid: q.answer for qid, q in queries.items() if q.error is None}
    retrieved = {qid: q.retrieved_ids for qid, q in queries.items()}
    report = evaluate_run(records, answers, retrieved)
    trace = RunTrace(config_snapshot=config.snapshot(), queries=queries, report=report,
                     backend_stats={"llm_backend_calls": adapter.backend_calls,
                                    "retrieval_backend_calls": backend.backend_calls})

    out_dir = Path(config.out_dir)
    trace.write_json(out_dir / "trace.json")
    atomic_write(out_dir / "report.json", canonical_json(report) + "\n")
    outputs = "".join(
        canonical_json({"id": qid, "answer": q.answer, "error": q.error}) + "\n"
        for qid, q in sorted(queries.items()))
    atomic_write(out_dir / "outputs.jsonl", outputs)
    return trace


_SCORES = _dict_of(_is(int, float, None))


def load_trace(path: str | Path) -> dict:
    """A trace file as a dict. Every field present is checked for type (a
    section may leave any out); a bad one is a DataError naming the file and
    the query."""
    data = read_json(path, "trace file")
    if not isinstance(data, dict):
        raise DataError(f"trace file {path} is not a JSON object")
    queries = data.get("queries", {})
    if not _dict_of(_is(dict))(queries):
        raise DataError(f"trace file {path}: queries must map query ids to objects")
    for qid, section in queries.items():
        for f in dataclasses.fields(QueryRun):
            if f.name in section and not f.metadata["check"](section[f.name]):
                raise DataError(f"trace file {path}: query {qid}: "
                                f"{f.name} must be {f.metadata['kind']}")
    report = data.get("report")
    if not _is(dict, None)(report):
        raise DataError(f"trace file {path}: report must be an object")
    if report and not (_dict_of(_SCORES)(report.get("per_query", {}))
                       and _SCORES(report.get("aggregates", {}))):
        raise DataError(f"trace file {path}: report per_query must map query ids to "
                        "objects of numbers, and aggregates must be an object of numbers")
    # load_queries rejects such an id, but a trace from a version that took one may hold it
    fault = _lone_surrogate(("query id", qid) for qid in
                            [*queries, *(report or {}).get("per_query", {})])
    if fault:
        raise DataError(f"trace file {path}: {fault}")
    return data


def diff_traces(da: dict, db: dict) -> list[str]:
    """Human-readable structural differences between two trace dicts; empty
    exactly when their canonical serializations are byte-identical."""
    if canonical_json(da) == canonical_json(db):
        return []
    diffs: list[str] = []
    if canonical_json(da.get("config")) != canonical_json(db.get("config")):
        diffs.append("config differs")
    qa, qb = da.get("queries", {}), db.get("queries", {})
    for qid in sorted(set(qa) | set(qb)):
        if qid not in qa or qid not in qb:
            where = "second" if qid not in qa else "first"
            diffs.append(f"query {qid}: only in {where} trace")
            continue
        sa, sb = qa[qid], qb[qid]
        for f in dataclasses.fields(QueryRun):
            name, differs = f.name, f.metadata["differs"]
            if differs is None:  # the llm calls, one by one
                calls_a, calls_b = sa.get(name, []), sb.get(name, [])
                if len(calls_a) != len(calls_b):
                    diffs.append(f"query {qid}: {len(calls_a)} vs {len(calls_b)} llm calls")
                diffs += [f"query {qid}: llm call {index} differs "
                          f"(role={ca.get('role')}, node_path={ca.get('node_path')})"
                          for index, (ca, cb) in enumerate(zip(calls_a, calls_b)) if ca != cb]
            elif canonical_json(sa.get(name)) != canonical_json(sb.get(name)):
                diffs.append(f"query {qid}: {differs}")
    if canonical_json(da.get("report")) != canonical_json(db.get("report")):
        diffs.append("report differs")
    if not diffs:
        diffs.append("traces differ in serialization")
    return diffs


__all__ = [
    "CHOICES",
    "INT_FLOORS",
    "METHODS",
    "QueryRun",
    "RunConfig",
    "RunTrace",
    "atomic_write",
    "canonical_json",
    "diff_traces",
    "load_config",
    "load_trace",
    "run",
]
