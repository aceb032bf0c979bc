"""Command-line entry point.

Exit codes: 0 success, 1 usage/configuration error, 2 data error, 3 backend
error. Diagnostics go to stderr; data goes to stdout or the --out path.
Every reporting command honors --format table|structured.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
import typing
from pathlib import Path
from typing import Optional

from contregen import analysis
from contregen.corpus import (
    build_wikihow_benchmark,
    ingest_corpus,
    load_article_dumps,
    load_queries,
    validate_queries,
    write_passages,
    write_queries,
)
from contregen.errors import (
    BackendError,
    ConfigError,
    ContregenError,
    DataError,
    FixtureMissError,
)
from contregen.metrics import MetricReport, evaluate_run, render_table, to_structured
from contregen.retrieval import LexicalIndex, RetrieverHandle
from contregen.runtrace import (
    CHOICES,
    INT_FLOORS,
    RunConfig,
    canonical_json,
    diff_traces,
    load_config,
    load_trace,
    run,
)
from contregen.tree import import_tree, to_dot

logger = logging.getLogger(__name__)


class _Parser(argparse.ArgumentParser):
    """argparse defaults to exit code 2 on usage errors; the exit-code
    contract reserves 2 for data errors, so raise instead."""

    def error(self, message):
        raise ConfigError(f"{message}\n{self.format_usage()}".rstrip())


def _emit(text: str, out: Optional[str]) -> None:
    if out:
        path = Path(out)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text if text.endswith("\n") else text + "\n",
                        encoding="utf-8")
    else:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")


def _add_format(parser) -> None:
    parser.add_argument("--format", choices=("table", "structured"),
                        default="table", help="output rendering")


# Every RunConfig field but the bool ones (replay comes from the subcommand)
# is a flag: --<field name without "_path", "_" -> "-">.
_RUN_FLAGS = {name: hint for name, hint in typing.get_type_hints(RunConfig).items()
              if hint is not bool}


def _add_run_flags(parser) -> None:
    parser.add_argument("--config", help="YAML config file")
    for name, hint in _RUN_FLAGS.items():
        flag = "--" + name.removesuffix("_path").replace("_", "-")
        if hint is int:
            parser.add_argument(flag, dest=name, type=int,
                                help=f"integer >= {INT_FLOORS[name]}")
        else:
            parser.add_argument(flag, dest=name, choices=CHOICES.get(name))


def _config_from_args(args) -> RunConfig:
    overrides = {name: getattr(args, name) for name in _RUN_FLAGS}
    return load_config(args.config, {**overrides, "replay": args.replay})


def _cmd_ingest(args) -> int:
    store = ingest_corpus(args.corpus)
    if args.out:
        write_passages(store, args.out)
    summary = {"passages": len(store)}
    if args.format == "structured":
        _emit(canonical_json(summary), None)
    else:
        _emit(f"ingested {len(store)} passages from {args.corpus}", None)
    return 0


def _cmd_build_wikihow(args) -> int:
    dumps = load_article_dumps(args.articles)
    passages, queries = build_wikihow_benchmark(dumps)
    write_passages(passages, args.out_corpus)
    write_queries(queries, args.out_queries)
    total_gold = sum(len(q.gold_ids) for q in queries)
    summary = {
        "articles": len(dumps),
        "passages": len(passages),
        "queries": len(queries),
        "avg_gold_per_query": total_gold / len(queries) if queries else 0.0,
    }
    if args.format == "structured":
        _emit(canonical_json(summary), None)
    else:
        _emit(f"built corpus of {summary['passages']} passages and "
              f"{summary['queries']} queries "
              f"(avg {summary['avg_gold_per_query']:.2f} gold passages/query)", None)
    return 0


def _cmd_run(args) -> int:
    trace = run(_config_from_args(args))
    failed = sum(1 for q in trace.queries.values() if q.error is not None)
    summary = {
        "queries": len(trace.queries),
        "failed": failed,
        "out_dir": trace.config_snapshot["out_dir"],
        "aggregates": (trace.report or {}).get("aggregates", {}),
    }
    if args.format == "structured":
        _emit(canonical_json(summary), None)
    else:
        _emit(f"ran {summary['queries']} queries ({failed} failed); "
              f"artifacts in {summary['out_dir']}", None)
    return 0


def _report_from_dict(data: dict) -> MetricReport:
    report = MetricReport()
    report.per_query = data.get("per_query", {})
    report.aggregates = data.get("aggregates", {})
    return report


def _cmd_eval(args) -> int:
    trace = load_trace(args.trace)
    if args.queries:
        records = load_queries(args.queries)
        sections = trace.get("queries", {})
        answers = {qid: s["answer"] for qid, s in sections.items()
                   if s.get("error") is None}
        retrieved = {qid: s.get("retrieved_ids", []) for qid, s in sections.items()}
        report = evaluate_run(records, answers, retrieved)
    else:
        if not trace.get("report"):
            raise DataError("trace carries no report; pass --queries to recompute")
        report = _report_from_dict(trace["report"])
    if args.format == "structured":
        _emit(canonical_json(to_structured(report)), args.out)
    else:
        _emit(render_table(report), args.out)
    return 0


def _reach_handle(args) -> tuple[RetrieverHandle, list]:
    store = ingest_corpus(args.corpus)
    records = load_queries(args.queries)
    validate_queries(records, store)
    return RetrieverHandle(LexicalIndex(store), store), records


def _cmd_analyze_reach(args) -> int:
    handle, records = _reach_handle(args)
    retrieved_by_query = {}
    if args.trace:
        trace = load_trace(args.trace)
        retrieved_by_query = {
            qid: section.get("retrieved_ids", [])
            for qid, section in trace.get("queries", {}).items()}
    rows = []
    for record in sorted(records, key=lambda r: r.id):
        if not record.gold_ids:
            logger.warning("query %s has no gold passages; skipped", record.id)
            continue
        graph = analysis.build_reach_graph(handle, record, args.topk)
        split = analysis.split_reachability(graph)
        row = {
            "query": record.id,
            "rep": sorted(split.rep_ids),
            "nrep": sorted(split.nrep_ids),
        }
        if record.id in retrieved_by_query:
            rep_recall, nrep_recall = analysis.recall_by_split(
                retrieved_by_query[record.id], split)
            row["rep_recall"] = rep_recall
            row["nrep_recall"] = nrep_recall
        rows.append(row)
    if args.format == "structured":
        _emit(canonical_json({"queries": rows}), args.out)
        return 0
    lines = []
    for row in rows:
        line = (f"{row['query']}: reachable {len(row['rep'])} "
                f"({', '.join(row['rep']) or 'none'}); "
                f"non-reachable {len(row['nrep'])} "
                f"({', '.join(row['nrep']) or 'none'})")
        if "rep_recall" in row:
            rep = "n/a" if row["rep_recall"] is None else f"{row['rep_recall']:.4f}"
            nrep = "n/a" if row["nrep_recall"] is None else f"{row['nrep_recall']:.4f}"
            line += f"; recall rep={rep} nrep={nrep}"
        lines.append(line)
    _emit("\n".join(lines) if lines else "no queries analyzed", args.out)
    return 0


def _cmd_analyze_facets(args) -> int:
    records = load_queries(args.queries)
    trace = load_trace(args.trace)
    sections = trace.get("queries", {})
    rows = []
    for record in sorted(records, key=lambda r: r.id):
        if not record.facet_of:
            continue
        if record.id not in sections:
            continue
        coverage = analysis.facet_coverage(
            sections[record.id].get("retrieved_ids", []), record.facet_of)
        rows.append({"query": record.id, "coverage": coverage})
    mean = sum(r["coverage"] for r in rows) / len(rows) if rows else None
    if args.format == "structured":
        _emit(canonical_json({"queries": rows, "mean_coverage": mean}), args.out)
        return 0
    lines = [f"{row['query']}: facet coverage {row['coverage']:.4f}" for row in rows]
    lines.append(f"mean: {mean:.4f}" if mean is not None else "mean: n/a")
    _emit("\n".join(lines), args.out)
    return 0


def _cmd_curve(args) -> int:
    records = {r.id: r for r in load_queries(args.queries)}
    trace = load_trace(args.trace)
    curves: dict[str, list[float]] = {}
    for qid, section in sorted(trace.get("queries", {}).items()):
        rounds = section.get("rounds")
        record = records.get(qid)
        if not rounds or record is None or not record.gold_ids:
            logger.warning("query %s has no per-round data; skipped", qid)
            continue
        curves[qid] = analysis.recall_curve([set(ids) for ids in rounds],
                                            record.gold_ids)
    if curves:
        # queries that stopped early carry their last value forward
        width = max(len(c) for c in curves.values())
        padded = {qid: list(c) + [c[-1]] * (width - len(c))
                  for qid, c in curves.items()}
        mean = [sum(c[i] for c in padded.values()) / len(padded)
                for i in range(width)]
        curves["mean"] = mean
    _emit(analysis.curve_csv(curves), args.out)
    return 0


def _cmd_export_tree(args) -> int:
    trace = load_trace(args.trace)
    sections = trace.get("queries", {})
    if args.query not in sections:
        raise DataError(f"trace has no query {args.query}")
    tree_data = sections[args.query].get("tree")
    if tree_data is None:
        raise DataError(f"query {args.query} has no tree (baseline run?)")
    if args.dot:
        _emit(to_dot(import_tree(tree_data)), args.out)
    else:
        _emit(canonical_json(tree_data), args.out)
    return 0


def _cmd_diff(args) -> int:
    diffs = diff_traces(load_trace(args.a), load_trace(args.b))
    if args.format == "structured":
        _emit(canonical_json({"identical": not diffs, "differences": diffs}),
              args.out)
    elif diffs:
        _emit("\n".join(diffs), args.out)
    else:
        _emit("traces identical", args.out)
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="contregen",
                     description="tree-structured retrieval-augmented generation")
    sub = parser.add_subparsers(dest="command", metavar="command")

    p = sub.add_parser("ingest", help="load and validate a passage corpus")
    p.add_argument("--corpus", required=True)
    p.add_argument("--out", help="write the normalized corpus here")
    _add_format(p)
    p.set_defaults(func=_cmd_ingest)

    p = sub.add_parser("build-wikihow",
                       help="turn article dumps into a corpus and query set")
    p.add_argument("--articles", required=True)
    p.add_argument("--out-corpus", required=True)
    p.add_argument("--out-queries", required=True)
    _add_format(p)
    p.set_defaults(func=_cmd_build_wikihow)

    for name, replay, text in (
            ("run", False, "run a method over a query set"),
            ("replay", True, "re-run strictly from caches; any miss is an error")):
        p = sub.add_parser(name, help=text)
        _add_run_flags(p)
        _add_format(p)
        p.set_defaults(func=_cmd_run, replay=replay)

    p = sub.add_parser("eval", help="score a finished run")
    p.add_argument("--trace", required=True)
    p.add_argument("--queries")
    p.add_argument("--out")
    _add_format(p)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("analyze-reach",
                       help="reachability split of gold passages per query")
    p.add_argument("--corpus", required=True)
    p.add_argument("--queries", required=True)
    p.add_argument("--topk", type=int, default=5)
    p.add_argument("--trace", help="also score this run's retrieved ids per class")
    p.add_argument("--out")
    _add_format(p)
    p.set_defaults(func=_cmd_analyze_reach)

    p = sub.add_parser("analyze-facets", help="facet coverage of a finished run")
    p.add_argument("--trace", required=True)
    p.add_argument("--queries", required=True)
    p.add_argument("--out")
    _add_format(p)
    p.set_defaults(func=_cmd_analyze_facets)

    p = sub.add_parser("curve", help="recall-per-round curves as CSV")
    p.add_argument("--trace", required=True)
    p.add_argument("--queries", required=True)
    p.add_argument("--out")
    _add_format(p)
    p.set_defaults(func=_cmd_curve)

    p = sub.add_parser("export-tree", help="query tree as JSON or DOT")
    p.add_argument("--trace", required=True)
    p.add_argument("--query", required=True)
    p.add_argument("--dot", action="store_true")
    p.add_argument("--out")
    _add_format(p)
    p.set_defaults(func=_cmd_export_tree)

    p = sub.add_parser("diff", help="compare two traces")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.add_argument("--out")
    _add_format(p)
    p.set_defaults(func=_cmd_diff)

    return parser


def dispatch(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if not getattr(args, "command", None):
            parser.print_usage(sys.stderr)
            return 1
        return args.func(args)
    except SystemExit as exc:  # --help prints and exits 0
        code = exc.code
        return int(code) if code else 0
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (DataError, FixtureMissError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except BackendError as exc:
        print(f"backend error: {exc}", file=sys.stderr)
        return 3
    except ContregenError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    logging.basicConfig(level=logging.WARNING, stream=sys.stderr,
                        format="%(levelname)s %(name)s: %(message)s")
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
