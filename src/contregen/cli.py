"""Command-line entry point.

Exit codes: 0 success, 1 usage/configuration error, 2 data error, 3 backend
error. Diagnostics go to stderr; data goes to stdout or the --out path.
Every command returns its structured data and its table text; dispatch
prints one of them, chosen by --format table|structured, to stdout or to
--out. `ingest --out` is the exception: it writes the normalized corpus, and
ingest, build-wikihow, run and replay print their summary to stdout.
"""

from __future__ import annotations

import argparse
import functools
import logging
import sys
import typing

from contregen import analysis
from contregen.backend_io import atomic_write
from contregen.corpus import (
    _lone_surrogate,
    build_wikihow_benchmark,
    ingest_corpus,
    load_article_dumps,
    load_queries,
    validate_queries,
    write_passages,
    write_queries,
)
from contregen.errors import INT_FLOORS, BackendError, ConfigError, ContregenError, DataError
from contregen.metrics import evaluate_run, render_table
from contregen.retrieval import LexicalIndex, RetrieverHandle
from contregen.runtrace import (
    CHOICES,
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


def _add_output(parser, func, out: bool = True, **defaults) -> None:
    """The flags every command shares, after its own so usage lists them last."""
    if out:
        parser.add_argument("--out")
    parser.add_argument("--format", choices=("table", "structured"),
                        default="table", help="output rendering")
    parser.set_defaults(func=func, **defaults)


def _fixed(value) -> str:
    return "n/a" if value is None else f"{value:.4f}"


def _cmd_ingest(args):
    store = ingest_corpus(args.corpus)
    if args.corpus_out:
        write_passages(store, args.corpus_out)
    return {"passages": len(store)}, f"ingested {len(store)} passages from {args.corpus}"


def _cmd_build_wikihow(args):
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
    return summary, (f"built corpus of {summary['passages']} passages and "
                     f"{summary['queries']} queries "
                     f"(avg {summary['avg_gold_per_query']:.2f} gold passages/query)")


def _cmd_run(args):
    trace = run(_config_from_args(args))
    failed = sum(1 for q in trace.queries.values() if q.error is not None)
    summary = {
        "queries": len(trace.queries),
        "failed": failed,
        "out_dir": trace.config_snapshot["out_dir"],
        "aggregates": trace.report["aggregates"],
    }
    return summary, (f"ran {summary['queries']} queries ({failed} failed); "
                     f"artifacts in {summary['out_dir']}")


def _cmd_eval(args):
    trace = load_trace(args.trace)
    if args.queries:
        records = load_queries(args.queries)
        sections = trace.get("queries", {})
        answers = {qid: s.get("answer") for qid, s in sections.items()
                   if s.get("error") is None}
        for qid, answer in answers.items():
            if answer is None:
                raise DataError(f"trace file {args.trace}: query {qid} has no answer")
        retrieved = {qid: s.get("retrieved_ids", []) for qid, s in sections.items()}
        report = evaluate_run(records, answers, retrieved)
    elif trace.get("report"):
        report = trace["report"]
    else:
        raise DataError("trace carries no report; pass --queries to recompute")
    return report, render_table(report)


def _cmd_analyze_reach(args):
    if args.topk < INT_FLOORS["topk"]:
        raise ConfigError(f"topk must be an integer >= {INT_FLOORS['topk']}")
    store = ingest_corpus(args.corpus)
    records = load_queries(args.queries)
    validate_queries(records, store)
    handle = RetrieverHandle(LexicalIndex(store), store)
    retrieved_by_query = {}
    if args.trace:
        retrieved_by_query = {
            qid: section.get("retrieved_ids", [])
            for qid, section in load_trace(args.trace).get("queries", {}).items()}
    rows, lines = [], []
    for record in sorted(records, key=lambda r: r.id):
        if not record.gold_ids:
            logger.warning("query %s has no gold passages; skipped", record.id)
            continue
        rep, nrep = analysis.reachability(handle, record, args.topk)
        row = {"query": record.id, "rep": sorted(rep), "nrep": sorted(nrep)}
        line = (f"{record.id}: reachable {len(row['rep'])} "
                f"({', '.join(row['rep']) or 'none'}); "
                f"non-reachable {len(row['nrep'])} "
                f"({', '.join(row['nrep']) or 'none'})")
        if record.id in retrieved_by_query:
            row["rep_recall"], row["nrep_recall"] = analysis.recall_by_split(
                retrieved_by_query[record.id], rep, nrep)
            line += (f"; recall rep={_fixed(row['rep_recall'])} "
                     f"nrep={_fixed(row['nrep_recall'])}")
        rows.append(row)
        lines.append(line)
    return {"queries": rows}, "\n".join(lines) or "no queries analyzed"


def _cmd_analyze_facets(args):
    records = load_queries(args.queries)
    sections = load_trace(args.trace).get("queries", {})
    rows = [{"query": record.id,
             "coverage": analysis.facet_coverage(
                 sections[record.id].get("retrieved_ids", []), record.facet_of)}
            for record in sorted(records, key=lambda r: r.id)
            if record.facet_of and record.id in sections]
    mean = sum(r["coverage"] for r in rows) / len(rows) if rows else None
    lines = [f"{row['query']}: facet coverage {row['coverage']:.4f}" for row in rows]
    lines.append(f"mean: {_fixed(mean)}")
    return {"queries": rows, "mean_coverage": mean}, "\n".join(lines)


def _cmd_curve(args):
    records = {r.id: r for r in load_queries(args.queries)}
    trace = load_trace(args.trace)
    curves: dict[str, list[float]] = {}
    for qid, section in sorted(trace.get("queries", {}).items()):
        rounds = section.get("rounds")
        record = records.get(qid)
        if not rounds or record is None or not record.gold_ids:
            logger.warning("query %s has no per-round data; skipped", qid)
            continue
        try:
            curves[qid] = analysis.recall_curve([set(ids) for ids in rounds], record.gold_ids)
        except ValueError as exc:
            raise DataError(f"{args.trace}: query {qid}: {exc}") from None
    if curves:
        # queries that stopped early carry their last value forward
        width = max(len(c) for c in curves.values())
        padded = [list(c) + [c[-1]] * (width - len(c)) for c in curves.values()]
        curves["mean"] = [sum(c[i] for c in padded) / len(padded) for i in range(width)]
    return curves, analysis.curve_csv(curves)


def _cmd_export_tree(args):
    sections = load_trace(args.trace).get("queries", {})
    where = f"trace file {args.trace}: query {args.query}"
    if args.query not in sections:
        raise DataError(f"{where}: no such query")
    tree_data = sections[args.query].get("tree")
    if tree_data is None:
        raise DataError(f"{where}: no tree (baseline run?)")
    try:
        root = import_tree(tree_data)
    except DataError as exc:
        raise DataError(f"{where}: {exc}") from None
    return tree_data, to_dot(root) if args.dot else canonical_json(tree_data)


def _cmd_diff(args):
    diffs = diff_traces(load_trace(args.a), load_trace(args.b))
    return ({"identical": not diffs, "differences": diffs},
            "\n".join(diffs) or "traces identical")


def build_parser() -> _Parser:
    parser = _Parser(prog="contregen",
                     description="tree-structured retrieval-augmented generation")
    sub = parser.add_subparsers(dest="command", metavar="command")

    p = sub.add_parser("ingest", help="load and validate a passage corpus")
    p.add_argument("--corpus", required=True)
    p.add_argument("--out", dest="corpus_out", metavar="OUT",
                   help="write the normalized corpus here")
    _add_output(p, _cmd_ingest, out=False)

    p = sub.add_parser("build-wikihow",
                       help="turn article dumps into a corpus and query set")
    p.add_argument("--articles", required=True)
    p.add_argument("--out-corpus", required=True)
    p.add_argument("--out-queries", required=True)
    _add_output(p, _cmd_build_wikihow, out=False)

    for name, replay, text in (
            ("run", False, "run a method over a query set"),
            ("replay", True, "re-run strictly from caches; any miss is an error")):
        p = sub.add_parser(name, help=text)
        _add_run_flags(p)
        _add_output(p, _cmd_run, out=False, replay=replay)

    p = sub.add_parser("eval", help="score a finished run")
    p.add_argument("--trace", required=True)
    p.add_argument("--queries")
    _add_output(p, _cmd_eval)

    p = sub.add_parser("analyze-reach",
                       help="reachability split of gold passages per query")
    p.add_argument("--corpus", required=True)
    p.add_argument("--queries", required=True)
    p.add_argument("--topk", type=int, default=RunConfig.topk)
    p.add_argument("--trace", help="also score this run's retrieved ids per class")
    _add_output(p, _cmd_analyze_reach)

    p = sub.add_parser("analyze-facets", help="facet coverage of a finished run")
    p.add_argument("--trace", required=True)
    p.add_argument("--queries", required=True)
    _add_output(p, _cmd_analyze_facets)

    p = sub.add_parser("curve", help="recall-per-round curves as CSV")
    p.add_argument("--trace", required=True)
    p.add_argument("--queries", required=True)
    _add_output(p, _cmd_curve)

    p = sub.add_parser("export-tree", help="query tree as JSON or DOT")
    p.add_argument("--trace", required=True)
    p.add_argument("--query", required=True)
    p.add_argument("--dot", action="store_true")
    _add_output(p, _cmd_export_tree)

    p = sub.add_parser("diff", help="compare two traces")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    _add_output(p, _cmd_diff)

    return parser


# The stderr prefix and exit code of each kind of error, the first that matches.
_FAILURES = ((ConfigError, "error", 1), (DataError, "data error", 2),
             (BackendError, "backend error", 3), (ContregenError, "error", 2))


@functools.cache
def _parser() -> _Parser:
    """The parser dispatch uses, built once per process: parsing leaves a
    parser unchanged, and its usage and help are formatted when printed."""
    return build_parser()


def dispatch(argv) -> int:
    parser = _parser()
    try:
        args = parser.parse_args(argv)
        if not getattr(args, "command", None):
            parser.print_usage(sys.stderr)
            return 1
        data, text = args.func(args)
        if args.format == "structured":
            text = canonical_json(data)
        text = text if text.endswith("\n") else text + "\n"
        fault = _lone_surrogate((("output", text),))  # a trace may carry one in any string
        if fault:
            raise DataError(fault)
        if getattr(args, "out", None):
            atomic_write(args.out, text)
        else:
            sys.stdout.write(text)
        return 0
    except SystemExit as exc:  # --help prints and exits 0
        code = exc.code
        return int(code) if code else 0
    except ContregenError as exc:
        prefix, code = next((prefix, code) for kind, prefix, code in _FAILURES
                            if isinstance(exc, kind))
        # escaped, since an input's value in the message may hold a lone surrogate
        line = f"{prefix}: {exc}".encode("utf-8", "backslashreplace").decode("utf-8")
        print(line, file=sys.stderr)
        return code


def main() -> None:
    logging.basicConfig(level=logging.WARNING, stream=sys.stderr,
                        format="%(levelname)s %(name)s: %(message)s")
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
