import argparse
import json
import os
import subprocess
import sys
import typing
from pathlib import Path

import pytest

import contregen
from contregen import cli
from contregen.cli import _config_from_args, build_parser, dispatch
from contregen.errors import ConfigError, DataError
from contregen.retrieval import LexicalIndex
from contregen.runtrace import METHODS, RunConfig, load_trace, run

from conftest import (
    ROOT_QUERY,
    NumberingAdapter,
    contregen_fixtures,
    iterretgen_fixtures,
    retgen_fixtures,
    selfask_fixtures,
    write_fixture_file,
)

FIXTURES = {"contregen": contregen_fixtures, "retgen": retgen_fixtures,
            "iterretgen": iterretgen_fixtures, "selfask": selfask_fixtures}


def _run_cli(planted, tmp_path, fixtures, method="contregen", extra=()):
    fixture_path = write_fixture_file(tmp_path, fixtures, name=f"{method}.json")
    out_dir = tmp_path / f"out-{method}"
    code = dispatch(["run", "--method", method,
                     "--corpus", str(planted["corpus"]),
                     "--queries", str(planted["queries"]),
                     "--fixtures", str(fixture_path),
                     "--out-dir", str(out_dir), *extra])
    assert code == 0
    return out_dir


def test_no_command_is_usage_error(capsys):
    assert dispatch([]) == 1
    assert "usage" in capsys.readouterr().err


def test_help_exits_zero(capsys):
    assert dispatch(["--help"]) == 0
    assert "command" in capsys.readouterr().out


def test_dispatch_builds_its_parser_once_and_prints_the_same_help(monkeypatch, capsys):
    """dispatch keeps the parser it builds. Usage and help are formatted when
    printed, so they read as a fresh parser's."""
    builds = []
    monkeypatch.setattr(cli, "build_parser", lambda: builds.append(1) or build_parser())
    cli._parser.cache_clear()
    runs = (["run", "--help"], ["eval", "--bogus"], [], ["--help"], ["run", "--help"])

    def printed():
        return [(dispatch(argv), *capsys.readouterr()) for argv in runs]

    cached = printed()
    assert len(builds) == 1
    monkeypatch.setattr(cli, "_parser", build_parser)  # a fresh parser per call
    assert printed() == cached
    assert [code for code, _, _ in cached] == [0, 1, 1, 0, 0]


def test_unknown_command_and_bad_flag_exit_one(capsys):
    assert dispatch(["frobnicate"]) == 1
    assert dispatch(["eval"]) == 1  # missing required --trace
    assert dispatch(["run", "--method", "bogus"]) == 1
    err = capsys.readouterr().err
    assert "error:" in err


def test_ingest(planted, tmp_path, capsys):
    assert dispatch(["ingest", "--corpus", str(planted["corpus"])]) == 0
    assert "ingested 11 passages" in capsys.readouterr().out

    out_path = tmp_path / "normalized.jsonl"
    code = dispatch(["ingest", "--corpus", str(planted["corpus"]),
                     "--out", str(out_path), "--format", "structured"])
    assert code == 0
    assert json.loads(capsys.readouterr().out) == {"passages": 11}
    assert len(out_path.read_text(encoding="utf-8").splitlines()) == 11


def test_ingest_missing_file_exits_two(tmp_path, capsys):
    assert dispatch(["ingest", "--corpus", str(tmp_path / "absent.jsonl")]) == 2
    assert "data error" in capsys.readouterr().err


def test_run_missing_fixture_file_exits_one(planted, tmp_path, capsys):
    code = dispatch(["run", "--corpus", str(planted["corpus"]),
                     "--queries", str(planted["queries"]),
                     "--fixtures", str(tmp_path / "absent.json"),
                     "--out-dir", str(tmp_path / "out")])
    assert code == 1
    assert "fixtures_path" in capsys.readouterr().err


def test_build_wikihow(tmp_path, capsys):
    articles = tmp_path / "articles.jsonl"
    with articles.open("w", encoding="utf-8") as fh:
        for n in range(3):
            fh.write(json.dumps({
                "title": f"how to do task {n}",
                "summary": f"summary of task {n}",
                "methods": [
                    {"title": f"method {m} for task {n}",
                     "steps": [f"task {n} method {m} step {s} text"
                               for s in range(3)]}
                    for m in range(2)
                ],
            }) + "\n")
    out_corpus = tmp_path / "corpus.jsonl"
    out_queries = tmp_path / "queries.jsonl"
    code = dispatch(["build-wikihow", "--articles", str(articles),
                     "--out-corpus", str(out_corpus),
                     "--out-queries", str(out_queries),
                     "--format", "structured"])
    assert code == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary == {"articles": 3, "passages": 18, "queries": 3,
                       "avg_gold_per_query": 6.0}
    assert len(out_corpus.read_text().splitlines()) == 18
    assert len(out_queries.read_text().splitlines()) == 3


def test_run_and_eval(planted, tmp_path, capsys):
    out_dir = _run_cli(planted, tmp_path, contregen_fixtures())
    assert "ran 1 queries (0 failed)" in capsys.readouterr().out
    trace_path = out_dir / "trace.json"
    assert trace_path.exists()

    assert dispatch(["eval", "--trace", str(trace_path)]) == 0
    table = capsys.readouterr().out
    assert "q-planted" in table
    assert table.splitlines()[-1].startswith("mean")

    assert dispatch(["eval", "--trace", str(trace_path),
                     "--queries", str(planted["queries"]),
                     "--format", "structured"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["per_query"]["q-planted"]["recall"] == 1.0
    assert report["aggregates"]["recall"] == 1.0


def test_eval_without_report_needs_queries(tmp_path, capsys):
    trace_path = tmp_path / "trace.json"
    trace_path.write_text(json.dumps({"config": {}, "queries": {}, "report": None}),
                          encoding="utf-8")
    assert dispatch(["eval", "--trace", str(trace_path)]) == 2
    assert "pass --queries" in capsys.readouterr().err


def test_analyze_reach(planted, tmp_path, capsys):
    code = dispatch(["analyze-reach", "--corpus", str(planted["corpus"]),
                     "--queries", str(planted["queries"]),
                     "--format", "structured"])
    assert code == 0
    rows = json.loads(capsys.readouterr().out)["queries"]
    assert rows == [{"query": "q-planted",
                     "rep": ["a1", "a2", "a3"],
                     "nrep": ["b1", "b2", "b3", "c1", "c2", "c3"]}]

    out_dir = _run_cli(planted, tmp_path, contregen_fixtures())
    capsys.readouterr()
    code = dispatch(["analyze-reach", "--corpus", str(planted["corpus"]),
                     "--queries", str(planted["queries"]),
                     "--trace", str(out_dir / "trace.json")])
    assert code == 0
    line = capsys.readouterr().out
    assert "reachable 3" in line
    assert "non-reachable 6" in line
    assert "recall rep=1.0000 nrep=1.0000" in line


def test_analyze_reach_warns_about_and_leaves_out_a_query_without_gold(
        planted, tmp_path, capsys, caplog):
    queries = tmp_path / "queries-with-no-gold.jsonl"
    queries.write_text(planted["queries"].read_text(encoding="utf-8") + json.dumps(
        {"id": "q-no-gold", "query": "inspect fixtures"}) + "\n", encoding="utf-8")
    assert dispatch(["analyze-reach", "--corpus", str(planted["corpus"]),
                     "--queries", str(queries), "--format", "structured"]) == 0
    rows = json.loads(capsys.readouterr().out)["queries"]
    assert [row["query"] for row in rows] == ["q-planted"]
    assert "query q-no-gold has no gold passages; skipped" in caplog.messages


def test_analyze_facets(planted, tmp_path, capsys):
    out_dir = _run_cli(planted, tmp_path, contregen_fixtures())
    capsys.readouterr()
    code = dispatch(["analyze-facets", "--trace", str(out_dir / "trace.json"),
                     "--queries", str(planted["queries"])])
    assert code == 0
    assert "facet coverage 1.0000" in capsys.readouterr().out

    partial = tmp_path / "partial.json"
    partial.write_text(json.dumps(
        {"queries": {"q-planted": {"retrieved_ids": ["a1", "b1"]}}}),
        encoding="utf-8")
    code = dispatch(["analyze-facets", "--trace", str(partial),
                     "--queries", str(planted["queries"]),
                     "--format", "structured"])
    assert code == 0
    data = json.loads(capsys.readouterr().out)
    assert abs(data["mean_coverage"] - 2.0 / 3.0) < 1e-12


def test_curve(planted, tmp_path, capsys):
    out_dir = _run_cli(planted, tmp_path, iterretgen_fixtures(),
                       method="iterretgen")
    capsys.readouterr()
    code = dispatch(["curve", "--trace", str(out_dir / "trace.json"),
                     "--queries", str(planted["queries"])])
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "method," + ",".join(f"round_{i}" for i in range(1, 6))
    by_name = dict(line.split(",", 1) for line in lines[1:])
    rounds = by_name["q-planted"].split(",")
    assert rounds == ["0.333333"] * 5  # plateau: later rounds add nothing
    assert by_name["mean"].split(",") == rounds


def test_curve_mean_pads_a_shorter_curve_with_its_last_value(tmp_path, capsys):
    queries = tmp_path / "queries.jsonl"
    queries.write_text("".join(json.dumps(record) + "\n" for record in [
        {"id": "q-long", "query": "long", "gold_ids": ["a", "b"]},
        {"id": "q-short", "query": "short", "gold_ids": ["c", "d"]}]), encoding="utf-8")
    trace = tmp_path / "trace.json"
    trace.write_text(json.dumps({"queries": {
        "q-long": {"rounds": [["a"], ["a"], ["a", "b"]]},
        "q-short": {"rounds": [["c"], ["c", "d"]]}}}), encoding="utf-8")
    assert dispatch(["curve", "--trace", str(trace), "--queries", str(queries),
                     "--format", "structured"]) == 0
    curves = json.loads(capsys.readouterr().out)
    assert curves == {"q-long": [0.5, 0.5, 1.0], "q-short": [0.5, 1.0],
                      "mean": [0.5, 0.75, 1.0]}


def test_curve_skips_a_query_without_rounds(tmp_path, capsys, caplog):
    queries = tmp_path / "queries.jsonl"
    queries.write_text("".join(json.dumps(record) + "\n" for record in [
        {"id": "q-rounds", "query": "with", "gold_ids": ["a", "b"]},
        {"id": "q-none", "query": "without", "gold_ids": ["c"]}]), encoding="utf-8")
    trace = tmp_path / "trace.json"
    trace.write_text(json.dumps({"queries": {
        "q-rounds": {"rounds": [["a"], ["a", "b"]]},
        "q-none": {"rounds": None}}}), encoding="utf-8")
    assert dispatch(["curve", "--trace", str(trace), "--queries", str(queries),
                     "--format", "structured"]) == 0
    assert json.loads(capsys.readouterr().out) == {"q-rounds": [0.5, 1.0],
                                                   "mean": [0.5, 1.0]}
    assert "query q-none has no per-round data; skipped" in caplog.messages


def test_curve_where_no_query_has_rounds_prints_only_the_header(tmp_path, capsys):
    queries = tmp_path / "queries.jsonl"
    queries.write_text(json.dumps({"id": "q", "query": "x", "gold_ids": ["a"]}) + "\n",
                       encoding="utf-8")
    trace = tmp_path / "trace.json"
    trace.write_text(json.dumps({"queries": {"q": {"rounds": []}}}), encoding="utf-8")
    assert dispatch(["curve", "--trace", str(trace), "--queries", str(queries)]) == 0
    assert capsys.readouterr().out == "method,\n"


def test_export_tree(planted, tmp_path, capsys):
    out_dir = _run_cli(planted, tmp_path, contregen_fixtures())
    capsys.readouterr()
    trace_path = str(out_dir / "trace.json")

    assert dispatch(["export-tree", "--trace", trace_path,
                     "--query", "q-planted"]) == 0
    tree = json.loads(capsys.readouterr().out)
    assert tree["query"] == ROOT_QUERY
    assert len(tree["children"]) == 2

    assert dispatch(["export-tree", "--trace", trace_path,
                     "--query", "q-planted", "--dot"]) == 0
    dot = capsys.readouterr().out
    assert dot.startswith("digraph")

    assert dispatch(["export-tree", "--trace", trace_path,
                     "--query", "missing"]) == 2

    baseline_dir = _run_cli(planted, tmp_path, retgen_fixtures(), method="retgen")
    capsys.readouterr()
    assert dispatch(["export-tree", "--trace", str(baseline_dir / "trace.json"),
                     "--query", "q-planted"]) == 2


def test_diff(planted, tmp_path, capsys):
    out_dir = _run_cli(planted, tmp_path, contregen_fixtures())
    capsys.readouterr()
    trace_path = out_dir / "trace.json"

    assert dispatch(["diff", "--a", str(trace_path), "--b", str(trace_path)]) == 0
    assert "traces identical" in capsys.readouterr().out

    changed = json.loads(trace_path.read_text(encoding="utf-8"))
    changed["queries"]["q-planted"]["answer"] = "something else"
    changed_path = tmp_path / "changed.json"
    changed_path.write_text(json.dumps(changed), encoding="utf-8")
    code = dispatch(["diff", "--a", str(trace_path), "--b", str(changed_path),
                     "--format", "structured"])
    assert code == 0
    data = json.loads(capsys.readouterr().out)
    assert data["identical"] is False
    assert "query q-planted: answer differs" in data["differences"]


def test_out_flag_writes_file(planted, tmp_path, capsys):
    out_dir = _run_cli(planted, tmp_path, contregen_fixtures())
    capsys.readouterr()
    report_path = tmp_path / "report.txt"
    code = dispatch(["eval", "--trace", str(out_dir / "trace.json"),
                     "--out", str(report_path)])
    assert code == 0
    assert capsys.readouterr().out == ""  # routed to the file instead
    assert "q-planted" in report_path.read_text(encoding="utf-8")


def test_analyze_reach_topk_below_floor_is_usage_error(planted, capsys):
    code = dispatch(["analyze-reach", "--corpus", str(planted["corpus"]),
                     "--queries", str(planted["queries"]), "--topk", "0"])
    assert code == 1
    assert "error: topk must be an integer >= 1" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["eval", "--trace"],
    ["export-tree", "--query", "q-planted", "--trace"],
    ["diff", "--a", "{trace}", "--b"],
])
def test_non_object_trace_is_data_error(argv, tmp_path, capsys):
    trace = tmp_path / "list.json"
    trace.write_text("[]", encoding="utf-8")
    argv = [arg.format(trace=trace) for arg in argv] + [str(trace)]
    assert dispatch(argv) == 2
    assert "is not a JSON object" in capsys.readouterr().err


def _subcommand_dests() -> dict:
    """Subcommand name -> the dests of its options."""
    (subparsers,) = [a for a in build_parser()._actions
                     if isinstance(a, argparse._SubParsersAction)]
    return {name: {a.dest for a in p._actions} for name, p in subparsers.choices.items()}


@pytest.mark.parametrize("command", sorted(
    name for name, dests in _subcommand_dests().items() if "format" in dests))
def test_every_format_command_prints_json_and_out_gets_stdout_bytes(
        command, planted, tmp_path, capsys):
    corpus, queries = str(planted["corpus"]), str(planted["queries"])
    cache = str(tmp_path / "cache")
    tree = str(_run_cli(planted, tmp_path, contregen_fixtures(),
                        extra=("--cache-dir", cache)) / "trace.json")
    rounds = str(_run_cli(planted, tmp_path, iterretgen_fixtures(),
                          method="iterretgen") / "trace.json")
    articles = tmp_path / "articles.jsonl"
    articles.write_text(json.dumps({"title": "how to t", "summary": "s", "methods": [
        {"title": "m", "steps": ["step one", "step two"]}]}) + "\n", encoding="utf-8")
    run_args = ["--corpus", corpus, "--queries", queries, "--cache-dir", cache,
                "--fixtures", str(tmp_path / "contregen.json"),
                "--out-dir", str(tmp_path / "again")]
    argv = {
        "ingest": ["--corpus", corpus],
        "build-wikihow": ["--articles", str(articles),
                          "--out-corpus", str(tmp_path / "wc.jsonl"),
                          "--out-queries", str(tmp_path / "wq.jsonl")],
        "run": run_args,
        "replay": run_args,
        "eval": ["--trace", tree],
        "analyze-reach": ["--corpus", corpus, "--queries", queries, "--trace", tree],
        "analyze-facets": ["--trace", tree, "--queries", queries],
        "curve": ["--trace", rounds, "--queries", queries],
        "export-tree": ["--trace", tree, "--query", "q-planted", "--dot"],
        "diff": ["--a", tree, "--b", rounds],
    }[command]
    capsys.readouterr()
    for fmt in ("table", "structured"):
        assert dispatch([command, *argv, "--format", fmt]) == 0
        printed = capsys.readouterr().out
        if fmt == "structured":
            json.loads(printed)
        if "out" in _subcommand_dests()[command]:  # ingest's --out is the corpus
            out_path = tmp_path / "reports" / f"{fmt}.out"
            assert dispatch([command, *argv, "--format", fmt, "--out", str(out_path)]) == 0
            assert capsys.readouterr().out == ""
            assert out_path.read_bytes() == printed.encode("utf-8")


# The run flags as spelled before they were derived from RunConfig:
# (flag, RunConfig field, a non-default value).
_RUN_FLAG_SPELLINGS = [
    ("--method", "method", "selfask"),
    ("--corpus", "corpus_path", "c.jsonl"),
    ("--queries", "queries_path", "q.jsonl"),
    ("--out-dir", "out_dir", "runs/elsewhere"),
    ("--topk", "topk", 7),
    ("--max-depth", "max_depth", 0),
    ("--max-plan-size", "max_plan_size", 2),
    ("--max-iterations", "max_iterations", 3),
    ("--char-budget", "char_budget", 99),
    ("--adapter", "adapter", "openai"),
    ("--fixtures", "fixtures_path", "other.json"),
    ("--model", "model", "other-model"),
    ("--retriever-backend", "retriever_backend", "remote"),
    ("--remote-endpoint", "remote_endpoint", "http://other.test"),
    ("--template-dir", "template_dir", "templates"),
    ("--cache-dir", "cache_dir", "cache"),
    ("--parallel", "parallel", 4),
    ("--seed-tag", "seed_tag", "s1"),
]


@pytest.mark.parametrize("flag, field, value", _RUN_FLAG_SPELLINGS)
def test_run_flag_sets_its_config_field(flag, field, value):
    hints = typing.get_type_hints(RunConfig)
    settable = {name for name, hint in hints.items() if hint is not bool}
    assert settable == {name for _, name, _ in _RUN_FLAG_SPELLINGS}
    base = {"fixtures_path": "f.json", "model": "m", "remote_endpoint": "http://r.test"}
    argv = ["run", "--fixtures", "f.json", "--model", "m",
            "--remote-endpoint", "http://r.test", flag, str(value)]
    config = _config_from_args(build_parser().parse_args(argv))
    assert config == RunConfig(**{**base, field: value})


def _accepts(action) -> bool:
    try:
        action()
    except (ConfigError, DataError):
        return False
    return True


@pytest.mark.parametrize("name", [*METHODS, "bogus"])
def test_method_names_come_from_the_registry(name, tmp_path):
    known = name in METHODS
    assert _accepts(lambda: build_parser().parse_args(["run", "--method", name])) == known
    assert _accepts(RunConfig(method=name, fixtures_path="f.json").validate) == known
    # chain methods record calls under their own name, the tree method under "0..."
    trace = tmp_path / "trace.json"
    trace.write_text(_trace_text({"method": name, "llm_calls": [{"node_path": f"{name}.final"}]}),
                     encoding="utf-8")
    assert _accepts(lambda: load_trace(trace)) == (known and name != "contregen")


_GOOD_ARTICLE = {"title": "how to t", "summary": "s",
                 "methods": [{"title": "m", "steps": ["step one", "step two"]}]}
_TRACE_WITHOUT_QUERIES = {"config": {}, "queries": {}, "report": None}

# name -> (command, {input file name: content}); "{name}" in the command is the
# path of that input file, "{corpus}", "{queries}" and "{tmp}" the planted
# corpus, the planted queries and a fresh directory.
_BAD_INPUTS = {
    "articles-bad-json": (
        "build-wikihow --articles {articles.jsonl} --out-corpus {tmp}/c.jsonl "
        "--out-queries {tmp}/q.jsonl",
        {"articles.jsonl": json.dumps(_GOOD_ARTICLE) + "\n{not json\n"}),
    "articles-non-object-record": (
        "build-wikihow --articles {articles.json} --out-corpus {tmp}/c.jsonl "
        "--out-queries {tmp}/q.jsonl",
        {"articles.json": json.dumps([_GOOD_ARTICLE, "just a string"])}),
    "articles-string-steps": (
        "build-wikihow --articles {articles.jsonl} --out-corpus {tmp}/c.jsonl "
        "--out-queries {tmp}/q.jsonl",
        {"articles.jsonl": json.dumps({"title": "t", "steps": "one long step"}) + "\n"}),
    "queries-string-gold-ids": (
        "eval --trace {trace.json} --queries {queries.jsonl}",
        {"trace.json": json.dumps(_TRACE_WITHOUT_QUERIES),
         "queries.jsonl": json.dumps({"id": "q1", "query": "x", "gold_ids": "p1"}) + "\n"}),
    "queries-list-facet-of": (
        "eval --trace {trace.json} --queries {queries.jsonl}",
        {"trace.json": json.dumps(_TRACE_WITHOUT_QUERIES),
         "queries.jsonl": json.dumps({"id": "q1", "query": "x", "gold_ids": ["p1"],
                                      "facet_of": ["p1"]}) + "\n"}),
    "queries-string-short-answers": (
        "eval --trace {trace.json} --queries {queries.jsonl}",
        {"trace.json": json.dumps(_TRACE_WITHOUT_QUERIES),
         "queries.jsonl": json.dumps({"id": "q1", "query": "x", "gold_ids": ["p1"],
                                      "short_answers": "alpha"}) + "\n"}),
    "queries-number-reference": (
        "eval --trace {trace.json} --queries {queries.jsonl}",
        {"trace.json": json.dumps(_TRACE_WITHOUT_QUERIES),
         "queries.jsonl": json.dumps({"id": "q1", "query": "x", "reference": 5}) + "\n"}),
    "corpus-null-id": (
        "ingest --corpus {corpus.jsonl}",
        {"corpus.jsonl": json.dumps({"id": None, "text": "some text"}) + "\n"}),
    "queries-null-query": (
        "eval --trace {trace.json} --queries {queries.jsonl}",
        {"trace.json": json.dumps(_TRACE_WITHOUT_QUERIES),
         "queries.jsonl": json.dumps({"id": "q1", "query": None}) + "\n"}),
    "queries-boolean-gold-id": (
        "eval --trace {trace.json} --queries {queries.jsonl}",
        {"trace.json": json.dumps(_TRACE_WITHOUT_QUERIES),
         "queries.jsonl": json.dumps({"id": "q1", "query": "x", "gold_ids": [True]}) + "\n"}),
    "fixtures-bad-json": (
        "run --corpus {corpus} --queries {queries} --fixtures {fx.json} --out-dir {tmp}/out",
        {"fx.json": "{not json"}),
    "fixtures-unknown-role": (
        "run --corpus {corpus} --queries {queries} --fixtures {fx.json} --out-dir {tmp}/out",
        {"fx.json": json.dumps({"plan": {}, "no_such_role": {}})}),
    "fixtures-top-level-list": (
        "run --corpus {corpus} --queries {queries} --fixtures {fx.json} --out-dir {tmp}/out",
        {"fx.json": json.dumps([{"plan": {}}])}),
    "trace-queries-list": (
        "eval --trace {trace.json} --queries {queries}",
        {"trace.json": json.dumps({"config": {}, "queries": [], "report": None})}),
}


def _planted_argv(command: str, files: dict, planted, tmp_path) -> tuple[list, dict]:
    """The argv of a _BAD_INPUTS command with its input files written (text,
    bytes, or None for a directory); also returns the path of each by name."""
    paths = {}
    for name, content in files.items():
        paths[name] = tmp_path / "in" / name
        paths[name].parent.mkdir(exist_ok=True)
        if content is None:
            paths[name].mkdir()
        else:
            paths[name].write_bytes(
                content.encode("utf-8") if isinstance(content, str) else content)
    names = {**paths, "corpus": planted["corpus"], "queries": planted["queries"],
             "tmp": tmp_path / "fresh"}
    argv = command.split()
    for name, path in names.items():
        argv = [arg.replace("{%s}" % name, str(path)) for arg in argv]
    return argv, paths


def _one_data_error(argv, capsys) -> str:
    """The single stderr line of a command that must fail as a data error."""
    assert dispatch(argv) == 2
    captured = capsys.readouterr()
    (line,) = captured.err.splitlines()
    assert line.startswith("data error: ")
    assert "Traceback" not in captured.err
    assert captured.out == ""
    return line


def _trace_text(section: dict, report=None) -> str:
    return json.dumps({"config": {}, "queries": {"q-planted": section}, "report": report})


_SECTION = {"method": "retgen", "answer": "an answer", "retrieved_ids": ["a1"],
            "tree": None, "rounds": [["a1"]], "error": None}
_TREE = {"query": "q", "original_query": "q", "depth": 0, "path": "0",
         "retrieved": [["a1", 1.0]], "summary": None, "children": []}
_TREE_WITHOUT_ORIGINAL = {k: v for k, v in _TREE.items() if k != "original_query"}

# name -> (command, the trace file's text, what the error says); the commands
# are read as in _BAD_INPUTS
_BAD_TRACES = {
    "eval-missing-answer": (
        "eval --trace {trace.json} --queries {queries}",
        _trace_text({"retrieved_ids": ["a1"]}), "query q-planted has no answer"),
    "eval-number-retrieved-ids": (
        "eval --trace {trace.json} --queries {queries}",
        _trace_text({**_SECTION, "retrieved_ids": 5}),
        "query q-planted: retrieved_ids must be a list of strings"),
    "facets-number-retrieved-ids": (
        "analyze-facets --trace {trace.json} --queries {queries}",
        _trace_text({"retrieved_ids": 5}),
        "query q-planted: retrieved_ids must be a list of strings"),
    "reach-number-retrieved-ids": (
        "analyze-reach --corpus {corpus} --queries {queries} --trace {trace.json}",
        _trace_text({"retrieved_ids": [5]}),
        "query q-planted: retrieved_ids must be a list of strings"),
    "curve-number-rounds": (
        "curve --trace {trace.json} --queries {queries}",
        _trace_text({"rounds": 3}),
        "query q-planted: rounds must be null or a list of lists of strings"),
    "export-tree-no-tree": (
        "export-tree --trace {trace.json} --query q-planted",
        _trace_text(_SECTION), "query q-planted: no tree (baseline run?)"),
    "export-tree-list-tree": (
        "export-tree --trace {trace.json} --query q-planted",
        _trace_text({**_SECTION, "tree": []}), "query q-planted: tree must be null or an object"),
    "export-tree-no-original-query": (
        "export-tree --trace {trace.json} --query q-planted",
        _trace_text({**_SECTION, "tree": _TREE_WITHOUT_ORIGINAL}),
        "query q-planted: malformed tree export (KeyError: 'original_query')"),
    "export-tree-dot-no-original-query": (
        "export-tree --trace {trace.json} --query q-planted --dot",
        _trace_text({**_SECTION, "tree": _TREE_WITHOUT_ORIGINAL}),
        "query q-planted: malformed tree export (KeyError: 'original_query')"),
    "export-tree-number-child": (
        "export-tree --trace {trace.json} --query q-planted",
        _trace_text({**_SECTION, "tree": {**_TREE, "children": [5]}}),
        "query q-planted: malformed tree export (TypeError: "),
    "export-tree-dot-number-child": (
        "export-tree --trace {trace.json} --query q-planted --dot",
        _trace_text({**_SECTION, "tree": {**_TREE, "children": [5]}}),
        "query q-planted: malformed tree export (TypeError: "),
    "export-tree-dot-number-query": (
        "export-tree --trace {trace.json} --query q-planted --dot",
        _trace_text({**_SECTION, "tree": {**_TREE, "query": 5}}),
        "query q-planted: malformed tree export (TypeError: query, original_query and path "
        "must be strings)"),
    "export-tree-object-children": (
        "export-tree --trace {trace.json} --query q-planted",
        _trace_text({**_SECTION, "tree": {**_TREE, "children": {}}}),
        "query q-planted: malformed tree export (TypeError: children must be a list)"),
    "export-tree-object-retrieved": (
        "export-tree --trace {trace.json} --query q-planted --dot",
        _trace_text({**_SECTION, "tree": {**_TREE, "retrieved": {}}}),
        "query q-planted: malformed tree export (TypeError: hits must be a list)"),
    **{f"export-tree-{name}": (
        "export-tree --trace {trace.json} --query q-planted",
        _trace_text({**_SECTION, "tree": {**_TREE, field: value}}),
        f"query q-planted: malformed tree export ({reason})")
       for name, field, value, reason in [
           ("string-score", "retrieved", [["a1", "1.5"]],
            "ValueError: score '1.5' is not a finite number"),
           ("boolean-score", "retrieved", [["a1", True]],
            "ValueError: score True is not a finite number"),
           ("nan-string-score", "retrieved", [["a1", "nan"]],
            "ValueError: score 'nan' is not a finite number"),
           ("repeated-passage", "retrieved", [["a1", 1.0], ["a1", 0.5]],
            "ValueError: a passage id repeats"),
           ("integer-id", "retrieved", [[5, 1.0]],
            "ValueError: passage id 5 is not a string"),
           ("fractional-depth", "depth", 2.7, "TypeError: depth must be an integer"),
           ("string-depth", "depth", "3", "TypeError: depth must be an integer"),
           ("boolean-depth", "depth", True, "TypeError: depth must be an integer"),
           ("number-summary", "summary", 5, "TypeError: summary must be null or a string"),
       ]},
    "diff-number-error": (
        "diff --a {trace.json} --b {trace.json}",
        _trace_text({**_SECTION, "error": 5}), "query q-planted: error must be null or a string"),
    "diff-bad-node-path": (
        "diff --a {trace.json} --b {trace.json}",
        _trace_text({**_SECTION, "llm_calls": [{"role": "plan", "node_path": "retgen.x"}]}),
        "query q-planted: llm_calls must be a list of objects whose node_path is a tree or "
        "chain method path"),
    "diff-number-method": (
        "diff --a {trace.json} --b {trace.json}",
        _trace_text({**_SECTION, "method": 5}), "query q-planted: method must be a string"),
    "eval-string-report": (
        "eval --trace {trace.json}", _trace_text(_SECTION, "a report"),
        "report must be an object"),
    "eval-number-per-query": (
        "eval --trace {trace.json}", _trace_text(_SECTION, {"per_query": 3}),
        "report per_query must map query ids to objects of numbers"),
    "eval-string-score": (
        "eval --trace {trace.json}",
        _trace_text(_SECTION, {"per_query": {"q-planted": {"recall": "high"}}}),
        "report per_query must map query ids to objects of numbers"),
    "eval-list-aggregates": (
        "eval --trace {trace.json}", _trace_text(_SECTION, {"per_query": {}, "aggregates": []}),
        "aggregates must be an object of numbers"),
}


@pytest.mark.parametrize("case", sorted(_BAD_TRACES))
def test_badly_typed_trace_field_is_one_data_error(case, planted, tmp_path, capsys):
    command, text, reason = _BAD_TRACES[case]
    argv, paths = _planted_argv(command, {"trace.json": text}, planted, tmp_path)
    line = _one_data_error(argv, capsys)
    assert str(paths["trace.json"]) in line
    assert reason in line


def test_diff_names_method_and_retrieved_ids(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(_trace_text(_SECTION), encoding="utf-8")
    b.write_text(_trace_text({**_SECTION, "method": "iterretgen",
                              "retrieved_ids": ["a1", "b1"]}), encoding="utf-8")
    assert dispatch(["diff", "--a", str(a), "--b", str(b)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "query q-planted: method differs", "query q-planted: retrieved ids differ"]


@pytest.mark.parametrize("case", sorted(_BAD_INPUTS))
def test_malformed_input_is_one_data_error_naming_the_file(case, planted, tmp_path, capsys):
    command, files = _BAD_INPUTS[case]
    argv, paths = _planted_argv(command, files, planted, tmp_path)
    line = _one_data_error(argv, capsys)
    assert any(str(path) in line for path in paths.values())


_LATIN1_RECORD = b'{"id": "p1", "text": "caf\xe9 au lait"}\n'

# (command, {input file name: bytes, or None for a directory}, what the error says)
_UNREADABLE_INPUTS = {
    "corpus-latin1": ("ingest --corpus {corpus.jsonl}", {"corpus.jsonl": _LATIN1_RECORD},
                      "corpus.jsonl:1: not UTF-8 text"),
    "corpus-directory": ("ingest --corpus {corpus.d}", {"corpus.d": None},
                         "Is a directory"),
    "articles-latin1": (
        "build-wikihow --articles {articles.jsonl} --out-corpus {tmp}/c.jsonl "
        "--out-queries {tmp}/q.jsonl", {"articles.jsonl": _LATIN1_RECORD},
        "articles.jsonl:1: not UTF-8 text"),
    "trace-directory": ("eval --trace {trace.d}", {"trace.d": None}, "Is a directory"),
    "trace-latin1": ("eval --trace {trace.json}",
                     {"trace.json": b'{"queries": {}, "note": "caf\xe9"}'},
                     "is not UTF-8 text"),
}


@pytest.mark.parametrize("case", sorted(_UNREADABLE_INPUTS))
def test_unreadable_input_is_one_data_error_naming_the_file(case, planted, tmp_path, capsys):
    command, files, reason = _UNREADABLE_INPUTS[case]
    argv, paths = _planted_argv(command, files, planted, tmp_path)
    line = _one_data_error(argv, capsys)
    assert any(str(path) in line for path in paths.values())
    assert reason in line


@pytest.mark.parametrize("name, content, code, reason", [
    ("run.yaml", None, 1, "error: cannot read config file {path}: Is a directory"),
    ("run.yaml", b"topk: 5  # caf\xe9\n", 1, "error: config file {path} is not UTF-8 text"),
    ("templates/plan.txt", None, 2, "data error: cannot read template file {path}: "
                                    "Is a directory"),
    ("templates/plan.txt", b"caf\xe9 {query}\n", 2,
     "data error: template file {path} is not UTF-8 text"),
], ids=["config-directory", "config-latin1", "template-directory", "template-latin1"])
def test_unreadable_config_or_template_is_one_line_error_naming_it(
        name, content, code, reason, planted, tmp_path, capsys):
    path = tmp_path / name
    path.parent.mkdir(exist_ok=True)
    if content is None:
        path.mkdir()
    else:
        path.write_bytes(content)
    fixtures = write_fixture_file(tmp_path, contregen_fixtures())
    named = ["--config", str(path)] if name == "run.yaml" else ["--template-dir", str(path.parent)]
    assert dispatch(["run", *named, "--corpus", str(planted["corpus"]),
                     "--queries", str(planted["queries"]), "--fixtures", str(fixtures),
                     "--out-dir", str(tmp_path / "out")]) == code
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith(reason.format(path=path))


@pytest.mark.parametrize("content, reason", [
    ("topk: 5\nqueries_pat", "could not find expected ':' (line 2, column 12)"),
    ("topk: [5\n", "expected ',' or ']', but got '<stream end>' (line 2, column 1)"),
    ("topk: !!python/name:os.getcwd\n", "could not determine a constructor for the tag "
                                         "'tag:yaml.org,2002:python/name:os.getcwd' "
                                         "(line 1, column 7)"),
    ("topk: " + "[" * 600 + "]" * 600 + "\n", "nested too deeply"),
    ("topk: " + "9" * 5000 + "\n", "Exceeds the limit (4300 digits) for integer string "
                                   "conversion: value has 5000 digits"),
    ("seed_tag: 2001-02-30\n", "day is out of range for month"),
    ("topk: !!int x\n", "invalid literal for int() with base 10: 'x'"),
], ids=["cut-short", "open-list", "python-tag", "deep", "long-integer", "bad-date", "int-tag"])
def test_bad_yaml_config_is_one_error_line(content, reason, planted, tmp_path, capsys):
    """PyYAML's errors span several lines, with a snippet and a caret, and a
    long integer, a bad date or deep nesting raised past load_config."""
    path = tmp_path / "run.yaml"
    path.write_text(content, encoding="utf-8")
    assert dispatch(["run", "--config", str(path), "--corpus", str(planted["corpus"]),
                     "--queries", str(planted["queries"]),
                     "--fixtures", str(write_fixture_file(tmp_path, contregen_fixtures())),
                     "--out-dir", str(tmp_path / "out")]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: config file {path} is not valid YAML: {reason}\n"
    assert captured.out == "" and not (tmp_path / "out").exists()


@pytest.mark.parametrize("content, line", [
    ('method: "x\\udfffy"\n', "error: unknown method: x\\udfffy"),
    ('adapter: "\\ud800"\n', "error: unknown adapter: \\ud800"),
], ids=["method", "adapter"])
def test_a_lone_surrogate_in_an_error_line_is_escaped(content, line, planted, tmp_path,
                                                      capsys):
    """A config value is quoted in its error, and YAML can spell a lone
    surrogate, which a stream that encodes strictly (as pytest's does)
    cannot write."""
    path = tmp_path / "run.yaml"
    path.write_text(content, encoding="utf-8")
    assert dispatch(["run", "--config", str(path), "--corpus", str(planted["corpus"]),
                     "--queries", str(planted["queries"]), "--fixtures", "f.json"]) == 1
    assert capsys.readouterr().err == line + "\n"


@pytest.mark.skipif(os.name != "posix" or os.geteuid() == 0,
                    reason="file permissions do not stop root from reading")
def test_input_without_read_permission_is_data_error(planted, tmp_path, capsys):
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_bytes(planted["corpus"].read_bytes())
    corpus.chmod(0)
    try:
        line = _one_data_error(["ingest", "--corpus", str(corpus)], capsys)
    finally:
        corpus.chmod(0o600)
    assert str(corpus) in line and "Permission denied" in line


def test_replay_over_non_utf8_cache_is_data_error_naming_the_line(planted, tmp_path, capsys):
    cache = tmp_path / "cache"
    _run_cli(planted, tmp_path, contregen_fixtures(), extra=("--cache-dir", str(cache)))
    llm_cache = cache / "llm.jsonl"
    lines = llm_cache.read_bytes().splitlines(keepends=True)
    lines[1] = lines[1].replace(b'"response"', b'"resp\xe9nse"')
    llm_cache.write_bytes(b"".join(lines))
    capsys.readouterr()
    line = _one_data_error(
        ["replay", "--corpus", str(planted["corpus"]), "--queries", str(planted["queries"]),
         "--fixtures", str(tmp_path / "contregen.json"), "--cache-dir", str(cache),
         "--out-dir", str(tmp_path / "replayed")], capsys)
    assert f"{llm_cache}:2: unreadable cache entry" in line


@pytest.mark.parametrize("case", ["cache-file-is-directory", "cache-dir-is-file"])
def test_unusable_cache_path_is_data_error_naming_it(case, planted, tmp_path, capsys):
    cache = tmp_path / "cache"
    if case == "cache-file-is-directory":
        (cache / "llm.jsonl").mkdir(parents=True)
        named, reason = cache / "llm.jsonl", "Is a directory"
    else:
        cache.write_text("a file, not a directory\n", encoding="utf-8")
        named, reason = cache / "retrieval.jsonl", "Not a directory"
    fixtures = write_fixture_file(tmp_path, contregen_fixtures())
    line = _one_data_error(
        ["run", "--corpus", str(planted["corpus"]), "--queries", str(planted["queries"]),
         "--fixtures", str(fixtures), "--cache-dir", str(cache),
         "--out-dir", str(tmp_path / "out")], capsys)
    assert f"cannot read cache file {named}: {reason}" in line
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command, outputs", [
    ("ingest --corpus {corpus} --out {tmp}/a/b/corpus.jsonl", ["a/b/corpus.jsonl"]),
    ("build-wikihow --articles {articles.jsonl} --out-corpus {tmp}/c/corpus.jsonl "
     "--out-queries {tmp}/q/queries.jsonl", ["c/corpus.jsonl", "q/queries.jsonl"]),
])
def test_writes_create_missing_directories(command, outputs, planted, tmp_path, capsys):
    files = {"articles.jsonl": json.dumps(_GOOD_ARTICLE) + "\n"}
    argv, _ = _planted_argv(command, files, planted, tmp_path)
    assert dispatch(argv) == 0
    for output in outputs:
        assert (tmp_path / "fresh" / output).read_text(encoding="utf-8").strip()


def _article(title, steps, article_id=None):
    return {"title": title, "summary": "s", "steps": steps,
            **({} if article_id is None else {"id": article_id})}


@pytest.mark.parametrize("articles, reason", [
    ([_article("how to x", ["step one"]), _article("how to y", ["step two"], "a0")],
     "article 1: id a0 repeats the id of article 0"),
    ([_article("how to x", ["step one"], "a1"), _article("how to y", ["step two"])],
     "article 1: id a1 repeats the id of article 0"),
    ([_article("how to x", ["step one"], "x"), _article("how to y", ["step two"]),
      _article("how to z", ["step three"], "x")],
     "article 2: id x repeats the id of article 0"),
], ids=["positional-then-explicit", "explicit-then-positional", "explicit-twice"])
def test_build_wikihow_rejects_a_repeated_article_id(articles, reason, tmp_path, capsys):
    path = tmp_path / "articles.jsonl"
    path.write_text("".join(json.dumps(article) + "\n" for article in articles),
                    encoding="utf-8")
    out = tmp_path / "out"
    line = _one_data_error(["build-wikihow", "--articles", str(path),
                            "--out-corpus", str(out / "corpus.jsonl"),
                            "--out-queries", str(out / "queries.jsonl")], capsys)
    assert line == f"data error: {reason}"
    assert not out.exists()  # nothing was written


@pytest.mark.parametrize("case", ["ingest-out-is-a-directory", "ingest-out-under-a-file",
                                  "run-out-dir-under-a-file"])
def test_output_that_cannot_be_written_is_one_data_error(case, planted, tmp_path, capsys):
    blocker = tmp_path / "blocker"
    ingest = ["ingest", "--corpus", str(planted["corpus"]), "--out"]
    if case == "ingest-out-is-a-directory":
        blocker.mkdir()
        argv, named, reason = [*ingest, str(blocker)], blocker, "Is a directory"
    elif case == "ingest-out-under-a-file":
        blocker.write_text("a file, not a directory\n", encoding="utf-8")
        named = blocker / "corpus.jsonl"
        argv, reason = [*ingest, str(named)], "Not a directory"
    else:
        blocker.write_text("a file, not a directory\n", encoding="utf-8")
        named, reason = blocker / "out" / "trace.json", "Not a directory"
        argv = ["run", "--corpus", str(planted["corpus"]), "--queries", str(planted["queries"]),
                "--fixtures", str(write_fixture_file(tmp_path, contregen_fixtures())),
                "--out-dir", str(blocker / "out")]
    line = _one_data_error(argv, capsys)
    assert line == f"data error: cannot write output file {named}: {reason}"
    assert [path.name for path in tmp_path.rglob(".*.tmp")] == []


@pytest.mark.parametrize("command", ["ingest", "run", "build-wikihow"])
def test_a_lone_surrogate_in_passage_input_is_one_data_error(command, planted, tmp_path, capsys):
    """A passage text holding a lone surrogate once died in the corpus
    fingerprint (run) or the output writer (ingest, build-wikihow)."""
    out = tmp_path / "out"
    source = tmp_path / "input.jsonl"
    if command == "build-wikihow":
        source.write_text(json.dumps(_article("how to x", ["alpha \ud800 beta"])) + "\n",
                          encoding="utf-8")
        argv = [command, "--articles", str(source), "--out-corpus", str(out / "corpus.jsonl"),
                "--out-queries", str(out / "queries.jsonl")]
        where = f"{source}:1: step"
    else:
        source.write_text(json.dumps({"id": "a1", "text": "alpha \ud800 beta"}) + "\n",
                          encoding="utf-8")
        argv = ([command, "--corpus", str(source), "--out", str(out / "corpus.jsonl")]
                if command == "ingest" else
                [command, "--corpus", str(source), "--queries", str(planted["queries"]),
                 "--fixtures", str(write_fixture_file(tmp_path, contregen_fixtures())),
                 "--out-dir", str(out)])
        where = f"{source}:1: text"
    line = _one_data_error(argv, capsys)
    assert line == f"data error: {where} holds a lone surrogate, which is not UTF-8 text"
    assert not out.exists()


@pytest.mark.parametrize("command", ["ingest", "run", "build-wikihow"])
@pytest.mark.parametrize("field", ["id", "text"])
def test_a_nul_in_a_passage_id_or_text_is_one_data_error(command, field, planted, tmp_path,
                                                        capsys):
    """The corpus fingerprint separates ids and texts with NUL, so the
    passage ("a", "b\\0c\\0d") once fingerprinted, and keyed the retrieval
    cache, as ("a", "b") and ("c", "d") together did."""
    out = tmp_path / "out"
    source = tmp_path / "input.jsonl"
    passage = {"id": "a", "text": "b\0c\0d"} if field == "text" else {"id": "a\0", "text": "b"}
    if command == "build-wikihow":
        article = _article("how to x", [passage["text"]], article_id=passage["id"])
        source.write_text(json.dumps(article) + "\n", encoding="utf-8")
        argv = [command, "--articles", str(source), "--out-corpus", str(out / "corpus.jsonl"),
                "--out-queries", str(out / "queries.jsonl")]
        where = f"{source}:1: {'step' if field == 'text' else 'id'}"
    else:
        source.write_text(json.dumps(passage) + "\n", encoding="utf-8")
        argv = ([command, "--corpus", str(source), "--out", str(out / "corpus.jsonl")]
                if command == "ingest" else
                [command, "--corpus", str(source), "--queries", str(planted["queries"]),
                 "--fixtures", str(write_fixture_file(tmp_path, contregen_fixtures())),
                 "--out-dir", str(out)])
        where = f"{source}:1: {field}"
    assert "\\u0000" in source.read_text(encoding="utf-8")
    assert _one_data_error(argv, capsys) == (
        f"data error: {where} holds a NUL, which the corpus fingerprint uses as a separator")
    assert not out.exists()
    source.write_text(json.dumps({"id": "a", "text": "b"}) + "\n"
                      + json.dumps({"id": "c", "text": "d"}) + "\n", encoding="utf-8")
    assert dispatch(["ingest", "--corpus", str(source)]) == 0  # the pair it collided with


def test_a_lone_surrogate_in_a_query_id_is_one_data_error(planted, tmp_path, capsys):
    """A query id holding a lone surrogate once reached the trace, and eval
    died encoding its table; run now rejects the query file, and eval an
    older trace that holds such an id."""
    queries = tmp_path / "surrogate-queries.jsonl"
    record = json.loads(planted["queries"].read_text(encoding="utf-8"))
    queries.write_text(json.dumps({**record, "id": "q\ud800"}) + "\n", encoding="utf-8")
    out = tmp_path / "out"
    argv = ["run", "--corpus", str(planted["corpus"]), "--queries", str(queries),
            "--fixtures", str(write_fixture_file(tmp_path, contregen_fixtures())),
            "--out-dir", str(out)]
    line = _one_data_error(argv, capsys)
    assert line == f"data error: {queries}:1: id holds a lone surrogate, which is not UTF-8 text"
    assert not out.exists()

    trace = _run_cli(planted, tmp_path, contregen_fixtures()) / "trace.json"
    capsys.readouterr()
    data = json.loads(trace.read_text(encoding="utf-8"))
    for where in ("queries", "per_query"):
        older = json.loads(json.dumps(data))
        table = older["queries"] if where == "queries" else older["report"]["per_query"]
        table["q\ud800"] = table.pop("q-planted")
        trace.write_text(json.dumps(older), encoding="utf-8")
        line = _one_data_error(["eval", "--trace", str(trace)], capsys)
        assert line == (f"data error: trace file {trace}: "
                        "query id holds a lone surrogate, which is not UTF-8 text")


@pytest.mark.parametrize("command", ["export-tree", "diff"])
def test_a_lone_surrogate_in_printed_output_is_one_data_error(command, planted, tmp_path,
                                                              capsys):
    """load_trace accepts a lone surrogate inside a tree query or a call's role,
    but no output can encode it: stdout gets nothing and --out keeps its bytes."""
    trace = _run_cli(planted, tmp_path, contregen_fixtures()) / "trace.json"
    capsys.readouterr()
    data = json.loads(trace.read_text(encoding="utf-8"))
    odd = tmp_path / "odd.json"
    section = data["queries"]["q-planted"]
    if command == "export-tree":
        section["tree"]["query"] = "q\ud800"
        argv = ["export-tree", "--trace", str(odd), "--query", "q-planted", "--dot"]
    else:
        section["llm_calls"][0]["role"] = "plan\ud800"
        argv = ["diff", "--a", str(odd), "--b", str(trace)]
    odd.write_text(json.dumps(data), encoding="utf-8")
    message = "data error: output holds a lone surrogate, which is not UTF-8 text"
    assert _one_data_error(argv, capsys) == message
    out = tmp_path / "out.txt"
    out.write_bytes(b"earlier output\n")
    assert _one_data_error([*argv, "--out", str(out)], capsys) == message
    assert out.read_bytes() == b"earlier output\n"
    assert not list(tmp_path.glob(".out.txt.*"))  # no temporary sibling left


def test_data_error_line_counts_blank_lines(tmp_path, capsys):
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text(json.dumps({"id": "p1", "text": "fine"}) + "\n\n  \nnot json\n",
                      encoding="utf-8")
    assert dispatch(["ingest", "--corpus", str(corpus)]) == 2
    assert capsys.readouterr().err.startswith(f"data error: {corpus}:4: invalid JSON (")


@pytest.mark.parametrize("line, reason", [
    ("[" * 100_000, "nested too deeply"),
    ('{"id": "a", "text": "t", "n": 1%s}' % ("0" * 5000), "Exceeds the limit ("),
], ids=["too-deep", "too-long"])
def test_json_too_deep_or_too_long_is_one_data_error(line, reason, tmp_path, capsys):
    if reason.startswith("Exceeds") and not 0 < sys.get_int_max_str_digits() <= 5000:
        pytest.skip("this interpreter converts a 5001-digit integer")
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text(json.dumps({"id": "p1", "text": "fine"}) + "\n" + line + "\n",
                      encoding="utf-8")
    assert dispatch(["ingest", "--corpus", str(corpus)]) == 2
    assert capsys.readouterr().err.startswith(
        f"data error: {corpus}:2: invalid JSON ({reason}")


@pytest.mark.parametrize("line", ['["p2", "text"]', '{"id": "p2"}'],
                         ids=["array", "no-text"])
def test_corpus_record_without_id_and_text_is_one_data_error(line, tmp_path, capsys):
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text(json.dumps({"id": "p1", "text": "fine"}) + "\n" + line + "\n",
                      encoding="utf-8")
    assert dispatch(["ingest", "--corpus", str(corpus)]) == 2
    assert capsys.readouterr().err == (
        f"data error: {corpus}:2: record must carry id and text\n")


def test_eval_of_a_trace_nested_too_deeply_is_a_data_error(tmp_path, capsys):
    trace = tmp_path / "trace.json"
    trace.write_text('{"queries": ' + "[" * 100_000, encoding="utf-8")
    assert dispatch(["eval", "--trace", str(trace)]) == 2
    assert capsys.readouterr().err == (
        f"data error: trace file {trace} is not valid JSON: nested too deeply\n")


def test_curve_over_non_nested_rounds_is_data_error(planted, tmp_path, capsys):
    trace = tmp_path / "trace.json"
    trace.write_text(json.dumps({"queries": {"q-planted": {
        "rounds": [["a1", "b1"], ["a1"]]}}}), encoding="utf-8")
    assert dispatch(["curve", "--trace", str(trace), "--queries", str(planted["queries"])]) == 2
    err = capsys.readouterr().err
    assert err.startswith("data error: ")
    assert "query q-planted" in err and "not a superset" in err


@pytest.mark.parametrize("setting, message", [
    ("corpus_path: 5", "corpus_path must be str, not int"),
    ("topk: true", "topk must be int, not bool"),
    ("template_dir: [t]", "template_dir must be str, not list"),
    ("seed_tag: 7", "seed_tag must be str, not int"),
    ("dedup_passages: 1", "dedup_passages must be bool, not int"),
])
def test_config_value_of_wrong_type_is_config_error(setting, message, planted, tmp_path,
                                                    capsys):
    config = tmp_path / "run.yaml"
    config.write_text(setting + "\n", encoding="utf-8")
    fixtures = write_fixture_file(tmp_path, contregen_fixtures())
    argv = ["run", "--config", str(config), "--queries", str(planted["queries"]),
            "--fixtures", str(fixtures), "--out-dir", str(tmp_path / "out")]
    if not setting.startswith("corpus_path"):
        argv += ["--corpus", str(planted["corpus"])]
    assert dispatch(argv) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


def test_out_dev_stdout_prints(planted, tmp_path):
    out_dir = _run_cli(planted, tmp_path, contregen_fixtures())
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(Path(contregen.__file__).parents[1]), os.environ.get("PYTHONPATH", "")])}
    argv = [sys.executable, "-m", "contregen.cli", "eval",
            "--trace", str(out_dir / "trace.json"), "--format", "structured"]
    printed = subprocess.run(argv, env=env, capture_output=True, check=True).stdout
    assert json.loads(printed)["per_query"]["q-planted"]["recall"] == 1.0
    # A writer that renamed over a special file would replace this link, and
    # fail here, before the run below could replace the real /dev/stdout.
    link = tmp_path / "stdout-link"
    link.symlink_to("/dev/stdout")
    via_link = subprocess.run([*argv, "--out", str(link)], env=env,
                              capture_output=True, check=True).stdout
    assert via_link == printed
    to_stdout = subprocess.run([*argv, "--out", "/dev/stdout"], env=env,
                               capture_output=True, check=True).stdout
    assert to_stdout == printed


@pytest.fixture
def index_builds(monkeypatch):
    """Every LexicalIndex._build call, by index."""
    builds = []
    real_build = LexicalIndex._build

    def counted_build(self):
        builds.append(self)
        return real_build(self)

    monkeypatch.setattr(LexicalIndex, "_build", counted_build)
    return builds


@pytest.mark.parametrize("method", sorted(FIXTURES))
def test_cold_run_builds_the_index_once_and_replay_never(method, planted, tmp_path,
                                                        index_builds, capsys):
    cache = str(tmp_path / "cache")
    out_dir = _run_cli(planted, tmp_path, FIXTURES[method](), method=method,
                       extra=("--cache-dir", cache))
    assert len(index_builds) == 1
    cold = {name: (out_dir / name).read_bytes()
            for name in ("trace.json", "report.json", "outputs.jsonl")}
    cached = {name: (tmp_path / "cache" / name).read_bytes()
              for name in ("llm.jsonl", "retrieval.jsonl")}
    assert dispatch(["replay", "--method", method,
                     "--corpus", str(planted["corpus"]),
                     "--queries", str(planted["queries"]),
                     "--fixtures", str(tmp_path / f"{method}.json"),
                     "--cache-dir", cache, "--out-dir", str(out_dir)]) == 0
    assert len(index_builds) == 1  # the replay built none
    assert {name: (out_dir / name).read_bytes() for name in cold} == cold
    # the replay appended nothing to either cache
    assert {name: (tmp_path / "cache" / name).read_bytes() for name in cached} == cached


_RUN_FILES = ("trace.json", "report.json", "outputs.jsonl")


@pytest.mark.parametrize("table", [b"{not json", b""], ids=["not-json", "empty"])
def test_strict_replay_reads_no_fixture_table(table, planted, tmp_path, capsys):
    """A strict replay's cache answers every call, so the scripted adapter
    behind it reads no fixture table: a bad one is a data error for run only."""
    cache = str(tmp_path / "cache")
    out_dir = _run_cli(planted, tmp_path, contregen_fixtures(), extra=("--cache-dir", cache))
    cold = {name: (out_dir / name).read_bytes() for name in _RUN_FILES}
    cached = {path.name: path.read_bytes() for path in (tmp_path / "cache").iterdir()}
    fixtures = tmp_path / "contregen.json"
    fixtures.write_bytes(table)
    args = ["--corpus", str(planted["corpus"]), "--queries", str(planted["queries"]),
            "--fixtures", str(fixtures), "--cache-dir", cache, "--out-dir", str(out_dir)]
    assert dispatch(["replay", *args]) == 0
    capsys.readouterr()
    assert {name: (out_dir / name).read_bytes() for name in _RUN_FILES} == cold
    config = _config_from_args(build_parser().parse_args(["replay", *args]))
    assert run(config).backend_stats == {"llm_backend_calls": 0, "retrieval_backend_calls": 0}
    assert _one_data_error(["run", *args], capsys).startswith(
        f"data error: fixture file {fixtures}")
    assert {path.name: path.read_bytes() for path in (tmp_path / "cache").iterdir()} == cached


class _ChatSession:
    """A requests session that answers every POST with one chat completion,
    and counts the POSTs."""

    posts = 0

    def post(self, url, json=None, headers=None, timeout=None):
        _ChatSession.posts += 1
        reply = argparse.Namespace(status_code=200, headers={})
        reply.json = lambda: {"choices": [{"message": {"content": "Check the fixtures."}}]}
        return reply


def test_strict_openai_replay_needs_no_api_key(planted, tmp_path, monkeypatch, capsys):
    """A strict replay posts nothing, so it reads no OPENAI_API_KEY, and
    matches the cold openai run byte for byte."""
    import requests
    monkeypatch.setattr(requests, "Session", _ChatSession)
    monkeypatch.setattr(_ChatSession, "posts", 0)
    args = ["--method", "retgen", "--adapter", "openai", "--model", "m",
            "--corpus", str(planted["corpus"]), "--queries", str(planted["queries"]),
            "--cache-dir", str(tmp_path / "cache"), "--out-dir", str(tmp_path / "out")]
    monkeypatch.setenv("OPENAI_API_KEY", "k")
    assert dispatch(["run", *args]) == 0
    assert _ChatSession.posts == 1
    cold = {name: (tmp_path / "out" / name).read_bytes() for name in _RUN_FILES}
    monkeypatch.delenv("OPENAI_API_KEY")
    assert dispatch(["replay", *args]) == 0
    assert _ChatSession.posts == 1
    assert {name: (tmp_path / "out" / name).read_bytes() for name in _RUN_FILES} == cold
    capsys.readouterr()
    assert dispatch(["run", *args]) == 1  # a run that may miss still needs the key
    assert capsys.readouterr().err == (
        "error: openai adapter needs OPENAI_API_KEY in the environment\n")


def test_parallel_run_builds_the_index_once_and_matches_serial_bytes(
        planted, tmp_path, index_builds, capsys):
    queries = tmp_path / "many.jsonl"
    queries.write_text("".join(
        json.dumps({"id": f"q{n}", "query": ROOT_QUERY, "gold_ids": ["a1"]}) + "\n"
        for n in range(8)), encoding="utf-8")
    traces = []
    for parallel in ("1", "4"):
        out_dir = _run_cli({**planted, "queries": queries}, tmp_path, contregen_fixtures(),
                           extra=("--parallel", parallel))
        traces.append((out_dir / "trace.json").read_bytes())
    assert len(index_builds) == 2  # one per run
    assert traces[0] == traces[1]


def test_parallel_misses_on_one_question_replay_byte_identical(planted, tmp_path,
                                                               monkeypatch, capsys):
    """Two queries ask one question at once of a model that never repeats
    itself: both record the answer the cache kept, so the replay matches."""
    queries = tmp_path / "twins.jsonl"
    queries.write_text("".join(
        json.dumps({"id": f"q{n}", "query": ROOT_QUERY, "gold_ids": ["a1"]}) + "\n"
        for n in range(2)), encoding="utf-8")
    monkeypatch.setattr("contregen.runtrace._build_adapter", lambda config: NumberingAdapter())
    cache = str(tmp_path / "cache")
    out_dir = _run_cli({**planted, "queries": queries}, tmp_path, retgen_fixtures(),
                       method="retgen", extra=("--parallel", "2", "--cache-dir", cache))
    cold = (out_dir / "trace.json").read_bytes()
    answers = {section["answer"] for section in json.loads(cold)["queries"].values()}
    assert len(answers) == 1
    assert dispatch(["replay", "--method", "retgen", "--parallel", "2",
                     "--corpus", str(planted["corpus"]), "--queries", str(queries),
                     "--fixtures", str(tmp_path / "retgen.json"),
                     "--cache-dir", cache, "--out-dir", str(out_dir)]) == 0
    assert (out_dir / "trace.json").read_bytes() == cold


def test_parallel_replay_matches_its_cold_run_byte_for_byte(planted, tmp_path, monkeypatch,
                                                           index_builds, capsys):
    """Eight queries, several asking one question, run four at a time against
    a model that never repeats itself; a strict replay, four at a time too,
    makes no backend call and writes the cold run's bytes."""
    questions = [ROOT_QUERY] * 4 + ["how to find a lost phone"] * 2 + [
        "how to fix a bike", "how to boil eggs"]
    queries = tmp_path / "eight.jsonl"
    queries.write_text("".join(
        json.dumps({"id": f"q{n}", "query": question, "gold_ids": ["a1"]}) + "\n"
        for n, question in enumerate(questions)), encoding="utf-8")
    adapters = []
    monkeypatch.setattr("contregen.runtrace._build_adapter",
                        lambda config: adapters.append(NumberingAdapter()) or adapters[-1])
    cache = str(tmp_path / "cache")
    out_dir = _run_cli({**planted, "queries": queries}, tmp_path, retgen_fixtures(),
                       method="retgen", extra=("--parallel", "4", "--cache-dir", cache))
    names = ("trace.json", "report.json", "outputs.jsonl")
    cold = {name: (out_dir / name).read_bytes() for name in names}
    assert len({section["answer"] for section in json.loads(cold["trace.json"])["queries"]
                .values()}) == 4  # one answer per distinct question
    assert dispatch(["replay", "--method", "retgen", "--parallel", "4",
                     "--corpus", str(planted["corpus"]), "--queries", str(queries),
                     "--fixtures", str(tmp_path / "retgen.json"),
                     "--cache-dir", cache, "--out-dir", str(out_dir)]) == 0
    assert adapters[0].backend_calls == 4
    assert adapters[1].backend_calls == 0
    assert len(index_builds) == 1  # the replay retrieved nothing
    assert {name: (out_dir / name).read_bytes() for name in names} == cold


_IMPORT_PROBE = """
import json, sys
from contregen.cli import dispatch
from contregen.errors import BackendError

def deferred_modules():
    return sorted({"requests", "urllib3", "charset_normalizer", "yaml"} & set(sys.modules))

seen = [deferred_modules()]
assert dispatch(sys.argv[2:]) == 0
seen.append(deferred_modules())
post = None
if sys.argv[1] == "remote":
    from contregen import retrieval
    from contregen.corpus import CorpusStore
    client = retrieval.RemoteRetriever("http://localhost:9/search", CorpusStore())
    module, post = retrieval, lambda: client.retrieve("q", 1)
elif sys.argv[1] == "openai":
    from contregen import llm
    client = llm.OpenAiChatAdapter(model="m", api_key="k")
    module, post = llm, lambda: client.complete(llm.PromptRole.PLAN, "p", {})
seen.append(deferred_modules())
if post is not None:
    def refuse(session, url, payload, headers, timeout, error):
        raise error(f"refused a {type(session).__module__} session")
    module.post_with_retries = refuse
    try:
        post()
        raise AssertionError("the refused POST returned")
    except BackendError as exc:
        assert str(exc).endswith("refused a requests.sessions session"), exc
seen.append(deferred_modules())
print(json.dumps(seen))
"""


def _probe_imports(client: str, argv: list[str]) -> list[list[str]]:
    """The deferred modules loaded after importing the CLI, after running
    argv through it, after constructing client ("remote", "openai" or
    "none"), and after its first POST, which is refused, in a fresh
    interpreter."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(Path(contregen.__file__).parents[1]), os.environ.get("PYTHONPATH", "")])}
    printed = subprocess.run([sys.executable, "-c", _IMPORT_PROBE, client, *argv],
                             env=env, capture_output=True, check=True, timeout=60).stdout
    return json.loads(printed.splitlines()[-1])


@pytest.mark.parametrize("client", ["remote", "openai"])
def test_requests_is_loaded_only_by_a_network_client(client, planted, tmp_path):
    """A flag-only replay loads neither the network stack nor yaml."""
    cache = str(tmp_path / "cache")
    _run_cli(planted, tmp_path, contregen_fixtures(), extra=("--cache-dir", cache))
    replay = ["replay", "--corpus", str(planted["corpus"]),
              "--queries", str(planted["queries"]),
              "--fixtures", str(tmp_path / "contregen.json"), "--cache-dir", cache,
              "--out-dir", str(tmp_path / "replayed")]
    after_import, after_replay, after_client, after_post = _probe_imports(client, replay)
    assert after_import == after_replay == after_client == []
    assert "requests" in after_post
    assert "yaml" not in after_post


def test_a_strict_openai_replay_loads_no_requests(planted, tmp_path, monkeypatch):
    import requests
    monkeypatch.setattr(requests, "Session", _ChatSession)
    monkeypatch.setenv("OPENAI_API_KEY", "k")
    args = ["--method", "retgen", "--adapter", "openai", "--model", "m",
            "--corpus", str(planted["corpus"]), "--queries", str(planted["queries"]),
            "--cache-dir", str(tmp_path / "cache"), "--out-dir", str(tmp_path / "out")]
    assert dispatch(["run", *args]) == 0
    cold = (tmp_path / "out" / "trace.json").read_bytes()
    assert _probe_imports("none", ["replay", *args])[:2] == [[], []]
    assert (tmp_path / "out" / "trace.json").read_bytes() == cold


def test_yaml_is_loaded_only_to_read_a_config_file(planted, tmp_path):
    config = tmp_path / "run.yaml"
    config.write_text("topk: 5\n", encoding="utf-8")
    argv = ["run", "--config", str(config), "--corpus", str(planted["corpus"]),
            "--queries", str(planted["queries"]),
            "--fixtures", str(write_fixture_file(tmp_path, contregen_fixtures())),
            "--out-dir", str(tmp_path / "out")]
    after_import, after_run, *_ = _probe_imports("none", argv)
    assert after_import == []
    assert after_run == ["yaml"]
