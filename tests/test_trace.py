import copy
import dataclasses
import gc
import json
import re
import tracemalloc
import warnings

import pytest

from contregen.backend_io import atomic_writer
from contregen.cli import dispatch
from contregen.errors import ConfigError, DataError
from contregen.llm import LlmCall
from contregen.retrieval import RetrievalCall
from contregen.runtrace import (
    QueryRun,
    RunConfig,
    RunTrace,
    atomic_write,
    canonical_json,
    diff_traces,
    load_config,
    load_trace,
    run,
)

from conftest import (
    GOLD_IDS,
    ROOT_QUERY,
    contregen_fixtures,
    retgen_fixtures,
    write_fixture_file,
)


def _write_queries(path, rows):
    with open(path, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(json.dumps(row) + "\n")


def test_load_config_precedence(tmp_path):
    config_path = tmp_path / "run.yaml"
    config_path.write_text("method: retgen\ntopk: 9\nfixtures_path: f.json\n",
                           encoding="utf-8")
    config = load_config(str(config_path), {"topk": 3, "out_dir": None})
    assert config.method == "retgen"
    assert config.topk == 3           # flag beats file
    assert config.out_dir == "runs/out"  # None override falls back to default
    assert config.max_depth == 2


def test_load_config_unknown_key(tmp_path):
    config_path = tmp_path / "run.yaml"
    config_path.write_text("fixtures_path: f.json\nbogus_knob: 1\n", encoding="utf-8")
    with pytest.raises(ConfigError, match="unknown config keys"):
        load_config(str(config_path))
    with pytest.raises(ConfigError, match="unknown config keys"):
        load_config(None, {"fixtures_path": "f.json", "nope": 2})


def test_load_config_non_string_key(tmp_path, capsys):
    """A YAML key that is not a string is an unknown key like any other."""
    config_path = tmp_path / "run.yaml"
    config_path.write_text("1: 2\n", encoding="utf-8")
    with pytest.raises(ConfigError, match=r"^unknown config keys: 1$"):
        load_config(str(config_path))
    config_path.write_text("fixtures_path: f.json\nzz: 1\n1: 2\nnull: 3\n", encoding="utf-8")
    with pytest.raises(ConfigError, match=r"^unknown config keys: 1, None, zz$"):
        load_config(str(config_path))
    config_path.write_text("1: 2\n", encoding="utf-8")
    assert dispatch(["run", "--config", str(config_path)]) == 1
    assert capsys.readouterr().err == "error: unknown config keys: 1\n"


def test_load_config_missing_or_malformed_file(tmp_path):
    with pytest.raises(ConfigError, match="not found"):
        load_config(str(tmp_path / "absent.yaml"))
    listy = tmp_path / "list.yaml"
    listy.write_text("- 1\n- 2\n", encoding="utf-8")
    with pytest.raises(ConfigError, match="mapping"):
        load_config(str(listy))


def test_config_validation():
    with pytest.raises(ConfigError, match="unknown method"):
        RunConfig(method="bogus", fixtures_path="f").validate()
    with pytest.raises(ConfigError, match="fixtures_path"):
        RunConfig(adapter="scripted").validate()
    with pytest.raises(ConfigError, match="model"):
        RunConfig(adapter="openai").validate()
    with pytest.raises(ConfigError, match="remote_endpoint"):
        RunConfig(fixtures_path="f", retriever_backend="remote").validate()
    with pytest.raises(ConfigError, match="topk"):
        RunConfig(fixtures_path="f", topk=0).validate()
    with pytest.raises(ConfigError, match="parallel"):
        RunConfig(fixtures_path="f", parallel=0).validate()
    RunConfig(fixtures_path="f", max_depth=0).validate()  # depth zero is legal


def test_snapshot_excludes_execution_knobs():
    config = RunConfig(fixtures_path="f", replay=True, parallel=4, topk=7)
    snap = config.snapshot()
    assert "replay" not in snap
    assert "parallel" not in snap
    assert snap["topk"] == 7
    assert snap["method"] == "contregen"


def test_canonical_json_is_stable():
    assert canonical_json({"b": 1, "a": [1, 2]}) == '{"a":[1,2],"b":1}'
    assert canonical_json({"a": 1, "b": [1, 2]}) == canonical_json({"b": [1, 2], "a": 1})
    assert canonical_json({"s": "caf" + chr(0xE9)}) == '{"s":"caf\\u00e9"}'


def test_atomic_write_creates_and_replaces(tmp_path):
    target = tmp_path / "deep" / "nested" / "file.json"
    atomic_write(target, "first")
    assert target.read_text(encoding="utf-8") == "first"
    atomic_write(target, "second")
    assert target.read_text(encoding="utf-8") == "second"
    assert list(target.parent.iterdir()) == [target]  # no stray temp files


def test_atomic_write_writes_through_a_link_in_place(tmp_path):
    real = tmp_path / "real.txt"
    real.write_text("old", encoding="utf-8")
    link = tmp_path / "link.txt"
    link.symlink_to(real)
    atomic_write(link, "new")  # renaming over the link would replace it
    assert link.is_symlink()
    assert real.read_text(encoding="utf-8") == "new"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["link.txt", "real.txt"]


def _section(qid, method="contregen", calls=1, prompt="p", **fields):
    section = QueryRun(method=method, answer="an answer", retrieved_ids=("a1", "b2"),
                       **fields)
    section.llm_calls += [LlmCall(role="plan", prompt=prompt, response=f"r{n}",
                                  node_path="0" if method == "contregen" else method,
                                  approx_tokens=n) for n in range(calls)]
    section.retrieval_calls.append(RetrievalCall(query="q", topk=2, hit_ids=("a1", "b2"),
                                                 backend="lexical"))
    return qid, section


def _run_trace(*sections):
    return RunTrace(config_snapshot={"method": "contregen", "topk": 2},
                    queries=dict(sections),
                    report={"aggregates": {"recall": 0.5}, "per_query": {}},
                    backend_stats={"llm_backend_calls": 3})


@pytest.mark.parametrize("sections", [
    (),
    (_section('q"uo\\te caf\u00e9 \u2603'),),
    (_section("b-tree", tree={"query": "q", "children": []}),
     _section("a-failed", error="ReplayMissError: no cached response"),
     _section("c-chain", method="retgen", rounds=[["a1"], []]),
     _section("10"), _section("9")),
], ids=["no-queries", "escaped-id", "failed-tree-chain"])
def test_json_pieces_join_to_the_canonical_trace(sections):
    trace = _run_trace(*sections)
    pieces = list(trace.json_pieces())
    assert "".join(pieces) == canonical_json(trace.to_dict()) + "\n"
    assert len(pieces) == len(sections) + 2  # head, one per section, tail


def test_writing_a_trace_holds_one_section_at_a_time(tmp_path):
    """40 sections of about 42 KB each, 45 calls apiece: the write's peak is a
    few times one section, not the 1.7 MB trace. json.dumps holds its list of
    chunks, an object for each key and value, beside the joined string, so the
    peak is about 3 sections on Python 3.11; serializing the whole trace as one
    string peaked at 119."""
    words = " ".join(f"w{n}" for n in range(190))
    trace = _run_trace(*(_section(f"q{n:02d}", calls=45, prompt=f"{n} {words}")
                         for n in range(40)))
    largest = max(len(piece) for piece in trace.json_pieces())
    assert 40_000 < largest < 45_000
    target = tmp_path / "trace.json"
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        trace.write_json(target)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak < 4 * largest
    assert target.read_text(encoding="ascii") == canonical_json(trace.to_dict()) + "\n"


def test_an_error_while_the_pieces_stream_leaves_the_old_file(tmp_path):
    target = tmp_path / "trace.json"
    _run_trace(_section("q1")).write_json(target)
    old = target.read_bytes()
    broken = _run_trace(_section("q1"), _section("q2", tree={"unserializable": object()}))
    with pytest.raises(TypeError):
        broken.write_json(target)
    assert target.read_bytes() == old
    assert sorted(path.name for path in tmp_path.iterdir()) == ["trace.json"]


def test_atomic_writer_renames_only_a_finished_block(tmp_path):
    target = tmp_path / "out.txt"
    with atomic_writer(target) as fh:
        fh.write("first")
        assert not target.exists()  # the text lands in a temporary sibling
    assert target.read_text(encoding="utf-8") == "first"
    with pytest.raises(DataError, match=r"^cannot write output file .*out\.txt: No space"):
        with atomic_writer(target) as fh:
            fh.write("second")
            raise OSError(28, "No space left on device")
    assert target.read_text(encoding="utf-8") == "first"
    assert [path.name for path in tmp_path.iterdir()] == ["out.txt"]


def _trace_with_calls(path, *node_paths):
    calls = [{"role": "plan", "prompt": "p", "response": "r", "node_path": node_path,
              "approx_tokens": 1} for node_path in node_paths]
    path.write_text(json.dumps({"config": {}, "queries": {"q": {"llm_calls": calls}},
                                "report": None}), encoding="utf-8")
    return path


def test_trace_validates_node_paths(tmp_path):
    good = _trace_with_calls(tmp_path / "good.json", "", "0", "0.2.10", "retgen",
                             "iterretgen.3", "selfask.final")
    assert len(load_trace(good)["queries"]["q"]["llm_calls"]) == 6
    for bad in ("1", "0.", "0..1", "tree", "retgen.x", "contregen.final", "0\n", 0, None):
        path = _trace_with_calls(tmp_path / "bad.json", bad)
        with pytest.raises(DataError, match=r"bad\.json: query q: llm_calls must be"):
            load_trace(path)


# A valid value of each QueryRun field that differs from _section's.
_CHANGED = {"method": "retgen", "answer": "another answer", "retrieved_ids": [],
            "llm_calls": [], "retrieval_calls": [], "tree": {}, "rounds": [],
            "error": "ReplayMissError: no cached response"}


@pytest.mark.parametrize("field", dataclasses.fields(QueryRun), ids=lambda f: f.name)
def test_every_section_field_is_checked_diffed_and_written(field, planted, tmp_path):
    """QueryRun's fields are the section schema: load_trace rejects a bad value
    in each, diff_traces names a change to each, and run() writes exactly them."""
    path = tmp_path / "trace.json"
    _run_trace(_section("q")).write_json(path)
    original = load_trace(path)
    changed = copy.deepcopy(original)
    changed["queries"]["q"][field.name] = _CHANGED[field.name]
    path.write_text(canonical_json(changed), encoding="utf-8")
    differs = field.metadata["differs"] or "1 vs 0 llm calls"
    assert diff_traces(original, load_trace(path)) == [f"query q: {differs}"]

    changed["queries"]["q"][field.name] = 5
    path.write_text(canonical_json(changed), encoding="utf-8")
    message = f"trace file {path}: query q: {field.name} must be {field.metadata['kind']}"
    with pytest.raises(DataError, match=f"^{re.escape(message)}$"):
        load_trace(path)

    config = RunConfig(corpus_path=str(planted["corpus"]),
                       queries_path=str(planted["queries"]),
                       fixtures_path=str(write_fixture_file(planted["dir"],
                                                            contregen_fixtures())),
                       out_dir=str(tmp_path / "out"))
    run(config)
    written = json.loads((tmp_path / "out" / "trace.json").read_text(encoding="utf-8"))
    (section,) = written["queries"].values()
    assert set(section) == {f.name for f in dataclasses.fields(QueryRun)}


def test_trace_records_every_call_field(planted, tmp_path):
    """A field added to LlmCall or RetrievalCall must reach trace.json."""
    config = RunConfig(corpus_path=str(planted["corpus"]),
                       queries_path=str(planted["queries"]),
                       fixtures_path=str(write_fixture_file(planted["dir"],
                                                            contregen_fixtures())),
                       out_dir=str(tmp_path / "out"))
    (section,) = run(config).to_dict()["queries"].values()
    for name, kind in (("llm_calls", LlmCall), ("retrieval_calls", RetrievalCall)):
        assert section[name]
        assert all(set(call) == {f.name for f in dataclasses.fields(kind)}
                   for call in section[name])


def test_run_contregen_end_to_end(planted, tmp_path):
    fixtures = write_fixture_file(planted["dir"], contregen_fixtures())
    out_dir = tmp_path / "out"
    config = RunConfig(corpus_path=str(planted["corpus"]),
                       queries_path=str(planted["queries"]),
                       out_dir=str(out_dir), fixtures_path=str(fixtures))
    trace = run(config)

    section = trace.queries["q-planted"]
    assert section.error is None
    assert section.answer.startswith("Inspect fixtures closely")
    assert set(GOLD_IDS) <= set(section.retrieved_ids)
    assert section.tree["query"] == ROOT_QUERY
    assert len(section.llm_calls) == 12
    assert trace.report["per_query"]["q-planted"]["recall"] == 1.0

    on_disk = load_trace(out_dir / "trace.json")
    assert on_disk == trace.to_dict()
    assert "replay" not in on_disk["config"]
    assert "parallel" not in on_disk["config"]
    report = json.loads((out_dir / "report.json").read_text(encoding="utf-8"))
    assert report == trace.report
    lines = (out_dir / "outputs.jsonl").read_text(encoding="utf-8").splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["id"] == "q-planted"


def test_run_records_per_query_error_and_continues(planted, tmp_path):
    queries = tmp_path / "queries.jsonl"
    _write_queries(queries, [
        {"id": "qa", "query": ROOT_QUERY, "gold_ids": ["a1"]},
        {"id": "qb", "query": "missing fixture text", "gold_ids": ["a1"]},
    ])
    fixtures = write_fixture_file(tmp_path, retgen_fixtures())
    config = RunConfig(method="retgen", corpus_path=str(planted["corpus"]),
                       queries_path=str(queries), out_dir=str(tmp_path / "out"),
                       fixtures_path=str(fixtures))
    trace = run(config)
    assert trace.queries["qa"].error is None
    assert trace.queries["qb"].error.startswith("FixtureMissError")
    assert set(trace.report["per_query"]) == {"qa"}
    outputs = [json.loads(line) for line in
               (tmp_path / "out" / "outputs.jsonl").read_text().splitlines()]
    assert outputs[1]["id"] == "qb"
    assert outputs[1]["error"] is not None


class _StubReply:
    status_code = 200
    headers: dict = {}

    def __init__(self, payload):
        self.payload = payload

    def json(self):
        return self.payload


class _StubSession:
    """A requests session whose every POST answers 200 with one fixed payload."""

    def __init__(self, payload):
        self.payload = payload

    def post(self, url, json=None, headers=None, timeout=None):
        return _StubReply(self.payload)


def test_malformed_remote_reply_fails_the_query_not_the_run(planted, tmp_path, monkeypatch):
    import requests
    monkeypatch.setattr(requests, "Session", lambda: _StubSession([{"id": "a1"}]))
    fixtures = write_fixture_file(tmp_path, retgen_fixtures())
    config = RunConfig(method="retgen", corpus_path=str(planted["corpus"]),
                       queries_path=str(planted["queries"]), out_dir=str(tmp_path / "out"),
                       fixtures_path=str(fixtures), retriever_backend="remote",
                       remote_endpoint="http://retriever.test")
    run(config)
    section = load_trace(tmp_path / "out" / "trace.json")["queries"]["q-planted"]
    assert section["error"].startswith("RetrieverUnavailableError: remote retriever "
                                       "http://retriever.test returned a malformed reply")


def test_run_retgen_counts_logical_and_physical_calls(planted, tmp_path):
    queries = tmp_path / "queries.jsonl"
    _write_queries(queries, [
        {"id": f"q{i}", "query": ROOT_QUERY, "gold_ids": ["a1"]} for i in range(3)
    ])
    fixtures = write_fixture_file(tmp_path, retgen_fixtures())
    config = RunConfig(method="retgen", corpus_path=str(planted["corpus"]),
                       queries_path=str(queries), out_dir=str(tmp_path / "out"),
                       fixtures_path=str(fixtures))
    trace = run(config)
    for section in trace.queries.values():
        assert len(section.llm_calls) == 1
        assert len(section.retrieval_calls) == 1
        assert section.llm_calls[0].node_path == "retgen"
        assert len(section.rounds) == 1
    assert trace.backend_stats == {"llm_backend_calls": 3,
                                   "retrieval_backend_calls": 3}


def test_run_determinism_replay_and_diff(planted, tmp_path):
    fixtures = write_fixture_file(planted["dir"], contregen_fixtures())
    cache_dir = tmp_path / "cache"
    trace_path = tmp_path / "out" / "trace.json"
    config = RunConfig(corpus_path=str(planted["corpus"]),
                       queries_path=str(planted["queries"]),
                       out_dir=str(tmp_path / "out"),
                       fixtures_path=str(fixtures), cache_dir=str(cache_dir))

    cold = run(config)
    assert cold.backend_stats["llm_backend_calls"] > 0
    assert cold.backend_stats["retrieval_backend_calls"] > 0
    assert (cache_dir / "llm.jsonl").exists()
    assert (cache_dir / "retrieval.jsonl").exists()
    cold_bytes = trace_path.read_bytes()
    cold_dict = load_trace(trace_path)

    warm = run(config)  # identical config, caches now populated
    assert warm.backend_stats == {"llm_backend_calls": 0,
                                  "retrieval_backend_calls": 0}
    assert trace_path.read_bytes() == cold_bytes

    strict = run(dataclasses.replace(config, replay=True))
    assert strict.backend_stats == {"llm_backend_calls": 0,
                                    "retrieval_backend_calls": 0}
    assert trace_path.read_bytes() == cold_bytes  # replay flag is not in the snapshot
    assert diff_traces(cold_dict, load_trace(trace_path)) == []


@pytest.mark.parametrize("parallel", (1, 2))
def test_run_leaves_no_cache_file_open(planted, tmp_path, parallel):
    fixtures = write_fixture_file(planted["dir"], contregen_fixtures())
    cache_dir = tmp_path / "cache"
    config = RunConfig(corpus_path=str(planted["corpus"]),
                       queries_path=str(planted["queries"]),
                       out_dir=str(tmp_path / "out"), fixtures_path=str(fixtures),
                       cache_dir=str(cache_dir), parallel=parallel)
    gc.collect()  # what earlier tests left behind warns before the check, not in it
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        trace = run(config)
        gc.collect()
    assert trace.backend_stats["llm_backend_calls"] > 0  # both caches were appended to
    assert trace.backend_stats["retrieval_backend_calls"] > 0
    assert [str(w.message) for w in caught
            if w.category is ResourceWarning and str(cache_dir) in str(w.message)] == []


def test_replay_against_empty_cache_records_miss(planted, tmp_path):
    fixtures = write_fixture_file(planted["dir"], contregen_fixtures())
    config = RunConfig(corpus_path=str(planted["corpus"]),
                       queries_path=str(planted["queries"]),
                       out_dir=str(tmp_path / "out"),
                       fixtures_path=str(fixtures),
                       cache_dir=str(tmp_path / "empty_cache"), replay=True)
    trace = run(config)
    assert "cache has no entry" in trace.queries["q-planted"].error


def test_replay_miss_is_recorded_alike_by_the_tree_and_a_baseline(planted, tmp_path):
    errors = {}
    for method, fixtures in (("contregen", contregen_fixtures()),
                             ("retgen", retgen_fixtures())):
        fixture_path = write_fixture_file(tmp_path, fixtures, f"{method}.json")
        config = RunConfig(method=method, corpus_path=str(planted["corpus"]),
                           queries_path=str(planted["queries"]),
                           out_dir=str(tmp_path / method), fixtures_path=str(fixture_path),
                           cache_dir=str(tmp_path / "empty_cache"), replay=True)
        errors[method] = run(config).queries["q-planted"].error
    assert errors == dict.fromkeys(("contregen", "retgen"), (
        f"ReplayMissError: retrieval cache has no entry for query {ROOT_QUERY!r} (topk=5)"))


def test_run_config_guards(planted, tmp_path):
    fixtures = write_fixture_file(planted["dir"], retgen_fixtures())
    base = RunConfig(method="retgen", corpus_path=str(planted["corpus"]),
                     queries_path=str(planted["queries"]),
                     out_dir=str(tmp_path / "out"), fixtures_path=str(fixtures))
    with pytest.raises(ConfigError, match="replay mode needs cache_dir"):
        run(dataclasses.replace(base, replay=True))
    with pytest.raises(ConfigError, match="corpus_path"):
        run(dataclasses.replace(base, corpus_path=str(tmp_path / "nope.jsonl")))


def test_parallel_run_matches_serial_bytes(planted, tmp_path):
    queries = tmp_path / "queries.jsonl"
    _write_queries(queries, [
        {"id": f"q{i}", "query": ROOT_QUERY, "gold_ids": ["a1"]} for i in range(3)
    ])
    fixtures = write_fixture_file(tmp_path, retgen_fixtures())
    config = RunConfig(method="retgen", corpus_path=str(planted["corpus"]),
                       queries_path=str(queries), out_dir=str(tmp_path / "out"),
                       fixtures_path=str(fixtures))

    run(config)
    serial_bytes = (tmp_path / "out" / "trace.json").read_bytes()
    run(dataclasses.replace(config, parallel=2))
    # worker count is an execution knob, not part of the experiment
    assert (tmp_path / "out" / "trace.json").read_bytes() == serial_bytes


def test_diff_traces_names_what_changed(planted, tmp_path):
    queries = tmp_path / "queries.jsonl"
    _write_queries(queries, [{"id": "q1", "query": ROOT_QUERY, "gold_ids": ["a1"]}])
    fixtures = write_fixture_file(tmp_path, retgen_fixtures())
    config = RunConfig(method="retgen", corpus_path=str(planted["corpus"]),
                       queries_path=str(queries), out_dir=str(tmp_path / "out"),
                       fixtures_path=str(fixtures))
    run(config)
    original = load_trace(tmp_path / "out" / "trace.json")
    assert diff_traces(original, copy.deepcopy(original)) == []

    changed = copy.deepcopy(original)
    changed["queries"]["q1"]["answer"] = "something else"
    changed["queries"]["q1"]["llm_calls"][0] = dict(
        changed["queries"]["q1"]["llm_calls"][0], response="something else")
    diffs = diff_traces(original, changed)
    assert "query q1: answer differs" in diffs
    assert any("role=baseline_generate" in d and "node_path=retgen" in d
               for d in diffs)

    missing = copy.deepcopy(original)
    del missing["queries"]["q1"]
    assert "query q1: only in first trace" in diff_traces(original, missing)


def test_load_trace_errors(tmp_path):
    with pytest.raises(DataError, match="not found"):
        load_trace(tmp_path / "absent.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    with pytest.raises(DataError, match="not valid JSON"):
        load_trace(bad)
    for text in ("[]", "3", "null"):
        bad.write_text(text, encoding="utf-8")
        with pytest.raises(DataError, match="not a JSON object"):
            load_trace(bad)
