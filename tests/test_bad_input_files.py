"""Generated bad input files, driven through every command that reads them.

The seeds are the planted fixture's ``corpus.jsonl`` and ``queries.jsonl``,
an article dump, the trace of a contregen run over the planted fixture (its
section given a retgen run's rounds, so that every trace reader has its
data), that run's fixture table and a ``--config`` YAML file naming the
planted inputs. Each case mutates one of them (seeded stdlib ``random``) at
one of three levels:

* bytes: cut short, invalid UTF-8, a BOM, a NUL, CRLF line ends;
* JSON or YAML: one value replaced by deep nesting, a huge integer or a
  ``NaN``, a key repeated, or the whole record replaced by a value of the
  wrong top-level type (in a YAML file also a tagged or an implicitly typed
  value: bytes, a set, a date, a Python name);
* record: one field of a JSONL line, or one value anywhere in a JSON file
  (present or not), replaced by each JSON type, a lone surrogate, or an empty
  or whitespace-only string; a value removed from a JSON file; or an id
  repeated.

Then ``cli.dispatch`` runs, in process, each command that reads the file:
``ingest``, ``run``, ``replay`` and ``analyze-reach`` for a corpus; ``run``,
``replay``, ``analyze-reach``, ``eval --queries``, ``analyze-facets`` and
``curve`` for a query file; ``build-wikihow`` for an article dump; ``eval``
(with and without ``--queries``), ``export-tree``, ``diff``,
``analyze-facets`` and ``curve`` for a trace; ``run`` and a strict
``replay`` for a fixture table; and ``run --config`` for a config file.
Each exits 0, 1, 2 or 3, and no exception escapes. On a non-zero exit the
last stderr line is the only ``error:``, ``data error:`` or ``backend
error:`` line, stdout is empty, and no output file changed. No ``.tmp``
sibling is ever left, and the replayed cache never changes. A strict replay
reads no fixture table, so over any fixture file it exits 0 with the cold
run's answers, report and calls.
"""

from __future__ import annotations

import copy
import json
import random

import pytest

from contregen.cli import dispatch

from conftest import contregen_fixtures, retgen_fixtures, write_fixture_file, write_planted

DEPTH = 100_000
YAML_DEPTH = 600  # two frames a level, past the recursion limit; PyYAML nests in quadratic time
# each JSON type, the empty string, a whitespace-only one and a lone
# surrogate, and a string, list and object that name a gold passage
JSON_TYPES = ("null", "true", "0", "1.5", '""', '" \\t "', '"text"', '"a1"', "[]",
              '["a1"]', "{}", '{"a1": "x"}', '"x\\udfffy"')
# the same in YAML: a flow collection or a double-quoted string is JSON
YAML_TAGGED = ("!!binary aGk=", "!!set {a1: null}", "2001-12-14", "2001-02-30",
               "!!python/name:os.getcwd", "~", ".inf", "0x1f")
FIELDS = {"corpus": ("id", "text", "meta"),
          "queries": ("id", "query", "gold_ids", "reference", "facet_of", "short_answers"),
          "articles": ("id", "title", "summary", "steps", "methods")}
CONFIG = {"method": "retgen", "corpus_path": None, "queries_path": None,
          "fixtures_path": None, "adapter": "scripted", "topk": 5, "max_depth": 2,
          "max_plan_size": 5, "max_iterations": 5, "char_budget": 1200,
          "dedup_passages": True, "retriever_backend": "lexical", "model": "",
          "seed_tag": "", "parallel": 1}
ARTICLES = [
    {"id": "a1", "title": "how to sweep a room", "summary": "look, then scan",
     "methods": [{"title": "look", "steps": ["check the smoke detector", "check chargers"]},
                 {"title": "scan", "steps": ["sweep with a scanner"]}]},
    {"title": "how to find a lens", "summary": "use light", "steps": ["dim the room",
                                                                     "shine a flashlight"]},
    {"id": 7, "title": "how to rest", "steps": ["sit down"]},
]
KINDS = {"corpus": "jsonl", "queries": "jsonl", "articles": "jsonl",
         "trace": "json", "fixtures": "json", "config": "yaml"}
ERROR_PREFIXES = ("error: ", "data error: ", "backend error: ")
OUT_DIR_FILES = ("trace.json", "report.json", "outputs.jsonl")
SENTINEL = b"left by an earlier run\n"
MUTANT = "@@mutant@@"


def _run_result(out_dir) -> tuple:
    """A run's trace, less the two config entries that name its files, and
    its report and outputs."""
    trace = json.loads((out_dir / "trace.json").read_bytes())
    del trace["config"]["out_dir"], trace["config"]["fixtures_path"]
    return trace, (out_dir / "report.json").read_bytes(), (out_dir / "outputs.jsonl").read_bytes()


@pytest.fixture(scope="module")
def seeds(tmp_path_factory):
    """The seed files, the retgen fixture file, the warm cache of a retgen
    and a contregen run over the planted inputs, and the contregen run's
    result."""
    root = tmp_path_factory.mktemp("seeds")
    planted = write_planted(root)
    fixtures = {"retgen": write_fixture_file(root, retgen_fixtures(), "retgen.json"),
                "contregen": write_fixture_file(root, contregen_fixtures(), "contregen.json")}
    for method, path in fixtures.items():
        assert dispatch(["run", "--method", method, "--corpus", str(planted["corpus"]),
                         "--queries", str(planted["queries"]), "--fixtures", str(path),
                         "--cache-dir", str(root / "cache"),
                         "--out-dir", str(root / method)]) == 0
    trace = json.loads((root / "contregen" / "trace.json").read_bytes())
    (section,) = trace["queries"].values()
    (section["rounds"],) = [s["rounds"] for s in json.loads(
        (root / "retgen" / "trace.json").read_bytes())["queries"].values()]
    inputs = {**{name: planted[name] for name in ("corpus", "queries")},
              "articles": root / "articles.jsonl", "trace": root / "trace.json",
              "fixtures": fixtures["contregen"], "config": root / "run.yaml"}
    inputs["articles"].write_text("".join(json.dumps(a) + "\n" for a in ARTICLES))
    inputs["trace"].write_text(json.dumps(trace, indent=1) + "\n")
    config = {**CONFIG, "corpus_path": str(planted["corpus"]),
              "queries_path": str(planted["queries"]), "fixtures_path": str(fixtures["retgen"])}
    inputs["config"].write_text("".join(f"{key}: {json.dumps(value)}\n"
                                        for key, value in config.items()))
    return {"files": {name: path.read_bytes() for name, path in inputs.items()},
            "inputs": inputs, "fixtures": fixtures["retgen"], "cache": root / "cache",
            "replayed": _run_result(root / "contregen")}


def _lines(data: bytes) -> list[bytes]:
    return data.split(b"\n")[:-1]


def _replace_line(data: bytes, rng: random.Random, make) -> bytes:
    lines = _lines(data)
    at = rng.randrange(len(lines))
    lines[at] = make(json.loads(lines[at])).encode("utf-8")
    return b"".join(line + b"\n" for line in lines)


def _with_field(record: dict, field: str, value_json: str) -> str:
    """record as a JSON line, with field (added when absent) written as value_json."""
    pieces = [f"{json.dumps(name)}: {value_json if name == field else json.dumps(value)}"
              for name, value in record.items()]
    if field not in record:
        pieces.append(f"{json.dumps(field)}: {value_json}")
    return "{" + ", ".join(pieces) + "}"


def _insert(data: bytes, rng: random.Random, blob: bytes) -> bytes:
    at = rng.randrange(len(data) + 1)
    return data[:at] + blob + data[at:]


def _repeat_id(data: bytes, rng: random.Random) -> bytes:
    """One line's id given to another line, or the only line written twice."""
    lines = _lines(data)
    if len(lines) == 1:
        return data + data
    source, target = rng.sample(range(len(lines)), 2)
    record = json.loads(lines[target])
    record["id"] = json.loads(lines[source])["id"]
    lines[target] = json.dumps(record).encode("utf-8")
    return b"".join(line + b"\n" for line in lines)


def _byte_mutations(data: bytes, rng: random.Random):
    yield "cut short", data[:rng.randrange(1, len(data))]
    yield "invalid UTF-8", _insert(data, rng, rng.choice([b"\xff", b"\xc3", b"\xed\xa0\x80"]))
    yield "BOM", b"\xef\xbb\xbf" + data
    yield "NUL", _insert(data, rng, b"\x00")
    yield "CRLF", data.replace(b"\n", b"\r\n")


def jsonl_mutations(name: str, data: bytes, rng: random.Random):
    """(label, mutated bytes) for each case over one JSONL file's bytes."""
    fields = FIELDS[name]
    yield from _byte_mutations(data, rng)
    yield "deep nesting", _replace_line(data, rng, lambda record: _with_field(
        record, rng.choice(fields), "[" * DEPTH + "]" * DEPTH))
    yield "huge integer", _replace_line(data, rng, lambda record: _with_field(
        record, rng.choice(fields), "9" * 5000))
    yield "NaN", _replace_line(data, rng, lambda record: _with_field(
        record, rng.choice(fields), rng.choice(["NaN", "-Infinity", '["a1", NaN]'])))
    yield "repeated keys", _replace_line(data, rng, lambda record: (
        '{"id": "shadowed", ' + json.dumps(record)[1:]))
    for top in ("[]", '"text"', "1", "null", "true"):
        yield f"top-level {top}", _replace_line(data, rng, lambda record: top)
    for field in fields:
        for value in JSON_TYPES:
            yield f"{field} {value}", _replace_line(
                data, rng, lambda record: _with_field(record, field, value))
    yield "repeated id", _repeat_id(data, rng)


def _paths(value, path=()):
    """The path (a tuple of keys and indices) to every value inside value."""
    items = (value.items() if isinstance(value, dict)
             else enumerate(value) if isinstance(value, list) else ())
    for key, item in items:
        yield path + (key,)
        yield from _paths(item, path + (key,))


def _with_value(document, path, value_json: str) -> bytes:
    """document as JSON, the value at path written as value_json, or
    removed when value_json is None."""
    document = copy.deepcopy(document)
    *parents, last = path
    container = document
    for key in parents:
        container = container[key]
    if value_json is None:
        del container[last]
        return json.dumps(document).encode("utf-8")
    container[last] = MUTANT
    return json.dumps(document).replace(json.dumps(MUTANT), value_json).encode("utf-8")


def json_mutations(name: str, data: bytes, rng: random.Random, paths_per_seed: int = 4):
    """(label, mutated bytes) for each case over one JSON file's bytes; the
    record cases replace or remove the values at a sample of its paths."""
    document = json.loads(data)
    paths = list(_paths(document))
    yield from _byte_mutations(data, rng)
    yield "deep nesting", _with_value(document, rng.choice(paths), "[" * DEPTH + "]" * DEPTH)
    yield "huge integer", _with_value(document, rng.choice(paths), "9" * 5000)
    yield "NaN", _with_value(document, rng.choice(paths),
                             rng.choice(["NaN", "-Infinity", '["a1", NaN]']))
    first = json.dumps(next(iter(document)))
    yield "repeated keys", b"{" + f"{first}: null, ".encode() + json.dumps(document)[1:].encode()
    for top in ("[]", '"text"', "1", "null", "true"):
        yield f"top-level {top}", top.encode()
    for path in rng.sample(paths, paths_per_seed):
        for value in (*JSON_TYPES, None):
            yield f"{path} {value or 'removed'}", _with_value(document, path, value)


def yaml_mutations(name: str, data: bytes, rng: random.Random):
    """(label, mutated bytes) for each case over the config file's bytes."""
    lines = data.decode("utf-8").splitlines(keepends=True)

    def with_value(key: str, value: str) -> bytes:
        kept = [line for line in lines if not line.startswith(f"{key}:")]
        return "".join([*kept, f"{key}: {value}\n"]).encode("utf-8")

    yield from _byte_mutations(data, rng)
    yield "deep nesting", with_value(rng.choice(list(CONFIG)),
                                     "[" * YAML_DEPTH + "]" * YAML_DEPTH)
    yield "huge integer", with_value(rng.choice(list(CONFIG)), "9" * 5000)
    yield "NaN", with_value(rng.choice(list(CONFIG)), rng.choice([".nan", "-.inf"]))
    yield "repeated keys", b"method: shadowed\n" + data
    for top in ("[]", '"text"', "1", "~", "true", "- method: retgen"):
        yield f"top-level {top}", top.encode() + b"\n"
    for key in rng.sample(list(CONFIG), 4):
        for value in (*JSON_TYPES, *YAML_TAGGED):
            yield f"{key} {value}", with_value(key, value)
    yield "unknown key", with_value("bogus_knob", "1")


MUTATIONS = {"jsonl": jsonl_mutations, "json": json_mutations, "yaml": yaml_mutations}


def _commands(name: str, inputs: dict, seeds: dict, case_dir) -> dict:
    """Command -> (argv, output files) for each command that reads the file."""
    corpus, queries, trace = str(inputs["corpus"]), str(inputs["queries"]), str(inputs["trace"])
    out, out_dir = case_dir / "out.txt", case_dir / "out"
    run_args = ["--method", "retgen", "--corpus", corpus, "--queries", queries,
                "--fixtures", str(seeds["fixtures"]), "--out-dir", str(out_dir)]
    run_outputs = [out_dir / file for file in OUT_DIR_FILES]
    reports = {label: ([label.split()[0], "--trace", trace, "--queries", queries,
                        "--out", str(out)], [out])
               for label in ("eval --queries", "analyze-facets", "curve")}
    if name == "corpus":
        commands = {"ingest": (["ingest", "--corpus", corpus, "--out", str(out)], [out])}
    elif name == "queries":
        commands = reports
    elif name == "articles":
        built = [case_dir / "built-corpus.jsonl", case_dir / "built-queries.jsonl"]
        return {"build-wikihow": (["build-wikihow", "--articles", str(inputs["articles"]),
                                   "--out-corpus", str(built[0]),
                                   "--out-queries", str(built[1])], built)}
    elif name == "trace":
        return {**reports,
                "eval": (["eval", "--trace", trace, "--out", str(out)], [out]),
                "export-tree": (["export-tree", "--trace", trace, "--query", "q-planted",
                                 "--dot", "--out", str(out)], [out]),
                "diff": (["diff", "--a", trace, "--b", str(seeds["inputs"]["trace"]),
                          "--out", str(out)], [out])}
    elif name == "fixtures":
        tree_args = ["--method", "contregen", "--corpus", corpus, "--queries", queries,
                     "--fixtures", str(inputs["fixtures"]), "--out-dir", str(out_dir)]
        return {"run": (["run", *tree_args], run_outputs),
                "replay": (["replay", *tree_args, "--cache-dir", str(seeds["cache"])],
                           run_outputs)}
    else:
        return {"run": (["run", "--config", str(inputs["config"]), "--out-dir", str(out_dir)],
                        run_outputs)}
    return {**commands,
            "run": (["run", *run_args], run_outputs),
            "replay": (["replay", *run_args, "--cache-dir", str(seeds["cache"])], run_outputs),
            "analyze-reach": (["analyze-reach", "--corpus", corpus, "--queries", queries,
                               "--trace", trace, "--out", str(out)], [out])}


@pytest.mark.parametrize("name", sorted(KINDS))
@pytest.mark.parametrize("seed", range(2))
def test_bad_input_files_exit_cleanly_with_one_error_line(name, seed, seeds, tmp_path,
                                                         monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)  # where a config file's relative paths land
    rng = random.Random(f"{name}-{seed}")
    cache_before = {path.name: path.read_bytes() for path in seeds["cache"].iterdir()}
    outcomes = set()
    mutations = MUTATIONS[KINDS[name]](name, seeds["files"][name], rng)
    for n, (label, mutated) in enumerate(mutations):
        case_dir = tmp_path / str(n)
        case_dir.mkdir()
        inputs = {**seeds["inputs"], name: case_dir / seeds["inputs"][name].name}
        inputs[name].write_bytes(mutated)
        for command, (argv, outputs) in _commands(name, inputs, seeds, case_dir).items():
            for path in outputs:
                path.parent.mkdir(exist_ok=True)
                path.write_bytes(SENTINEL)
            code = dispatch(argv)
            out, err = capsys.readouterr()
            case = f"{name} {label} ({command}): exit {code}\n{err}"
            assert code in (0, 1, 2, 3), case
            assert not list(case_dir.rglob("*.tmp")), case
            if name == "fixtures" and command == "replay":  # it reads no fixture table
                assert code == 0 and _run_result(case_dir / "out") == seeds["replayed"], case
            if code:
                lines = err.splitlines()
                assert lines and lines[-1].startswith(ERROR_PREFIXES), case
                assert sum(line.startswith(ERROR_PREFIXES) for line in lines) == 1, case
                assert out == "", case
                assert [path.read_bytes() for path in outputs] == [SENTINEL] * len(outputs), case
            outcomes.add(code)
    assert {path.name: path.read_bytes() for path in seeds["cache"].iterdir()} == cache_before
    assert outcomes == ({0, 1} if name == "config" else {0, 2})  # the cases reach each outcome
