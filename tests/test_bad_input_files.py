"""Generated bad corpus and query files, driven through every command that reads them.

The planted fixture's ``corpus.jsonl`` and ``queries.jsonl`` are the seeds.
Each case mutates one of them (seeded stdlib ``random``) at one of three
levels:

* bytes: cut short, invalid UTF-8, a BOM, a NUL, CRLF line ends;
* JSON: one line's field replaced by deep nesting, a huge integer or a
  ``NaN``, one line given repeated keys, or one line replaced by a value of
  the wrong top-level type;
* record: one line's field (present or not) replaced by each JSON type, a
  lone surrogate, or an empty or whitespace-only string; or an id repeated.

Then ``cli.dispatch`` runs, in process, each command that reads the file:
``ingest``, ``run``, ``replay`` and ``analyze-reach`` for a corpus, and
``run``, ``replay``, ``analyze-reach``, ``eval --queries``,
``analyze-facets`` and ``curve`` for a query file. Each exits 0, 1, 2 or 3,
and no exception escapes. On a non-zero exit the last stderr line is the
only ``error:``, ``data error:`` or ``backend error:`` line, stdout is
empty, and no output file changed. No ``.tmp`` sibling is ever left, and
the replayed cache never changes. The commands share one parser, built once,
so that the cases take a few seconds.
"""

from __future__ import annotations

import json
import random

import pytest

from contregen import cli
from contregen.cli import dispatch

from conftest import retgen_fixtures, write_fixture_file, write_planted

DEPTH = 100_000
# each JSON type, the empty string, a whitespace-only one and a lone
# surrogate, and a string, list and object that name a gold passage
JSON_TYPES = ("null", "true", "0", "1.5", '""', '" \\t "', '"text"', '"a1"', "[]",
              '["a1"]', "{}", '{"a1": "x"}', '"x\\udfffy"')
FIELDS = {"corpus": ("id", "text", "meta"),
          "queries": ("id", "query", "gold_ids", "reference", "facet_of", "short_answers")}
ERROR_PREFIXES = ("error: ", "data error: ", "backend error: ")
OUT_DIR_FILES = ("trace.json", "report.json", "outputs.jsonl")
SENTINEL = b"left by an earlier run\n"


@pytest.fixture(scope="module")
def seeds(tmp_path_factory):
    """The planted inputs, a retgen fixture file, and the warm cache and
    trace (which has rounds, for curve) of one retgen run over them."""
    root = tmp_path_factory.mktemp("seeds")
    planted = write_planted(root)
    fixtures = write_fixture_file(root, retgen_fixtures())
    assert dispatch(["run", "--method", "retgen", "--corpus", str(planted["corpus"]),
                     "--queries", str(planted["queries"]), "--fixtures", str(fixtures),
                     "--cache-dir", str(root / "cache"), "--out-dir", str(root / "out")]) == 0
    return {"files": {name: planted[name].read_bytes() for name in FIELDS},
            "inputs": {name: planted[name] for name in FIELDS}, "fixtures": fixtures,
            "cache": root / "cache", "trace": root / "out" / "trace.json"}


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


def mutations(name: str, data: bytes, rng: random.Random):
    """(label, mutated bytes) for each case over one input file's bytes."""
    fields = FIELDS[name]
    yield "cut short", data[:rng.randrange(1, len(data))]
    yield "invalid UTF-8", _insert(data, rng, rng.choice([b"\xff", b"\xc3", b"\xed\xa0\x80"]))
    yield "BOM", b"\xef\xbb\xbf" + data
    yield "NUL", _insert(data, rng, b"\x00")
    yield "CRLF", data.replace(b"\n", b"\r\n")
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


def _commands(name: str, inputs: dict, seeds: dict, case_dir) -> dict:
    """Command -> (argv, output files) for each command that reads the file."""
    corpus, queries = str(inputs["corpus"]), str(inputs["queries"])
    out, out_dir, trace = case_dir / "out.txt", case_dir / "out", str(seeds["trace"])
    run_args = ["--method", "retgen", "--corpus", corpus, "--queries", queries,
                "--fixtures", str(seeds["fixtures"]), "--out-dir", str(out_dir)]
    run_outputs = [out_dir / file for file in OUT_DIR_FILES]
    commands = {
        "run": (["run", *run_args], run_outputs),
        "replay": (["replay", *run_args, "--cache-dir", str(seeds["cache"])], run_outputs),
        "analyze-reach": (["analyze-reach", "--corpus", corpus, "--queries", queries,
                           "--trace", trace, "--out", str(out)], [out]),
    }
    if name == "corpus":
        commands["ingest"] = (["ingest", "--corpus", corpus, "--out", str(out)], [out])
    else:
        for command in ("eval", "analyze-facets", "curve"):
            commands[command] = ([command, "--trace", trace, "--queries", queries,
                                  "--out", str(out)], [out])
    return commands


@pytest.mark.parametrize("name", sorted(FIELDS))
@pytest.mark.parametrize("seed", range(2))
def test_bad_input_files_exit_cleanly_with_one_error_line(name, seed, seeds, tmp_path,
                                                         monkeypatch, capsys):
    monkeypatch.setattr(cli, "build_parser", lambda parser=cli.build_parser(): parser)
    rng = random.Random(f"{name}-{seed}")
    cache_before = {path.name: path.read_bytes() for path in seeds["cache"].iterdir()}
    outcomes = set()
    for n, (label, mutated) in enumerate(mutations(name, seeds["files"][name], rng)):
        case_dir = tmp_path / str(n)
        case_dir.mkdir()
        inputs = {**seeds["inputs"], name: case_dir / f"{name}.jsonl"}
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
            if code:
                lines = err.splitlines()
                assert lines and lines[-1].startswith(ERROR_PREFIXES), case
                assert sum(line.startswith(ERROR_PREFIXES) for line in lines) == 1, case
                assert out == "", case
                assert [path.read_bytes() for path in outputs] == [SENTINEL] * len(outputs), case
            outcomes.add(code)
    assert {path.name: path.read_bytes() for path in seeds["cache"].iterdir()} == cache_before
    assert outcomes == {0, 2}  # the cases reach both outcomes
