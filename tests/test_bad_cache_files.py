"""Generated bad cache files, driven through ``run`` and ``replay``.

The planted fixture's contregen run leaves ``llm.jsonl`` and
``retrieval.jsonl`` in its cache directory. Each case mutates one of them
(seeded stdlib ``random``) at one of three levels:

* bytes: cut short, invalid UTF-8, a BOM, a NUL, CRLF line ends;
* JSON: one line replaced by deep nesting, a huge integer, a ``NaN``, repeated
  keys or a value of the wrong top-level type;
* record: one line's ``key``, ``response`` or ``hits`` replaced by each JSON
  type or by a lone surrogate.

Then ``cli.dispatch`` runs ``run`` and ``replay`` over it, in process. Each
exits 0 or 2, and no exception escapes; on exit 2 the last stderr line is
the only ``data error:`` line and names the cache file, and neither cache
file changed.
"""

from __future__ import annotations

import json
import random
import shutil

import pytest

from contregen.cli import dispatch

from conftest import contregen_fixtures, write_fixture_file, write_planted

CACHE_FILES = ("llm.jsonl", "retrieval.jsonl")
VALUE_FIELD = {"llm.jsonl": "response", "retrieval.jsonl": "hits"}
JSON_TYPES = ("null", "true", "false", "0", "-1", "1.5", '""', '"text"', "[]", "{}",
              '"\\ud800"', '"x\\udfffy"')
DEPTH = 100_000


@pytest.fixture(scope="module")
def seeds(tmp_path_factory):
    """The planted inputs, their fixture file and the warm cache of one run."""
    root = tmp_path_factory.mktemp("seeds")
    planted = write_planted(root)
    fixtures = write_fixture_file(root, contregen_fixtures())
    args = ["--method", "contregen", "--corpus", str(planted["corpus"]),
            "--queries", str(planted["queries"]), "--fixtures", str(fixtures)]
    assert dispatch(["run", *args, "--cache-dir", str(root / "cache"),
                     "--out-dir", str(root / "out")]) == 0
    return {"args": args,
            "cache": {name: (root / "cache" / name).read_bytes() for name in CACHE_FILES}}


def _replace_line(data: bytes, rng: random.Random, make) -> bytes:
    lines = data.split(b"\n")[:-1]
    at = rng.randrange(len(lines))
    lines[at] = make(json.loads(lines[at])).encode("utf-8")
    return b"".join(line + b"\n" for line in lines)


def _with_field(record: dict, field: str, value_json: str) -> str:
    """record as a JSON line, with field's value written as value_json."""
    pieces = [f"{json.dumps(name)}: {value_json if name == field else json.dumps(value)}"
              for name, value in record.items()]
    return "{" + ", ".join(pieces) + "}"


def _insert(data: bytes, rng: random.Random, blob: bytes) -> bytes:
    at = rng.randrange(len(data) + 1)
    return data[:at] + blob + data[at:]


def mutations(name: str, data: bytes, rng: random.Random):
    """(label, mutated bytes) for each case over one cache file's bytes."""
    value_field = VALUE_FIELD[name]
    yield "cut short", data[:rng.randrange(1, len(data))]
    yield "invalid UTF-8", _insert(data, rng, rng.choice([b"\xff", b"\xc3", b"\xed\xa0\x80"]))
    yield "BOM", b"\xef\xbb\xbf" + data
    yield "NUL", _insert(data, rng, b"\x00")
    yield "CRLF", data.replace(b"\n", b"\r\n")
    yield "deep nesting", _replace_line(data, rng, lambda record: _with_field(
        record, value_field, "[" * DEPTH + "]" * DEPTH))
    yield "huge integer", _replace_line(data, rng, lambda record: _with_field(
        record, rng.choice(["key", value_field]), "9" * 5000))
    yield "NaN", _replace_line(data, rng, lambda record: _with_field(
        record, value_field, rng.choice(["NaN", "Infinity", "[[\"a1\", NaN]]"])))
    yield "repeated keys", _replace_line(data, rng, lambda record: (
        '{"key": "shadowed", ' + _with_field(record, value_field, "null")[1:-1]
        + f", {json.dumps(value_field)}: {json.dumps(record[value_field])}}}"))
    for top in ("[]", '"text"', "1", "null", "true"):
        yield f"top-level {top}", _replace_line(data, rng, lambda record: top)
    for field in ("key", value_field):
        for value in JSON_TYPES:
            yield f"{field} {value}", _replace_line(
                data, rng, lambda record: _with_field(record, field, value))
    if value_field == "hits":  # ids the corpus does not hold fail their query
        for hits in ('[["no-such-passage", 1.0]]', '[["\\ud800", 1.0]]'):
            yield f"hits {hits}", _replace_line(
                data, rng, lambda record: _with_field(record, "hits", hits))


@pytest.mark.parametrize("name", CACHE_FILES)
@pytest.mark.parametrize("seed", range(2))
def test_bad_cache_files_exit_zero_or_one_data_error(name, seed, seeds, tmp_path, capsys):
    rng = random.Random(f"{name}-{seed}")
    outcomes = set()
    for n, (label, mutated) in enumerate(mutations(name, seeds["cache"][name], rng)):
        files = {other: mutated if other == name else seeds["cache"][other]
                 for other in CACHE_FILES}
        for command in ("run", "replay"):
            cache_dir = tmp_path / f"{n}-{command}" / "cache"
            cache_dir.mkdir(parents=True)
            for other, data in files.items():
                (cache_dir / other).write_bytes(data)
            code = dispatch([command, *seeds["args"], "--cache-dir", str(cache_dir),
                             "--out-dir", str(cache_dir.parent / "out")])
            err = capsys.readouterr().err
            case = f"{name} {label} ({command}): exit {code}\n{err}"
            assert code in (0, 2), case
            assert "Traceback" not in err, case
            if code == 2:
                lines = err.splitlines()
                assert lines[-1].startswith("data error: "), case
                assert str(cache_dir / name) in lines[-1], case
                assert sum(line.startswith("data error:") for line in lines) == 1, case
                assert {other: (cache_dir / other).read_bytes()
                        for other in CACHE_FILES} == files, case
            outcomes.add(code)
            shutil.rmtree(cache_dir.parent)
    assert outcomes == {0, 2}  # the cases reach both outcomes
