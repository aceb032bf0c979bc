"""The JSONL readers against a reference copy of the per-line readers
(``oracles.ingest_corpus`` and ``oracles.load_queries``), and the parses a
well-formed line saves.

Seeded passage and query files mix well-formed lines (ASCII, no ``\\u``
escape, one object ending at the line's newline), valid lines outside that
form (whitespace around the value, integer ids, meta objects, non-ASCII
text, ``\\u`` escapes, CRLF ends, blank lines, a last line without its
newline) and lines that are rejected (a ``\\ud800`` or, in a passage, a
``\\u0000`` escape). Each file is read as it is and with each mutation
``test_bad_input_files`` makes of it. The readers give the same passages and
query records, in the same order, or the same error, reading one line per
block, a few, or the whole file.
"""

import json
import random

import pytest

from contregen import backend_io, corpus
from contregen.backend_io import read_jsonl
from contregen.corpus import CorpusStore, ingest_corpus, load_queries

import oracles
from test_bad_input_files import jsonl_mutations

WORDS = ("sweep", "scan", "lens", "room", "light", "charger", "detector", "rest")
# appended to a text: an escape other than \u, a non-ASCII character, or a
# character JSON writes as a \u escape (a lone surrogate, a NUL)
EXTRAS = {"escape": ('say "hi"', "back\\slash", "tab\there", "two\nlines", "\\user"),
          "non-ASCII": ("café", "日本", "\U0001f600"),
          "\\u00e9": ("café",), "\\ud800": ("x\ud800y",), "\\u0000": ("x\0y",)}
# line kinds and their weights: the well-formed kinds and valid ones outside that form
KINDS = {"plain": 8, "escape": 3, "empty fields": 2, "extra field": 1,
         "leading whitespace": 1, "trailing whitespace": 1, "integer ids": 1, "meta": 1,
         "non-ASCII": 1, "\\u00e9": 1, "CRLF": 1}
REJECTED = ("\\ud800", "\\u0000")  # escapes a record may be rejected for: a surrogate, a NUL
BLANKS = (b"\n", b"  \n", b"\t\n", b"\x0c\n", "\u2028\n".encode())


def _text(rng: random.Random, kind: str) -> str:
    words = rng.sample(WORDS, rng.randint(1, 4))
    return " ".join([*words, rng.choice(EXTRAS[kind])] if kind in EXTRAS else words)


def _passage(rng: random.Random, n: int, kind: str) -> dict:
    record = {"id": n if kind == "integer ids" else f"p{n}", "text": _text(rng, kind)}
    if kind == "empty fields":
        record["meta"] = rng.choice([None, {}])
    elif kind == "meta":
        record["meta"] = {"facet": rng.choice(WORDS)}
    return record


def _query(rng: random.Random, n: int, kind: str) -> dict:
    gold = [g if kind == "integer ids" else f"p{g}"
            for g in rng.sample(range(9), rng.randint(0, 3))]
    record = {"id": n if kind == "integer ids" else f"q{n}", "query": _text(rng, kind),
              "gold_ids": gold, "reference": rng.choice([None, _text(rng, kind)]),
              "facet_of": rng.choice([None, {str(g): _text(rng, kind) for g in gold}])}
    if rng.random() < 0.5:
        record["short_answers"] = [_text(rng, kind) for _ in range(rng.randint(0, 2))]
    if kind == "empty fields":
        del record[rng.choice(["reference", "facet_of"])]
    return record


RECORDS = {"corpus": _passage, "queries": _query}


def _line(name: str, rng: random.Random, n: int, kind: str) -> bytes:
    record = RECORDS[name](rng, n, kind)
    if kind == "extra field":
        record["extra"] = [1, {"x": None}]
    items = list(record.items())
    rng.shuffle(items)
    line = json.dumps(dict(items), ensure_ascii=kind != "non-ASCII",
                      separators=rng.choice([(", ", ": "), (",", ":")]))
    line = {"leading whitespace": f" \t{line}", "trailing whitespace": f"{line} \t",
            "CRLF": f"{line}\r"}.get(kind, line)
    return line.encode("utf-8") + b"\n"


def _body(name: str, rng: random.Random) -> bytes:
    """The lines of a valid passage or query file, every one of which
    json.loads reads, as jsonl_mutations needs."""
    return b"".join(_line(name, rng, n, rng.choices(list(KINDS), list(KINDS.values()))[0])
                    for n in range(rng.randint(8, 16)))


def _cases(name: str, body: bytes, rng: random.Random):
    """(label, bytes) of the file as written, of each of its mutations, of it
    with a line of each rejected kind put in or a required field dropped from
    a line, and of it ending in one character after its last line's value."""
    yield "as written", body
    yield from jsonl_mutations(name, body, rng)
    lines = body.splitlines(keepends=True)
    for kind in REJECTED:
        at = rng.randrange(len(lines) + 1)
        yield kind, b"".join([*lines[:at], _line(name, rng, at, kind), *lines[at:]])
    for field in ("id", TEXT_FIELD[name]):
        at = rng.randrange(len(lines))
        record = json.loads(lines[at])
        del record[field]
        yield f"no {field}", b"".join([*lines[:at], json.dumps(record).encode() + b"\n",
                                        *lines[at + 1:]])
    yield "a character after the last value", body.rstrip() + rng.choice([b"x", b"}", b"1"])


def _decorate(data: bytes, rng: random.Random) -> bytes:
    """data with blank lines put between some of its lines, and at times its
    final newline dropped."""
    lines = [line + b"\n" for line in data.split(b"\n")]
    lines[-1] = lines[-1][:-1]
    for _ in range(rng.randint(0, 3)):
        lines.insert(rng.randrange(len(lines)), rng.choice(BLANKS))
    decorated = b"".join(lines)
    return decorated[:-1] if decorated.endswith(b"\n") and rng.random() < 0.3 else decorated


def _outcome(read, path):
    try:
        return "read", read(path)
    except Exception as exc:  # the outcome compared is the exception
        return "error", type(exc), str(exc)


READERS = {"corpus": (lambda path: list(ingest_corpus(path)), oracles.ingest_corpus),
           "queries": (load_queries, oracles.load_queries)}


@pytest.mark.parametrize("block", [1, 200, backend_io._JSONL_BLOCK])
@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("name", sorted(READERS))
def test_readers_match_the_per_line_readers(name, seed, block, tmp_path, monkeypatch):
    monkeypatch.setattr(backend_io, "_JSONL_BLOCK", block)
    rng = random.Random(f"{name}-{seed}")
    body = _body(name, rng)
    read, oracle = READERS[name]
    path = tmp_path / f"{name}.jsonl"
    outcomes = set()
    for label, data in _cases(name, body, rng):
        path.write_bytes(_decorate(data, rng))
        expected = _outcome(oracle, path)
        assert _outcome(read, path) == expected, f"{label}\n{path.read_bytes()!r}"
        outcomes.add(expected[0])
    assert outcomes == {"read", "error"}


def _counted(monkeypatch, owner, name: str, calls: list) -> None:
    function = getattr(owner, name)
    monkeypatch.setattr(owner, name, lambda *args: calls.append(name) or function(*args))


@pytest.fixture
def parses(monkeypatch):
    """The number of _parse_json calls so far."""
    calls = []
    _counted(monkeypatch, backend_io, "_parse_json", calls)
    return lambda: len(calls)


@pytest.fixture
def field_checks(monkeypatch):
    """The names of the per-field checks called so far: a passage put
    through CorpusStore._put, and a query id or a string checked alone."""
    calls = []
    for owner, name in ((CorpusStore, "_put"), (corpus, "_record_id"),
                        (corpus, "_lone_surrogate")):
        _counted(monkeypatch, owner, name, calls)
    return calls


WELL_FORMED = {
    "corpus": ['{"id": "p1", "text": "one"}', '{"text": "say \\"two\\"", "id": "p2", "meta": null}',
               '{"id":"p3","text":"three\\nlines","meta":{},"extra":[1, {"x": 2}]}'],
    "queries": ['{"id": "q1", "query": "one", "gold_ids": ["p1"], "reference": null}',
                '{"gold_ids": [], "query": "two", "id": "q2", "short_answers": ["a", "b"], '
                '"facet_of": null}',
                '{"id": "q3", "query": "three", "gold_ids": ["p1", "p2"], "reference": "r", '
                '"facet_of": {"p2": "f"}, "short_answers": []}'],
}
# one line of each kind outside the well-formed form, and the position it takes
OUTSIDE = {"leading whitespace": (' {"id": "x", "%s": "x"}', 1),
           "trailing whitespace": ('{"id": "x", "%s": "x"}\t', 1),
           "non-ASCII": ('{"id": "x", "%s": "café"}', 1),
           "\\u escape": ('{"id": "x", "%s": "caf\\u00e9"}', 1),
           "no final newline": ('{"id": "x", "%s": "x"}', None)}
TEXT_FIELD = {"corpus": "text", "queries": "query"}


@pytest.mark.parametrize("name", sorted(WELL_FORMED))
def test_well_formed_lines_are_parsed_by_the_scanner_alone(name, tmp_path, parses,
                                                           field_checks):
    path = tmp_path / f"{name}.jsonl"
    read, oracle = READERS[name]
    lines = WELL_FORMED[name]
    path.write_text("\n".join([lines[0], "  ", *lines[1:]]) + "\n", encoding="utf-8")
    assert read(path) == oracle(path)
    assert len(read(path)) == len(lines) and parses() == 0
    # over the two reads: a passage takes no per-field check; a query's id is
    # checked by _record_id, and no well-formed line is searched for a lone
    # surrogate
    assert field_checks == ([] if name == "corpus" else ["_record_id"] * 2 * len(lines))
    assert [line_no for line_no, _ in read_jsonl(path)] == [1, 3, 4] and parses() == 0


@pytest.mark.parametrize("kind", sorted(OUTSIDE))
@pytest.mark.parametrize("name", sorted(WELL_FORMED))
def test_a_line_outside_the_form_is_parsed_once(name, kind, tmp_path, parses):
    line, at = OUTSIDE[kind]
    read, oracle = READERS[name]
    lines = list(WELL_FORMED[name])
    lines.insert(len(lines) if at is None else at, line % TEXT_FIELD[name])
    path = tmp_path / f"{name}.jsonl"
    text = "\n".join(lines)
    path.write_text(text if at is None else text + "\n", encoding="utf-8")
    assert len(read(path)) == len(lines) and parses() == 1
    assert read(path) == oracle(path)


def test_a_well_formed_line_outside_the_inline_checks_is_not_parsed_again(tmp_path, parses):
    path = tmp_path / "records.jsonl"
    path.write_text('{"id": 7, "text": "seven"}\n{"id": "m", "text": "t", "meta": {"k": "v"}}\n',
                    encoding="utf-8")
    assert [(p.id, p.text, p.meta) for p in ingest_corpus(path)] == [
        ("7", "seven", {}), ("m", "t", {"k": "v"})]
    path.write_text('{"id": 7, "query": "seven", "gold_ids": [3, "p4"]}\n', encoding="utf-8")
    assert load_queries(path) == oracles.load_queries(path)
    assert load_queries(path)[0].gold_ids == {"3", "p4"}
    assert parses() == 0
