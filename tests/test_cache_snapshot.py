"""The snapshot beside a cache file: a cache takes its entries from it only
when the file's length and sha256 match, a bad or stale one costs a full
parse and nothing else, and only a non-strict cache writes one, also after
it cut a torn line or a failed append off the file."""

import hashlib
import json

import pytest

from contregen import backend_io
from contregen.cli import dispatch
from contregen.errors import CacheCorruptionError
from contregen.llm import LlmCache
from contregen.retrieval import RetrievalCache

from conftest import contregen_fixtures, write_fixture_file

# name -> (cache class, [(key, value), ...], the context fields of every put)
_CASES = {
    "llm": (LlmCache,
            [("ascii", "plain answer"), ("multibyte", "café 中文"),
             ("surrogate", "odd \ud800 text")],
            {"role": "plan", "prompt": "pé"}),
    "retrieval": (RetrievalCache,
                  [("ascii", (("p1", 1.5), ("p2", 0.25))),
                   ("multibyte", (("pé中", 2.0),)), ("empty", ())],
                  {"backend": "lexical", "query": "qé", "topk": 2}),
}


@pytest.fixture
def parses(monkeypatch):
    """The number of _parse_json calls so far: one for a load from the
    snapshot, one per line for a full parse (and one more for a snapshot
    that was read and passed over)."""
    calls = []
    parse = backend_io._parse_json
    monkeypatch.setattr(backend_io, "_parse_json", lambda text: calls.append(1) or parse(text))
    return lambda: len(calls)


def _filled(name, path, entries=None):
    """A cache of the case's class at path holding its entries, closed."""
    cache_class, default, context = _CASES[name]
    cache = cache_class(path)
    for key, value in default if entries is None else entries:
        cache.put(key, value, **context)
    cache.close()
    return cache


def _snapshot(path):
    return path.with_name(path.name + ".snapshot")


def _assert_snapshot_of_the_file(cache_class, path, parses, entries) -> None:
    """The snapshot beside path holds the length and sha256 of its bytes, and
    a strict load takes exactly entries from it, parsing no line."""
    data = path.read_bytes()
    snapshot = json.loads(_snapshot(path).read_bytes())
    assert (snapshot["bytes"], snapshot["sha256"]) == (len(data), hashlib.sha256(data).hexdigest())
    before = parses()
    assert cache_class(path, strict=True)._entries == entries
    assert parses() - before == 1


def _full_parse(cache_class, path) -> dict:
    """The entries of a full parse of path: a snapshot beside it is moved
    away for the load."""
    aside = path.with_name("aside")
    _snapshot(path).rename(aside)
    try:
        return cache_class(path, strict=True)._entries
    finally:
        aside.rename(_snapshot(path))


@pytest.mark.parametrize("name", sorted(_CASES))
def test_a_load_after_a_close_takes_the_snapshot(name, tmp_path, parses):
    path = tmp_path / "cache.jsonl"
    written = _filled(name, path)
    cache_class = type(written)
    snapshot = json.loads(_snapshot(path).read_bytes())
    assert snapshot["bytes"] == path.stat().st_size
    inode = _snapshot(path).stat().st_ino
    before = parses()
    for strict in (True, False):
        loaded = cache_class(path, strict=strict)
        assert parses() - before == 1  # the snapshot, no line of the file
        assert loaded._entries == _full_parse(cache_class, path) == written._entries
        assert all(type(value) is type(written._entries[key])
                   for key, value in loaded._entries.items())
        before = parses()
    loaded.close()  # loaded from the snapshot and appended nothing: none is due
    assert _snapshot(path).stat().st_ino == inode


def test_a_lone_surrogate_round_trips_through_the_ascii_snapshot(tmp_path, parses):
    path = tmp_path / "llm.jsonl"
    _filled("llm", path, [("k", "odd \ud800 text \udfff")])
    assert _snapshot(path).read_bytes().isascii()
    before = parses()
    assert LlmCache(path, strict=True).get("k") == "odd \ud800 text \udfff"
    assert parses() - before == 1


@pytest.mark.parametrize("name", sorted(_CASES))
def test_an_append_by_another_writer_makes_the_snapshot_stale(name, tmp_path, parses):
    cache_class, entries, context = _CASES[name]
    path = tmp_path / "cache.jsonl"
    _filled(name, path, entries[:1])
    first, second = cache_class(path), cache_class(path)  # both from the snapshot
    second.put(*entries[1], **context)
    # first's snapshot would hash its own bytes, not second's line among them
    first.put(*entries[2], **context)
    first.close()
    before = parses()
    reloaded = cache_class(path, strict=True)
    assert parses() - before == 1 + 3  # the stale snapshot, then every line
    assert {key: reloaded.get(key) for key, _ in entries} == dict(entries)
    second.close()  # its snapshot is stale too
    before = parses()
    assert cache_class(path, strict=True)._entries == reloaded._entries
    assert parses() - before == 1 + 3


@pytest.mark.parametrize("name", sorted(_CASES))
def test_a_bad_line_beside_a_snapshot_of_the_clean_bytes_is_an_error(name, tmp_path):
    path = tmp_path / "cache.jsonl"
    cache_class = type(_filled(name, path))
    lines = path.read_bytes().splitlines(keepends=True)
    # the same length, so only the digest tells the bytes apart
    lines[1] = b"{" + lines[1][1:-2] + b"!\n"
    path.write_bytes(b"".join(lines))
    with pytest.raises(CacheCorruptionError, match=r"cache\.jsonl:2: unreadable cache entry"):
        cache_class(path, strict=True)


@pytest.mark.parametrize("name", sorted(_CASES))
def test_a_torn_tail_is_dropped_and_that_session_snapshots_the_cut_file(name, tmp_path, caplog,
                                                                         parses):
    cache_class, entries, context = _CASES[name]
    path = tmp_path / "cache.jsonl"
    _filled(name, path, entries[:2])
    _snapshot(path).unlink()
    with path.open("a", encoding="utf-8") as fh:
        fh.write('{"key": "torn", "val')
    with caplog.at_level("WARNING"):
        cache = cache_class(path)
    assert "cache.jsonl:3: dropping torn final line" in caplog.text
    cache.put(*entries[2], **context)
    cache.close()
    _assert_snapshot_of_the_file(cache_class, path, parses, dict(entries))


class _FailingHandle:
    """An append handle that lands the first half of every write, then fails."""

    def __init__(self, fh):
        self.fh = fh

    def __getattr__(self, name):
        return getattr(self.fh, name)

    def write(self, text):
        self.fh.write(text[:len(text) // 2])
        self.fh.flush()
        raise OSError(28, "No space left on device")


def test_a_session_that_cut_off_a_failed_append_snapshots_the_cut_file(tmp_path, parses):
    path = tmp_path / "llm.jsonl"
    cache = LlmCache(path)
    cache.put("k1", "one", role="plan", prompt="p")
    cache.close()
    _snapshot(path).unlink()
    real_open = type(path).open
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(type(path), "open", lambda self, *args, **kwargs:
                      _FailingHandle(real_open(self, *args, **kwargs)))
        with pytest.raises(backend_io.DataError, match="No space left on device"):
            cache.put("k2", "two", role="plan", prompt="p")
    cache.put("k3", "three", role="plan", prompt="p")  # cuts k2's half line off first
    cache.close()
    _assert_snapshot_of_the_file(LlmCache, path, parses, {"k1": "one", "k3": "three"})


def _valid_snapshot(tmp_path, name):
    """(cache class, path, snapshot) of a closed cache of the case."""
    path = tmp_path / "cache.jsonl"
    cache_class = type(_filled(name, path))
    return cache_class, path, json.loads(_snapshot(path).read_bytes())


_BAD_SNAPSHOTS = {
    "truncated": lambda text, snapshot: text[:len(text) // 2],
    "a list": lambda text, snapshot: json.dumps([snapshot]),
    "not json": lambda text, snapshot: "\xff" + text,
    "no entries": lambda text, snapshot: json.dumps({**snapshot, "entries": None}),
    "another length": lambda text, snapshot: json.dumps({**snapshot,
                                                         "bytes": snapshot["bytes"] - 1}),
    "another digest": lambda text, snapshot: json.dumps({**snapshot, "sha256": "0" * 64}),
    "a bad value": lambda text, snapshot: json.dumps({**snapshot, "entries": {
        **snapshot["entries"], "ascii": 5}}),
    "bad hits": lambda text, snapshot: json.dumps({**snapshot, "entries": {
        **snapshot["entries"], "ascii": [["p1", "x"]]}}),
}


@pytest.mark.parametrize("name", sorted(_CASES))
@pytest.mark.parametrize("bad", sorted(_BAD_SNAPSHOTS))
def test_a_bad_snapshot_is_passed_over_for_the_full_parse(bad, name, tmp_path, parses):
    cache_class, path, snapshot = _valid_snapshot(tmp_path, name)
    text = _snapshot(path).read_text(encoding="utf-8")
    _snapshot(path).write_bytes(
        _BAD_SNAPSHOTS[bad](text, snapshot).encode("utf-8", "surrogateescape"))
    before = parses()
    cache = cache_class(path)
    assert parses() - before == 1 + 3  # the snapshot read, then every line of the file
    assert cache._entries == dict(_CASES[name][1])
    cache.close()  # a full parse: the close writes a valid snapshot over the bad one
    assert json.loads(_snapshot(path).read_bytes()) == snapshot


def test_a_snapshot_that_is_a_directory_is_passed_over(tmp_path):
    path = tmp_path / "llm.jsonl"
    _filled("llm", path)
    _snapshot(path).unlink()
    _snapshot(path).mkdir()
    cache = LlmCache(path)
    assert cache.get("ascii") == "plain answer"
    cache.put("new", "fresh", role="plan", prompt="p")
    cache.close()  # the snapshot cannot be written, and that is no error
    assert LlmCache(path, strict=True).get("new") == "fresh"


def test_a_snapshot_of_a_file_without_its_final_newline_keeps_the_repair(tmp_path, parses):
    path = tmp_path / "llm.jsonl"
    path.write_bytes(b'{"key": "k1", "response": "one"}')  # parses, but unterminated
    LlmCache(path).close()  # a full parse: it writes the snapshot
    cache = LlmCache(path)
    assert cache.get("k1") == "one"
    cache.put("k2", "two", role="plan", prompt="p")
    cache.close()
    assert path.read_bytes().count(b"\n") == 2  # k1's line was terminated first
    before = parses()
    assert LlmCache(path, strict=True)._entries == {"k1": "one", "k2": "two"}
    assert parses() - before == 1


def test_a_strict_replay_over_a_stale_snapshot_writes_nothing_to_the_cache_dir(
        planted, tmp_path):
    cache = tmp_path / "cache"
    fixtures = write_fixture_file(tmp_path, contregen_fixtures())
    args = ["--corpus", str(planted["corpus"]), "--queries", str(planted["queries"]),
            "--fixtures", str(fixtures), "--cache-dir", str(cache)]
    assert dispatch(["run", *args, "--out-dir", str(tmp_path / "run")]) == 0
    assert sorted(path.name for path in cache.iterdir()) == [
        "llm.jsonl", "llm.jsonl.snapshot", "retrieval.jsonl", "retrieval.jsonl.snapshot"]
    for name in ("llm.jsonl", "retrieval.jsonl"):  # a valid line appended by another writer
        with (cache / name).open("ab") as fh:
            fh.write((cache / name).read_bytes().splitlines(keepends=True)[0])
    before = {path.name: path.read_bytes() for path in cache.iterdir()}
    assert dispatch(["replay", *args, "--out-dir", str(tmp_path / "replay")]) == 0
    assert {path.name: path.read_bytes() for path in cache.iterdir()} == before
    assert (tmp_path / "replay" / "outputs.jsonl").read_bytes() == \
        (tmp_path / "run" / "outputs.jsonl").read_bytes()
