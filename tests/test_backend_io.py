"""The one JSON parser of backend_io and the readers built on it: the parser
against json.loads, blank lines, and JSON too deep or too long for Python."""

import json
import socket
import sys

import pytest

from contregen.backend_io import _parse_json, read_json, read_jsonl
from contregen.corpus import ingest_corpus
from contregen.errors import CacheCorruptionError, DataError, MalformedRecordError
from contregen.llm import LlmCache
from contregen.retrieval import RetrievalCache

_PARITY_LINES = [
    '{"a": 1}', '{"a": 1}\n', '{"a": 1}\r\n', '{"a": 1}\n\n', '{"a": 1}\r',
    '{"a": 1}  ', '{"a": 1}\t\n', '{"a": 1} \n', ' {"a": 1}\n', '\t{"a": 1}',
    '\n{"a": 1}', '\ufeff{"a": 1}\n', '{"a": 1}\x0c\n', '{"a": 1}\u3000\n',
    '[NaN, -Infinity, Infinity, 1e400, -0.0, 1.0, 1, 10000000000000000000000]\n',
    'NaN', '-Infinity\n', '1e400', '12', '-0\n', 'true\n', 'tru\n',
    '"\\ud800"\n', '{"\\udfff": "\\ud83d\\ude00"}', '{"t": "na\u00efve \u65e5\u672c \U0001f600"}\n',
    '{}{}\n', '{} {}', '[1] x\n', '{"a":', '{"a":\n', '{"a": 1,}\n', '[1,]',
    '[]\n', '[]', '"s"', '"s"\n', 'null', 'null\n', '', '\n', ' ', '"\\x"\n', '1x', '1\nx',
    '"ctrl\x01"\n', '{"k": "v", "k": "w"}\n', '{"a": [1, {"b": null, "c": [true, false]}]}\n',
]


def _typed(value):
    """value with the type of each part beside it, and floats by repr so that
    NaN compares equal to itself."""
    if isinstance(value, dict):
        return ("dict", [(key, _typed(item)) for key, item in value.items()])
    if isinstance(value, list):
        return ("list", [_typed(item) for item in value])
    return (type(value).__name__, repr(value))


def _outcome(parse, text):
    try:
        return "value", _typed(parse(text))
    except Exception as exc:  # the outcome compared is the exception
        return "error", type(exc), str(exc)


@pytest.mark.parametrize("text", _PARITY_LINES)
def test_parser_matches_json_loads(text):
    assert _outcome(_parse_json, text) == _outcome(json.loads, text)


def test_a_lone_miss_leaves_no_single_flight_entry(tmp_path):
    cache = LlmCache(tmp_path / "llm.jsonl")
    assert cache.lookup("k", {"role": "plan", "prompt": "p"}, lambda: "v") == "v"
    assert cache._flights == {}


def _int_digit_limit() -> int:
    limit = sys.get_int_max_str_digits()
    if not limit:
        pytest.skip("integer string conversion is unlimited in this interpreter")
    return limit


def test_parser_makes_too_deep_and_too_long_values_value_errors():
    deep = "[" * 100_000
    with pytest.raises(RecursionError):
        json.loads(deep)
    with pytest.raises(ValueError, match="^nested too deeply$"):
        _parse_json(deep)
    long_int = '{"n": 1%s}\n' % ("0" * _int_digit_limit())
    with pytest.raises(ValueError) as loads_error:
        json.loads(long_int)
    with pytest.raises(ValueError) as parse_error:
        _parse_json(long_int)
    assert (str(parse_error.value) + "; use sys.set_int_max_str_digits() to increase the limit"
            == str(loads_error.value))
    assert "Exceeds the limit" in str(parse_error.value)


_BLANKS = ["\x0c", "\x1c", "\u2028", "\u3000", "\t", "  \t "]


def test_read_jsonl_skips_whitespace_lines_and_counts_them(tmp_path):
    path = tmp_path / "records.jsonl"
    path.write_text('{"id": "a"}\n' + "".join(f"{blank}\n" for blank in _BLANKS)
                    + '{"id": "b"}\nnot json\n', encoding="utf-8")
    records = read_jsonl(path)
    assert next(records) == (1, {"id": "a"})
    assert next(records) == (len(_BLANKS) + 2, {"id": "b"})
    with pytest.raises(MalformedRecordError, match=rf":{len(_BLANKS) + 3}: invalid JSON"):
        next(records)


def test_cache_skips_whitespace_lines_and_counts_them(tmp_path):
    path = tmp_path / "llm.jsonl"
    lines = '{"key": "k", "response": "ok"}\n' + "".join(f"{blank}\n" for blank in _BLANKS)
    path.write_text(lines + '{"key": "k2", "response": "more"}\n', encoding="utf-8")
    cache = LlmCache(path)
    assert cache.get("k") == "ok" and cache.get("k2") == "more"
    path.write_text(lines + '{"key": "k2"}\n', encoding="utf-8")
    with pytest.raises(CacheCorruptionError,
                       match=rf"llm\.jsonl:{len(_BLANKS) + 2}: unreadable cache entry"):
        LlmCache(path)


@pytest.mark.parametrize("blank", _BLANKS)
def test_passage_text_of_only_whitespace_is_rejected(blank, tmp_path):
    path = tmp_path / "corpus.jsonl"
    path.write_text(json.dumps({"id": "p1", "text": blank}) + "\n", encoding="utf-8")
    with pytest.raises(MalformedRecordError, match=r":1: text must be a non-empty string$"):
        ingest_corpus(path)


def test_input_line_too_deep_or_too_long_is_malformed(tmp_path):
    path = tmp_path / "corpus.jsonl"
    fine = '{"id": "p1", "text": "fine"}\n'
    path.write_text(fine + "[" * 100_000 + "\n", encoding="utf-8")
    with pytest.raises(MalformedRecordError) as err:
        ingest_corpus(path)
    assert str(err.value) == f"{path}:2: invalid JSON (nested too deeply)"
    path.write_text(fine + '{"id": "a", "text": "t", "n": 1%s}\n'
                    % ("0" * _int_digit_limit()), encoding="utf-8")
    with pytest.raises(MalformedRecordError, match=r":2: invalid JSON \(Exceeds the limit"):
        ingest_corpus(path)


def test_too_long_integer_error_drops_the_interpreter_advice(tmp_path):
    digits = _int_digit_limit() + 1
    path = tmp_path / "data.jsonl"
    path.write_text('{"key": "k", "response": 1%s}\n' % ("0" * (digits - 1)), encoding="utf-8")
    errors = []
    for read in (lambda: next(read_jsonl(path)), lambda: read_json(path, "data file"),
                 lambda: LlmCache(path)):
        with pytest.raises(DataError) as err:
            read()
        errors.append(str(err.value))
    for message in errors:
        assert f"Exceeds the limit ({digits - 1} digits)" in message
        assert f"value has {digits} digits" in message
        assert "set_int_max_str_digits" not in message


def test_json_file_too_deep_is_a_data_error(tmp_path):
    path = tmp_path / "trace.json"
    path.write_text('{"a": ' + "[" * 100_000, encoding="utf-8")
    with pytest.raises(DataError, match=r"trace file .* is not valid JSON: nested too deeply"):
        read_json(path, "trace file")


@pytest.mark.parametrize("cache_class, name", [(LlmCache, "llm"), (RetrievalCache, "ret")])
def test_cache_line_too_deep_is_corruption_unless_torn(cache_class, name, tmp_path, caplog):
    path = tmp_path / f"{name}.jsonl"
    first = '{"key": "k", "%s": %s}\n' % (cache_class.value_field,
                                         '"ok"' if cache_class is LlmCache else "[]")
    path.write_text(first + "[" * 100_000 + "\n", encoding="utf-8")
    with pytest.raises(CacheCorruptionError,
                       match=rf"{name}\.jsonl:2: unreadable cache entry \(nested too deeply\)"):
        cache_class(path)
    path.write_text(first + "[" * 100_000, encoding="utf-8")  # an append cut short
    with caplog.at_level("WARNING"):
        assert cache_class(path).get("k") is not None
    assert "dropping torn final line" in caplog.text


def test_tests_reach_no_host_beyond_loopback():
    """The guard of conftest.py. A UDP connect and a numeric lookup send
    nothing, so this test reaches no host even without the guard."""
    refused = pytest.fail.Exception
    with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as sock:
        with pytest.raises(refused, match="no network access: connect to '192.0.2.1'"):
            sock.connect(("192.0.2.1", 9))
        sock.connect(("127.0.0.1", 9))
    with pytest.raises(refused, match="no network access: lookup of '192.0.2.1'"):
        socket.getaddrinfo("192.0.2.1", 9, flags=socket.AI_NUMERICHOST)
    assert socket.getaddrinfo("127.0.0.1", 9, flags=socket.AI_NUMERICHOST)
