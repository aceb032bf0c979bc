import errno
import json
import math
import os
import random
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from contregen import backend_io
from contregen.backend_io import JsonlCache
from contregen.errors import (
    CacheCorruptionError,
    ConfigError,
    DataError,
    FixtureMissError,
    LlmBackendError,
    ReplayMissError,
    TemplateRenderError,
)
from contregen.llm import (
    KEY_SLOT,
    CachingAdapter,
    LlmCache,
    LlmGateway,
    OpenAiChatAdapter,
    PromptRole,
    PromptTemplate,
    ScriptedAdapter,
    load_templates,
)

from conftest import NumberingAdapter, run_together
from oracles import cache_key, count_calls, render, slot_names


def test_all_roles_have_templates_with_exemplars():
    templates = load_templates()
    assert set(templates) == set(PromptRole)
    for role, template in templates.items():
        exemplar = template.text.partition("=== example ===")[2].partition("=== task ===")[0]
        assert exemplar.strip(), role
        assert KEY_SLOT[role] in slot_names(template), role


def test_render_fills_slots_single_pass():
    template = PromptTemplate(role=PromptRole.PLAN, text="Q: {query} P: {passages}")
    rendered = template.render({"query": "use {passages} literally", "passages": "[1] x"})
    # slot values containing placeholder syntax must not be re-substituted
    assert rendered == "Q: use {passages} literally P: [1] x"


def test_render_missing_slot_raises():
    template = PromptTemplate(role=PromptRole.PLAN, text="needs {query} and {missing}")
    with pytest.raises(TemplateRenderError) as err:
        template.render({"query": "x"})
    assert str(err.value) == "unfilled slot {missing} rendering template for role plan"


# Text that JSON escapes or that a placeholder scan could trip on: quotes,
# backslashes, control characters, DEL, non-ASCII, astral and lone-surrogate
# text, and braces that are, are not, or only look like a placeholder
_AWKWARD = ['"', "\\", "\x00", "\n", "\t", "\x1f", "\x7f", "\u00e9", "\u65e5",
            "\U0001f600", "\ud800", "\udfff", "{", "}", "{}", "{Not_a_slot}", "{9}",
            "{{query}}", "plain words ", " "]
_SLOTS = ["query", "passages", "main_query", "child_summaries", "missing"]


def _awkward_text(rng: random.Random, placeholders: bool) -> str:
    pieces = _AWKWARD + ["{%s}" % name for name in _SLOTS] * placeholders
    return "".join(rng.choice(pieces) for _ in range(rng.randrange(0, 12)))


def _outcome(fn):
    try:
        return "text", fn()
    except TemplateRenderError as exc:
        return "error", str(exc)


@pytest.mark.parametrize("seed", range(4))
def test_render_matches_the_regex_oracle(seed):
    rng = random.Random(seed)
    fixed = ["{query}", "{query}{query}", "{query}{passages}", "x{query}", "{query}x",
             "{query} and {query}", "{missing}{query}", "{query}{missing}", "", "no slots"]
    texts = fixed + [_awkward_text(rng, placeholders=True) for _ in range(300)]
    for text in texts:
        template = PromptTemplate(role=rng.choice(list(PromptRole)), text=text)
        names = rng.sample(_SLOTS, rng.randrange(len(_SLOTS) + 1))
        slots = {name: _awkward_text(rng, placeholders=True) for name in names}
        assert _outcome(lambda: template.render(slots)) == _outcome(
            lambda: render(template, slots)), (text, slots)


class _Text(str):
    pass


def _key_part(rng: random.Random):
    kind = rng.randrange(5)
    if kind == 0:
        return rng.choice([0, -1, 7, 2 ** 70, -(10 ** 30)])
    if kind == 1:
        return rng.choice([True, False])
    if kind == 2:
        return _Text(_awkward_text(rng, placeholders=False))
    return _awkward_text(rng, placeholders=True)


@pytest.mark.parametrize("seed", range(4))
def test_cache_keys_match_the_json_dumps_oracle(seed):
    rng = random.Random(seed)
    for _ in range(300):
        parts = [_key_part(rng) for _ in range(rng.randrange(1, 5))]
        assert JsonlCache.digest(*parts) == cache_key(*parts), parts
        adapter_id, role, prompt = (_awkward_text(rng, placeholders=True) for _ in range(3))
        assert LlmCache.key(adapter_id, role, prompt) == cache_key(adapter_id, role, prompt)
    # the prompts of the replay cache are long; a key covers every character
    prompt = _awkward_text(rng, placeholders=True) * 500
    assert LlmCache.key("scripted", "plan", prompt) == cache_key("scripted", "plan", prompt)


# Characters whose JSON escape differs from themselves, or whose UTF-16 form
# is a pair: a split next to each must not change the key
_SPLIT_AT = ['"', "\\", "\x00", "\n", "\x1f", "\x7f", "é", "\U0001f600", "\ud800",
             "\udfff"]


@pytest.mark.parametrize("seed", range(4))
def test_prefixed_keys_match_the_json_dumps_oracle(seed):
    """A key hashed from a head's prefix equals the json.dumps key, whether or
    not the prompt starts with the head."""
    rng = random.Random(seed)
    for _ in range(300):
        adapter_id, role, head = (_awkward_text(rng, placeholders=True) for _ in range(3))
        rest = _awkward_text(rng, placeholders=True)
        prompt = rng.choice([head + rest, head, rest, rest + head, head[:-1] + rest])
        prefix = JsonlCache.digest_prefix(adapter_id, role, head)
        assert (LlmCache.key(adapter_id, role, prompt, prefix)
                == cache_key(adapter_id, role, prompt)), (head, prompt)
    for left in _SPLIT_AT:
        for right in _SPLIT_AT:
            head = f"head {left}"
            prefix = JsonlCache.digest_prefix("scripted", "plan", head)
            for prompt in (head + right, head + right + " tail", head, right + head):
                assert (LlmCache.key("scripted", "plan", prompt, prefix)
                        == cache_key("scripted", "plan", prompt)), prompt
    empty = JsonlCache.digest_prefix("scripted", "plan", "")
    for prompt in ("", '"', "x" * 1000):
        assert LlmCache.key("scripted", "plan", prompt, empty) == cache_key(
            "scripted", "plan", prompt)


def test_a_prefix_for_other_leading_parts_falls_back():
    """A prefix whose leading parts differ from the key's, in value or only
    in type (1 for True, a str for a str subclass), hashes the key whole."""
    head, prompt = "Answer {", "Answer {the question}"
    prefix = JsonlCache.digest_prefix("scripted", "plan", head)
    for adapter_id, role in (("openai:x", "plan"), ("scripted", "rewrite"),
                             (_Text("scripted"), "plan"), ("scripted", _Text("plan"))):
        assert LlmCache.key(adapter_id, role, prompt, prefix) == cache_key(
            adapter_id, role, prompt)
    assert LlmCache.key("scripted", "plan", _Text(prompt), prefix) == cache_key(
        "scripted", "plan", prompt)
    one = JsonlCache.digest_prefix(1, head)
    assert JsonlCache.digest(True, prompt, prefix=one) == cache_key(True, prompt)
    assert JsonlCache.digest(1, prompt, prefix=one) == cache_key(1, prompt)
    assert JsonlCache.digest(1, 2, prompt, prefix=one) == cache_key(1, 2, prompt)
    assert JsonlCache.digest(1, 2, prefix=one) == cache_key(1, 2)
    assert JsonlCache.digest(prompt, prefix=one) == cache_key(prompt)
    with pytest.raises(TypeError):
        JsonlCache.digest_prefix("scripted", 1)


class _EchoAdapter:
    adapter_id = "echo"

    def __init__(self) -> None:
        self.backend_calls = 0

    def complete(self, role, prompt, slots) -> str:
        self.backend_calls += 1
        return f"{role.value}: {prompt[-40:]}"


def test_caching_adapter_with_templates_hits_the_keys_written_without(tmp_path):
    """A strict cache behind an adapter built with the templates serves every
    prompt an adapter built without them cached, from its head's prefix or,
    for a prompt that does not start with its head, from the whole key."""
    templates = load_templates()
    cache_path = tmp_path / "llm.jsonl"
    writer = CachingAdapter(_EchoAdapter(), LlmCache(cache_path))
    written = {}
    for role, template in templates.items():
        prompt = template.render({name: f'{name} "\u00e9\\ \ud800'
                                  for name in slot_names(template)})
        for text in (prompt, f"x{prompt}"):
            written[role, text] = writer.complete(role, text, {})
    writer.cache.close()
    reader = CachingAdapter(_EchoAdapter(), LlmCache(cache_path, strict=True), templates)
    assert {call: reader.complete(*call, {}) for call in written} == written
    assert len(written) == 2 * len(templates) and reader.backend_calls == 0


def test_template_override_dir(tmp_path):
    (tmp_path / "plan.txt").write_text("custom plan prompt {query}")
    templates = load_templates(tmp_path)
    assert templates[PromptRole.PLAN].text.startswith("custom plan prompt")
    assert templates[PromptRole.REWRITE].text != templates[PromptRole.PLAN].text
    with pytest.raises(ConfigError):
        load_templates(tmp_path / "no-such-dir")


def test_scripted_adapter_string_and_list():
    adapter = ScriptedAdapter({
        "plan": {"the query": "single"},
        "baseline_generate": {"the query": ["first", "second"]},
    })
    slots = {"query": "the query"}
    assert adapter.complete(PromptRole.PLAN, "p", slots) == "single"
    assert adapter.complete(PromptRole.PLAN, "p", slots) == "single"
    assert adapter.complete(PromptRole.BASELINE_GENERATE, "p", slots) == "first"
    assert adapter.complete(PromptRole.BASELINE_GENERATE, "p", slots) == "second"
    with pytest.raises(FixtureMissError) as err:
        adapter.complete(PromptRole.BASELINE_GENERATE, "p", slots)
    assert "exhausted" in str(err.value)
    assert adapter.backend_calls == 5


def test_scripted_adapter_serves_each_list_response_once_across_threads():
    threads, calls = 16, 3000
    responses = [f"r{n}" for n in range(threads * calls)]
    adapter = ScriptedAdapter({"baseline_followup": {"q": responses}})
    served = [[] for _ in range(threads)]

    def worker(slot):
        for _ in range(calls):
            served[slot].append(
                adapter.complete(PromptRole.BASELINE_FOLLOWUP, "p", {"query": "q"}))

    run_together(threads, worker)
    assert sorted(r for per_thread in served for r in per_thread) == sorted(responses)
    assert adapter.backend_calls == threads * calls


def test_scripted_adapter_misses_are_hard():
    adapter = ScriptedAdapter({"plan": {"known": "x"}})
    with pytest.raises(FixtureMissError):
        adapter.complete(PromptRole.PLAN, "p", {"query": "unknown"})
    with pytest.raises(FixtureMissError):
        adapter.complete(PromptRole.REWRITE, "p", {"subquestion": "known"})


def test_scripted_adapter_rejects_unknown_roles():
    with pytest.raises(ValueError):
        ScriptedAdapter({"no_such_role": {}})


def test_scripted_adapter_from_file(tmp_path):
    path = tmp_path / "fx.json"
    path.write_text(json.dumps({"plan": {"q": "resp"}}))
    adapter = ScriptedAdapter.from_file(path)
    assert adapter.complete(PromptRole.PLAN, "p", {"query": "q"}) == "resp"


@pytest.mark.parametrize("response", [{"a": 1}, 5, True, None, [1, None], ["ok", 2]])
def test_scripted_fixture_response_must_be_a_string_or_list_of_strings(tmp_path, response):
    path = tmp_path / "fx.json"
    path.write_text(json.dumps({"plan": {"ok": "fine", "q": response}}))
    with pytest.raises(DataError) as err:
        ScriptedAdapter.from_file(path)
    assert str(err.value) == (f"fixture file {path}: role 'plan' key 'q': the response must "
                              "be a string or a list of strings")


def test_gateway_records_calls_and_token_estimate():
    adapter = ScriptedAdapter({"rewrite": {"sub": "rewritten form"}})
    calls = []
    gateway = LlmGateway(adapter, on_call=calls.append)
    response = gateway.complete(PromptRole.REWRITE,
                                {"subquestion": "sub", "main_query": "main"},
                                node_path="0.1")
    assert response == "rewritten form"
    (call,) = calls
    assert call.role == "rewrite"
    assert call.node_path == "0.1"
    assert "sub" in call.prompt and "main" in call.prompt
    assert call.approx_tokens == math.ceil((len(call.prompt) + len(call.response)) / 4)


def test_count_calls():
    adapter = ScriptedAdapter({"plan": {"q": "x"}, "rewrite": {"s": "y"}})
    calls = []
    gateway = LlmGateway(adapter, on_call=calls.append)
    gateway.complete(PromptRole.PLAN, {"query": "q", "main_query": "q", "passages": ""})
    gateway.complete(PromptRole.REWRITE, {"subquestion": "s", "main_query": "q"})
    gateway.complete(PromptRole.REWRITE, {"subquestion": "s", "main_query": "q"})
    counts = count_calls(calls)
    assert counts["plan"] == 1
    assert counts["rewrite"] == 2
    assert counts["necessity"] == 0
    assert counts["total"] == 3


def test_llm_cache_round_trip_and_strictness(tmp_path):
    cache_path = tmp_path / "llm.jsonl"
    inner = ScriptedAdapter({"plan": {"q": "planned"}})
    caching = CachingAdapter(inner, LlmCache(cache_path))
    slots = {"query": "q"}
    assert caching.complete(PromptRole.PLAN, "the prompt", slots) == "planned"
    assert caching.complete(PromptRole.PLAN, "the prompt", slots) == "planned"
    assert inner.backend_calls == 1

    fresh_inner = ScriptedAdapter({})
    strict = CachingAdapter(fresh_inner, LlmCache(cache_path, strict=True))
    assert strict.complete(PromptRole.PLAN, "the prompt", slots) == "planned"
    with pytest.raises(ReplayMissError):
        strict.complete(PromptRole.PLAN, "another prompt", slots)
    assert fresh_inner.backend_calls == 0
    assert strict.backend_calls == 0


def test_llm_cache_keys_on_adapter_role_prompt():
    assert LlmCache.key("a", "plan", "p") != LlmCache.key("b", "plan", "p")
    assert LlmCache.key("a", "plan", "p") != LlmCache.key("a", "rewrite", "p")
    assert LlmCache.key("a", "plan", "p") != LlmCache.key("a", "plan", "p2")


def test_llm_cache_corruption_is_loud(tmp_path):
    path = tmp_path / "llm.jsonl"
    path.write_text('{"key": "k", "response": "ok"}\n{"broken": true}\n')
    with pytest.raises(CacheCorruptionError) as err:
        LlmCache(path)
    assert ":2:" in str(err.value)

    # a torn final line (no newline) is dropped and cut off before the next append
    path.write_text('{"key": "k", "response": "ok"}\n{"key": "k2", "resp')
    cache = LlmCache(path)
    assert cache.get("k") == "ok" and cache.get("k2") is None
    cache.put("k3", "fresh", role="plan", prompt="p")
    reloaded = LlmCache(path)
    assert reloaded.get("k") == "ok" and reloaded.get("k3") == "fresh"

    # bytes that are not UTF-8 are corruption on a complete line, a torn tail
    # (an append cut inside a multi-byte character) otherwise
    path.write_bytes(b'{"key": "k", "response": "ok"}\n{"key": "k2", "response": "caf\xe9"}\n')
    with pytest.raises(CacheCorruptionError, match=r"llm\.jsonl:2: .*utf-8"):
        LlmCache(path)
    path.write_bytes(b'{"key": "k", "response": "ok"}\n{"key": "k2", "response": "\xc3')
    cache = LlmCache(path)
    assert cache.get("k") == "ok" and cache.get("k2") is None
    cache.put("k3", "caf\u00e9", role="plan", prompt="p")
    assert LlmCache(path).get("k3") == "caf\u00e9"

    # a complete final line that lacks its newline is kept and terminated
    path.write_text('{"key": "k", "response": "ok"}')
    LlmCache(path).put("k2", "more", role="plan", prompt="p")
    assert LlmCache(path).get("k") == "ok" and LlmCache(path).get("k2") == "more"


_WRONG_RESPONSES = {"null": "null", "number": "5", "boolean": "true", "list": '["a"]',
                    "object": '{"text": "a"}'}


# an unterminated final line that parses is a whole line, not a torn append
@pytest.mark.parametrize("response,end", [
    *(pytest.param(value, "\n", id=name) for name, value in _WRONG_RESPONSES.items()),
    *(pytest.param(value, "", id=f"{name}-unterminated")
      for name, value in _WRONG_RESPONSES.items()),
])
def test_llm_cache_entry_of_the_wrong_type_is_corruption(response, end, tmp_path):
    path = tmp_path / "llm.jsonl"
    path.write_text('{"key": "k", "response": "ok"}\n{"key": "k2", "response": %s}%s'
                    % (response, end))
    with pytest.raises(CacheCorruptionError, match=r"llm\.jsonl:2: unreadable cache entry"):
        LlmCache(path)


_NON_STRING_KEYS = {"number": "5", "null": "null", "float": "1.5", "boolean": "true"}


# an entry filed under a key that is not a string could never be looked up
@pytest.mark.parametrize("key,end", [
    *(pytest.param(value, "\n", id=name) for name, value in _NON_STRING_KEYS.items()),
    *(pytest.param(value, "", id=f"{name}-unterminated")
      for name, value in _NON_STRING_KEYS.items()),
])
def test_llm_cache_key_that_is_not_a_string_is_corruption(key, end, tmp_path):
    path = tmp_path / "llm.jsonl"
    path.write_text('{"key": "k", "response": "ok"}\n{"key": %s, "response": "x"}%s'
                    % (key, end))
    with pytest.raises(CacheCorruptionError,
                       match=r"llm\.jsonl:2: unreadable cache entry \(key .* is not a string\)"):
        LlmCache(path)


def test_llm_cache_append_failure_is_data_error_and_not_kept(tmp_path):
    path = tmp_path / "llm.jsonl"
    cache = LlmCache(path)
    path.mkdir()  # the file stops being appendable after the cache loaded
    with pytest.raises(DataError, match=r"^cannot write cache file .*llm\.jsonl: "):
        cache.put("k", "served", role="plan", prompt="p")
    assert cache.get("k") is None  # an entry that was never written is not served


class _FullDisk:
    """An append handle whose first write lands, and whose second lands the
    first half of its text, then fails as a full disk does."""

    def __init__(self, fh):
        self.fh = fh
        self.writes = 0

    def __getattr__(self, name):  # seek, truncate, flush, close
        return getattr(self.fh, name)

    def write(self, text):
        self.writes += 1
        if self.writes == 1:
            return self.fh.write(text)
        self.fh.write(text[:len(text) // 2])
        self.fh.flush()
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


def _full_disk_on_open(monkeypatch) -> None:
    """Every append handle opened until monkeypatch.undo() is a _FullDisk."""
    real_open = Path.open
    monkeypatch.setattr(Path, "open", lambda self, *args, **kwargs:
                        _FullDisk(real_open(self, *args, **kwargs)))


def test_llm_cache_append_that_lands_in_part_is_cut_off_at_once(tmp_path, monkeypatch):
    path = tmp_path / "llm.jsonl"
    cache = LlmCache(path)
    _full_disk_on_open(monkeypatch)  # the first put's handle is held: k2 fails through it
    cache.put("k1", "one", role="plan", prompt="p")
    with pytest.raises(DataError, match=r"llm\.jsonl: No space left on device$"):
        cache.put("k2", "two", role="plan", prompt="p")
    monkeypatch.undo()
    # the part of k2's line that landed is gone
    assert path.read_bytes() == \
        b'{"key": "k1", "role": "plan", "prompt": "p", "response": "one"}\n'
    cache.put("k3", "three", role="plan", prompt="p")
    reloaded = LlmCache(path)
    assert (reloaded.get("k1"), reloaded.get("k2"), reloaded.get("k3")) == ("one", None, "three")
    assert len(path.read_bytes().splitlines()) == 2


def test_append_that_lands_in_part_is_cut_off_at_once_past_another_writers_lines(
        tmp_path, monkeypatch):
    """Two caches on one file: a failed append is cut back to the file's
    real end when it began, not to where that handle last wrote, so cutting
    off its partial line keeps the line the other cache appended in between."""
    path = tmp_path / "llm.jsonl"
    first = LlmCache(path)
    _full_disk_on_open(monkeypatch)
    first.put("a1", "one", role="plan", prompt="p")
    monkeypatch.undo()
    second = LlmCache(path)
    second.put("b1", "two", role="plan", prompt="p")
    before = path.read_bytes()
    with pytest.raises(DataError, match=r"llm\.jsonl: No space left on device$"):
        first.put("a2", "three", role="plan", prompt="p")
    assert path.read_bytes() == before  # the part of a2's line that landed is gone
    first.put("a3", "four", role="plan", prompt="p")
    second.put("b2", "five", role="plan", prompt="p")
    first.close()
    second.close()
    reloaded = LlmCache(path)
    assert [reloaded.get(key) for key in ("a1", "b1", "a2", "a3", "b2")] == \
        ["one", "two", None, "four", "five"]
    assert [json.loads(line)["key"] for line in path.read_bytes().splitlines()] == \
        ["a1", "b1", "a3", "b2"]


# another writer's unterminated last line -> the keys of the file's lines after
# a failed append, then after the next one
_OTHER_TAILS = {
    "whole": (b'{"key": "kx", "response": "ex"}', ["k1", "kx"], ["k1", "kx", "k3"]),
    "torn": (b'{"key": "kx", "resp', ["k1"], ["k1", "k3"]),
}


@pytest.mark.parametrize("tail", sorted(_OTHER_TAILS))
def test_a_failed_append_after_another_writers_unterminated_line_leaves_whole_lines(
        tail, tmp_path, monkeypatch):
    """Another writer leaves a line without its newline; an append that fails
    after writing part of its own line is cut back to the file as the lock
    found it, less a torn line, and the next append ends a whole one."""
    data, after_failure, after_next = _OTHER_TAILS[tail]
    path = tmp_path / "llm.jsonl"
    cache = LlmCache(path)
    _full_disk_on_open(monkeypatch)
    cache.put("k1", "one", role="plan", prompt="p")
    monkeypatch.undo()
    with path.open("ab") as fh:
        fh.write(data)
    with pytest.raises(DataError, match=r"llm\.jsonl: No space left on device$"):
        cache.put("k2", "two", role="plan", prompt="p")
    kept = path.read_bytes()
    assert [json.loads(line)["key"] for line in kept.splitlines()] == after_failure
    assert kept.endswith(b"\n") == (tail == "torn")
    cache.put("k3", "three", role="plan", prompt="p")
    cache.close()
    assert [json.loads(line)["key"] for line in path.read_bytes().splitlines()] == after_next


def test_a_blank_unterminated_last_line_is_ended_as_the_load_kept_it(tmp_path):
    """The load skips a blank line and hashes it, so an append ends it with
    a newline, as it does a whole line, and the snapshot matches the file."""
    path = tmp_path / "llm.jsonl"
    path.write_bytes(b'{"key": "k0", "response": "zero"}\n \t')
    cache = LlmCache(path)
    cache.put("ka", "aye", role="plan", prompt="p")
    cache.close()
    data = path.read_bytes()
    assert data.startswith(b'{"key": "k0", "response": "zero"}\n \t\n{"key": "ka"')
    snapshot = json.loads(path.with_name("llm.jsonl.snapshot").read_bytes())
    assert snapshot["bytes"] == len(data)


def test_a_torn_line_is_cut_where_the_load_read_it_past_another_writers_append(
        tmp_path, monkeypatch):
    """A line another writer appends while a cache loads, after it read a
    torn final line, is kept: the cache's next append cuts off only what is
    torn when it holds the lock, so no cut lands in the middle of a line."""
    path = tmp_path / "llm.jsonl"
    path.write_bytes(b'{"key": "k0", "response": "zero"}\n{"key": "t')
    other = LlmCache(path)
    warning = backend_io.logger.warning

    def append_meanwhile(*args):  # the other cache appends as this one drops the torn line
        other.put("kb", "a line longer than the torn one", role="plan", prompt="p")
        other.close()
        warning(*args)

    monkeypatch.setattr(backend_io.logger, "warning", append_meanwhile)
    cache = LlmCache(path)
    monkeypatch.undo()
    cache.put("ka", "aye", role="plan", prompt="p")
    reloaded = LlmCache(path, strict=True)  # a full parse: the other's snapshot is stale
    cache.close()
    assert (reloaded.get("k0"), reloaded.get("ka")) == ("zero", "aye")


@pytest.mark.parametrize("snapshot", [False, True], ids=["parsed", "from-snapshot"])
def test_a_whole_unterminated_last_line_is_ended_once_keeping_another_writers_line(
        snapshot, tmp_path):
    """Two caches load a file whose last line parses but lacks its newline:
    each append reads the file's last byte, so the first to append ends that
    line and the other appends after its line instead of cutting it off."""
    path = tmp_path / "llm.jsonl"
    path.write_bytes(b'{"key": "k0", "response": "zero"}')
    if snapshot:
        LlmCache(path).close()  # a full parse: both caches below load the snapshot
    first, second = LlmCache(path), LlmCache(path)
    second.put("kb", "bee", role="plan", prompt="p")
    first.put("ka", "aye", role="plan", prompt="p")
    first.close()
    second.close()
    reloaded = LlmCache(path, strict=True)
    assert [reloaded.get(key) for key in ("k0", "ka", "kb")] == ["zero", "aye", "bee"]
    lines = path.read_bytes().splitlines(keepends=True)
    assert [json.loads(line)["key"] for line in lines] == ["k0", "kb", "ka"]
    assert all(line.endswith(b"\n") for line in lines)


@pytest.mark.parametrize("torn", [b'{"key": "torn", "resp', b'{"key": "torn", "response": "\xc3'],
                         ids=["in-a-string", "in-a-character"])
def test_another_writers_torn_append_is_cut_off_by_the_next_put(torn, tmp_path):
    """A cache loads a clean file, then another writer dies inside its
    append: the cache's next put cuts the torn line off instead of ending it
    with a newline, which would make every later load fail."""
    path = tmp_path / "llm.jsonl"
    path.write_bytes(b'{"key": "k0", "response": "zero"}\n')
    cache = LlmCache(path)
    with path.open("ab") as fh:
        fh.write(torn)
    cache.put("ka", "aye", role="plan", prompt="p")
    cache.close()
    reloaded = LlmCache(path, strict=True)
    assert [reloaded.get(key) for key in ("k0", "ka", "torn")] == ["zero", "aye", None]
    assert [json.loads(line)["key"] for line in path.read_bytes().splitlines()] == ["k0", "ka"]


def test_two_caches_that_load_one_torn_tail_keep_both_their_lines(tmp_path):
    """The first to append cuts the torn line off; the second finds the file
    ending in the first one's line and keeps it."""
    path = tmp_path / "llm.jsonl"
    path.write_bytes(b'{"key": "k0", "response": "zero"}\n{"key": "torn", "resp')
    first, second = LlmCache(path), LlmCache(path)
    first.put("ka", "aye", role="plan", prompt="p")
    second.put("kb", "bee", role="plan", prompt="p")
    first.close()
    second.close()
    reloaded = LlmCache(path, strict=True)
    assert [reloaded.get(key) for key in ("k0", "ka", "kb")] == ["zero", "aye", "bee"]
    assert [json.loads(line)["key"] for line in path.read_bytes().splitlines()] == \
        ["k0", "ka", "kb"]


# A process that puts a 1 MB line into the cache file named by its argument,
# lands half of it, says so, and waits to be killed.
_DYING_WRITER = """
import sys, time
from pathlib import Path
from contregen.llm import LlmCache

class Stalls:
    def __init__(self, fh):
        self.fh = fh
    def __getattr__(self, name):
        return getattr(self.fh, name)
    def write(self, data):
        self.fh.write(data[:len(data) // 2])
        self.fh.flush()
        print("half written", flush=True)
        time.sleep(60)

real_open = Path.open
Path.open = lambda self, *args, **kwargs: Stalls(real_open(self, *args, **kwargs))
LlmCache(sys.argv[1]).put("dying", "x" * 1_000_000, role="plan", prompt="p")
"""


def test_a_put_waits_for_a_writer_killed_inside_its_append_then_cuts_its_line(tmp_path):
    """Another process is killed in the middle of writing a large line. Until
    it dies, a put waits for the lock its append holds; then it cuts the torn
    line off and appends its own."""
    path = tmp_path / "llm.jsonl"
    path.write_bytes(b'{"key": "k0", "response": "zero"}\n')
    cache = LlmCache(path)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(Path(backend_io.__file__).parents[1]), os.environ.get("PYTHONPATH", "")])}
    put = threading.Thread(target=cache.put, args=("ka", "aye"),
                           kwargs={"role": "plan", "prompt": "p"})
    with subprocess.Popen([sys.executable, "-c", _DYING_WRITER, str(path)], env=env,
                          stdout=subprocess.PIPE, text=True) as writer:
        try:
            assert writer.stdout.readline() == "half written\n"
            put.start()
            put.join(0.3)
            assert put.is_alive()  # waiting for the writer's lock
        finally:
            writer.kill()
    put.join(10)
    assert not put.is_alive()
    cache.close()
    reloaded = LlmCache(path, strict=True)
    assert [reloaded.get(key) for key in ("k0", "ka", "dying")] == ["zero", "aye", None]
    assert [json.loads(line)["key"] for line in path.read_bytes().splitlines()] == ["k0", "ka"]


def test_a_closed_cache_reopens_its_file_on_the_next_put(tmp_path):
    path = tmp_path / "sub" / "llm.jsonl"
    cache = LlmCache(path)
    cache.close()  # nothing open yet
    assert not path.parent.exists()  # the first put makes the directory
    cache.put("k1", "one", role="plan", prompt="p")
    assert LlmCache(path).get("k1") == "one"  # every line is flushed as it is written
    cache.close()
    cache.put("k2", "two", role="plan", prompt="p")
    cache.close()
    assert [json.loads(line)["key"] for line in path.read_bytes().splitlines()] == ["k1", "k2"]


def test_concurrent_misses_on_one_key_get_the_value_the_cache_kept(tmp_path):
    path = tmp_path / "llm.jsonl"
    backend = NumberingAdapter()
    adapter = CachingAdapter(backend, LlmCache(path))
    answers = [None, None]

    def worker(slot):
        answers[slot] = adapter.complete(PromptRole.PLAN, "same prompt", {"query": "q"})

    run_together(2, worker)
    replay = CachingAdapter(NumberingAdapter(), LlmCache(path, strict=True))
    kept = replay.complete(PromptRole.PLAN, "same prompt", {"query": "q"})
    assert answers == [kept, kept]
    assert backend.backend_calls == 1
    assert adapter.cache._flights == {}  # the key's single-flight entry left with its callers


def test_a_miss_whose_computation_raises_leaves_the_key_to_the_next_waiter(tmp_path):
    cache = LlmCache(tmp_path / "llm.jsonl")
    calls = []
    outcomes = [None] * 4

    def compute():
        calls.append(None)
        number = len(calls)
        time.sleep(0.05)
        if number == 1:
            raise RuntimeError("backend down")
        return f"answer {number}"

    def worker(slot):
        try:
            outcomes[slot] = cache.lookup("k", {"role": "plan", "prompt": "p"}, compute)
        except RuntimeError as exc:
            outcomes[slot] = str(exc)

    run_together(4, worker)
    assert len(calls) == 2
    assert sorted(outcomes) == ["answer 2"] * 3 + ["backend down"]
    assert LlmCache(tmp_path / "llm.jsonl", strict=True).get("k") == "answer 2"
    assert cache._flights == {}


def test_put_of_a_held_key_returns_the_held_value_and_appends_nothing(tmp_path):
    path = tmp_path / "llm.jsonl"
    cache = LlmCache(path)
    assert cache.put("k", "first", role="plan", prompt="p") == "first"
    size = path.stat().st_size
    assert cache.put("k", "second", role="plan", prompt="p") == "first"
    cache.close()
    assert path.stat().st_size == size
    assert LlmCache(path).get("k") == "first"


def test_llm_cache_writes_a_lone_surrogate_escaped(tmp_path):
    path = tmp_path / "llm.jsonl"
    LlmCache(path).put("k", "odd \ud800 text", role="plan", prompt="p")
    LlmCache(path).put("k2", "caf\u00e9", role="plan", prompt="p")
    first, second = path.read_bytes().splitlines()
    assert b"\\ud800" in first  # escaped, as traces write it
    assert second.decode("utf-8").endswith('"response": "caf\u00e9"}')  # others unchanged
    reloaded = LlmCache(path)
    assert reloaded.get("k") == "odd \ud800 text"
    assert reloaded.get("k2") == "caf\u00e9"


class _FakeResponse:
    def __init__(self, status_code, payload):
        self.status_code = status_code
        self._payload = payload

    def json(self):
        return self._payload


class _FakeSession:
    def __init__(self, responses):
        self.responses = list(responses)
        self.posts = []

    def post(self, url, json=None, headers=None, timeout=None):
        self.posts.append({"url": url, "json": json, "headers": headers})
        return self.responses.pop(0)


def test_openai_adapter_success():
    session = _FakeSession([_FakeResponse(200, {
        "choices": [{"message": {"content": "the answer"}}]})])
    adapter = OpenAiChatAdapter(model="m1", api_key="secret", session=session)
    assert adapter.adapter_id == "openai:m1"
    out = adapter.complete(PromptRole.PLAN, "prompt text", {})
    assert out == "the answer"
    sent = session.posts[0]["json"]
    assert sent["temperature"] == 0.0
    assert sent["max_tokens"] == 1024
    assert sent["messages"] == [{"role": "user", "content": "prompt text"}]
    assert session.posts[0]["headers"]["Authorization"] == "Bearer secret"
    assert session.posts[0]["url"] == "https://api.openai.com/v1/chat/completions"


class _RepeatSession:
    """Answers every POST with the same reply, from any thread."""

    def __init__(self, reply):
        self.reply = reply

    def post(self, url, json=None, headers=None, timeout=None):
        return self.reply


def test_openai_adapter_counts_every_call_across_threads():
    threads, calls = 8, 200
    adapter = OpenAiChatAdapter(model="m1", api_key="k", session=_RepeatSession(
        _FakeResponse(200, {"choices": [{"message": {"content": "x"}}]})))

    def worker(slot):
        for _ in range(calls):
            assert adapter.complete(PromptRole.PLAN, "p", {}) == "x"

    run_together(threads, worker)
    assert adapter.backend_calls == threads * calls


@pytest.mark.parametrize("payload", [
    {"choices": None},
    [{"message": {"content": "x"}}],
    {"choices": []},
    {"choices": [{"message": {}}]},
    {"choices": [{"message": {"content": None}}]},
    {"choices": [{"message": {"content": 7}}]},
], ids=["null-choices", "top-level-list", "no-choice", "no-content", "null-content",
        "number-content"])
def test_openai_adapter_malformed_reply_is_backend_error(payload):
    adapter = OpenAiChatAdapter(model="m1", api_key="k",
                                session=_FakeSession([_FakeResponse(200, payload)]))
    with pytest.raises(LlmBackendError, match="malformed completion response"):
        adapter.complete(PromptRole.PLAN, "p", {})


def test_openai_adapter_retries_then_fails(monkeypatch):
    import contregen.backend_io as backend_io
    sleeps = []
    monkeypatch.setattr(backend_io.time, "sleep", sleeps.append)
    session = _FakeSession([_FakeResponse(500, {})] * 3)
    adapter = OpenAiChatAdapter(model="m1", api_key="k", session=session)
    with pytest.raises(LlmBackendError):
        adapter.complete(PromptRole.PLAN, "p", {})
    assert len(session.posts) == 3
    assert sleeps == [0.5, 1.0]  # no sleep after the final attempt


def test_openai_adapter_gives_up_on_client_error(monkeypatch):
    import contregen.backend_io as backend_io
    monkeypatch.setattr(backend_io.time, "sleep", lambda s: None)
    session = _FakeSession([_FakeResponse(401, {})])
    adapter = OpenAiChatAdapter(model="m1", api_key="bad", session=session)
    with pytest.raises(LlmBackendError):
        adapter.complete(PromptRole.PLAN, "p", {})
    assert len(session.posts) == 1  # 401 is not retryable
