"""Crash consistency of the append-only caches, checked at every byte: a cache
file cut anywhere (an append that never finished) loads, serves exactly the
entries whose JSON line is complete, and the next append repairs it."""

import pytest

from contregen.llm import LlmCache
from contregen.retrieval import RetrievalCache

# name -> (cache class, [(key, value), ...] written in order, the context
# fields of every put, the (key, value) appended after the cut)
_CASES = {
    "llm": (LlmCache,
            [("ascii", "plain answer"), ("multibyte", "café 中文"),
             ("surrogate", "odd \ud800 text")],
            {"role": "plan", "prompt": "pé"}, ("new", "fresh")),
    "retrieval": (RetrievalCache,
                  [("ascii", (("p1", 1.5), ("p2", 0.25))),
                   ("multibyte", (("pé中", 2.0),)), ("empty", ())],
                  {"backend": "lexical", "query": "qé", "topk": 2},
                  ("new", (("p3", 1.0),))),
}


@pytest.mark.parametrize("name", sorted(_CASES))
def test_cache_cut_at_every_byte_loads_and_is_repaired(name, tmp_path):
    cache_class, entries, context, (new_key, new_value) = _CASES[name]
    full = cache_class(tmp_path / "full.jsonl")
    for key, value in entries:
        full.put(key, value, **context)
    data = full.path.read_bytes()
    ends = [index + 1 for index, byte in enumerate(data) if byte == ord("\n")]
    assert len(ends) == len(entries)
    fresh = cache_class(tmp_path / "fresh.jsonl")
    fresh.put(new_key, new_value, **context)
    new_line = fresh.path.read_bytes()

    cut_path = tmp_path / "cut.jsonl"
    for cut in range(len(data) + 1):
        cut_path.write_bytes(data[:cut])
        # a line is complete once its closing brace is in, newline or not
        whole = sum(cut >= end - 1 for end in ends)
        served = [value if index < whole else None
                  for index, (_, value) in enumerate(entries)]
        cache = cache_class(cut_path)
        assert [cache.get(key) for key, _ in entries] == served, cut
        cache.put(new_key, new_value, **context)
        assert cut_path.read_bytes() == (data[:ends[whole - 1]] if whole else b"") + new_line, cut
        reloaded = cache_class(cut_path)
        assert [reloaded.get(key) for key, _ in entries] == served, cut
        assert reloaded.get(new_key) == new_value, cut
