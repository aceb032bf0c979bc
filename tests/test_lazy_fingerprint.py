"""The corpus is hashed only when a retrieval cache key needs it, once per store.

Every test counts the sha256 hashes ``contregen.corpus`` starts, which is
one per fingerprint the store computes.
"""

import hashlib
import json
import os
import time
import types

import pytest

from contregen import corpus
from contregen.cli import dispatch
from contregen.corpus import CorpusStore, Passage
from contregen.llm import LlmGateway, ScriptedAdapter, load_templates
from contregen.retrieval import LexicalIndex, RemoteRetriever, RetrieverHandle
from contregen.synthesis import synthesize
from contregen.tree import TreeConfig, build_tree

from conftest import (
    ROOT_QUERY,
    contregen_fixtures,
    planted_corpus,
    run_together,
    write_fixture_file,
)


@pytest.fixture
def digests(monkeypatch):
    """One entry per corpus hash: each sha256 that contregen.corpus starts."""
    started = []

    def sha256(*args, **kwargs):
        started.append(args)
        return hashlib.sha256(*args, **kwargs)

    monkeypatch.setattr(corpus, "hashlib", types.SimpleNamespace(sha256=sha256))
    return started


def test_constructing_an_index_hashes_nothing(digests):
    index = LexicalIndex(planted_corpus())
    assert index.retrieve(ROOT_QUERY, 3)
    assert digests == []


def test_engine_calls_through_a_cacheless_handle_hash_nothing(digests):
    """build_tree and synthesize per query, as perfbench's engine mode calls
    them, with a handle that has no cache."""
    store = planted_corpus()
    index = LexicalIndex(store)
    gateway = LlmGateway(ScriptedAdapter(contregen_fixtures()), load_templates())
    handle = RetrieverHandle(index, store)
    root = build_tree(gateway, handle, ROOT_QUERY, TreeConfig(max_depth=2, max_plan_size=3,
                                                              topk=3))
    assert synthesize(gateway, root, handle.text).answer
    assert index.backend_calls > 0
    assert digests == []


def _argv(command, planted, tmp_path, *extra):
    fixtures = write_fixture_file(tmp_path, contregen_fixtures())
    return [command, "--corpus", str(planted["corpus"]), "--queries", str(planted["queries"]),
            "--fixtures", str(fixtures), "--out-dir", str(tmp_path / "out"), *extra]


@pytest.mark.parametrize("parallel", ["1", "4"])
def test_a_run_without_a_cache_hashes_nothing(parallel, planted, tmp_path, digests, capsys):
    assert dispatch(_argv("run", planted, tmp_path, "--parallel", parallel)) == 0
    assert digests == []


def test_analyze_reach_hashes_nothing(planted, digests, capsys):
    assert dispatch(["analyze-reach", "--corpus", str(planted["corpus"]),
                     "--queries", str(planted["queries"])]) == 0
    assert "reachable" in capsys.readouterr().out
    assert digests == []


@pytest.mark.parametrize("parallel", ["1", "4"])
def test_a_cached_run_and_its_replay_each_hash_once(parallel, planted, tmp_path, digests,
                                                    capsys):
    queries = tmp_path / "many.jsonl"
    queries.write_text("".join(
        json.dumps({"id": f"q{n}", "query": ROOT_QUERY, "gold_ids": ["a1"]}) + "\n"
        for n in range(8)), encoding="utf-8")
    planted = {**planted, "queries": queries}
    cache = ("--cache-dir", str(tmp_path / "cache"), "--parallel", parallel)
    assert dispatch(_argv("run", planted, tmp_path, *cache)) == 0
    assert len(digests) == 1
    assert dispatch(_argv("replay", planted, tmp_path, *cache)) == 0
    assert len(digests) == 2


def test_a_store_hashes_once_until_it_grows(digests):
    passages = [Passage(id=f"p{n}", text=f"text {n}") for n in range(3)]
    store = CorpusStore(passages[:2])
    first = store.fingerprint()
    assert store.fingerprint() == first
    assert len(digests) == 1
    store.add(passages[2])
    grown = store.fingerprint()
    assert len(digests) == 2
    assert grown != first
    assert grown == CorpusStore(passages).fingerprint()
    assert CorpusStore(passages[:2]).fingerprint() == first


def test_threads_reading_one_store_hash_it_once(digests):
    """More threads than cores read the fingerprint at once, through two
    retrievers and the store itself, while the interpreter switches threads
    as often as it can: the store is hashed once, and all read one digest."""
    store = CorpusStore(Passage(id=f"p{n:04d}", text=f"passage {n} " * 20)
                        for n in range(2000))
    retrievers = [LexicalIndex(store),
                  RemoteRetriever("http://retriever.test", store, session=object())]
    threads = 4 * (os.cpu_count() or 1) + 2
    read = [None] * threads

    def worker(slot):
        if slot % 3 == 2:
            read[slot] = store.fingerprint()
        else:
            read[slot] = retrievers[slot % 3].corpus_fingerprint

    start = time.perf_counter()
    run_together(threads, worker)
    assert time.perf_counter() - start < 30
    assert len(digests) == 1
    assert read == [CorpusStore(store).fingerprint()] * threads
