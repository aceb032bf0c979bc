import email.utils
import json
import random
import sys
import time
import tracemalloc
from array import array
from collections import Counter

import pytest

from contregen import retrieval
from contregen._kernels import fallback
from contregen.corpus import CorpusStore, Passage
from contregen.errors import (
    CacheCorruptionError,
    DataError,
    ReplayMissError,
    RetrieverUnavailableError,
)
from contregen.retrieval import (
    LexicalIndex,
    RemoteRetriever,
    RetrievalCache,
    RetrieverHandle,
    normalize_query,
    tokenize,
)

from conftest import run_together
from oracles import bm25_postings, bm25_rank, cache_key, forced_postings, toks


def _store(texts: dict) -> CorpusStore:
    store = CorpusStore()
    for pid in texts:
        store.add(Passage(id=pid, text=texts[pid], meta={}))
    return store


def _cached(cache: RetrievalCache, backend, query_text: str, topk: int):
    """backend's retrieval through a handle that serves it from cache."""
    return RetrieverHandle(backend, CorpusStore(), cache=cache).retrieve(query_text, topk)


def test_tokenize():
    assert tokenize("Hello, World! x9") == ["hello", "world", "x9"]
    assert tokenize("don't-stop") == ["don", "t", "stop"]
    assert tokenize("   ") == []


# Characters that lower to ASCII letters (the Kelvin sign, dotted capital I),
# that fold or title-case oddly, and non-ASCII whitespace that str.split
# would take as a separator
_NON_ASCII = ["\u212a", "\u0130", "\u00df", "\u01c5", "\u00a0", "\x85", "\u2028",
              "\u65e5\u672c\u8a9e"]


@pytest.mark.parametrize("seed", range(4))
def test_tokenize_matches_the_regular_expression_oracle(seed):
    """Every ASCII code point, the controls str.split takes as whitespace
    among them, alone and mixed with non-ASCII cases, tokenizes as the
    regular expression does over the lowered text."""
    rng = random.Random(seed)
    ascii_points = [chr(c) for c in range(128)]
    cases = ["".join(ascii_points), *ascii_points, *_NON_ASCII]
    for _ in range(300):
        pool = ascii_points + (_NON_ASCII if rng.random() < 0.3 else [])
        cases.append("".join(rng.choices(pool, k=rng.randint(0, 40))))
    for text in cases:
        assert tokenize(text) == toks(text), text


def test_normalize_query():
    assert normalize_query("  The   CAT \n sat ") == "the cat sat"
    assert normalize_query("  The   CAT \n sat ", case_sensitive=True) == "The CAT sat"


def test_empty_corpus_rejected():
    with pytest.raises(DataError):
        LexicalIndex(CorpusStore())


def test_index_without_any_token_returns_no_hits():
    """No passage holds an ascii letter or digit: the index has no postings,
    and every retrieval returns no hits."""
    index = LexicalIndex(_store({"p1": "日本語のテキスト", "p2": "!!! ???"}))
    for query in ("テキスト", "text p1", "!!!", ""):
        assert index.retrieve(query, 3) == ()
    assert index._built == {}


def test_ranking_matches_oracle_small():
    texts = {
        "p1": "the cat sat on the mat",
        "p2": "a dog chased the cat",
        "p3": "entirely unrelated content here",
        "p4": "cat cat cat everywhere",
    }
    index = LexicalIndex(_store(texts))
    for query in ("cat", "the cat mat", "dog chased", "nothing matches this"):
        for topk in (1, 2, 5):
            assert index.retrieve(query, topk) == tuple(
                bm25_rank(texts, query, topk))


def test_ranking_matches_oracle_on_zipf_corpus(kernels):
    """Hits and float scores equal the exhaustive scorer's exactly, on either
    kernel backend: BM25 impacts computed at build keep the per-term
    expression and the accumulation order."""
    rng = random.Random(8128)
    vocab = [f"w{rank}" for rank in range(1, 801)]
    weights = [1.0 / rank ** 1.1 for rank in range(1, 801)]
    texts = {f"p{i:04d}": " ".join(rng.choices(vocab, weights, k=rng.randint(3, 70)))
             for i in range(rng.randint(300, 400))}
    index = LexicalIndex(_store(texts))
    queries = []
    for n in range(50):
        terms = rng.choices(vocab, weights, k=rng.randint(1, 6))
        if n % 3 == 0:  # a repeated term, once in another case
            terms += [terms[0], terms[0].upper()]
        if n % 4 == 0:  # terms no passage holds
            terms.insert(rng.randrange(len(terms) + 1), f"absent{n}")
        queries.append(" ".join(terms))
    queries += ["absent only", "w1", "w1 w1 w2 w3"]
    for query in queries:
        ranked = tuple(bm25_rank(texts, query, len(texts) + 3))  # the oracle cuts by slicing
        for topk in (1, 5, len(texts) + 3):
            assert index.retrieve(query, topk) == ranked[:topk]


# Tokens that lower to ascii ("\u212a", the Kelvin sign, to "k"; "\u0130" to
# "i" and a combining dot), digits, mixed case, and punctuation or non-ascii
# text that gives no token.
_BUILD_WORDS = ["alpha", "Alpha", "ALPHA", "beta", "GaMmA", "x9", "2024", "007", "k",
                "\u212a", "\u0130", "\u0130stanbul", "i", "don't", "caf\u00e9", "!!!",
                "\u65e5\u672c\u8a9e", "--"]


@pytest.mark.parametrize("seed", range(6))
def test_build_matches_a_counter_oracle(seed, kernels):
    """The postings equal a per-document Counter build on either kernel
    backend: the same terms, ascending unique document indices, impacts
    equal to the direct formula bit for bit, and each bound the largest."""
    assert tokenize("\u212a \u0130") == ["k", "i"]
    rng = random.Random(seed)
    texts = {}
    for i in rng.sample(range(1000), rng.randint(20, 120)):  # ids not in index order
        if rng.random() < 0.15:
            texts[f"p{i:03d}"] = rng.choice(["!!!", "\u65e5\u672c\u8a9e", "!!! \u65e5\u672c -- ?"])
        else:  # repeated tokens: few words, up to 40 draws
            texts[f"p{i:03d}"] = " ".join(rng.choices(_BUILD_WORDS, k=rng.randint(1, 40)))
    built = LexicalIndex(_store(texts))._build()
    expected = bm25_postings([texts[pid] for pid in sorted(texts)])
    assert built.keys() == expected.keys()
    for term, (doc_indices, impacts, bound) in built.items():
        assert list(doc_indices) == sorted(set(doc_indices)) == expected[term][0]
        assert [w.hex() for w in impacts] == [w.hex() for w in expected[term][1]]
        assert bound == max(impacts)


def test_posting_arrays_are_sized_exactly(kernels):
    """No posting array keeps the slack an appended array grows with."""
    rng = random.Random(99)
    vocab = [f"w{rank}" for rank in range(1, 201)]
    texts = {f"p{i:04d}": " ".join(rng.choices(vocab, [1.0 / r for r in range(1, 201)],
                                               k=rng.randint(5, 60)))
             for i in range(500)}
    built = LexicalIndex(_store(texts))._build()
    arrays = [a for doc_indices, impacts, _ in built.values() for a in (doc_indices, impacts)]
    assert max(len(a) for a in arrays) > 400  # long enough to have grown
    assert [sys.getsizeof(a) - sys.getsizeof(array(a.typecode)) for a in arrays] == \
        [a.itemsize * len(a) for a in arrays]


def _traced_peak(work) -> int:
    """The most bytes work() held allocated at once, its result included."""
    tracemalloc.start()
    try:
        work()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _count(indices: array) -> tuple:
    """_finalize's counting phase alone: the Counter and the two arrays."""
    tfs = Counter(indices)
    return tfs, array("i", [*tfs]), array("d", [*tfs.values()])


def test_finalize_frees_the_counter_before_making_the_impacts(monkeypatch):
    """A term in every one of 20k documents: _finalize's peak stays near that
    of counting its occurrences, because the Counter (its table and its boxed
    document indices) is freed before the pure kernel makes a float per
    posting. A missing term's lookup adds nothing to the postings."""
    monkeypatch.setattr(retrieval, "bm25_impacts", fallback.bm25_impacts)
    rng = random.Random(2020)
    texts = {f"p{i:05d}": " ".join(["every"] * rng.randint(1, 3)
                                   + rng.choices(["some", "words", "x9"], k=rng.randint(0, 4)))
             for i in range(20_000)}
    index = LexicalIndex(_store(texts))
    assert index.retrieve("absent", 5) == ()
    postings = dict(index._built)
    with pytest.raises(KeyError):
        index._built["absent"]
    assert index._built == postings
    occurrences = array("i", [d for d, pid in enumerate(index.doc_ids)
                              for _ in range(texts[pid].split().count("every"))])
    counting = _traced_peak(lambda: _count(occurrences))
    finalizing = _traced_peak(lambda: index._finalize(occurrences))
    assert counting > 20_000 * 32  # the boxed indices alone
    assert finalizing <= 1.1 * counting
    doc_indices, impacts, bound = index._finalize(occurrences)
    assert list(doc_indices) == list(range(20_000))
    assert [w.hex() for w in impacts] == [w.hex() for w in postings["every"][1]]


def test_zero_score_documents_never_returned():
    index = LexicalIndex(_store({"p1": "alpha beta", "p2": "gamma delta"}))
    assert [pid for pid, _ in index.retrieve("alpha", 5)] == ["p1"]
    assert index.retrieve("zeta", 5) == ()


def test_duplicate_query_terms_count_once():
    index = LexicalIndex(_store({"p1": "alpha beta", "p2": "alpha alpha"}))
    assert index.retrieve("alpha", 5) == index.retrieve("alpha alpha alpha", 5)


def test_ties_break_by_ascending_id():
    # identical texts give identical scores
    texts = {"z9": "same words here", "a1": "same words here", "m5": "same words here"}
    index = LexicalIndex(_store(texts))
    assert [pid for pid, _ in index.retrieve("same words", 3)] == ["a1", "m5", "z9"]


def test_topk_prefix_property():
    texts = {f"p{i}": f"common term{i} filler" for i in range(8)}
    index = LexicalIndex(_store(texts))
    full = index.retrieve("common term3 term5", 8)
    for topk in range(1, 8):
        assert index.retrieve("common term3 term5", topk) == full[:topk]


def test_backend_call_counter():
    index = LexicalIndex(_store({"p1": "alpha"}))
    assert index.backend_calls == 0
    index.retrieve("alpha", 1)
    index.retrieve("alpha", 1)
    assert index.backend_calls == 2


def test_index_is_built_once_by_concurrent_first_retrievals(monkeypatch):
    texts = {f"p{i}": f"alpha term{i % 7} beta{i % 3}" for i in range(200)}
    query = "alpha term3 beta1"
    expected = LexicalIndex(_store(texts)).retrieve(query, 5)
    builds = []
    real_build = LexicalIndex._build

    def slow_counted_build(self):
        builds.append(self)
        time.sleep(0.05)  # hold the build open while the other threads arrive
        return real_build(self)

    monkeypatch.setattr(LexicalIndex, "_build", slow_counted_build)
    index = LexicalIndex(_store(texts))
    assert builds == []
    threads, calls = 8, 200
    served = [set() for _ in range(threads)]

    def worker(slot):
        for _ in range(calls):
            served[slot].add(index.retrieve(query, 5))

    run_together(threads, worker)
    assert builds == [index]
    assert index.backend_calls == threads * calls
    assert served == [{expected}] * threads


def _zipf_texts(seed: int) -> dict:
    """1024 passages over a Zipf vocabulary of 3000 words: many words occur at
    most 1024 >> 8 = 4 times, so the build leaves them for a query to finalize."""
    rng = random.Random(seed)
    vocab = [f"w{rank}" for rank in range(1, 3001)]
    weights = [1.0 / rank ** 1.05 for rank in range(1, 3001)]
    return {f"p{i:04d}": " ".join(rng.choices(vocab, weights, k=rng.randint(3, 40)))
            for i in rng.sample(range(5000), 1024)}  # ids not in index order


def _assert_finalized(bucket, expected) -> None:
    """A term's (document indices, impacts, bound) equal the oracle's bit for bit."""
    doc_indices, impacts, bound = bucket
    assert (doc_indices.typecode, impacts.typecode) == ("i", "d")
    assert list(doc_indices) == expected[0]
    assert [w.hex() for w in impacts] == [w.hex() for w in expected[1]]
    assert bound == max(impacts)


def _rare_terms(texts: dict) -> tuple[set, set]:
    """The (rare, common) terms of texts: those with at most len(texts) >> 8
    occurrences, and the others."""
    counts = Counter(token for text in texts.values() for token in toks(text))
    rare = {term for term, count in counts.items() if count <= len(texts) >> 8}
    return rare, counts.keys() - rare


def test_first_retrieval_leaves_rare_terms_as_occurrences(kernels):
    texts = _zipf_texts(1)
    rare, common = _rare_terms(texts)
    assert len(rare) > 500 and len(common) > 500
    index = LexicalIndex(_store(texts))
    assert index.retrieve("absent", 5) == ()
    expected = bm25_postings([texts[pid] for pid in sorted(texts)])
    assert index._built.keys() == expected.keys() == rare | common
    for term in common:
        _assert_finalized(index._built[term], expected[term])
    for term in rare:  # ascending document indices, one per occurrence
        occurrences = index._built[term]
        assert isinstance(occurrences, array) and occurrences.typecode == "i"
        assert list(occurrences) == sorted(occurrences)
        assert sorted(set(occurrences)) == expected[term][0]


def test_a_query_finalizes_exactly_the_rare_terms_it_names(kernels):
    texts = _zipf_texts(2)
    rare, common = _rare_terms(texts)
    expected = bm25_postings([texts[pid] for pid in sorted(texts)])
    index = LexicalIndex(_store(texts))
    index.retrieve("absent", 5)
    named = sorted(rare)[:2]
    query = f"{named[0]} {min(common)} {named[1].upper()} {named[0]}"
    before = dict(index._built)
    hits = index.retrieve(query, 5)
    assert hits == tuple(bm25_rank(texts, query, 5))
    assert {term for term in before if index._built[term] is not before[term]} == set(named)
    for term in named:
        _assert_finalized(index._built[term], expected[term])
    finalized = dict(index._built)
    assert index.retrieve(query, 5) == hits
    assert all(index._built[term] is finalized[term] for term in finalized)  # once each


@pytest.mark.parametrize("seed", (3, 4))
def test_forcing_every_term_gives_the_eager_postings(seed, kernels):
    texts = _zipf_texts(seed)
    index = LexicalIndex(_store(texts))
    index.retrieve("absent", 5)
    assert sum(isinstance(bucket, array) for bucket in index._built.values()) > 500
    forced = forced_postings(index)
    expected = bm25_postings([texts[pid] for pid in sorted(texts)])
    assert forced.keys() == expected.keys()
    for term, bucket in forced.items():
        _assert_finalized(bucket, expected[term])


def test_concurrent_queries_finalize_each_shared_rare_term_once(monkeypatch, kernels):
    texts = _zipf_texts(5)
    rare, common = _rare_terms(texts)
    rng = random.Random(5)
    pool, anchors = rng.sample(sorted(rare), 12), rng.sample(sorted(common), 4)
    queries = [" ".join([*rng.sample(pool, 3), anchors[n % 4]]) for n in range(16)]
    serial = LexicalIndex(_store(texts))
    expected = [serial.retrieve(query, 5) for query in queries]
    index = LexicalIndex(_store(texts))
    finalized = []
    real_finalize = LexicalIndex._finalize

    def slow_recorded_finalize(self, indices):
        if len(indices) <= self.doc_count >> 8:  # a rare term, not the build's
            finalized.append(indices)  # kept alive, so no two share an id
            time.sleep(0.002)  # hold the finalization open while others arrive
        return real_finalize(self, indices)

    monkeypatch.setattr(LexicalIndex, "_finalize", slow_recorded_finalize)
    threads = 8
    served = [[] for _ in range(threads)]

    def worker(slot):
        order = list(range(len(queries)))
        random.Random(slot).shuffle(order)
        results = {n: index.retrieve(queries[n], 5) for n in order}
        served[slot] = [results[n] for n in range(len(queries))]

    run_together(threads, worker)
    assert served == [expected] * threads
    assert len({id(indices) for indices in finalized}) == len(finalized)
    assert len(finalized) == len({term for query in queries for term in query.split()} & rare)


class _UnusedSession:
    def post(self, *args, **kwargs):
        pytest.fail("a retrieval with topk < 1 reached the endpoint")


def test_topk_must_be_positive():
    index = LexicalIndex(_store({"p1": "alpha"}))
    with pytest.raises(ValueError, match="topk must be >= 1"):
        index.retrieve("alpha", 0)
    remote = RemoteRetriever("http://retriever.test", CorpusStore(), session=_UnusedSession())
    with pytest.raises(ValueError, match="topk must be >= 1"):
        remote.retrieve("alpha", 0)
    assert remote.backend_calls == 0


def test_cache_round_trip_and_persistence(tmp_path):
    index = LexicalIndex(_store({"p1": "alpha beta", "p2": "beta gamma"}))
    cache_path = tmp_path / "ret.jsonl"
    cache = RetrievalCache(cache_path)
    first = _cached(cache, index, "beta", 2)
    assert index.backend_calls == 1
    second = _cached(cache, index, "  BETA ", 2)  # normalized same key
    assert second == first
    assert index.backend_calls == 1  # served from cache

    reloaded = RetrievalCache(cache_path)
    third = _cached(reloaded, index, "beta", 2)
    assert third == first
    assert index.backend_calls == 1


def test_cache_key_distinguishes_topk_and_backend():
    key = RetrievalCache.key
    assert key("lexical", "fp", "q", 3) != key("lexical", "fp", "q", 4)
    assert key("lexical", "fp", "q", 3) != key("remote:x", "fp", "q", 3)
    assert key("lexical", "fp", "q", 3) != key("lexical", "fp2", "q", 3)


def test_lexical_cache_key_is_stable():
    # the key of a cache written before remote keys kept case; old caches must keep hitting
    assert (RetrievalCache.key("lexical", "fp", "  The   CAT \n sat ", 5)
            == "b78a0f884c82380edc7682549d37fabff9f17f7a745db0d85a3ec1df66e07d28")


@pytest.mark.parametrize("case_sensitive", [False, True])
def test_cache_key_is_the_json_digest_of_its_parts(case_sensitive):
    for backend_id, fingerprint, query, topk in [
            ("lexical", "fp", "  The \"CAT\" \\ sat ", 5),
            ("remote:http://x/\u00e9", "", "caf\u00e9 \U0001f600 \ud800 {q}", 1),
            ("lexical", "f\x00p", "\x7f\t{}", 2 ** 40),
            ("lexical", "fp", "q", True)]:
        assert (RetrievalCache.key(backend_id, fingerprint, query, topk, case_sensitive)
                == cache_key(backend_id, fingerprint, normalize_query(query, case_sensitive),
                             topk))


def test_cache_never_serves_another_corpus(tmp_path):
    cache_path = tmp_path / "ret.jsonl"
    corpus_a = _store({"p1": "alpha beta", "p2": "gamma delta"})
    corpus_b = _store({"p1": "gamma delta", "p2": "alpha beta"})  # texts swapped
    assert [pid for pid, _ in _cached(RetrievalCache(cache_path), LexicalIndex(corpus_a),
                                      "alpha", 1)] == ["p1"]
    index_b = LexicalIndex(corpus_b)
    served = _cached(RetrievalCache(cache_path), index_b, "alpha", 1)
    assert served == index_b.retrieve("alpha", 1)
    assert [pid for pid, _ in served] == ["p2"]


def test_cache_corruption_is_loud(tmp_path):
    path = tmp_path / "ret.jsonl"
    path.write_text('{"key": "k", "hits": [["p1", 1.0]]}\ngarbage\n')
    with pytest.raises(CacheCorruptionError) as err:
        RetrievalCache(path)
    assert ":2:" in str(err.value)

    # a torn final line (no newline) is dropped and cut off before the next append
    path.write_text('{"key": "k", "hits": [["p1", 1.0]]}\n{"key": "k2", "hi')
    cache = RetrievalCache(path)
    assert cache.get("k") == (("p1", 1.0),) and cache.get("k2") is None
    cache.put("k3", (("p2", 2.0),), backend="lexical", query="q", topk=1)
    reloaded = RetrievalCache(path)
    assert reloaded.get("k") == (("p1", 1.0),) and reloaded.get("k3") == (("p2", 2.0),)


_WRONG_HITS = {
    "boolean-score": '[[5, true]]',
    "nan-string-score": '[["p1", "nan"]]',
    "nan-score": '[["p1", NaN]]',
    "infinite-score": '[["p1", -Infinity]]',
    "numeric-string-score": '[["p1", "2.5"]]',
    "null-id": '[[null, 1.0]]',
    "integer-id": '[[5, 1.0]]',
    "repeated-id": '[["p1", 2.0], ["p1", 1.0]]',
    "object": '{}',
}


# an unterminated final line that parses is a whole line, not a torn append
@pytest.mark.parametrize("hits,end", [
    *(pytest.param(value, "\n", id=name) for name, value in _WRONG_HITS.items()),
    *(pytest.param(value, "", id=f"{name}-unterminated") for name, value in _WRONG_HITS.items()),
])
def test_cache_entry_of_the_wrong_type_is_corruption(hits, end, tmp_path):
    path = tmp_path / "ret.jsonl"
    path.write_text('{"key": "k", "hits": [["p1", 1.0]]}\n{"key": "k2", "hits": %s}%s'
                    % (hits, end))
    with pytest.raises(CacheCorruptionError, match=r"ret\.jsonl:2: unreadable cache entry"):
        RetrievalCache(path)


_NON_STRING_KEYS = {"number": "5", "null": "null", "float": "1.5", "boolean": "false"}


# an entry filed under a key that is not a string could never be looked up
@pytest.mark.parametrize("key,end", [
    *(pytest.param(value, "\n", id=name) for name, value in _NON_STRING_KEYS.items()),
    *(pytest.param(value, "", id=f"{name}-unterminated")
      for name, value in _NON_STRING_KEYS.items()),
])
def test_cache_key_that_is_not_a_string_is_corruption(key, end, tmp_path):
    path = tmp_path / "ret.jsonl"
    path.write_text('{"key": "k", "hits": [["p1", 1.0]]}\n{"key": %s, "hits": []}%s'
                    % (key, end))
    with pytest.raises(CacheCorruptionError,
                       match=r"ret\.jsonl:2: unreadable cache entry \(key .* is not a string\)"):
        RetrievalCache(path)


def test_strict_replay_miss(tmp_path):
    index = LexicalIndex(_store({"p1": "alpha"}))
    cache = RetrievalCache(tmp_path / "ret.jsonl", strict=True)
    with pytest.raises(ReplayMissError):
        _cached(cache, index, "alpha", 1)
    assert index.backend_calls == 0


class _FakeResponse:
    def __init__(self, status_code, payload, headers=None):
        self.status_code = status_code
        self._payload = payload
        self.headers = headers or {}

    def json(self):
        if isinstance(self._payload, Exception):
            raise self._payload
        return self._payload


class _FakeSession:
    def __init__(self, responses):
        self.responses = list(responses)
        self.requests = []

    def post(self, url, json=None, headers=None, timeout=None):
        self.requests.append({"url": url, "json": json, "headers": headers, "timeout": timeout})
        reply = self.responses.pop(0)
        if isinstance(reply, Exception):
            raise reply
        return reply


class _RepeatSession:
    """Answers every POST with the same reply, from any thread."""

    def __init__(self, reply):
        self.reply = reply

    def post(self, url, json=None, headers=None, timeout=None):
        return self.reply


def test_remote_retriever_counts_every_call_across_threads():
    threads, calls = 8, 200
    remote = RemoteRetriever("http://retriever.test", CorpusStore(), session=_RepeatSession(
        _FakeResponse(200, [{"id": "p1", "score": 1.0}])))

    def worker(slot):
        for _ in range(calls):
            assert remote.retrieve("q", 1) == (("p1", 1.0),)

    run_together(threads, worker)
    assert remote.backend_calls == threads * calls


def test_remote_retriever_parses_hits(monkeypatch):
    session = _FakeSession([_FakeResponse(200, [{"id": "p9", "score": 2.5}])])
    remote = RemoteRetriever("http://retriever.test/search", CorpusStore(), token="tok",
                             session=session)
    assert remote.retrieve("a query", 3) == (("p9", 2.5),)
    assert remote.backend_id == "remote:http://retriever.test/search"
    sent = session.requests[0]
    assert sent["json"] == {"query": "a query", "topk": 3}
    assert sent["headers"]["Authorization"] == "Bearer tok"


def test_remote_retriever_without_a_token_sends_no_authorization():
    session = _FakeSession([_FakeResponse(200, [{"id": "p1", "score": 1.0}])])
    RemoteRetriever("http://retriever.test", CorpusStore(), session=session).retrieve("q", 1)
    assert "Authorization" not in session.requests[0]["headers"]


def test_remote_retriever_rejects_more_hits_than_topk():
    session = _FakeSession([_FakeResponse(200, [
        {"id": "p1", "score": 3.0}, {"id": "p2", "score": 2.0}, {"id": "p3", "score": 1.0}])])
    remote = RemoteRetriever("http://retriever.test", CorpusStore(), session=session)
    with pytest.raises(RetrieverUnavailableError, match=r"\(ValueError: 3 hits for topk=2\)$"):
        remote.retrieve("q", 2)


def test_remote_retriever_retries_then_fails(monkeypatch):
    import contregen.backend_io as backend_io
    sleeps = []
    monkeypatch.setattr(backend_io.time, "sleep", sleeps.append)
    session = _FakeSession([_FakeResponse(503, {}), _FakeResponse(503, {}),
                            _FakeResponse(503, {})])
    remote = RemoteRetriever("http://retriever.test", CorpusStore(), session=session)
    with pytest.raises(RetrieverUnavailableError):
        remote.retrieve("q", 1)
    assert len(session.requests) == 3
    assert sleeps == [0.5, 1.0]  # no sleep after the final attempt


@pytest.mark.parametrize("status", [429, 500, 502, 503, 504, 400])
def test_a_post_retries_429_and_the_server_errors_it_names(status, monkeypatch):
    import contregen.backend_io as backend_io
    monkeypatch.setattr(backend_io.time, "sleep", lambda seconds: None)
    session = _FakeSession([_FakeResponse(status, {}), _FakeResponse(200, [])])
    remote = RemoteRetriever("http://retriever.test", CorpusStore(), session=session)
    if status == 400:
        with pytest.raises(RetrieverUnavailableError, match="HTTP 400$"):
            remote.retrieve("q", 1)
    else:
        assert remote.retrieve("q", 1) == ()
    assert len(session.requests) == (1 if status == 400 else 2)
    assert {request["timeout"] for request in session.requests} == {30.0}


def test_retries_sleep_what_retry_after_asks_up_to_the_cap(monkeypatch):
    import contregen.backend_io as backend_io
    sleeps = []
    monkeypatch.setattr(backend_io.time, "sleep", sleeps.append)
    now = 1_700_000_000
    monkeypatch.setattr(backend_io.time, "time", lambda: now)

    def after(value):
        return {"Retry-After": value}

    session = _FakeSession([
        _FakeResponse(429, {}, after("3")),
        _FakeResponse(503, {}, after("7200")),  # capped
        _FakeResponse(503, {}, after("Wed, 21 Oct 2015 07:28:00 GMT")),  # already past
        _FakeResponse(429, {}, after(email.utils.formatdate(now + 5, usegmt=True))),
        _FakeResponse(429, {}, after(email.utils.formatdate(now + 3600, usegmt=True))),
        _FakeResponse(500, {}, after("1")),  # honoured only on 429 and 503
        _FakeResponse(503, {}, after("soon")),  # unparseable
        _FakeResponse(429, {}),
        _FakeResponse(200, [{"id": "p1", "score": 1.0}]),
    ])
    monkeypatch.setattr(backend_io, "ATTEMPTS", 9)
    response = backend_io.post_with_retries(session, "http://retriever.test", {}, {},
                                            1.0, RetrieverUnavailableError)
    assert response.status_code == 200
    cap = 10.0
    # each unhonoured wait is the backoff, 0.5 s doubled per attempt made
    assert sleeps == [3.0, cap, 0.0, 5.0, cap, 16.0, 32.0, 64.0]


def test_remote_retriever_bad_payload(monkeypatch):
    import contregen.backend_io as backend_io
    monkeypatch.setattr(backend_io.time, "sleep", lambda s: None)
    session = _FakeSession([_FakeResponse(200, {"unexpected": True})])
    remote = RemoteRetriever("http://retriever.test", CorpusStore(), session=session)
    with pytest.raises(RetrieverUnavailableError):
        remote.retrieve("q", 1)


@pytest.mark.parametrize("payload", [
    [{"id": "p1"}],
    [3],
    [{"id": "p1", "score": None}],
    [{"id": "p1", "score": "x"}],
    {"hits": {"id": "p1", "score": 1.0}},
    "",
    None,
    ValueError("not JSON"),
    [{"id": "a1", "score": "nan"}, {"id": "a1", "score": True}, {"id": "a2", "score": 1}],
    [{"id": "p1", "score": float("nan")}],
    [{"id": "p1", "score": float("inf")}],
    [{"id": "p1", "score": True}],
    [{"id": "p1", "score": "2.5"}],
    [{"id": "p1", "score": 2.0}, {"id": "p1", "score": 1.0}],
    [{"id": None, "score": 1.0}],
    [{"id": True, "score": 1.0}],
    [{"id": 5, "score": 2.0}, {"id": "5", "score": 1.0}],
], ids=["no-score", "number-hit", "null-score", "string-score", "object-hits", "string",
        "null", "not-json", "over-topk", "nan-score", "infinite-score", "boolean-score",
        "numeric-string-score", "repeated-id", "null-id", "boolean-id",
        "integer-and-string-id"])
def test_remote_retriever_malformed_reply_is_unavailable(payload):
    session = _FakeSession([_FakeResponse(200, payload)])
    remote = RemoteRetriever("http://retriever.test", CorpusStore(), session=session)
    with pytest.raises(RetrieverUnavailableError, match="malformed reply"):
        remote.retrieve("q", 2)


def test_remote_retriever_serves_an_integer_id_as_its_string():
    session = _FakeSession([_FakeResponse(200, [{"id": 5, "score": 1.0}])])
    remote = RemoteRetriever("http://retriever.test", CorpusStore(), session=session)
    assert remote.retrieve("q", 1) == (("5", 1.0),)


def test_remote_retriever_reads_hits_object():
    session = _FakeSession([_FakeResponse(200, {"hits": [{"id": "p1", "score": 2}]})])
    remote = RemoteRetriever("http://retriever.test", CorpusStore(), session=session)
    assert remote.retrieve("q", 1) == (("p1", 2.0),)


def test_remote_cache_never_serves_another_local_corpus(tmp_path):
    """Remote hit ids resolve against the local corpus, so an entry cached
    over one local corpus misses once its texts are swapped."""
    session = _FakeSession([_FakeResponse(200, [{"id": "p1", "score": 1.0}])] * 2)
    cache_path = tmp_path / "remote.jsonl"
    for corpus in (_store({"p1": "alpha beta", "p2": "gamma delta"}),
                   _store({"p1": "gamma delta", "p2": "alpha beta"})):
        remote = RemoteRetriever("http://retriever.test", corpus, session=session)
        handle = RetrieverHandle(remote, corpus, cache=RetrievalCache(cache_path))
        assert handle.retrieve("alpha", 1) == (("p1", 1.0),)
    assert len(session.requests) == 2


def test_cache_key_keeps_case_for_remote_only(tmp_path):
    index = LexicalIndex(_store({"p1": "alpha beta"}))
    lexical_cache = RetrievalCache(tmp_path / "lexical.jsonl")
    _cached(lexical_cache, index, "Alpha Beta", 1)
    _cached(lexical_cache, index, "alpha beta", 1)
    assert index.backend_calls == 1

    session = _FakeSession([_FakeResponse(200, [{"id": "p1", "score": 1.0}])] * 2)
    remote = RemoteRetriever("http://retriever.test", CorpusStore(), session=session)
    remote_cache = RetrievalCache(tmp_path / "remote.jsonl")
    _cached(remote_cache, remote, "Alpha Beta", 1)
    _cached(remote_cache, remote, "  Alpha   Beta ", 1)  # whitespace still collapses
    _cached(remote_cache, remote, "alpha beta", 1)
    assert remote.backend_calls == 2
    assert [r["json"]["query"] for r in session.requests] == ["Alpha Beta", "alpha beta"]


def test_handle_records_calls_and_resolves_text():
    store = _store({"p1": "alpha beta", "p2": "beta gamma"})
    recorded = []
    handle = RetrieverHandle(LexicalIndex(store), store, on_call=recorded.append)
    hits = handle.retrieve("beta", 2)
    assert handle.text("p1") == "alpha beta"
    assert len(recorded) == 1
    assert recorded[0].query == "beta"
    assert recorded[0].topk == 2
    assert recorded[0].hit_ids == tuple(pid for pid, _ in hits)
    assert recorded[0].backend == "lexical"
