"""Top-k passage retrieval: embedded BM25 index, remote client, cache.

The lexical backend is fully deterministic: a fixed tokenizer (lowercase,
ascii-alphanumeric runs), BM25 with k1=1.2, b=0.75, idf =
ln(1 + (N - df + 0.5) / (df + 0.5)), duplicate query terms counted once in
first-occurrence order, ties broken by ascending passage id. Only passages
scoring > 0 are returned, so a query with no term overlap yields no hits.
The index is built by its first retrieval, once, so a run served entirely
from the cache builds none. The build groups the corpus's tokens by term, one
array of document indices per term with an entry per occurrence, in a
dict that then holds the postings, its default factory cleared. Finalizing
a term counts its array into its ascending document indices and term
frequencies, frees the count, and has ``bm25_impacts`` turn each frequency
in place into its BM25 impact, its whole contribution to its document's
score, so a retrieval only adds stored impacts; each term also keeps its
largest impact, its bound. The build finalizes each term with more than
N >> 8 occurrences (N passages); a rarer term keeps its occurrence array
until the first retrieval that names it finalizes it, so the many rare
terms no query names cost only their grouping. A retrieval gathers its
terms' (document indices, impacts, bound) tuples in a plain list and makes
one call to the active kernel backend's ``topk_indices(terms, n, k)``
(``contregen._kernels``), which scores them and returns (index, score)
pairs: the compiled one adds every posting, the pure one lets the bounds
skip the terms that cannot change the top k. Both return the same hits and
scores.
"""

from __future__ import annotations

import math
import re
import sys
import threading
from array import array
from collections import Counter, defaultdict, deque
from dataclasses import dataclass
from functools import cached_property, partial
from itertools import repeat
from typing import TYPE_CHECKING, Callable, Optional, Protocol

from contregen._kernels import bm25_impacts, topk_indices
from contregen.backend_io import JsonlCache, post_with_retries
from contregen.corpus import CorpusStore, id_text
from contregen.errors import DataError, RetrieverUnavailableError

if TYPE_CHECKING:
    import requests

BM25_K1 = 1.2
BM25_B = 0.75

_TOKEN_RE = re.compile(r"[a-z0-9]+")
# A-Z to a-z, and every other ASCII character outside [a-z0-9] to a space
_ASCII_TOKENS = str.maketrans({c: c.lower() if c.isalnum() else " "
                               for c in map(chr, range(128))})


def tokenize(text: str) -> list[str]:
    """Lowercase and split into ascii-alphanumeric runs (punctuation acts as whitespace).

    ASCII text takes one ``str.translate`` and a split. Other text keeps the
    regular expression over the lowered text: ``str.translate`` is fast only
    on ASCII input, and ``str.lower`` turns some non-ASCII characters into
    ASCII letters (the Kelvin sign into "k"). Both give the same tokens."""
    if text.isascii():
        return text.translate(_ASCII_TOKENS).split()
    return _TOKEN_RE.findall(text.lower())


def normalize_query(query_text: str, case_sensitive: bool = False) -> str:
    """Cache normalization: strip, collapse whitespace, lowercase unless case_sensitive."""
    return " ".join((query_text if case_sensitive else query_text.lower()).split())


def bm25_accumulate(terms: list, doc_indices: array, impacts: array, bound: float) -> None:
    """Append one query term to the terms a retrieval scores. A call of its own
    only because perfbench/tracer.py times it as the ``kernels.bm25`` layer;
    once that times ``topk_indices`` (ROADMAP item 1), a comprehension does."""
    terms.append((doc_indices, impacts, bound))


# A retrieval's result: (passage id, score) pairs, best first.
Hits = tuple[tuple[str, float], ...]


def _checked_hits(pairs) -> Hits:
    """A list of (passage id, score) pairs read from outside (a remote reply, a
    cache line, a tree export) as hits. A TypeError unless it is a list, and a
    ValueError unless every id is a string, no id repeats, and every score is
    a finite number and not a boolean."""
    if not isinstance(pairs, list):
        raise TypeError("hits must be a list")
    hits = []
    for pid, score in pairs:
        if not isinstance(pid, str):
            raise ValueError(f"passage id {pid!r} is not a string")
        if (isinstance(score, bool) or not isinstance(score, (int, float))
                or not -sys.float_info.max <= score <= sys.float_info.max):  # NaN fails too
            raise ValueError(f"score {score!r} is not a finite number")
        hits.append((pid, float(score)))
    if len({pid for pid, _ in hits}) < len(hits):
        raise ValueError("a passage id repeats")
    return tuple(hits)


@dataclass(slots=True)
class RetrievalCall:
    """One logical retrieval as recorded in a trace."""

    query: str
    topk: int
    hit_ids: tuple[str, ...]
    backend: str


class Retriever(Protocol):
    """A retrieval backend. Its ``corpus_fingerprint``, part of every
    retrieval cache key, is that of the local corpus its hit ids resolve
    against, read from the store when a cache key first asks for it."""

    backend_id: str
    backend_calls: int
    corpus_fingerprint: str  # part of every retrieval cache key
    case_sensitive: bool  # whether queries differing only in case may rank differently

    def retrieve(self, query_text: str, topk: int) -> Hits: ...


def _local_fingerprint(retriever) -> str:
    """The fingerprint of the local corpus a retriever's hit ids resolve
    against: hashed by the store when the first cache key asks for it, at
    most once per store, and then kept on the retriever as a plain attribute."""
    return retriever._corpus.fingerprint()


class LexicalIndex:
    """Inverted BM25 index over a corpus, built on first use.

    Construction only checks that the corpus is not empty; it does no work
    per passage. The corpus fingerprint, which only cache keys need, is read
    from the store by the first key that asks for it, so a run without a
    retrieval cache never hashes the corpus. The postings, per term an
    ascending array of document indices, one of weights (term frequencies,
    which ``bm25_impacts`` turns in place into impacts
    ``idf * (tf * (k1 + 1) / (tf + k1 * (1 - b + b * dl / avgdl)))``) and the
    largest impact, are built by the first retrieve, exactly once even
    when threads call it together. The build runs no Python statement per
    posting: C-level iteration appends each token's document index to its
    term's occurrence array, and ``_finalize`` counts that array with a
    ``Counter`` into the term's documents and frequencies, every array sized
    exactly, and frees the ``Counter`` before the impacts are computed, so
    the term's lasting objects do not land in the memory it leaves. That
    grouping dict, its default factory cleared, holds the postings: a
    lookup of a missing term adds nothing. The build finalizes only the
    terms with more than ``doc_count >> 8`` occurrences (every term below
    256 passages); the first retrieve that names a rarer term replaces its
    occurrence array with the finished tuple, under the lock, so each term
    is finalized once and a finished tuple never changes. Either way a term
    gets the same bits. A run whose retrievals all come from the cache
    builds none.
    Internal document indices are assigned by the build in ascending
    passage-id order, so the (-score, index) order of ``topk_indices``
    realizes the id tie-break.
    """

    backend_id = "lexical"
    case_sensitive = False  # the tokenizer lowercases
    corpus_fingerprint = cached_property(_local_fingerprint)

    def __init__(self, corpus: CorpusStore) -> None:
        if len(corpus) == 0:
            raise DataError("cannot build an index over an empty corpus")
        self._corpus = corpus
        self.backend_calls = 0
        self._lock = threading.Lock()  # guards backend_calls, the build and finalization
        # the postings, published once built; a rare term's occurrence array
        # is replaced by its finished tuple when a query first names it
        self._built: Optional[dict[str, tuple[array, array, float] | array]] = None
        # set by the build: passage ids by document index, their count, and
        # the document norms _finalize reads
        self.doc_ids: list[str] = []
        self.doc_count = 0
        self._doc_norms: Optional[array] = None

    def _build(self) -> dict[str, tuple[array, array, float] | array]:
        """The postings, term -> (document indices, BM25 impacts, largest
        impact), except that a rare term keeps its occurrence array for
        ``retrieve`` to finalize: the dict that grouped the occurrences, with
        no default factory. Sets the document ids, their count and the
        document norms ``_finalize`` reads."""
        self.doc_ids = sorted(self._corpus.ids())
        self.doc_count = len(self.doc_ids)
        lens = array("i")
        # each term's document index once per occurrence, so ascending; the
        # appends run in C, from map and a deque that keeps nothing
        occurrences = defaultdict(partial(array, "i"))
        group = occurrences.__getitem__
        for index, pid in enumerate(self.doc_ids):
            tokens = tokenize(self._corpus.text(pid))
            lens.append(len(tokens))
            deque(map(array.append, map(group, tokens), repeat(index)), 0)
        # with no token in any passage there are no postings, and any avgdl serves
        avgdl = sum(lens) / self.doc_count or 1.0
        # each document's length normalization, the denominator's constant part
        self._doc_norms = array("d", (BM25_K1 * (1.0 - BM25_B + BM25_B * (dl / avgdl))
                                      for dl in lens))
        rare = self.doc_count >> 8
        for term, indices in occurrences.items():
            if len(indices) > rare:
                # in place of the occurrences, so they are freed term by term
                occurrences[term] = self._finalize(indices)
        # kept, not copied: with no factory, looking up a missing term adds nothing
        occurrences.default_factory = None
        return occurrences

    def _finalize(self, indices: array) -> tuple[array, array, float]:
        """A term's (document indices, BM25 impacts, largest impact) from its
        ascending occurrence array. Its count is freed before the impacts'
        floats and the tuple are made, so they reuse that memory instead of
        landing beside it."""
        tfs = Counter(indices)  # ascending document index -> term frequency
        # built from lists, so sized exactly (an iterator grows them with slack)
        doc_indices = array("i", [*tfs])
        impacts = array("d", [*tfs.values()])
        del tfs  # its table and boxed indices, before the impacts are made
        df = len(doc_indices)
        idf = math.log(1.0 + (self.doc_count - df + 0.5) / (df + 0.5))
        bm25_impacts(impacts, doc_indices, self._doc_norms, idf, BM25_K1)
        return doc_indices, impacts, max(impacts)

    def retrieve(self, query_text: str, topk: int) -> Hits:
        if topk < 1:
            raise ValueError("topk must be >= 1")
        query_terms = dict.fromkeys(tokenize(query_text))
        terms: list[tuple[array, array, float]] = []
        # every call takes the lock for the counter, so the build and the
        # finalization of rare terms ride inside it: the first caller builds,
        # concurrent ones wait for it, and each term is finalized once
        with self._lock:
            self.backend_calls += 1
            if self._built is None:
                self._built = self._build()
            postings = self._built
            for term in query_terms:
                bucket = postings.get(term)
                if bucket is None:
                    continue
                if isinstance(bucket, array):  # a rare term, first named now
                    bucket = postings[term] = self._finalize(bucket)
                bm25_accumulate(terms, *bucket)
        return tuple((self.doc_ids[i], score)
                     for i, score in topk_indices(terms, self.doc_count, topk))


class RemoteRetriever:
    """Client for a remote dense retriever: POST {query, topk} -> [{id, score}].

    Each POST waits up to TIMEOUT_S, with backend_io.ATTEMPTS attempts in
    all. An id may be a string or an integer, which stands for its decimal
    string. A reply of any other shape, with more than topk hits, a repeated
    id or a score that is not a finite number, is a RetrieverUnavailableError,
    as an unreachable endpoint is, so it fails its query and not the run.

    The auth token, when required, comes from the environment (never from
    configuration files). The remote corpus cannot be fingerprinted from
    here, but the hit ids resolve against the local corpus, so cache keys
    carry the endpoint and the local corpus's fingerprint, read from the
    store as the lexical index reads it: a swapped local corpus misses.
    """

    case_sensitive = True  # a dense encoder may read case
    corpus_fingerprint = cached_property(_local_fingerprint)
    TIMEOUT_S = 30.0

    def __init__(self, endpoint: str, corpus: CorpusStore, token: Optional[str] = None,
                 session: Optional[requests.Session] = None) -> None:
        self.endpoint = endpoint
        self._corpus = corpus
        self.backend_id = f"remote:{endpoint}"
        self.backend_calls = 0
        self._lock = threading.Lock()  # guards backend_calls and the session's creation
        self._token = token
        self._session = session

    def retrieve(self, query_text: str, topk: int) -> Hits:
        if topk < 1:
            raise ValueError("topk must be >= 1")
        with self._lock:
            self.backend_calls += 1
            if self._session is None:
                import requests  # deferred: only a POST pays for loading it
                self._session = requests.Session()
        headers = {"Content-Type": "application/json"}
        if self._token:
            headers["Authorization"] = f"Bearer {self._token}"
        response = post_with_retries(
            self._session, self.endpoint, {"query": query_text, "topk": topk}, headers,
            self.TIMEOUT_S,
            lambda reason: RetrieverUnavailableError(
                f"remote retriever {self.endpoint} unreachable: {reason}"))
        try:
            payload = response.json()
            items = payload["hits"] if isinstance(payload, dict) else payload
            if not isinstance(items, list):
                raise TypeError("not a hit list")
            if len(items) > topk:
                raise ValueError(f"{len(items)} hits for topk={topk}")
            return _checked_hits([(id_text(item["id"]), item["score"]) for item in items])
        except (KeyError, IndexError, TypeError, ValueError) as exc:
            raise RetrieverUnavailableError(
                f"remote retriever {self.endpoint} returned a malformed reply "
                f"({type(exc).__name__}: {exc})") from exc


class RetrievalCache(JsonlCache):
    """Hit lists keyed by the cache digest of (backend-id, corpus fingerprint,
    normalized query, topk)."""

    value_field = "hits"
    miss_message = "retrieval cache has no entry for query {query!r} (topk={topk})"
    # own attributes: perfbench wraps and restores them on each cache class
    __init__, get, put = JsonlCache.__init__, JsonlCache.get, JsonlCache.put
    decode = staticmethod(_checked_hits)

    @staticmethod
    def key(backend_id: str, corpus_fingerprint: str, query_text: str, topk: int,
            case_sensitive: bool = False) -> str:
        return JsonlCache.digest(backend_id, corpus_fingerprint,
                                 normalize_query(query_text, case_sensitive), topk)


class RetrieverHandle:
    """What the engine components receive: retrieval plus passage-text lookup.

    Wraps a backend with the optional cache and a trace recorder; the remote
    backend returns ids only, so text always resolves against the local corpus.
    """

    def __init__(self, backend: Retriever, corpus: CorpusStore,
                 cache: Optional[RetrievalCache] = None,
                 on_call: Optional[Callable[[RetrievalCall], None]] = None) -> None:
        self.backend = backend
        self.corpus = corpus
        self.cache = cache
        self.on_call = on_call

    def retrieve(self, query_text: str, topk: int) -> Hits:
        """Served from the cache when there is one (a strict cache errors on a
        miss instead of touching the backend); the same hits either way."""
        backend = self.backend
        if self.cache is not None:
            key = self.cache.key(backend.backend_id, backend.corpus_fingerprint, query_text,
                                 topk, backend.case_sensitive)
            hits = self.cache.lookup(
                key, {"backend": backend.backend_id, "query": query_text, "topk": topk},
                backend.retrieve, query_text, topk)
        else:
            hits = backend.retrieve(query_text, topk)
        if self.on_call is not None:
            self.on_call(RetrievalCall(query=query_text, topk=topk,
                                       hit_ids=tuple(pid for pid, _ in hits),
                                       backend=backend.backend_id))
        return hits

    def text(self, passage_id: str) -> str:
        return self.corpus.text(passage_id)


__all__ = [
    "BM25_B",
    "BM25_K1",
    "Hits",
    "LexicalIndex",
    "RemoteRetriever",
    "RetrievalCache",
    "RetrievalCall",
    "Retriever",
    "RetrieverHandle",
    "normalize_query",
    "tokenize",
]
