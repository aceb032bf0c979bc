"""Top-k passage retrieval: embedded BM25 index, remote client, cache.

The lexical backend is fully deterministic: a fixed tokenizer (lowercase,
ascii-alphanumeric runs), BM25 with k1=1.2, b=0.75, idf =
ln(1 + (N - df + 0.5) / (df + 0.5)), duplicate query terms counted once in
first-occurrence order, ties broken by ascending passage id. Only passages
scoring > 0 are returned, so a query with no term overlap yields no hits.
The index is built by its first retrieval, once, so a run served entirely
from the cache builds none. The build appends each posting's term frequency
to its term's arrays, then ``bm25_impacts`` turns it in place into its BM25
impact, its whole contribution to its document's score, so a retrieval only
adds stored impacts; each term also keeps its largest impact, its bound. A
retrieval gathers its terms' (document indices, impacts, bound) tuples in a
plain list and makes one call to the active kernel backend's
``topk_indices(terms, n, k)`` (``contregen._kernels``), which scores them and
returns (index, score) pairs: the compiled one adds every posting, the pure
one lets the bounds skip the terms that cannot change the top k. Both return
the same hits and scores.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
import sys
import threading
from array import array
from collections import Counter
from dataclasses import dataclass
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


def tokenize(text: str) -> list[str]:
    """Lowercase and split into ascii-alphanumeric runs (punctuation acts as whitespace)."""
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


@dataclass(frozen=True)
class RetrievalCall:
    """One logical retrieval as recorded in a trace."""

    query: str
    topk: int
    hit_ids: tuple[str, ...]
    backend: str


class Retriever(Protocol):
    backend_id: str
    backend_calls: int
    corpus_fingerprint: str  # part of every retrieval cache key
    case_sensitive: bool  # whether queries differing only in case may rank differently

    def retrieve(self, query_text: str, topk: int) -> Hits: ...


class LexicalIndex:
    """Inverted BM25 index over a corpus, built on first use.

    Construction checks the corpus and takes its fingerprint, which every
    cache key needs. The postings, per term an ascending array of document
    indices, one of weights (term frequencies, which ``bm25_impacts`` turns in
    place into impacts ``idf * (tf * (k1 + 1) / (tf + k1 * (1 - b + b * dl / avgdl)))``)
    and the largest impact, are built by the first retrieve, exactly once even
    when threads call it together, and never change after. A run whose
    retrievals all come from the cache builds none.
    Internal document indices are assigned in ascending passage-id order, so
    the (-score, index) order of ``topk_indices`` realizes the id tie-break.
    """

    backend_id = "lexical"
    case_sensitive = False  # the tokenizer lowercases

    def __init__(self, corpus: CorpusStore) -> None:
        if len(corpus) == 0:
            raise DataError("cannot build an index over an empty corpus")
        self._corpus = corpus
        self.doc_ids: list[str] = sorted(corpus.ids())
        self.doc_count = len(self.doc_ids)
        self.backend_calls = 0
        self.corpus_fingerprint = corpus.fingerprint()
        self._lock = threading.Lock()  # guards backend_calls and the build
        # the postings, published once complete
        self._built: Optional[dict[str, tuple[array, array, float]]] = None

    def _build(self) -> dict[str, tuple[array, array, float]]:
        """The postings, term -> (document indices, BM25 impacts, largest impact)."""
        lens = array("i")
        postings: dict[str, tuple[array, array]] = {}
        for index, pid in enumerate(self.doc_ids):
            tokens = tokenize(self._corpus.text(pid))
            lens.append(len(tokens))
            for term, tf in Counter(tokens).items():
                bucket = postings.get(term)
                if bucket is None:
                    bucket = postings[term] = (array("i"), array("d"))
                bucket[0].append(index)
                bucket[1].append(tf)
        # with no token in any passage there are no postings, and any avgdl serves
        avgdl = sum(lens) / self.doc_count or 1.0
        # each document's length normalization, the denominator's constant part
        doc_norms = array("d", (BM25_K1 * (1.0 - BM25_B + BM25_B * (dl / avgdl))
                                for dl in lens))
        for doc_indices, weights in postings.values():
            df = len(doc_indices)
            idf = math.log(1.0 + (self.doc_count - df + 0.5) / (df + 0.5))
            bm25_impacts(weights, doc_indices, doc_norms, idf, BM25_K1)
        return {term: (doc_indices, impacts, max(impacts))
                for term, (doc_indices, impacts) in postings.items()}

    def retrieve(self, query_text: str, topk: int) -> Hits:
        if topk < 1:
            raise ValueError("topk must be >= 1")
        # every call takes the lock for the counter, so the build check rides
        # inside it: the first caller builds, concurrent ones wait for it
        with self._lock:
            self.backend_calls += 1
            if self._built is None:
                self._built = self._build()
        postings = self._built
        terms: list[tuple[array, array, float]] = []
        for term in dict.fromkeys(tokenize(query_text)):
            bucket = postings.get(term)
            if bucket is not None:
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
    here, so its cache entries are keyed by the endpoint alone.
    """

    corpus_fingerprint = ""
    case_sensitive = True  # a dense encoder may read case
    TIMEOUT_S = 30.0

    def __init__(self, endpoint: str, token: Optional[str] = None,
                 session: Optional[requests.Session] = None) -> None:
        self.endpoint = endpoint
        self.backend_id = f"remote:{endpoint}"
        self.backend_calls = 0
        self._lock = threading.Lock()  # guards backend_calls
        self._token = token
        if session is None:
            import requests  # deferred: only network backends pay for loading it
            session = requests.Session()
        self._session = session

    def retrieve(self, query_text: str, topk: int) -> Hits:
        if topk < 1:
            raise ValueError("topk must be >= 1")
        with self._lock:
            self.backend_calls += 1
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
    """Hit lists keyed by hash(backend-id, corpus fingerprint, normalized query, topk)."""

    value_field = "hits"
    miss_message = "retrieval cache has no entry for query {query!r} (topk={topk})"
    # own attributes: perfbench wraps and restores them on each cache class
    __init__, get, put = JsonlCache.__init__, JsonlCache.get, JsonlCache.put
    decode = staticmethod(_checked_hits)

    @staticmethod
    def key(backend_id: str, corpus_fingerprint: str, query_text: str, topk: int,
            case_sensitive: bool = False) -> str:
        material = json.dumps([backend_id, corpus_fingerprint,
                               normalize_query(query_text, case_sensitive), topk])
        return hashlib.sha256(material.encode("utf-8")).hexdigest()


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
