"""Pure-Python kernels: ``bm25_impacts``, ``topk_indices`` and ``lcs_length``.

Each has a compiled twin in ``_core.c`` with the same signature and
bit-identical results: ``bm25_impacts`` keeps the compiled IEEE-double
operation order, and every score ``topk_indices`` returns is the query-order
sum the compiled scatter makes. A retrieval is one ``topk_indices(terms, n,
k)`` call on plain data: its query terms as (document indices, impacts,
bound) tuples and the document count. The compiled one adds every posting;
this one uses exact MaxScore pruning (Turtle & Flood, 1995): it skips the
postings of the terms whose largest impacts cannot lift a passage into the
top k, which in Python costs far less than adding them all.
"""

from __future__ import annotations

import heapq
from array import array
from bisect import bisect_left
from operator import itemgetter

# Relative slack per query term on the pruning threshold; see topk_indices.
_SLACK = 2.0 ** -40
# A bisect into a term's postings costs about as much as reading this many.
_BISECT_COST = 12
# A term in more than 1/_DENSE of the documents adds up faster into a list.
_DENSE = 8


def bm25_impacts(weights: array, doc_indices: array, doc_norms: array,
                 idf: float, k1: float) -> None:
    """Turn each posting's term frequency into its BM25 contribution, in place.

    ``weights[i] = idf * (tf * (k1 + 1) / (tf + doc_norms[d]))`` for posting
    ``i`` (document ``d``, term frequency ``tf = weights[i]`` on entry);
    ``doc_norms[d]`` is the document's length normalization
    ``k1 * (1 - b + b * dl / avgdl)``. An index outside ``[0, len(doc_norms))``
    is an IndexError. A rejected call writes nothing.
    """
    if len(weights) != len(doc_indices):
        raise ValueError("weights and doc_indices differ in length")
    if doc_indices and (min(doc_indices) < 0 or max(doc_indices) >= len(doc_norms)):
        raise IndexError(f"document index out of range (doc_norms {len(doc_norms)})")
    k1_plus_1 = k1 + 1.0
    weights[:] = array("d", [idf * (tf * k1_plus_1 / (tf + doc_norms[d]))
                             for d, tf in zip(doc_indices, weights)])


def _scatter(terms: list, size: int) -> list[float]:
    """Every document's score, adding each term's impacts in query order."""
    acc = [0.0] * size
    for doc_indices, impacts, _ in terms:
        for d, w in zip(doc_indices, impacts):
            acc[d] += w
    return acc


def _exact(terms: list, d: int) -> float:
    """Document d's score, its impacts looked up and added in query order."""
    score = 0.0
    for doc_indices, impacts, _ in terms:
        i = bisect_left(doc_indices, d)
        if i < len(doc_indices) and doc_indices[i] == d:
            score += impacts[i]
    return score


def _kth(scores, k: int) -> float:
    """The k-th largest of scores; 0 when there are fewer than k."""
    top = heapq.nlargest(k, scores)
    return top[-1] if len(top) == k else 0.0


def _candidates(terms: list, k: int, size: int) -> list[int] | None:
    """A superset of the top k documents, in ascending order; None when a
    term in more than 1/_DENSE of the documents cannot be skipped.

    MaxScore: add up the terms in descending bound order until the bounds of
    the rest sum below theta, the k-th best partial score less its slack, so
    that no document not yet scored can reach the top k. Then, for each
    remaining term, add its impacts to the candidates, raise theta and keep
    the candidates that the terms after it can still lift to theta.
    """
    slack = 1.0 - len(terms) * _SLACK
    order = sorted(terms, key=itemgetter(2), reverse=True)
    rest = [0.0] * (len(order) + 1)  # rest[j]: the most terms j.. can add
    for j in range(len(order) - 1, -1, -1):
        rest[j] = rest[j + 1] + order[j][2]
    partial: dict[int, float] = {}
    theta = 0.0
    j = 0
    while j < len(order):
        doc_indices, impacts, _ = order[j]
        if _DENSE * len(doc_indices) > size:
            return None
        if partial:
            get = partial.get
            for d, w in zip(doc_indices, impacts):
                partial[d] = get(d, 0.0) + w
        else:
            partial = dict(zip(doc_indices, impacts))
        j += 1
        if rest[j] < rest[0] - rest[j]:  # else theta cannot pass rest[j] yet
            theta = _kth(partial.values(), k) * slack
            if rest[j] < theta:
                break
    floor = theta - rest[j]
    partial = {d: s for d, s in partial.items() if s >= floor}
    for doc_indices, impacts, _ in order[j:]:
        n = len(doc_indices)
        if _BISECT_COST * len(partial) > n:
            for d, w in zip(doc_indices, impacts):
                if d in partial:
                    partial[d] += w
        else:
            for d, s in partial.items():
                i = bisect_left(doc_indices, d)
                if i < n and doc_indices[i] == d:
                    partial[d] = s + impacts[i]
        j += 1
        theta = _kth(partial.values(), k) * slack
        floor = theta - rest[j]
        partial = {d: s for d, s in partial.items() if s >= floor}
    return sorted(partial)


def _select(acc: list[float], k: int) -> list[int]:
    """The documents scoring above 0 and at least the k-th best score."""
    kth = _kth(acc, k) if k < len(acc) else 0.0
    if kth > 0.0:
        return [d for d, s in enumerate(acc) if s >= kth]
    return [d for d, s in enumerate(acc) if s > 0.0]


def topk_indices(terms: list, n: int, k: int) -> list[tuple[int, float]]:
    """(index, score) pairs of the k highest positive scores over n documents,
    ordered by (-score, index), of the query terms in ``terms``.

    ``terms`` holds one (document indices, impacts, bound) tuple per query
    term, in query order; the indices ascend and bound is the largest impact.
    Unequal lengths are a ValueError, and a first index below 0 or a last at
    or past n an IndexError; the compiled kernel checks every index.

    Every returned score is the exact query-order sum; pruning only decides
    which documents get one. Exactness rests on three facts. Every impact is
    above 0, so in real arithmetic a document's partial score plus the
    bounds of the terms not yet added is at least its score, and the k
    documents that set theta score at least their partial scores. A float
    sum of T positive terms is within a factor 1 +- T * 2**-53 of the real
    sum, in any order; theta's slack, T * 2**-40 for T terms, is far above
    the few T * 2**-53 by which rounding can move these comparisons, so every
    excluded document's exact score is strictly below the k-th best and
    cannot tie into the top k. And the survivors are ranked on exact scores:
    added up term by term in query order, or, when that would cost more than
    adding every posting, read from a query-order scatter. When a term in
    many documents cannot be skipped, that scatter scores every document and
    selection reads it, as without pruning.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    if k < 1:
        raise ValueError("k must be >= 1")
    for doc_indices, impacts, _ in terms:
        if len(impacts) != len(doc_indices):
            raise ValueError("doc_indices and impacts differ in length")
        if doc_indices and (doc_indices[0] < 0 or doc_indices[-1] >= n):
            raise IndexError(f"document index out of range (scores {n})")
    postings = sum(len(doc_indices) for doc_indices, _, _ in terms)
    candidates = _candidates(terms, k, n)
    if candidates is None:
        exact = _scatter(terms, n)
        candidates = _select(exact, k)
    elif _BISECT_COST * len(candidates) * len(terms) > postings:  # lookups cost more
        exact = _scatter(terms, n)
    else:
        exact = {d: _exact(terms, d) for d in candidates}
    # a stable sort keeps equal scores in ascending index order
    candidates.sort(key=exact.__getitem__, reverse=True)
    return [(d, exact[d]) for d in candidates[:k]]


def lcs_length(left: array, right: array) -> int:
    """Length of the longest common subsequence of two int-coded sequences."""
    m = len(left)
    n = len(right)
    if m == 0 or n == 0:
        return 0
    prev = [0] * (n + 1)
    curr = [0] * (n + 1)
    for i in range(1, m + 1):
        curr[0] = 0
        li = left[i - 1]
        for j in range(1, n + 1):
            if li == right[j - 1]:
                curr[j] = prev[j - 1] + 1
            elif prev[j] >= curr[j - 1]:
                curr[j] = prev[j]
            else:
                curr[j] = curr[j - 1]
        prev, curr = curr, prev
    return prev[n]
