"""Pure-Python kernels, used when the compiled extension is unavailable.

Same signatures and the same IEEE-double operation order as ``_core.c``;
the two backends must return bit-identical results. Only the score container
differs: ``new_scores`` here makes a list, whose float objects ``scores[d] += w``
updates without the boxing and unboxing an ``array("d")`` pays for each element.
"""

from __future__ import annotations

import heapq
from array import array


def bm25_impacts(weights: array, doc_indices: array, doc_norms: array,
                 idf: float, k1: float) -> None:
    """Turn each posting's term frequency into its BM25 contribution, in place.

    ``weights[i] = idf * (tf * (k1 + 1) / (tf + doc_norms[d]))`` for posting
    ``i`` (document ``d``, term frequency ``tf = weights[i]`` on entry);
    ``doc_norms[d]`` is the document's length normalization
    ``k1 * (1 - b + b * dl / avgdl)``. A rejected call writes nothing.
    """
    if len(weights) != len(doc_indices):
        raise ValueError("weights and doc_indices differ in length")
    k1_plus_1 = k1 + 1.0
    weights[:] = array("d", [idf * (tf * k1_plus_1 / (tf + doc_norms[d]))
                             for d, tf in zip(doc_indices, weights)])


def new_scores(n: int) -> list[float]:
    """A zeroed score buffer for n documents, as bm25_accumulate fills it."""
    return [0.0] * n


def bm25_accumulate(scores: list[float] | array, doc_indices: array,
                    impacts: array) -> None:
    """Add one query term's precomputed impacts to its postings' documents.

    ``scores`` may be a list (what new_scores makes) or an ``array("d")``.
    """
    if len(impacts) != len(doc_indices):
        raise ValueError("doc_indices and impacts differ in length")
    for d, w in zip(doc_indices, impacts):
        scores[d] += w


def topk_indices(scores: list[float] | array, k: int) -> list[int]:
    """Indices of the k highest positive scores, ordered by (-score, index).

    A bounded heap finds the k-th largest score; only the indices scoring at
    least that much (ties included) are sorted. The result equals the full sort
    of every positive score cut to k: selection only compares values.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    kth = heapq.nlargest(k, scores)[-1] if len(scores) else 0.0
    if kth > 0.0:
        candidates = [i for i, s in enumerate(scores) if s >= kth]
    else:  # fewer than k documents score > 0: keep all of them
        candidates = [i for i, s in enumerate(scores) if s > 0.0]
    candidates.sort(key=lambda i: (-scores[i], i))
    return candidates[:k]


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
