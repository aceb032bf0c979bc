"""Kernel backend selection: compiled extension if built, pure Python otherwise.

Both backends share one query score container from ``fallback.py``:
``new_scores(n)`` makes a ``DeferredScores`` and ``bm25_accumulate`` records
each query term in it. Each backend implements ``bm25_impacts``,
``topk_indices`` and ``lcs_length``; its ``topk_indices`` scores the recorded
terms and returns (index, score) pairs. The compiled one adds every posting
into a buffer of its own; the pure one uses each term's bound, its largest
impact, to skip the terms that cannot change the top k.
"""

from contregen._kernels.fallback import DeferredScores, bm25_accumulate, new_scores

try:
    from contregen._kernels._core import bm25_impacts, lcs_length, topk_indices

    BACKEND = "compiled"
except ImportError:  # extension not built on this interpreter/platform
    from contregen._kernels.fallback import bm25_impacts, lcs_length, topk_indices

    BACKEND = "pure"

__all__ = ["BACKEND", "DeferredScores", "bm25_accumulate", "bm25_impacts", "lcs_length",
           "new_scores", "topk_indices"]
