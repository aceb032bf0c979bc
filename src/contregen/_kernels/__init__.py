"""Kernel backend selection: compiled extension if built, pure Python otherwise.

Each backend implements ``bm25_impacts`` and ``topk_indices`` with the same
signatures and bit-identical results (Rouge-L's LCS is
``metrics.lcs_length``). A retrieval is one ``topk_indices(terms, n, k)``
call on plain data: the query terms as (document indices, impacts, bound)
tuples, the document count, and k; it returns the best k (index, score)
pairs. The compiled one adds every posting into a buffer of its own; the
pure one uses each term's bound, its largest impact, to skip the terms that
cannot change the top k.
"""

try:
    from contregen._kernels._core import bm25_impacts, topk_indices

    BACKEND = "compiled"
except ImportError:  # extension not built on this interpreter/platform
    from contregen._kernels.fallback import bm25_impacts, topk_indices

    BACKEND = "pure"

__all__ = ["BACKEND", "bm25_impacts", "topk_indices"]
