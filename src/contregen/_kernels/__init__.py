"""Kernel backend selection: compiled extension if built, pure Python otherwise.

Each backend also owns its score container: ``new_scores(n)`` returns what its
``bm25_accumulate(scores, doc_indices, impacts, bound)`` fills and its
``topk_indices`` reads. The compiled container is an ``array("d")`` that each
term's impacts are added into; the pure one records the terms and leaves the
scoring to ``topk_indices``, which uses each term's bound, its largest impact,
to skip the terms that cannot change the top k. Either way ``scores[i]`` is
the exact score of each index ``topk_indices`` returned.
"""

try:
    from contregen._kernels._core import (
        bm25_accumulate,
        bm25_impacts,
        lcs_length,
        new_scores,
        topk_indices,
    )

    BACKEND = "compiled"
except ImportError:  # extension not built on this interpreter/platform
    from contregen._kernels.fallback import (
        bm25_accumulate,
        bm25_impacts,
        lcs_length,
        new_scores,
        topk_indices,
    )

    BACKEND = "pure"

__all__ = ["BACKEND", "bm25_accumulate", "bm25_impacts", "lcs_length", "new_scores",
           "topk_indices"]
