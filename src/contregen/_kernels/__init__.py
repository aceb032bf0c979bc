"""Kernel backend selection: compiled extension if built, pure Python otherwise.

Each backend also owns its score container: ``new_scores(n)`` returns what its
``bm25_accumulate`` adds into fastest and its ``topk_indices`` reads.
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
