"""Kernel backend selection: compiled extension if built, pure Python otherwise."""

try:
    from contregen._kernels._core import bm25_accumulate, bm25_impacts, lcs_length

    BACKEND = "compiled"
except ImportError:  # extension not built on this interpreter/platform
    from contregen._kernels.fallback import bm25_accumulate, bm25_impacts, lcs_length

    BACKEND = "pure"

__all__ = ["BACKEND", "bm25_accumulate", "bm25_impacts", "lcs_length"]
