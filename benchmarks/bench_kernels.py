"""Timing comparison of the compiled kernels against the pure-Python fallback.

Run from the repository root:  PYTHONPATH=src python3 benchmarks/bench_kernels.py
The compiled numbers need the extension built in place first
(python3 setup.py build_ext --inplace); without it only the pure kernels run.
"""

from __future__ import annotations

import math
import random
import time
from array import array

from contregen._kernels import BACKEND, fallback

try:
    from contregen._kernels import _core
except ImportError:
    _core = None


def _time(fn, repeats: int = 3) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def bench_bm25(docs: int, dfs: tuple[int, ...], k: int, seed: int = 7):
    """The BM25 kernels: the impacts an index build computes for every term,
    and one retrieval of a Zipf-shaped query, one term in nearly every
    document plus rarer ones: each backend's topk_indices(terms, n, k) takes
    the query's (doc_indices, impacts, bound) tuples, scores them and returns
    the k best (index, score) pairs."""
    rng = random.Random(seed)
    doc_lens = [rng.randint(20, 400) for _ in range(docs)]
    avgdl = sum(doc_lens) / docs
    doc_norms = array("d", [1.2 * (1.0 - 0.75 + 0.75 * (dl / avgdl)) for dl in doc_lens])
    postings = []
    for df in dfs:
        chosen = sorted(rng.sample(range(docs), df))
        idf = math.log(1.0 + (docs - df + 0.5) / (df + 0.5))
        postings.append((array("i", chosen),
                         array("d", [rng.randint(1, 8) for _ in chosen]), idf))

    def impacts(kernels):
        out = []
        for doc_idx, tfs, idf in postings:
            term_impacts = array("d", tfs)  # turned into impacts in place
            kernels.bm25_impacts(term_impacts, doc_idx, doc_norms, idf, 1.2)
            out.append(term_impacts)
        return out

    terms = [(doc_idx, term_impacts, max(term_impacts))
             for (doc_idx, _tfs, _idf), term_impacts in zip(postings, impacts(fallback))]

    def retrieve(kernels):
        return [(i, score.hex()) for i, score in kernels.topk_indices(terms, docs, k)]

    results = {
        "bm25_impacts": {"pure": _time(lambda: impacts(fallback))},
        "retrieve": {"pure": _time(lambda: retrieve(fallback))},
    }
    if _core is not None:
        results["bm25_impacts"]["compiled"] = _time(lambda: impacts(_core))
        results["bm25_impacts"]["bit_exact"] = (
            [a.tobytes() for a in impacts(_core)] == [a.tobytes() for a in impacts(fallback)])
        results["retrieve"]["compiled"] = _time(lambda: retrieve(_core))
        results["retrieve"]["bit_exact"] = retrieve(_core) == retrieve(fallback)
    return results


def main() -> None:
    print(f"active kernel backend: {BACKEND}")
    print()
    dfs = (47_500, 5_000, 500, 50)
    bm25 = bench_bm25(docs=50_000, dfs=dfs, k=10)
    print(f"bm25_impacts (50k docs, terms in {', '.join(map(str, dfs))} of them):")
    _report(bm25["bm25_impacts"])
    print("retrieve, top 10 of the same terms as one query (each backend's topk_indices):")
    _report(bm25["retrieve"])


def _report(results: dict) -> None:
    pure = results["pure"]
    print(f"  pure:     {pure * 1e3:9.2f} ms")
    if "compiled" in results:
        compiled = results["compiled"]
        print(f"  compiled: {compiled * 1e3:9.2f} ms  "
              f"(speedup {pure / compiled:5.1f}x, "
              f"bit-exact={results['bit_exact']})")
    else:
        print("  compiled: not available")
    print()


if __name__ == "__main__":
    main()
