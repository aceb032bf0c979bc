"""Timing comparison of the compiled kernels against the pure-Python fallback.

Run from the repository root:  PYTHONPATH=src python3 benchmarks/bench_kernels.py
The compiled numbers need the extension built in place first
(python3 setup.py build_ext --inplace); without it only the pure kernels run.
"""

from __future__ import annotations

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


def bench_bm25(docs: int, terms: int, postings_per_term: int, seed: int = 7):
    """The BM25 kernels: the impacts an index build computes for every term,
    the accumulation of every term's impacts into each backend's own score
    buffer, and the top-10 selection over those scores."""
    rng = random.Random(seed)
    doc_lens = [rng.randint(20, 400) for _ in range(docs)]
    avgdl = sum(doc_lens) / docs
    doc_norms = array("d", [1.2 * (1.0 - 0.75 + 0.75 * (dl / avgdl)) for dl in doc_lens])
    postings = []
    for _ in range(terms):
        chosen = sorted(rng.sample(range(docs), postings_per_term))
        postings.append((
            array("i", chosen),
            array("d", [rng.randint(1, 8) for _ in chosen]),
            rng.uniform(0.2, 6.0),
        ))

    def impacts(kernels):
        out = []
        for doc_idx, tfs, idf in postings:
            term_impacts = array("d", tfs)  # turned into impacts in place
            kernels.bm25_impacts(term_impacts, doc_idx, doc_norms, idf, 1.2)
            out.append(term_impacts)
        return out

    pure_impacts = impacts(fallback)

    def accumulate(kernels):
        scores = kernels.new_scores(docs)
        for (doc_idx, _tfs, _idf), term_impacts in zip(postings, pure_impacts):
            kernels.bm25_accumulate(scores, doc_idx, term_impacts)
        return scores

    pure_scores = accumulate(fallback)
    results = {
        "bm25_impacts": {"pure": _time(lambda: impacts(fallback))},
        "bm25_accumulate": {"pure": _time(lambda: accumulate(fallback))},
        "topk_indices": {"pure": _time(lambda: fallback.topk_indices(pure_scores, 10))},
    }
    if _core is not None:
        results["bm25_impacts"]["compiled"] = _time(lambda: impacts(_core))
        results["bm25_impacts"]["bit_exact"] = (
            [a.tobytes() for a in impacts(_core)] == [a.tobytes() for a in pure_impacts])
        results["bm25_accumulate"]["compiled"] = _time(lambda: accumulate(_core))
        compiled_scores = accumulate(_core)
        results["bm25_accumulate"]["bit_exact"] = (
            compiled_scores.tobytes() == array("d", pure_scores).tobytes())
        results["topk_indices"]["compiled"] = _time(
            lambda: _core.topk_indices(compiled_scores, 10))
        results["topk_indices"]["bit_exact"] = (
            _core.topk_indices(compiled_scores, 10) == fallback.topk_indices(pure_scores, 10))
    return results


def bench_lcs(length: int, vocab: int, seed: int = 11):
    rng = random.Random(seed)
    left = array("i", [rng.randrange(vocab) for _ in range(length)])
    right = array("i", [rng.randrange(vocab) for _ in range(length)])
    results = {"pure": _time(lambda: fallback.lcs_length(left, right))}
    if _core is not None:
        results["compiled"] = _time(lambda: _core.lcs_length(left, right))
        results["bit_exact"] = (_core.lcs_length(left, right)
                                == fallback.lcs_length(left, right))
    return results


def main() -> None:
    print(f"active kernel backend: {BACKEND}")
    print()
    bm25 = bench_bm25(docs=50_000, terms=40, postings_per_term=5_000)
    for kernel, results in bm25.items():
        print(f"{kernel} (50k docs, 40 terms x 5k postings):")
        _report(results)
    lcs = bench_lcs(length=2_000, vocab=200)
    print("lcs_length (2000 x 2000 tokens):")
    _report(lcs)


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
