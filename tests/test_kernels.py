import inspect
import random
import re
from array import array
from pathlib import Path

import pytest

from contregen import _kernels, retrieval
from contregen._kernels import fallback
from contregen.corpus import CorpusStore, Passage

from oracles import bm25_rank, lcs_len

try:
    from contregen._kernels import _core
except ImportError:
    _core = None

_CORE_SOURCE = Path(_kernels.__file__).with_name("_core.c")
K1, B = 1.2, 0.75


def _norms(doc_lens, avgdl):
    return array("d", [K1 * (1.0 - B + B * (dl / avgdl)) for dl in doc_lens])


def _random_norms(rng):
    doc_lens = [rng.randint(1, 120) for _ in range(rng.randint(1, 60))]
    return _norms(doc_lens, sum(doc_lens) / len(doc_lens))


def _random_term(rng, docs):
    """One term's postings over docs documents: (doc indices, tfs, idf), in a
    few of them or in up to all, so that the pure selection prunes some."""
    chosen = sorted(rng.sample(range(docs), rng.randint(1, rng.choice((docs, docs // 8 + 1)))))
    tfs = array("i", [rng.randint(1, 9) for _ in chosen])
    return array("i", chosen), tfs, rng.uniform(0.01, 8.0)


_KERNELS = ("bm25_impacts", "topk_indices", "lcs_length")  # one per backend


def test_backend_constant_matches_import():
    active = _core if _core is not None else fallback
    assert _kernels.BACKEND == ("compiled" if _core is not None else "pure")
    for name in _KERNELS:
        assert getattr(_kernels, name) is getattr(active, name)


def test_backends_export_the_same_kernels():
    """The compiled method table, read from source so that no compiler is
    needed, names exactly the pure backend's public functions."""
    source = _CORE_SOURCE.read_text(encoding="utf-8")
    table = re.search(r"static PyMethodDef core_methods\[\] = \{(.*?)\n\};", source, re.S)
    compiled_names = re.findall(r'\{"(\w+)", (\w+), METH_VARARGS, (\w+)_doc\}', table.group(1))
    assert all(name == fn == doc for name, fn, doc in compiled_names), compiled_names
    assert len(compiled_names) == table.group(1).count("METH_")
    pure_names = {name for name, obj in vars(fallback).items()
                  if inspect.isfunction(obj) and obj.__module__ == fallback.__name__
                  and not name.startswith("_")}
    assert {name for name, _, _ in compiled_names} == set(_KERNELS)
    assert pure_names == set(_KERNELS)
    assert set(_kernels.__all__) == {"BACKEND", *_KERNELS}


def test_compiled_signatures_name_the_pure_parameters(compiled):
    """Each compiled kernel's signature, which CPython reads from the head of
    its PyDoc_STRVAR docstring, names its pure twin's parameters in order."""
    for name in _KERNELS:
        assert getattr(compiled, name).__text_signature__ is not None, name
        assert (list(inspect.signature(getattr(compiled, name)).parameters)
                == list(inspect.signature(getattr(fallback, name)).parameters)), name


def _impacts(kernels, doc_idx, tfs, doc_norms, idf):
    """bm25_impacts run in place on a copy of tfs."""
    weights = array("d", tfs)
    kernels.bm25_impacts(weights, doc_idx, doc_norms, idf, K1)
    return weights


def _selected(kernels, terms, n, k):
    """What a retrieval reads: the top-k indices and their scores, bit for bit."""
    return [(i, score.hex()) for i, score in kernels.topk_indices(terms, n, k)]


def test_compiled_topk_bitwise_equals_pure_on_one_container(compiled):
    rng = random.Random(20240817)
    for _ in range(100):
        doc_norms = _random_norms(rng)
        docs = len(doc_norms)
        terms = []  # the one terms list both backends read
        assert (_selected(compiled, terms, docs, docs) == _selected(fallback, terms, docs, docs)
                == [])
        # several terms, so that rounding differences would compound
        for _term in range(rng.randint(1, 5)):
            doc_idx, tfs, idf = _random_term(rng, docs)
            impacts = _impacts(compiled, doc_idx, tfs, doc_norms, idf)
            assert impacts.tobytes() == _impacts(fallback, doc_idx, tfs, doc_norms, idf).tobytes()
            terms.append((doc_idx, impacts, max(impacts)))
        for k in (1, 3, docs, docs + 2):
            assert _selected(compiled, terms, docs, k) == _selected(fallback, terms, docs, k)
    for _ in range(100):
        left = array("i", [rng.randrange(6) for _ in range(rng.randint(0, 30))])
        right = array("i", [rng.randrange(6) for _ in range(rng.randint(0, 30))])
        assert compiled.lcs_length(left, right) == fallback.lcs_length(left, right)


def test_compiled_kernels_reject_bad_buffers(compiled):
    norms = array("d", [1.0, 1.0])
    weights = array("d", [7.0, 7.0, 7.0])  # term frequencies, or impacts to add
    three = array("i", [1, 1, 1])
    good = (array("i", [1]), array("d", [0.5]), 0.5)
    # an out-of-range index anywhere in the postings is rejected; bm25_impacts
    # writes nothing, topk_indices drops the buffer it added into
    for bad in (2, -1, 2**31 - 1, -2**31):
        for where in range(3):
            doc_idx = array("i", [0, 1, 1])
            doc_idx[where] = bad
            # the message names the index out of range
            message = rf"^document index {bad} out of range \({{}} 2\)$"
            with pytest.raises(IndexError, match=message.format("doc_norms")):
                compiled.bm25_impacts(weights, doc_idx, norms, 1.0, K1)
            with pytest.raises(IndexError, match=message.format("scores")):
                compiled.topk_indices([good, (doc_idx, weights, 7.0)], 2, 1)
    with pytest.raises(IndexError):  # doc_norms shorter than the documents indexed
        compiled.bm25_impacts(weights, array("i", [0, 1, 1]), norms[:1], 1.0, K1)
    assert weights.tobytes() == array("d", [7.0, 7.0, 7.0]).tobytes()
    # topk_indices checks the indices only against n
    assert compiled.topk_indices((good, good), 2, 2) == [(1, 1.0)]
    for n in ("2", 2.0):
        with pytest.raises(TypeError):
            compiled.topk_indices([good], n, 1)
    for terms in (array("d", [1.0]), 5):  # a raw score array is no terms sequence
        with pytest.raises(TypeError):
            compiled.topk_indices(terms, 1, 1)
    with pytest.raises(TypeError):  # the bound is a required number
        compiled.topk_indices([good[:2]], 2, 1)
    with pytest.raises(TypeError):
        compiled.topk_indices([(*good[:2], "0.5")], 2, 1)
    for term in (list(good), 5):  # a term is a tuple
        with pytest.raises(TypeError):
            compiled.topk_indices([term], 2, 1)

    with pytest.raises(ValueError):  # weights shorter than the postings
        compiled.bm25_impacts(weights[:2], array("i", [0, 1, 1]), norms, 1.0, K1)

    with pytest.raises(TypeError):  # wrong item types
        compiled.bm25_impacts(weights, array("l", [0, 1, 1]), norms, 1.0, K1)
    with pytest.raises(TypeError):
        compiled.bm25_impacts(array("f", [0.0] * 3), three, norms, 1.0, K1)
    with pytest.raises(TypeError):
        compiled.bm25_impacts(array("i", [1, 1, 1]), three, norms, 1.0, K1)
    with pytest.raises(TypeError):
        compiled.bm25_impacts(weights, three, array("i", [1, 1]), 1.0, K1)
    # a term's postings are 1-d buffers of ints and of doubles, and nothing else
    two_by_two = memoryview(array("d", [1.0] * 4)).cast("B").cast("d", (2, 2))
    for doc_idx, impacts in [(array("l", [0]), array("d", [1.0])),
                             (array("i", [0]), array("f", [1.0])),
                             (array("i", [0]), array("i", [1])),
                             (array("d", [0.0]), array("d", [1.0])),
                             ([0], array("d", [1.0])), (array("i", [0]), bytes(8)),
                             (array("i", [0, 1]), two_by_two)]:
        with pytest.raises(TypeError):
            compiled.topk_indices([(doc_idx, impacts, 1.0)], 2, 1)

    with pytest.raises(BufferError):  # a read-only output
        compiled.bm25_impacts(bytes(24), three, norms, 1.0, K1)
    with pytest.raises(BufferError):  # not contiguous
        compiled.topk_indices(
            [(memoryview(array("i", [0, 1, 1]))[::2], array("d", [1.0, 2.0]), 2.0)], 2, 1)
    with pytest.raises(TypeError):
        compiled.lcs_length(array("d", [1.0]), array("i", [1]))

    with pytest.raises(TypeError):
        compiled.topk_indices([good], 2, 1.5)


def test_topk_indices_rejects_bad_terms_on_both_backends(kernels):
    """What each backend rejects of a topk_indices call: a count below 0, k
    below 1, postings of unequal lengths, and a first index below 0 or a last
    one at or past n. A term's other indices only the compiled one checks."""
    good = (array("i", [0, 1]), array("d", [0.5, 0.25]), 0.5)
    for n, k in ((-1, 1), (2, 0), (2, -1), (2, -2**40)):
        with pytest.raises(ValueError):
            kernels.topk_indices([good], n, k)
    with pytest.raises(ValueError):
        kernels.topk_indices([good, (array("i", [0, 1]), array("d", [7.0] * 3), 7.0)], 2, 1)
    for doc_idx in ([-1, 1], [-2**31, 0], [0, 2], [1, 2**31 - 1]):
        with pytest.raises(IndexError, match=r"out of range \(scores 2\)$"):
            kernels.topk_indices([good, (array("i", doc_idx), array("d", [1.0, 1.0]), 1.0)], 2, 1)
    assert kernels.topk_indices([], 0, 1) == []
    assert kernels.topk_indices((good,), 2, 5) == [(0, 0.5), (1, 0.25)]


def test_rejected_bm25_impacts_leaves_the_term_frequencies(kernels):
    """However bm25_impacts rejects its postings, weights still holds the
    caller's term frequencies: nothing is written before every check passes."""
    tfs = array("d", [3.0, 1.0, 2.0])
    norms = array("d", [1.0, 1.0])
    for error, doc_idx, doc_norms in [
        (IndexError, array("i", [0, 1, 2]), norms),  # the last index is out of range
        (IndexError, array("i", [0, 1, 1]), norms[:1]),  # doc_norms too short
        (ValueError, array("i", [0, 1]), norms),  # fewer indices than weights
    ]:
        weights = array("d", tfs)
        with pytest.raises(error):
            kernels.bm25_impacts(weights, doc_idx, doc_norms, 1.0, K1)
        assert weights.tobytes() == tfs.tobytes()


def test_negative_document_index_is_rejected(kernels):
    """A document index below 0 is an IndexError, never a write through
    Python's wrap-around to the last document."""
    with pytest.raises(IndexError):
        kernels.topk_indices([(array("i", [-1]), array("d", [1.0]), 1.0)], 2, 1)
    weights = array("d", [1.0])
    with pytest.raises(IndexError):
        kernels.bm25_impacts(weights, array("i", [-1]), array("d", [1.0, 1.0]), 1.0, K1)
    assert weights.tolist() == [1.0]


def test_bm25_accumulate_matches_direct_formula():
    doc_lens = [10, 20, 30]
    avgdl = 20.0
    impacts = _impacts(fallback, array("i", [0, 2]), array("d", [3.0, 1.0]),
                       _norms(doc_lens, avgdl), 1.5)
    expect0 = 1.5 * ((3 * (K1 + 1.0)) / (3 + K1 * (1.0 - B + B * (10 / avgdl))))
    expect2 = 1.5 * ((1 * (K1 + 1.0)) / (1 + K1 * (1.0 - B + B * (30 / avgdl))))
    assert impacts.tolist() == [expect0, expect2]
    terms = []
    retrieval.bm25_accumulate(terms, array("i", [2]), array("d", [0.25]), 0.25)
    retrieval.bm25_accumulate(terms, array("i", [0, 2]), impacts, max(impacts))
    selected = fallback.topk_indices(terms, 3, 3)
    assert selected == [(0, expect0), (2, 0.25 + expect2)]  # document 1 scores 0


def _full_sort_topk(scores, topk):
    positive = [i for i in range(len(scores)) if scores[i] > 0.0]
    return sorted(positive, key=lambda i: (-scores[i], i))[:topk]


def _random_scores(rng, case):
    """Scores for one selection case, as a list: few distinct values, so ties
    sit at and straddle the k-th score, from all zero up to all positive, with
    negative zero and negative values among the non-positive ones."""
    docs = rng.randint(1, 40)
    values = [0.0, 0.0, 0.5, 1.0, 1.0, 2.5, 7.0] if case % 2 else [0.0, 0.3, 1.1]
    density = rng.choice((0.0, 0.1, 0.5, 1.0))
    zeros = (0.0, -0.0, -0.0, -1.5) if case % 3 == 0 else (0.0,)
    scores = [rng.choice(values) if rng.random() < density else rng.choice(zeros)
              for _ in range(docs)]
    if case % 5 == 0:  # distinct values as well
        scores = [s * rng.uniform(0.5, 1.5) for s in scores]
    return scores


def _split_terms(scores, rng):
    """Terms over len(scores) documents that give each its score: each
    positive one is its document's impact in one of a few terms, so it is
    also its exact sum."""
    docs_of = {}
    for d, score in enumerate(scores):
        if score > 0.0:
            docs_of.setdefault(rng.randrange(3), []).append(d)
    terms = []
    for docs in docs_of.values():
        impacts = array("d", [scores[d] for d in docs])
        terms.append((array("i", docs), impacts, max(impacts)))
    return terms


def test_topk_indices_equals_full_sort():
    rng = random.Random(3)
    for case in range(600):
        scores = _random_scores(rng, case)
        terms = _split_terms(scores, rng)
        docs = len(scores)
        for topk in (1, 2, 3, 5, docs, docs + 7):
            expected = _full_sort_topk(scores, topk)
            assert fallback.topk_indices(terms, docs, topk) == [(i, scores[i]) for i in expected]
    for scores, topk, expected in [([0.0, 0.0], 3, []), ([0.0, -0.0, -0.0], 1, []),
                                   ([1.0, 2.0, 2.0, 2.0, 0.0], 2, [1, 2]), ([], 4, [])]:
        selected = fallback.topk_indices(_split_terms(scores, rng), len(scores), topk)
        assert [i for i, _ in selected] == expected


def _one_term(scores):
    """One term, in every document, that gives each its score."""
    return [(array("i", range(len(scores))), array("d", scores), max(scores, default=0.0))]


def test_topk_indices_on_one_term_equals_full_sort(compiled):
    """Both selections over a single term's raw scores, against the full
    sort: ties at the k-th score, all zeros, fewer positive scores than k, k
    past the size, negative zero, the smallest subnormal and infinity."""
    rng = random.Random(41)
    cases = [_random_scores(rng, case) for case in range(600)]
    cases += [[], [0.0], [-0.0, 0.0, -0.0], [0.0, 5e-324, -5e-324], [float("inf"), 1.0],
              [1.0, 2.0, 2.0, 2.0, 0.0], [3.0] * 9]
    for scores in cases:
        terms = _one_term(scores)
        docs = len(scores)
        for topk in {1, 2, 3, 5, 20, docs - 1, docs, docs + 7, 2**40} - {-1, 0}:
            expected = [(i, scores[i]) for i in _full_sort_topk(scores, topk)]
            assert compiled.topk_indices(terms, docs, topk) == expected
            assert fallback.topk_indices(terms, docs, topk) == expected


def test_lexical_index_compiled_equals_pure(compiled, monkeypatch):
    """A whole retrieval on either backend's kernels: the same hits and the
    same float scores as the exhaustive scorer."""
    rng = random.Random(8128)
    vocab = [f"w{rank}" for rank in range(1, 301)]
    weights = [1.0 / rank ** 1.1 for rank in range(1, 301)]
    texts = {f"p{i:04d}": " ".join(rng.choices(vocab, weights, k=rng.randint(3, 40)))
             for i in range(200)}
    store = CorpusStore(Passage(id=pid, text=text) for pid, text in texts.items())
    queries = [" ".join(rng.choices(vocab, weights, k=rng.randint(1, 5))) for _ in range(40)]
    for kernels in (fallback, compiled):
        for name in ("bm25_impacts", "topk_indices"):
            monkeypatch.setattr(retrieval, name, getattr(kernels, name))
        index = retrieval.LexicalIndex(store)
        for query in queries + ["absent", "w1 w1 w2"]:
            for topk in (1, 5, 250):
                assert list(index.retrieve(query, topk)) == bm25_rank(texts, query, topk)


def _pruning_corpus(rng, passages):
    """Passages that all hold "every", mostly hold the frequent f0-f3, and
    hold up to three of the rare r0-r39; a passage repeats up to four times in
    a row, so equal scores sit on and across the pruning threshold."""
    texts = {}
    while len(texts) < passages:
        words = (["every"] + rng.choices(["f0", "f1", "f2", "f3"], k=rng.randint(1, 12))
                 + rng.sample([f"r{i}" for i in range(40)], rng.randint(0, 3)))
        text = " ".join(rng.sample(words, len(words)))
        for _ in range(rng.choice((1, 1, 2, 4))):
            texts[f"p{len(texts):04d}"] = text
    return texts


def test_pruned_retrieval_matches_exhaustive_oracle(kernels):
    """The pure selection skips terms, yet every hit and every float score is
    the exhaustive scorer's, at k from 1 to past the corpus size; so are the
    compiled one's, which adds every posting."""
    rng = random.Random(1995)
    for _corpus in range(6):
        texts = _pruning_corpus(rng, rng.randint(60, 240))
        index = retrieval.LexicalIndex(CorpusStore(
            Passage(id=pid, text=text) for pid, text in texts.items()))
        n = len(texts)
        for _query in range(25):
            words = (rng.sample([f"r{i}" for i in range(40)], rng.randint(1, 3))
                     + rng.sample(["every", "f0", "f1", "f2", "f3"], rng.randint(2, 3)))
            words += rng.choice(([], [words[0]], ["absent"], [words[-1], "absent"]))
            query = " ".join(rng.sample(words, len(words)))
            ranking = bm25_rank(texts, query, n)
            for topk in (1, 2, 5, n, n + 3):
                assert list(index.retrieve(query, topk)) == ranking[:topk], (query, topk)


def test_pure_selection_keeps_a_tie_that_rounding_splits():
    """Both documents score (a + b) + c = 1.1 in query order, but added in
    descending bound order document 0 has 1.0999999999999999 and document 1
    1.1: only the threshold's slack keeps document 0, first on the tie."""
    terms = [(array("i", [0, 1]), array("d", impacts), max(impacts))
             for impacts in ([0.2, 0.1], [0.3, 0.3], [0.6, 0.7])]
    assert fallback.topk_indices(terms, 100, 1) == [(0, 1.1)]


class _Unreadable(array):
    """Postings that may be indexed but not iterated."""

    def __iter__(self):
        raise AssertionError("the postings of a skippable term were read")


def test_pure_selection_skips_a_term_in_every_passage(monkeypatch):
    monkeypatch.setattr(retrieval, "topk_indices", fallback.topk_indices)
    texts = {f"p{i:04d}": "every day" for i in range(1000)}
    for i in (3, 10, 400, 401, 777, 901):
        texts[f"p{i:04d}"] = "every rare day"
    for i in (10, 55, 401, 998):
        texts[f"p{i:04d}"] += " odd"
    index = retrieval.LexicalIndex(CorpusStore(
        Passage(id=pid, text=text) for pid, text in texts.items()))
    assert index.retrieve("rare", 1)  # builds the index
    doc_indices, impacts, bound = index._built["every"]
    index._built["every"] = (_Unreadable("i", doc_indices), _Unreadable("d", impacts), bound)
    for topk in (1, 2, 5):
        query = "rare every odd"
        assert list(index.retrieve(query, topk)) == bm25_rank(texts, query, topk)


def test_lcs_length_matches_full_table_oracle():
    rng = random.Random(99)
    for _ in range(200):
        left = [rng.randrange(6) for _ in range(rng.randint(0, 30))]
        right = [rng.randrange(6) for _ in range(rng.randint(0, 30))]
        expected = lcs_len(left, right)
        assert fallback.lcs_length(array("i", left), array("i", right)) == expected
        if _core is not None:
            assert _core.lcs_length(array("i", left), array("i", right)) == expected


def test_lcs_length_edges():
    empty = array("i")
    seq = array("i", [1, 2, 3])
    assert fallback.lcs_length(empty, seq) == 0
    assert fallback.lcs_length(seq, empty) == 0
    assert fallback.lcs_length(seq, seq) == 3
    assert fallback.lcs_length(array("i", [1, 2]), array("i", [3, 4])) == 0
