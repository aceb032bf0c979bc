import importlib.util
import inspect
import random
import re
import shlex
import shutil
import subprocess
import sysconfig
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


@pytest.fixture(scope="module")
def compiled(tmp_path_factory):
    """The compiled kernels, built from ``_core.c`` into a temporary directory.

    Built with the interpreter's own compile and link flags plus the flags
    setup.py adds, with every warning an error, and loaded from there without
    touching ``sys.modules``, so no extension lands in the source tree to
    switch the active backend.
    """
    link = shlex.split(sysconfig.get_config_var("LDSHARED") or "")
    include = sysconfig.get_paths()["include"]
    if not link or shutil.which(link[0]) is None:
        pytest.skip("no C compiler to build the compiled kernels")
    if not Path(include, "Python.h").is_file():
        pytest.skip("no Python.h to build the compiled kernels")
    out = tmp_path_factory.mktemp("core") / ("_core" + sysconfig.get_config_var("EXT_SUFFIX"))
    cmd = [*link, *shlex.split(sysconfig.get_config_var("CFLAGS") or ""),
           *shlex.split(sysconfig.get_config_var("CCSHARED") or ""),
           "-O2", "-ffp-contract=off", "-Wall", "-Wextra", "-Wno-unused-parameter", "-Werror",
           f"-I{include}", str(_CORE_SOURCE), "-o", str(out)]
    build = subprocess.run(cmd, capture_output=True, text=True)
    assert build.returncode == 0, build.stderr
    spec = importlib.util.spec_from_file_location("_core", out)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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
_SHARED = ("new_scores", "bm25_accumulate")  # the score container's, from fallback.py


def test_backend_constant_matches_import():
    active = _core if _core is not None else fallback
    assert _kernels.BACKEND == ("compiled" if _core is not None else "pure")
    for name in _KERNELS:
        assert getattr(_kernels, name) is getattr(active, name)
    for name in (*_SHARED, "DeferredScores"):
        assert getattr(_kernels, name) is getattr(fallback, name)


def test_backends_export_the_same_kernels():
    """The compiled method table, read from source so that no compiler is
    needed, names exactly the pure backend's kernels; the pure backend's
    other public functions are the shared score container's."""
    source = _CORE_SOURCE.read_text(encoding="utf-8")
    table = re.search(r"static PyMethodDef core_methods\[\] = \{(.*?)\n\};", source, re.S)
    compiled_names = re.findall(r'\{"(\w+)", (\w+), METH_VARARGS, (\w+)_doc\}', table.group(1))
    assert all(name == fn == doc for name, fn, doc in compiled_names), compiled_names
    assert len(compiled_names) == table.group(1).count("METH_")
    pure_names = {name for name, obj in vars(fallback).items()
                  if inspect.isfunction(obj) and obj.__module__ == fallback.__name__
                  and not name.startswith("_")}
    assert {name for name, _, _ in compiled_names} == set(_KERNELS)
    assert pure_names == {*_KERNELS, *_SHARED}
    assert set(_kernels.__all__) == {"BACKEND", "DeferredScores", *_KERNELS, *_SHARED}


def _impacts(kernels, doc_idx, tfs, doc_norms, idf):
    """bm25_impacts run in place on a copy of tfs."""
    weights = array("d", tfs)
    kernels.bm25_impacts(weights, doc_idx, doc_norms, idf, K1)
    return weights


def _selected(kernels, scores, k):
    """What a retrieval reads: the top-k indices and their scores, bit for bit."""
    return [(i, score.hex()) for i, score in kernels.topk_indices(scores, k)]


def test_compiled_topk_bitwise_equals_pure_on_one_container(compiled):
    rng = random.Random(20240817)
    for _ in range(100):
        doc_norms = _random_norms(rng)
        docs = len(doc_norms)
        scores = fallback.new_scores(docs)  # the container both backends read
        assert _selected(compiled, scores, docs) == _selected(fallback, scores, docs) == []
        # record several terms so rounding differences would compound
        for _term in range(rng.randint(1, 5)):
            doc_idx, tfs, idf = _random_term(rng, docs)
            impacts = _impacts(compiled, doc_idx, tfs, doc_norms, idf)
            assert impacts.tobytes() == _impacts(fallback, doc_idx, tfs, doc_norms, idf).tobytes()
            fallback.bm25_accumulate(scores, doc_idx, impacts, max(impacts))
        for k in (1, 3, docs, docs + 2):
            assert _selected(compiled, scores, k) == _selected(fallback, scores, k)
    for _ in range(100):
        left = array("i", [rng.randrange(6) for _ in range(rng.randint(0, 30))])
        right = array("i", [rng.randrange(6) for _ in range(rng.randint(0, 30))])
        assert compiled.lcs_length(left, right) == fallback.lcs_length(left, right)


def _container(size, *terms):
    """A score container holding terms as given, past bm25_accumulate's checks."""
    scores = fallback.new_scores(size)
    scores.terms.extend(terms)
    return scores


def test_compiled_kernels_reject_bad_buffers(compiled):
    norms = array("d", [1.0, 1.0])
    weights = array("d", [7.0, 7.0, 7.0])  # term frequencies, or impacts to add
    three = array("i", [1, 1, 1])
    good = (array("i", [1]), array("d", [0.5]), 0.5)
    # an out-of-range index anywhere in the postings writes nothing at all
    for bad in (2, -1, 2**31 - 1, -2**31):
        for where in range(3):
            doc_idx = array("i", [0, 1, 1])
            doc_idx[where] = bad
            # the message names the index out of range
            message = rf"^document index {bad} out of range \({{}} 2\)$"
            with pytest.raises(IndexError, match=message.format("doc_norms")):
                compiled.bm25_impacts(weights, doc_idx, norms, 1.0, K1)
            with pytest.raises(IndexError, match=message.format("scores")):
                compiled.topk_indices(_container(2, good, (doc_idx, weights, 7.0)), 1)
    with pytest.raises(IndexError):  # doc_norms shorter than the documents indexed
        compiled.bm25_impacts(weights, array("i", [0, 1, 1]), norms[:1], 1.0, K1)
    assert weights.tobytes() == array("d", [7.0, 7.0, 7.0]).tobytes()
    # topk_indices checks the indices only against the container's size
    assert compiled.topk_indices(_container(2, good, good), 2) == [(1, 1.0)]
    for size, error in ((-1, ValueError), ("2", TypeError), (2.0, TypeError)):
        with pytest.raises(error):
            compiled.topk_indices(_container(size, good), 1)
    with pytest.raises(AttributeError):  # a raw score array is no container
        compiled.topk_indices(array("d", [1.0]), 1)
    with pytest.raises(TypeError):  # the bound is a required number
        compiled.topk_indices(_container(2, good[:2]), 1)
    with pytest.raises(TypeError):
        compiled.topk_indices(_container(2, (*good[:2], "0.5")), 1)
    for term in (list(good), 5):  # a term is a tuple
        with pytest.raises(TypeError):
            compiled.topk_indices(_container(2, term), 1)

    two = array("i", [0, 1])
    with pytest.raises(ValueError):  # weights shorter than the postings
        compiled.bm25_impacts(weights[:2], array("i", [0, 1, 1]), norms, 1.0, K1)
    with pytest.raises(ValueError):
        compiled.topk_indices(_container(2, (two, weights, 7.0)), 1)

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
            compiled.topk_indices(_container(2, (doc_idx, impacts, 1.0)), 1)

    with pytest.raises(BufferError):  # a read-only output
        compiled.bm25_impacts(bytes(24), three, norms, 1.0, K1)
    with pytest.raises(BufferError):  # not contiguous
        compiled.topk_indices(_container(
            2, (memoryview(array("i", [0, 1, 1]))[::2], array("d", [1.0, 2.0]), 2.0)), 1)
    with pytest.raises(TypeError):
        compiled.lcs_length(array("d", [1.0]), array("i", [1]))

    for k in (0, -1, -2**40):
        with pytest.raises(ValueError):
            compiled.topk_indices(_container(2, good), k)
        with pytest.raises(ValueError):
            fallback.topk_indices(_container(2, good), k)
    with pytest.raises(TypeError):
        compiled.topk_indices(_container(2, good), 1.5)


@pytest.mark.parametrize("backend", ["pure", "compiled"])
def test_rejected_bm25_impacts_leaves_the_term_frequencies(backend, request):
    """However bm25_impacts rejects its postings, weights still holds the
    caller's term frequencies: nothing is written before every check passes."""
    kernels = fallback if backend == "pure" else request.getfixturevalue("compiled")
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


@pytest.mark.parametrize("backend", ["pure", "compiled"])
def test_negative_document_index_is_rejected(backend, request):
    """A document index below 0 is an IndexError, never a write through
    Python's wrap-around to the last document."""
    kernels = fallback if backend == "pure" else request.getfixturevalue("compiled")
    scores = fallback.new_scores(2)
    with pytest.raises(IndexError):  # and records nothing
        fallback.bm25_accumulate(scores, array("i", [-1]), array("d", [1.0]), 1.0)
    assert _selected(kernels, scores, 2) == []
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
    scores = fallback.new_scores(3)
    fallback.bm25_accumulate(scores, array("i", [2]), array("d", [0.25]), 0.25)
    fallback.bm25_accumulate(scores, array("i", [0, 2]), impacts, max(impacts))
    selected = fallback.topk_indices(scores, 3)
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


def _pure_scores(scores, rng):
    """A pure score container holding scores: each positive one is its
    document's impact in one of a few terms, so it is also its exact sum."""
    container = fallback.new_scores(len(scores))
    terms = {}
    for d, score in enumerate(scores):
        if score > 0.0:
            terms.setdefault(rng.randrange(3), []).append(d)
    for docs in terms.values():
        impacts = array("d", [scores[d] for d in docs])
        fallback.bm25_accumulate(container, array("i", docs), impacts, max(impacts))
    return container


def test_topk_indices_equals_full_sort():
    rng = random.Random(3)
    for case in range(600):
        scores = _random_scores(rng, case)
        container = _pure_scores(scores, rng)
        docs = len(scores)
        for topk in (1, 2, 3, 5, docs, docs + 7):
            expected = _full_sort_topk(scores, topk)
            assert fallback.topk_indices(container, topk) == [(i, scores[i]) for i in expected]
    for scores, topk, expected in [([0.0, 0.0], 3, []), ([0.0, -0.0, -0.0], 1, []),
                                   ([1.0, 2.0, 2.0, 2.0, 0.0], 2, [1, 2]), ([], 4, [])]:
        assert [i for i, _ in fallback.topk_indices(_pure_scores(scores, rng), topk)] == expected


def _one_term(scores):
    """A container whose one term, in every document, gives each its score."""
    container = fallback.new_scores(len(scores))
    fallback.bm25_accumulate(container, array("i", range(len(scores))), array("d", scores),
                             max(scores, default=0.0))
    return container


def test_topk_indices_on_one_term_equals_full_sort(compiled):
    """Both selections over a single term's raw scores, against the full
    sort: ties at the k-th score, all zeros, fewer positive scores than k, k
    past the size, negative zero, the smallest subnormal and infinity."""
    rng = random.Random(41)
    cases = [_random_scores(rng, case) for case in range(600)]
    cases += [[], [0.0], [-0.0, 0.0, -0.0], [0.0, 5e-324, -5e-324], [float("inf"), 1.0],
              [1.0, 2.0, 2.0, 2.0, 0.0], [3.0] * 9]
    for scores in cases:
        container = _one_term(scores)
        docs = len(scores)
        for topk in {1, 2, 3, 5, 20, docs - 1, docs, docs + 7, 2**40} - {-1, 0}:
            expected = [(i, scores[i]) for i in _full_sort_topk(scores, topk)]
            assert compiled.topk_indices(container, topk) == expected
            assert fallback.topk_indices(container, topk) == expected


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


def _use_pure_kernels(monkeypatch):
    for name in ("bm25_impacts", "topk_indices"):
        monkeypatch.setattr(retrieval, name, getattr(fallback, name))


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


def test_pruned_retrieval_matches_exhaustive_oracle(monkeypatch):
    """The pure selection skips terms, yet every hit and every float score is
    the exhaustive scorer's, at k from 1 to past the corpus size."""
    _use_pure_kernels(monkeypatch)
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
    scores = fallback.new_scores(100)
    for impacts in ([0.2, 0.1], [0.3, 0.3], [0.6, 0.7]):
        fallback.bm25_accumulate(scores, array("i", [0, 1]), array("d", impacts), max(impacts))
    assert fallback.topk_indices(scores, 1) == [(0, 1.1)]


class _Unreadable(array):
    """Postings that may be indexed but not iterated."""

    def __iter__(self):
        raise AssertionError("the postings of a skippable term were read")


def test_pure_selection_skips_a_term_in_every_passage(monkeypatch):
    _use_pure_kernels(monkeypatch)
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
