import random

import pytest

from contregen.analysis import (
    PROBE_TOKEN_LIMIT,
    curve_csv,
    facet_coverage,
    reachability,
    recall_by_split,
    recall_curve,
)
from contregen.corpus import CorpusStore, Passage, QueryRecord
from contregen.retrieval import LexicalIndex, RetrieverHandle, tokenize

from conftest import QUESTION_NODE, DigraphRetriever, random_digraph
from oracles import bm25_rank, reachable_from


def _handle(texts: dict[str, str], on_call=None) -> RetrieverHandle:
    store = CorpusStore(Passage(id=pid, text=text) for pid, text in texts.items())
    return RetrieverHandle(LexicalIndex(store), store, on_call=on_call)


def _query(qid, text, gold):
    return QueryRecord(id=qid, query=text, gold_ids=frozenset(gold))


def test_chain_everything_reachable():
    texts = {
        "a": "alpha bridge beta",
        "b": "beta gamma",
        "d1": "unrelated filler words",
        "d2": "more filler noise here",
    }
    handle = _handle(texts)
    assert [pid for pid, _ in handle.retrieve("alpha", 5)] == ["a"]  # b only through a
    rep, nrep = reachability(handle, _query("q", "alpha", ["a", "b"]), topk=5)
    assert rep == {"a", "b"}
    assert nrep == frozenset()


def test_isolated_gold_lands_in_nrep():
    texts = {
        "a": "alpha bridge beta",
        "c": "zeta eta",
        "d1": "unrelated filler words",
    }
    handle = _handle(texts)
    rep, nrep = reachability(handle, _query("q", "alpha", ["a", "c"]), topk=5)
    assert rep == {"a"}
    assert nrep == {"c"}


def test_unreached_gold_is_never_probed():
    texts = {
        "a": "alpha bridge beta",
        "c": "zeta eta",
        "d1": "unrelated filler words",
    }
    probes = []
    handle = _handle(texts, on_call=lambda call: probes.append(call.query))
    reachability(handle, _query("q", "alpha", ["a", "c"]), topk=5)
    assert probes == ["alpha", "alpha bridge beta"]  # the question, then a; never c


def test_a_non_gold_hit_carries_no_reach():
    texts = {
        "a": "alpha delta",
        "x": "alpha bridge",  # the question hits it, and it would hit b, but it is not gold
        "b": "bridge gamma",
    }
    handle = _handle(texts)
    assert "b" in {pid for pid, _ in handle.retrieve(texts["x"], 3)}
    rep, nrep = reachability(handle, _query("q", "alpha", ["a", "b"]), topk=3)
    assert rep == {"a"}
    assert nrep == {"b"}


def test_empty_gold_rejected():
    handle = _handle({"a": "alpha"})
    with pytest.raises(ValueError):
        reachability(handle, _query("q", "alpha", []), topk=3)


def test_split_matches_probe_oracle():
    rng = random.Random(909)
    vocab = ["ant", "bee", "cow", "dog", "eel", "fox", "gnu", "hen"]
    for _ in range(25):
        texts = {f"p{i:02d}": " ".join(rng.choices(vocab, k=rng.randint(2, 8)))
                 for i in range(10)}
        gold = rng.sample(sorted(texts), rng.randint(1, 5))
        query_text = " ".join(rng.choices(vocab, k=3))
        handle = _handle(texts)
        rep, nrep = reachability(handle, _query("q", query_text, gold), topk=4)

        edges = set()
        for pid, _score in bm25_rank(texts, query_text, 4):
            if pid in gold:
                edges.add((QUESTION_NODE, pid))
        for source in gold:
            probe = " ".join(tokenize(texts[source])[:PROBE_TOKEN_LIMIT])
            for target, _score in bm25_rank(texts, probe, 4):
                if target in gold and target != source:
                    edges.add((source, target))
        assert rep == reachable_from(QUESTION_NODE, set(gold), edges)
        assert nrep == set(gold) - rep


def test_probe_respects_token_limit():
    pad = " ".join(f"pad{i}" for i in range(PROBE_TOKEN_LIMIT))
    texts = {
        "far": pad + " linkterm",  # linkterm sits past the probe cutoff
        "near": "linkterm padnear",
        "t": "linkterm linkterm",
    }
    handle = _handle(texts)
    assert "t" in {pid for pid, _ in handle.retrieve(texts["far"], 5)}  # uncut, far hits t
    rep, _ = reachability(handle, _query("q", "padnear", ["near", "t"]), topk=5)
    assert rep == {"near", "t"}
    rep, nrep = reachability(handle, _query("q", "pad0", ["far", "t"]), topk=5)
    assert rep == {"far"}
    assert nrep == {"t"}


def test_split_matches_closure_oracle_randomized():
    rng = random.Random(515)
    for _ in range(200):
        nodes, edges = random_digraph(rng, max_nodes=8, max_edges=14)
        retriever = DigraphRetriever(edges)
        rep, nrep = reachability(retriever, _query("q", QUESTION_NODE, nodes), topk=5)
        oracle = reachable_from(QUESTION_NODE, nodes, edges)
        assert rep == oracle
        assert nrep == nodes - oracle
        assert sorted(retriever.probes) == sorted([QUESTION_NODE, *rep])


def test_recall_by_split_values():
    rep, nrep = recall_by_split(["a", "b", "c", "x", "q"], frozenset("abcd"), frozenset("xyz"))
    assert rep == 0.75
    assert abs(nrep - 1.0 / 3.0) < 1e-12


def test_recall_by_split_empty_class_is_none():
    assert recall_by_split(["a"], frozenset("ab"), frozenset()) == (0.5, None)
    assert recall_by_split(["a"], frozenset(), frozenset("ab")) == (None, 0.5)
    with pytest.raises(ValueError):
        recall_by_split(["a"], frozenset(), frozenset())


def test_facet_coverage_values():
    facet_of = {"p1": "visual", "p2": "visual", "p3": "scanner", "p4": "light"}
    assert abs(facet_coverage(["p1", "p3"], facet_of) - 2.0 / 3.0) < 1e-12
    assert facet_coverage(["p1", "p3", "p4"], facet_of) == 1.0
    assert facet_coverage(["p9"], facet_of) == 0.0  # unknown ids ignored
    assert facet_coverage([], facet_of) == 0.0
    with pytest.raises(ValueError):
        facet_coverage(["p1"], {})


def test_recall_curve_nested_rounds():
    gold = ["a", "b", "c"]
    curve = recall_curve([{"a"}, {"a", "b"}], gold)
    assert abs(curve[0] - 1.0 / 3.0) < 1e-12
    assert abs(curve[1] - 2.0 / 3.0) < 1e-12
    assert curve == sorted(curve)


def test_recall_curve_rejects_non_nested_rounds():
    with pytest.raises(ValueError, match="^round 1 is not a superset of round 0$"):
        recall_curve([{"a", "b"}, {"b"}], ["a", "b"])


def test_curve_csv_layout():
    text = curve_csv({"retgen": [0.5], "contregen": [1.0 / 3.0, 1.0]})
    lines = text.splitlines()
    assert lines[0] == "method,round_1,round_2"
    assert lines[1] == "contregen,0.333333,1.000000"
    assert lines[2] == "retgen,0.500000,"  # shorter curves pad with blanks
    assert curve_csv({}) == "method,\n"
