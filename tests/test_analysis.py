import random

import pytest

from contregen.analysis import (
    PROBE_TOKEN_LIMIT,
    QUERY_SENTINEL,
    ReachabilityGraph,
    ReachSplit,
    build_reach_graph,
    curve_csv,
    facet_coverage,
    recall_by_split,
    recall_curve,
    split_reachability,
)
from contregen.corpus import CorpusStore, Passage, QueryRecord
from contregen.retrieval import LexicalIndex, RetrieverHandle, tokenize

from oracles import bm25_rank, reachable_from


def _handle(texts: dict[str, str]) -> RetrieverHandle:
    store = CorpusStore(Passage(id=pid, text=text) for pid, text in texts.items())
    return RetrieverHandle(LexicalIndex(store), store)


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
    graph = build_reach_graph(handle, _query("q", "alpha", ["a", "b"]), topk=5)
    assert (QUERY_SENTINEL, "a") in graph.edges
    assert ("a", "b") in graph.edges
    split = split_reachability(graph)
    assert split.rep_ids == {"a", "b"}
    assert split.nrep_ids == frozenset()


def test_isolated_gold_lands_in_nrep():
    texts = {
        "a": "alpha bridge beta",
        "c": "zeta eta",
        "d1": "unrelated filler words",
    }
    handle = _handle(texts)
    graph = build_reach_graph(handle, _query("q", "alpha", ["a", "c"]), topk=5)
    split = split_reachability(graph)
    assert split.rep_ids == {"a"}
    assert split.nrep_ids == {"c"}


def test_edges_are_gold_scoped_without_self_loops():
    texts = {
        "a": "alpha beta gamma",
        "b": "beta gamma delta",
        "x": "alpha beta gamma delta",  # matches everything but is not gold
    }
    handle = _handle(texts)
    graph = build_reach_graph(handle, _query("q", "alpha beta", ["a", "b"]), topk=3)
    for source, target in graph.edges:
        assert target in {"a", "b"}
        assert source in {"a", "b", QUERY_SENTINEL}
        assert source != target


def test_empty_gold_rejected():
    handle = _handle({"a": "alpha"})
    with pytest.raises(ValueError):
        build_reach_graph(handle, _query("q", "alpha", []), topk=3)


def test_graph_edges_match_probe_oracle():
    rng = random.Random(909)
    vocab = ["ant", "bee", "cow", "dog", "eel", "fox", "gnu", "hen"]
    for _ in range(25):
        texts = {f"p{i:02d}": " ".join(rng.choices(vocab, k=rng.randint(2, 8)))
                 for i in range(10)}
        gold = rng.sample(sorted(texts), rng.randint(1, 5))
        query_text = " ".join(rng.choices(vocab, k=3))
        handle = _handle(texts)
        graph = build_reach_graph(handle, _query("q", query_text, gold), topk=4)

        expected = set()
        for pid, _score in bm25_rank(texts, query_text, 4):
            if pid in gold:
                expected.add((QUERY_SENTINEL, pid))
        for source in gold:
            probe = " ".join(tokenize(texts[source])[:PROBE_TOKEN_LIMIT])
            for target, _score in bm25_rank(texts, probe, 4):
                if target in gold and target != source:
                    expected.add((source, target))
        assert graph.edges == expected


def test_probe_respects_token_limit():
    pad = " ".join(f"pad{i}" for i in range(PROBE_TOKEN_LIMIT))
    texts = {
        "far": pad + " linkterm",  # linkterm sits past the probe cutoff
        "near": "linkterm padnear",
        "t": "linkterm linkterm",
    }
    handle = _handle(texts)
    graph = build_reach_graph(handle, _query("q", "padnear", ["far", "near", "t"]),
                              topk=5)
    assert ("near", "t") in graph.edges
    assert ("far", "t") not in graph.edges


def test_split_matches_closure_oracle_randomized():
    rng = random.Random(515)
    for _ in range(200):
        nodes = {f"n{i}" for i in range(rng.randint(1, 8))}
        pool = sorted(nodes | {QUERY_SENTINEL})
        edges = set()
        for _ in range(rng.randint(0, 14)):
            source = rng.choice(pool)
            target = rng.choice(sorted(nodes))
            if source != target:
                edges.add((source, target))
        graph = ReachabilityGraph(query_id="q", passage_ids=frozenset(nodes),
                                  edges=frozenset(edges))
        split = split_reachability(graph)
        oracle = reachable_from(QUERY_SENTINEL, nodes, edges)
        assert split.rep_ids == oracle
        assert split.nrep_ids == nodes - oracle
        assert split.rep_ids | split.nrep_ids == nodes
        assert not split.rep_ids & split.nrep_ids


def test_recall_by_split_values():
    split = ReachSplit(rep_ids=frozenset("abcd"), nrep_ids=frozenset("xyz"))
    rep, nrep = recall_by_split(["a", "b", "c", "x", "q"], split)
    assert rep == 0.75
    assert abs(nrep - 1.0 / 3.0) < 1e-12


def test_recall_by_split_empty_class_is_none():
    split = ReachSplit(rep_ids=frozenset("ab"), nrep_ids=frozenset())
    assert recall_by_split(["a"], split) == (0.5, None)
    split = ReachSplit(rep_ids=frozenset(), nrep_ids=frozenset("ab"))
    assert recall_by_split(["a"], split) == (None, 0.5)
    with pytest.raises(ValueError):
        recall_by_split(["a"], ReachSplit(frozenset(), frozenset()))


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
    with pytest.raises(ValueError):
        recall_curve([{"a", "b"}, {"b"}], ["a", "b"])


def test_curve_csv_layout():
    text = curve_csv({"retgen": [0.5], "contregen": [1.0 / 3.0, 1.0]})
    lines = text.splitlines()
    assert lines[0] == "method,round_1,round_2"
    assert lines[1] == "contregen,0.333333,1.000000"
    assert lines[2] == "retgen,0.500000,"  # shorter curves pad with blanks
    assert curve_csv({}) == "method,\n"
