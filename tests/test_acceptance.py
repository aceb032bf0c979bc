"""Release gate: every criterion runs end to end with its stated tolerance
and time limit, printing one verdict line per criterion."""

import dataclasses
import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

from contregen import analysis, baselines
from contregen.corpus import (
    ArticleDump,
    CorpusStore,
    Passage,
    QueryRecord,
    build_wikihow_benchmark,
)
from contregen.llm import LlmGateway, ScriptedAdapter, load_templates
from contregen.metrics import recall, rouge_l
from contregen.retrieval import LexicalIndex, RetrieverHandle
from contregen.runtrace import RunConfig, diff_traces, load_trace, run
from contregen.synthesis import synthesize
from contregen.tree import TreeConfig, build_tree, collect_passages

from conftest import (
    ACCT_ROOT,
    FACET_A,
    GOLD_IDS,
    QUESTION_NODE,
    ROOT_QUERY,
    DigraphRetriever,
    accounting_corpus,
    accounting_fixtures,
    contregen_fixtures,
    iterretgen_fixtures,
    planted_corpus,
    planted_query,
    random_blueprint,
    random_digraph,
    random_half,
    rejected_subquestions,
    retgen_fixtures,
    write_fixture_file,
)
from oracles import (
    bm25_rank,
    check_invariants,
    count_calls,
    per_round_sets,
    reachable_from,
    recall_count,
    rouge_from_lcs,
)

TEMPLATES = load_templates()


def _verdict(number: int, label: str, started: float, limit: float) -> None:
    elapsed = time.monotonic() - started
    print(f"criterion {number} ({label}): PASS in {elapsed:.2f}s (limit {limit:.0f}s)")
    assert elapsed < limit, f"criterion {number} took {elapsed:.2f}s, limit {limit}s"


def _match_blueprint(node, expected, config, rejected):
    assert node.query == expected["query"]
    assert node.depth <= config.max_depth
    assert len(node.children) <= config.max_plan_size
    # accepted children appear in plan order under their rewritten queries,
    # and the recorded calls turn down exactly the rest
    assert [c.query for c in node.children] == [c["query"] for c in expected["children"]]
    assert rejected.get(node.path, []) == expected["rejected"]
    for child, child_expected in zip(node.children, expected["children"]):
        _match_blueprint(child, child_expected, config, rejected)


def test_criterion_1_tree_invariants_hold_on_randomized_builds():
    store = accounting_corpus()
    handle = RetrieverHandle(LexicalIndex(store), store)
    master = random.Random(20_24)
    started = time.monotonic()
    for _ in range(1000):
        rng = random.Random(master.randrange(2**32))
        config = TreeConfig(max_depth=rng.randint(0, 3),
                            max_plan_size=rng.randint(1, 5))
        root_query, expected, fixtures = random_blueprint(
            rng, config.max_depth, config.max_plan_size)
        calls = []
        gateway = LlmGateway(ScriptedAdapter(fixtures), TEMPLATES, on_call=calls.append)
        root = build_tree(gateway, handle, root_query, config)
        check_invariants(root, config)
        _match_blueprint(root, expected, config, rejected_subquestions(calls))
    _verdict(1, "tree invariants, 1000 randomized builds", started, 10.0)


def test_criterion_2_retrieval_matches_exhaustive_oracle(kernels):
    master = random.Random(31_337)
    vocab = ["ant", "bat", "cat", "dot", "eel", "fig", "gem", "hat",
             "ink", "jar", "key", "log"]
    started = time.monotonic()
    for _ in range(200):
        rng = random.Random(master.randrange(2**32))
        texts = {f"p{i:03d}": " ".join(rng.choices(vocab, k=rng.randint(1, 12)))
                 for i in range(rng.randint(1, 100))}
        store = CorpusStore(Passage(id=pid, text=text)
                            for pid, text in texts.items())
        index = LexicalIndex(store)
        for _ in range(2):
            query = " ".join(rng.choices(vocab, k=rng.randint(1, 5)))
            topk = rng.randint(1, len(texts) + 5)
            got = list(index.retrieve(query, topk))
            assert got == bm25_rank(texts, query, topk)  # ids, scores, tie-breaks
    _verdict(2, "BM25 ranking vs exhaustive oracle, 200 corpora", started, 30.0)


def test_criterion_3_reachability_matches_closure_oracle():
    master = random.Random(77_777)
    started = time.monotonic()
    for _ in range(100):
        rng = random.Random(master.randrange(2**32))
        nodes, edges = random_digraph(rng, max_nodes=12, max_edges=24)
        retriever = DigraphRetriever(edges)
        query = QueryRecord(id="q", query=QUESTION_NODE, gold_ids=frozenset(nodes))
        rep, nrep = analysis.reachability(retriever, query, topk=5)
        assert rep == reachable_from(QUESTION_NODE, nodes, edges)
        assert rep | nrep == nodes
        assert sorted(retriever.probes) == sorted([QUESTION_NODE, *rep])

        retrieved = random_half(rng, nodes)
        rep_recall, nrep_recall = analysis.recall_by_split(retrieved, rep, nrep)
        recombined = ((rep_recall or 0.0) * len(rep)
                      + (nrep_recall or 0.0) * len(nrep)) / len(nodes)
        assert abs(recombined - recall(retrieved, nodes)) <= 1e-12
    _verdict(3, "reachability split vs closure oracle, 100 digraphs", started, 5.0)


def test_criterion_3_draw_repeats_under_any_hash_seed():
    """The recall sample criterion 3 draws from a set of passage ids is the
    same under every hash seed, so the criterion checks the same data on
    every run."""
    probe = ("import random; from conftest import random_half; "
             "print(sorted(random_half(random.Random(5), {f'n{i}' for i in range(12)})))")
    tests = Path(__file__).resolve().parent
    path = os.pathsep.join([str(tests), str(tests.parent / "src")])
    draws = {subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                            check=True, env={**os.environ, "PYTHONPATH": path,
                                             "PYTHONHASHSEED": seed}).stdout
             for seed in ("1", "2", "3")}
    assert len(draws) == 1, draws


def test_criterion_4_planted_facet_end_to_end():
    store = planted_corpus()
    record = planted_query()
    handle = RetrieverHandle(LexicalIndex(store), store)
    texts = {p.id: p.text for p in store}
    started = time.monotonic()

    # the corpus construction itself: the question alone reaches facet A only
    root_hits = {pid for pid, _ in bm25_rank(texts, ROOT_QUERY, 5)}
    assert root_hits & set(GOLD_IDS) == set(FACET_A)

    gateway = LlmGateway(ScriptedAdapter(contregen_fixtures()), TEMPLATES)
    root = build_tree(gateway, handle, ROOT_QUERY, TreeConfig())
    synthesize(gateway, root, handle.text)
    assert recall(collect_passages(root), record.gold_ids) == 1.0

    gateway = LlmGateway(ScriptedAdapter(retgen_fixtures()), TEMPLATES)
    flat = baselines.run_retgen(gateway, handle, ROOT_QUERY, topk=5)
    assert recall(flat.retrieved_ids, record.gold_ids) == len(FACET_A) / len(GOLD_IDS)

    gateway = LlmGateway(ScriptedAdapter(iterretgen_fixtures()), TEMPLATES)
    chained = baselines.run_iterretgen(gateway, handle, ROOT_QUERY, topk=5,
                                       max_iterations=5)
    curve = analysis.recall_curve(per_round_sets(chained), record.gold_ids)
    assert len(curve) == 5
    assert all(value == len(FACET_A) / len(GOLD_IDS) for value in curve)  # plateau
    _verdict(4, "planted-facet recall 1.0 vs 1/3 plateau", started, 10.0)


def test_criterion_5_call_accounting():
    store = accounting_corpus()
    handle = RetrieverHandle(LexicalIndex(store), store)
    started = time.monotonic()

    calls = []
    gateway = LlmGateway(ScriptedAdapter(accounting_fixtures()), TEMPLATES,
                         on_call=calls.append)
    root = build_tree(gateway, handle, ACCT_ROOT, TreeConfig(max_depth=2))
    synthesize(gateway, root, handle.text)
    counts = count_calls(calls)
    assert counts["total"] == 28
    assert counts["plan"] == 3
    assert counts["necessity"] == counts["rewrite"] == counts["relevance"] == 6
    assert counts["summarize_leaf"] == 4
    assert counts["merge_intermediate"] == 2
    assert counts["generate_root"] == 1

    calls = []
    gateway = LlmGateway(ScriptedAdapter(
        {"baseline_generate": {ACCT_ROOT: "answer"}}), TEMPLATES,
        on_call=calls.append)
    baselines.run_retgen(gateway, handle, ACCT_ROOT, topk=3)
    assert count_calls(calls)["total"] == 1

    calls = []
    gateway = LlmGateway(ScriptedAdapter(
        {"baseline_generate": {ACCT_ROOT: [f"round {i}" for i in range(5)]}}),
        TEMPLATES, on_call=calls.append)
    baselines.run_iterretgen(gateway, handle, ACCT_ROOT, topk=3, max_iterations=5)
    assert count_calls(calls)["total"] == 5
    _verdict(5, "LLM call accounting 28 / 1 / 5", started, 5.0)


def test_criterion_6_metric_correctness():
    rng = random.Random(112_358)
    vocab = ["alpha", "beta", "gamma", "delta", "epsilon", "zeta", "eta"]
    started = time.monotonic()
    for _ in range(500):
        text = " ".join(rng.choices(vocab, k=rng.randint(1, 20)))
        assert rouge_l(text, text) == 100.0

    worked = rouge_l("the cat sat", "the cat ran fast")
    assert abs(worked - 57.14) <= 0.01
    assert abs(worked - rouge_from_lcs("the cat sat".split(),
                                       "the cat ran fast".split())) <= 0.01

    universe = [f"p{i}" for i in range(30)]
    for _ in range(500):
        retrieved = rng.sample(universe, rng.randint(0, 15))
        gold = rng.sample(universe, rng.randint(1, 15))
        assert recall(retrieved, gold) == recall_count(retrieved, gold)
    _verdict(6, "rouge identity x500, worked example, recall oracle x500",
             started, 10.0)


def test_criterion_7_determinism_and_replay(planted, tmp_path):
    fixtures = write_fixture_file(planted["dir"], contregen_fixtures())
    trace_path = tmp_path / "out" / "trace.json"
    config = RunConfig(corpus_path=str(planted["corpus"]),
                       queries_path=str(planted["queries"]),
                       out_dir=str(tmp_path / "out"),
                       fixtures_path=str(fixtures),
                       cache_dir=str(tmp_path / "cache"))
    started = time.monotonic()

    run(config)
    first = trace_path.read_bytes()
    run(config)
    assert trace_path.read_bytes() == first

    replayed = run(dataclasses.replace(config, replay=True))
    assert replayed.backend_stats == {"llm_backend_calls": 0,
                                      "retrieval_backend_calls": 0}
    assert trace_path.read_bytes() == first
    assert diff_traces(json.loads(first), load_trace(trace_path)) == []
    _verdict(7, "byte-identical traces, zero-call replay, empty diff",
             started, 10.0)


def test_criterion_8_wikihow_builder_and_facet_coverage():
    started = time.monotonic()
    dumps = [
        ArticleDump(
            title=f"how to finish project {n}",
            summary=f"short summary {n}",
            methods=[(f"method {m} of {n}",
                      [f"project {n} method {m} step {s}" for s in range(3)])
                     for m in range(2)],
        )
        for n in range(3)
    ]
    passages, queries = build_wikihow_benchmark(dumps)
    assert len(passages) == 18
    assert len(queries) == 3
    avg = sum(len(q.gold_ids) for q in queries) / len(queries)
    assert avg == 6.0

    three_way = ArticleDump(
        title="how to pick one of three ways",
        summary="s",
        methods=[(f"way {m}", [f"way {m} only step"]) for m in range(3)],
    )
    _, (query,) = build_wikihow_benchmark([three_way])
    two_of_three = sorted(query.gold_ids)[:2]
    coverage = analysis.facet_coverage(two_of_three, query.facet_of)
    assert abs(coverage - 2.0 / 3.0) <= 1e-12
    _verdict(8, "article builder 18/3/6.0 and 2-of-3 coverage", started, 1.0)


_FULL_ENV = ("OPENAI_API_KEY", "CONTREGEN_FULL_MODEL",
             "CONTREGEN_FULL_CORPUS", "CONTREGEN_FULL_QUERIES")


@pytest.mark.skipif(not all(os.environ.get(name) for name in _FULL_ENV),
                    reason="full-backend run needs " + ", ".join(_FULL_ENV))
def test_criterion_9_full_backend_schema_and_monotone_curves(tmp_path):
    """Optional live run: checks report shape and curve monotonicity only;
    numbers are model-dependent and deliberately unasserted."""
    base = RunConfig(adapter="openai",
                     model=os.environ["CONTREGEN_FULL_MODEL"],
                     corpus_path=os.environ["CONTREGEN_FULL_CORPUS"],
                     queries_path=os.environ["CONTREGEN_FULL_QUERIES"],
                     cache_dir=str(tmp_path / "cache"))

    trace = run(dataclasses.replace(base, method="contregen",
                                    out_dir=str(tmp_path / "contregen")))
    assert trace.report is not None
    for qid, section in trace.queries.items():
        assert section.error is None, f"{qid}: {section.error}"
        row = trace.report["per_query"][qid]
        assert set(row) == {"recall", "rouge_l", "em"}
    assert "recall" in trace.report["aggregates"]

    chained = run(dataclasses.replace(base, method="iterretgen",
                                      out_dir=str(tmp_path / "iterretgen")))
    for qid, section in chained.queries.items():
        assert section.rounds, f"{qid} recorded no rounds"
        sizes = [len(set(ids)) for ids in section.rounds]
        assert sizes == sorted(sizes), f"{qid} evidence set shrank"
    print("criterion 9 (full-backend schema and monotone curves): PASS")
