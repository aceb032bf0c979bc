"""Shared fixtures.

The planted-facet corpus is built so token overlap is fully controlled:
the root question shares vocabulary only with facet A, while facets B and C
are reachable only through the scripted sub-queries. Token-level disjointness
is asserted here at import of the fixture, not just assumed.
"""

from __future__ import annotations

import ast
import importlib.util
import itertools
import json
import random
import re
import shlex
import shutil
import subprocess
import sys
import sysconfig
import threading
import time
from pathlib import Path

import pytest

from contregen import KERNEL_BACKEND, _kernels, retrieval
from contregen._kernels import fallback
from contregen.corpus import CorpusStore, Passage, QueryRecord
from contregen.llm import LlmCache
from contregen.retrieval import RetrievalCache, tokenize
from contregen.verifier import parse_yes_no


def _setup_compile_args() -> list[str]:
    """The extra_compile_args setup.py builds the compiled kernels with."""
    setup = ast.parse(Path(__file__).resolve().parents[1].joinpath("setup.py").read_text())
    for node in ast.walk(setup):
        if isinstance(node, ast.keyword) and node.arg == "extra_compile_args":
            return ast.literal_eval(node.value)
    raise AssertionError("setup.py passes no extra_compile_args")


# What became of the session's compiled fixture, for the terminal summary.
COMPILED_STATE = pytest.StashKey[str]()


def pytest_terminal_summary(terminalreporter, config):
    """One line saying which kernels the session ran: the active backend, and
    whether the compiled kernels were built for the tests that compare them."""
    state = config.stash.get(COMPILED_STATE, "never requested")
    terminalreporter.write_line(f"kernels: KERNEL_BACKEND {KERNEL_BACKEND}; "
                                f"compiled fixture {state}")


@pytest.fixture(scope="session")
def compiled(tmp_path_factory, pytestconfig):
    """The compiled kernels, built from ``_core.c`` into a temporary directory.

    Built with the interpreter's own compile and link flags plus the flags
    setup.py adds, with every warning an error, and loaded from there without
    touching ``sys.modules``, so no extension lands in the source tree to
    switch the active backend.
    """
    link = shlex.split(sysconfig.get_config_var("LDSHARED") or "")
    include = sysconfig.get_paths()["include"]
    reason = None
    if not link or shutil.which(link[0]) is None:
        reason = "no C compiler to build the compiled kernels"
    elif not Path(include, "Python.h").is_file():
        reason = "no Python.h to build the compiled kernels"
    if reason:
        pytestconfig.stash[COMPILED_STATE] = f"skipped ({reason})"
        pytest.skip(reason)
    out = tmp_path_factory.mktemp("core") / ("_core" + sysconfig.get_config_var("EXT_SUFFIX"))
    cmd = [*link, *shlex.split(sysconfig.get_config_var("CFLAGS") or ""),
           *shlex.split(sysconfig.get_config_var("CCSHARED") or ""),
           *_setup_compile_args(), "-Wall", "-Wextra", "-Wno-unused-parameter", "-Werror",
           f"-I{include}", str(Path(_kernels.__file__).with_name("_core.c")), "-o", str(out)]
    pytestconfig.stash[COMPILED_STATE] = "failed to build"
    build = subprocess.run(cmd, capture_output=True, text=True)
    assert build.returncode == 0, build.stderr
    spec = importlib.util.spec_from_file_location("_core", out)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    pytestconfig.stash[COMPILED_STATE] = "built"
    return module


@pytest.fixture(params=["pure", "compiled"])
def kernels(request, monkeypatch):
    """One kernel backend, pure or compiled (skipped without a compiler), with
    ``contregen.retrieval`` running its ``bm25_impacts`` and ``topk_indices``
    for the test's duration."""
    module = fallback if request.param == "pure" else request.getfixturevalue("compiled")
    for name in ("bm25_impacts", "topk_indices"):
        monkeypatch.setattr(retrieval, name, getattr(module, name))
    return module


TESTS = Path(__file__).resolve().parent


@pytest.fixture(autouse=True)
def close_test_caches(monkeypatch):
    """Close, when a test ends, every cache the test's own code built, so that
    no append handle is left for the garbage collector to find during a later
    test. A cache the engine builds is not tracked: the engine must close it,
    or the ResourceWarning filter fails the test."""
    opened = []
    for cache_class in (LlmCache, RetrievalCache):  # each holds its own __init__
        def tracked(self, *args, _init=cache_class.__init__, **kwargs):
            _init(self, *args, **kwargs)
            if Path(sys._getframe(1).f_code.co_filename).parent == TESTS:
                opened.append(self)

        monkeypatch.setattr(cache_class, "__init__", tracked)
    yield
    for cache in opened:
        cache.close()


ROOT_QUERY = "how to detect hidden cameras and microphones"

FACET_A = {
    "a1": "detect hidden cameras by inspecting smoke detectors and wall fixtures closely",
    "a2": "hidden microphones often hide inside power strips and phone chargers",
    "a3": "a careful visual inspection can detect hidden cameras in rental apartments",
}
FACET_B = {
    "b1": "radio frequency scanners sweep rooms seeking transmitter signals",
    "b2": "scanner devices locate wireless transmitter signals near furniture",
    "b3": "commercial scanners flag strong radio frequency spikes instantly",
}
FACET_C = {
    "c1": "flashlight beams reveal lens reflections across dark corners",
    "c2": "lens glint appears when light strikes camera optics",
    "c3": "slow flashlight passes expose reflective lens glints",
}
DISTRACTORS = {
    "d1": "garden soil benefits from regular composting routines",
    "d2": "morning stretches improve posture over several weeks",
}

SUB_B = "radio frequency scanner transmitter signals"
SUB_C = "flashlight lens reflections glint"
PLAN_B_ITEM = "What tools pick up hidden transmitters?"
PLAN_C_ITEM = "How can reflections expose concealed optics?"

GOLD_IDS = sorted(FACET_A) + sorted(FACET_B) + sorted(FACET_C)

# Facet isolation, checked once up front: the root query must score only
# facet A, and each sub-query only its own facet.
_root_tokens = set(tokenize(ROOT_QUERY))
_bc_tokens = set()
for _text in list(FACET_B.values()) + list(FACET_C.values()):
    _bc_tokens |= set(tokenize(_text))
assert not (_root_tokens & _bc_tokens), _root_tokens & _bc_tokens
for _text in DISTRACTORS.values():
    _dtoks = set(tokenize(_text))
    assert not (_dtoks & _root_tokens)
    assert not (_dtoks & set(tokenize(SUB_B)))
    assert not (_dtoks & set(tokenize(SUB_C)))
_b_tokens = set()
for _text in FACET_B.values():
    _b_tokens |= set(tokenize(_text))
assert not (set(tokenize(SUB_C)) & _b_tokens)
_c_tokens = set()
for _text in FACET_C.values():
    _c_tokens |= set(tokenize(_text))
assert not (set(tokenize(SUB_B)) & _c_tokens)

ITERRETGEN_RESPONSES = [
    "inspect smoke detectors and wall fixtures closely",
    "hidden microphones hide inside power strips and phone chargers",
    "check rental apartments with careful visual inspection",
    "smoke detectors and power strips deserve close inspection",
    "visual inspection helps detect hidden cameras",
]
for _resp in ITERRETGEN_RESPONSES:
    assert not (set(tokenize(_resp)) & _bc_tokens), _resp


def planted_corpus() -> CorpusStore:
    store = CorpusStore()
    for table in (FACET_A, FACET_B, FACET_C, DISTRACTORS):
        for pid in sorted(table):
            store.add(Passage(id=pid, text=table[pid], meta={}))
    return store


def planted_query() -> QueryRecord:
    facet_of = {}
    for pid in FACET_A:
        facet_of[pid] = "visual"
    for pid in FACET_B:
        facet_of[pid] = "scanner"
    for pid in FACET_C:
        facet_of[pid] = "flashlight"
    return QueryRecord(
        id="q-planted",
        query=ROOT_QUERY,
        gold_ids=frozenset(GOLD_IDS),
        reference="inspect fixtures closely use scanners and flashlight checks",
        facet_of=facet_of,
        short_answers=None,
    )


def contregen_fixtures() -> dict:
    return {
        "plan": {
            ROOT_QUERY: f"1. {PLAN_B_ITEM}\n2. {PLAN_C_ITEM}",
            SUB_B: "no further sub-questions",
            SUB_C: "no further sub-questions",
        },
        "necessity": {PLAN_B_ITEM: "yes", PLAN_C_ITEM: "yes"},
        "rewrite": {PLAN_B_ITEM: SUB_B, PLAN_C_ITEM: SUB_C},
        "relevance": {SUB_B: "yes", SUB_C: "yes"},
        "summarize_leaf": {
            SUB_B: "Scanners locate hidden transmitters by their radio signals.",
            SUB_C: "A flashlight reveals camera lenses through glinting reflections.",
        },
        "generate_root": {
            ROOT_QUERY: "Inspect fixtures closely, sweep with a scanner, "
                        "and check for lens reflections with a flashlight.",
        },
    }


def retgen_fixtures() -> dict:
    return {"baseline_generate": {ROOT_QUERY: "Inspect fixtures and chargers closely."}}


def iterretgen_fixtures() -> dict:
    return {"baseline_generate": {ROOT_QUERY: list(ITERRETGEN_RESPONSES)}}


def selfask_fixtures() -> dict:
    return {
        "baseline_followup": {
            ROOT_QUERY: [
                f"Follow up: {SUB_B}",
                f"Follow up: {SUB_C}",
                "no follow-up",
            ],
        },
        "baseline_generate": {
            ROOT_QUERY: "Inspect, scan, and shine a flashlight.",
        },
    }


@pytest.fixture
def planted(tmp_path):
    """File layout for CLI and run() tests over the planted-facet corpus."""
    corpus_path = tmp_path / "corpus.jsonl"
    with corpus_path.open("w", encoding="utf-8") as fh:
        for table in (FACET_A, FACET_B, FACET_C, DISTRACTORS):
            for pid in sorted(table):
                fh.write(json.dumps({"id": pid, "text": table[pid]}) + "\n")
    record = planted_query()
    queries_path = tmp_path / "queries.jsonl"
    with queries_path.open("w", encoding="utf-8") as fh:
        fh.write(json.dumps({
            "id": record.id,
            "query": record.query,
            "gold_ids": sorted(record.gold_ids),
            "reference": record.reference,
            "facet_of": record.facet_of,
        }) + "\n")
    return {"corpus": corpus_path, "queries": queries_path, "dir": tmp_path}


def run_together(threads: int, worker) -> None:
    """worker(slot) for each slot in its own thread, all released at once by a
    barrier, with the interpreter switching threads as often as it can."""
    start = threading.Barrier(threads)

    def body(slot):
        start.wait(timeout=10)
        worker(slot)

    old_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        pool = [threading.Thread(target=body, args=(slot,)) for slot in range(threads)]
        for thread in pool:
            thread.start()
        for thread in pool:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(old_interval)
    assert not any(thread.is_alive() for thread in pool)


class NumberingAdapter:
    """A model that answers its nth call, counted from 0, with "answer n" after
    a 50 ms wait, so that concurrent callers overlap and no two answers match."""

    adapter_id = "numbering"

    def __init__(self) -> None:
        self.backend_calls = 0
        self._lock = threading.Lock()

    def complete(self, role, prompt, slots) -> str:
        with self._lock:
            number = self.backend_calls
            self.backend_calls += 1
        time.sleep(0.05)
        return f"answer {number}"


QUESTION_NODE = "__query__"


def random_digraph(rng: random.Random, max_nodes: int, max_edges: int):
    """(nodes, edges): passage nodes n0, n1, ... and edges from a node or
    QUESTION_NODE to a node, without self-loops."""
    nodes = {f"n{i}" for i in range(rng.randint(1, max_nodes))}
    pool = sorted(nodes | {QUESTION_NODE})
    edges = set()
    for _ in range(rng.randint(0, max_edges)):
        source, target = rng.choice(pool), rng.choice(sorted(nodes))
        if source != target:
            edges.add((source, target))
    return nodes, edges


def random_half(rng: random.Random, items) -> set:
    """Each of items with probability 1/2, drawn in sorted order: the order of
    a set of strings changes with the hash seed, and the draw must not."""
    return {item for item in sorted(items) if rng.random() < 0.5}


class DigraphRetriever:
    """A retriever over a digraph: a passage's text is its node's name, and the
    probe naming a node hits that node's out-edges. It records every probe."""

    def __init__(self, edges) -> None:
        self.hits: dict[str, list] = {}
        for source, target in sorted(edges):
            self.hits.setdefault(source, []).append((target, 1.0))
        self.probes: list[str] = []

    def retrieve(self, query_text: str, topk: int):
        self.probes.append(query_text)
        return self.hits.get(query_text, [])

    def text(self, passage_id: str) -> str:
        return passage_id


def write_fixture_file(tmp_path, fixtures: dict, name: str = "fixtures.json"):
    path = tmp_path / name
    path.write_text(json.dumps(fixtures), encoding="utf-8")
    return path


# --- fully-accepted two-branch, depth-2 fixture (call accounting) ---------

ACCT_ROOT = "shared root question"
ACCT_S1, ACCT_S2 = "shared branch one", "shared branch two"
ACCT_LEAVES = ["shared leaf one a", "shared leaf one b",
               "shared leaf two a", "shared leaf two b"]


def accounting_corpus() -> CorpusStore:
    store = CorpusStore()
    for index in range(3):
        store.add(Passage(id=f"p{index}", text=f"shared evidence passage {index}",
                          meta={}))
    return store


def accounting_fixtures() -> dict:
    plan = {
        ACCT_ROOT: "1. branch one item\n2. branch two item",
        ACCT_S1: "1. leaf one a item\n2. leaf one b item",
        ACCT_S2: "1. leaf two a item\n2. leaf two b item",
    }
    items = ["branch one item", "branch two item", "leaf one a item",
             "leaf one b item", "leaf two a item", "leaf two b item"]
    rewrites = dict(zip(items, [ACCT_S1, ACCT_S2] + ACCT_LEAVES))
    return {
        "plan": plan,
        "necessity": {item: "yes" for item in items},
        "rewrite": rewrites,
        "relevance": {target: "yes" for target in [ACCT_S1, ACCT_S2] + ACCT_LEAVES},
        "summarize_leaf": {leaf: f"summary of {leaf}" for leaf in ACCT_LEAVES},
        "merge_intermediate": {ACCT_S1: "merged branch one",
                               ACCT_S2: "merged branch two"},
        "generate_root": {ACCT_ROOT: "final synthesized answer"},
    }


# --- randomized tree blueprints (invariant fuzzing) -----------------------


def rejected_subquestions(calls) -> dict[str, list[str]]:
    """The sub-questions vetting turned down, in call order, by the path of the
    node that planned them, read from the recorded necessity and relevance
    calls: the planner's wording for an unnecessary one, the rewrite for an
    irrelevant one."""
    rejected: dict[str, list[str]] = {}
    for call in calls:
        if call.role in ("necessity", "relevance") and not parse_yes_no(call.response):
            task = call.prompt.split("=== task ===")[-1]
            (subquestion,) = re.findall(r"^Sub-question: (.*)$", task, re.MULTILINE)
            rejected.setdefault(call.node_path, []).append(subquestion)
    return rejected


def random_blueprint(rng: random.Random, max_depth: int, max_plan_size: int):
    """A random accept/reject tree plus the scripted fixtures realizing it.

    Every query contains the token "shared" so relevance probes always hit
    against the accounting corpus. Returns (root_query, expected, fixtures)
    where expected mirrors the accepted structure, and lists at each node the
    sub-questions it rejects as rejected_subquestions reads them.
    """
    counter = itertools.count()
    fixtures: dict = {"plan": {}, "necessity": {}, "rewrite": {},
                      "relevance": {}, "summarize_leaf": {},
                      "merge_intermediate": {}, "generate_root": {}}

    def build(query: str, depth: int) -> dict:
        node = {"query": query, "children": [], "rejected": []}
        if depth >= max_depth:
            return node
        plan_count = rng.randint(0, max_plan_size)
        if plan_count == 0:
            fixtures["plan"][query] = "nothing further"
            return node
        lines = []
        for position in range(plan_count):
            serial = next(counter)
            item = f"planned item {serial}"
            lines.append(f"{position + 1}. {item}")
            fate = rng.choice(["accept", "accept", "unnecessary", "irrelevant"])
            if fate == "unnecessary":
                fixtures["necessity"][item] = "no"
                node["rejected"].append(item)
                continue
            fixtures["necessity"][item] = "yes"
            rewritten = f"shared rewritten {serial}"
            fixtures["rewrite"][item] = rewritten
            if fate == "irrelevant":
                fixtures["relevance"][rewritten] = "no"
                node["rejected"].append(rewritten)
                continue
            fixtures["relevance"][rewritten] = "yes"
            node["children"].append(build(rewritten, depth + 1))
        fixtures["plan"][query] = "\n".join(lines)
        return node

    root_query = f"shared root {next(counter)}"
    expected = build(root_query, 0)
    return root_query, expected, fixtures
