import json

import pytest

from contregen.errors import LlmBackendError
from contregen.llm import LlmGateway, ScriptedAdapter
from contregen.retrieval import LexicalIndex, RetrieverHandle
from contregen.tree import (
    QueryTreeNode,
    TreeConfig,
    build_tree,
    collect_passages,
    export_tree,
    import_tree,
    to_dot,
)

from conftest import (
    ACCT_LEAVES,
    ACCT_ROOT,
    ACCT_S1,
    ACCT_S2,
    accounting_corpus,
    accounting_fixtures,
    rejected_subquestions,
)
from oracles import check_invariants


def _build(fixtures=None, config=None):
    store = accounting_corpus()
    handle = RetrieverHandle(LexicalIndex(store), store)
    adapter = ScriptedAdapter(fixtures or accounting_fixtures())
    calls = []
    gateway = LlmGateway(adapter, on_call=calls.append)
    config = config or TreeConfig(max_depth=2, max_plan_size=5, topk=5)
    return build_tree(gateway, handle, ACCT_ROOT, config), calls, config


def test_two_branch_structure():
    root, _, config = _build()
    check_invariants(root, config)
    assert root.query == ACCT_ROOT
    assert root.path == "0"
    assert [c.query for c in root.children] == [ACCT_S1, ACCT_S2]
    assert [c.path for c in root.children] == ["0.0", "0.1"]
    assert [g.query for c in root.children for g in c.children] == ACCT_LEAVES
    assert root.children[0].children[1].path == "0.0.1"
    # children carry the planner's original wording alongside the rewrite
    assert root.children[0].original_query == "branch one item"
    leaves = [g for c in root.children for g in c.children]
    assert all(g.is_leaf() for g in leaves)
    # every node retrieved something (shared token corpus)
    assert all(node.retrieved for node in root.walk())


def test_depth_cap_means_no_plan_calls_at_leaves():
    _, calls, _ = _build()
    plan_keys = [c.prompt for c in calls if c.role == "plan"]
    assert len(plan_keys) == 3  # root and the two branches, never the leaves


def test_rejections_recorded_not_attached():
    fixtures = accounting_fixtures()
    fixtures["necessity"]["branch two item"] = "no"
    root, calls, _ = _build(fixtures)
    assert [c.query for c in root.children] == [ACCT_S1]
    assert root.children[0].path == "0.0"
    assert rejected_subquestions(calls) == {"0": ["branch two item"]}


def test_relevance_rejection_keeps_probe_empty_nodes_out():
    fixtures = accounting_fixtures()
    fixtures["relevance"][ACCT_S2] = "no"
    root, calls, _ = _build(fixtures)
    assert [c.query for c in root.children] == [ACCT_S1]
    assert rejected_subquestions(calls) == {"0": [ACCT_S2]}


def test_unparseable_plan_makes_leaf():
    fixtures = accounting_fixtures()
    fixtures["plan"][ACCT_ROOT] = "nothing structured here"
    root, calls, _ = _build(fixtures)
    assert root.is_leaf()
    assert len(calls) == 1


def test_max_plan_size_truncates_children():
    config = TreeConfig(max_depth=1, max_plan_size=1, topk=5)
    root, _, _ = _build(config=config)
    assert [c.query for c in root.children] == [ACCT_S1]


def test_children_reuse_probe_hits():
    root, _, _ = _build()
    store = accounting_corpus()
    handle = RetrieverHandle(LexicalIndex(store), store)
    for child in root.children:
        assert child.retrieved == handle.retrieve(child.query, 5)


def test_collect_passages_preorder_dedup():
    root, _, _ = _build()
    ids = collect_passages(root, dedup=True)
    assert ids == ["p0", "p1", "p2"]  # every node hits the same three
    raw = collect_passages(root, dedup=False)
    assert len(raw) == sum(len(n.retrieved) for n in root.walk())
    assert raw[:3] == ["p0", "p1", "p2"]


def test_export_import_round_trip():
    root, _, _ = _build()
    data = export_tree(root)
    json.dumps(data)  # JSON-serializable
    again = import_tree(data)
    assert export_tree(again) == data
    assert again.children[1].query == ACCT_S2
    assert again.children[1].retrieved == root.children[1].retrieved


def test_to_dot_lists_every_edge():
    root, _, _ = _build()
    dot = to_dot(root)
    assert dot.startswith("digraph")
    for node in root.walk():
        for child in node.children:
            assert f'"{node.path}" -> "{child.path}"' in dot


@pytest.mark.parametrize("query, label", [
    ("a\\", r"a\\"), ("C:\\new", r"C:\\new"), ('say "hi"', r'say \"hi\"')])
def test_to_dot_escapes_backslashes_before_quotes(query, label):
    root = QueryTreeNode(query=query, original_query=query, depth=0, path="0")
    assert f'  "0" [label="{label}"];' in to_dot(root).splitlines()


class _FailingAdapter:
    adapter_id = "failing"

    def __init__(self, fail_after):
        self.backend_calls = 0
        self.fail_after = fail_after
        self.inner = ScriptedAdapter(accounting_fixtures())

    def complete(self, role, prompt, slots):
        self.backend_calls += 1
        if self.backend_calls > self.fail_after:
            raise LlmBackendError("backend went away")
        return self.inner.complete(role, prompt, slots)


def test_backend_failure_during_the_build_raises_the_backend_error():
    store = accounting_corpus()
    handle = RetrieverHandle(LexicalIndex(store), store)
    gateway = LlmGateway(_FailingAdapter(fail_after=7))
    with pytest.raises(LlmBackendError) as err:
        build_tree(gateway, handle, ACCT_ROOT, TreeConfig())
    assert str(err.value) == "backend went away"


def test_config_validation():
    with pytest.raises(ValueError):
        TreeConfig(max_depth=-1)
    with pytest.raises(ValueError):
        TreeConfig(max_plan_size=0)
    with pytest.raises(ValueError):
        TreeConfig(topk=0)
