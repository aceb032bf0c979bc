from contregen.llm import LlmGateway, ScriptedAdapter
from contregen.retrieval import LexicalIndex, RetrieverHandle
from contregen.synthesis import synthesize
from contregen.tree import QueryTreeNode, TreeConfig, build_tree

from conftest import ACCT_LEAVES, ACCT_ROOT, ACCT_S1, ACCT_S2, accounting_corpus, accounting_fixtures


def _built(fixtures=None):
    store = accounting_corpus()
    handle = RetrieverHandle(LexicalIndex(store), store)
    adapter = ScriptedAdapter(fixtures or accounting_fixtures())
    calls = []
    gateway = LlmGateway(adapter, on_call=calls.append)
    root = build_tree(gateway, handle, ACCT_ROOT,
                      TreeConfig(max_depth=2, max_plan_size=5, topk=5))
    return root, gateway, handle, calls


def test_postorder_roles_and_answer():
    root, gateway, handle, calls = _built()
    before = len(calls)
    result = synthesize(gateway, root, handle.text)
    assert result.answer == "final synthesized answer"
    synth_calls = calls[before:]
    assert [c.role for c in synth_calls] == [
        "summarize_leaf", "summarize_leaf", "merge_intermediate",
        "summarize_leaf", "summarize_leaf", "merge_intermediate",
        "generate_root",
    ]
    # post-order: children before their parent, branches in order
    assert [c.node_path for c in synth_calls] == [
        "0.0.0", "0.0.1", "0.0", "0.1.0", "0.1.1", "0.1", "0"]


def test_summaries_attached_to_nodes():
    root, gateway, handle, _ = _built()
    result = synthesize(gateway, root, handle.text)
    assert root.summary == result.answer
    assert root.children[0].summary == "merged branch one"
    assert root.children[0].children[0].summary == f"summary of {ACCT_LEAVES[0]}"
    assert all(node.summary for node in root.walk())
    assert result.fold_merges == 0


def test_single_node_tree_still_generates_root():
    fixtures = accounting_fixtures()
    fixtures["plan"][ACCT_ROOT] = "no breakdown"
    root, gateway, handle, calls = _built(fixtures)
    assert root.is_leaf()
    result = synthesize(gateway, root, handle.text)
    assert result.answer == "final synthesized answer"
    assert calls[-1].role == "generate_root"


def test_fold_merges_two_longest_first():
    fixtures = accounting_fixtures()
    # make branch-one leaves produce long summaries that overflow the budget
    fixtures["summarize_leaf"] = {
        ACCT_LEAVES[0]: "L" * 60,
        ACCT_LEAVES[1]: "M" * 50,
        ACCT_LEAVES[2]: "s",
        ACCT_LEAVES[3]: "t",
    }
    fixtures["merge_intermediate"] = {
        ACCT_S1: ["folded pair", "merged branch one"],
        ACCT_S2: "merged branch two",
    }
    root, gateway, handle, calls = _built(fixtures)
    result = synthesize(gateway, root, handle.text, char_budget=100)
    assert result.answer == "final synthesized answer"
    assert result.fold_merges == 1
    fold_call = next(c for c in calls
                     if c.role == "merge_intermediate" and "L" * 60 in c.prompt)
    assert "M" * 50 in fold_call.prompt  # the two longest went into the fold
    assert root.children[0].summary == "merged branch one"


def test_single_overlong_summary_truncated_with_warning(caplog):
    fixtures = accounting_fixtures()
    fixtures["plan"][ACCT_S1] = "no breakdown"
    fixtures["plan"][ACCT_S2] = "no breakdown"
    fixtures["summarize_leaf"] = {ACCT_S1: "X" * 300, ACCT_S2: "y"}
    # the root folds its two children first; the folded result is still too big
    fixtures["merge_intermediate"] = {ACCT_ROOT: "Z" * 200}
    fixtures["generate_root"] = {ACCT_ROOT: "root out"}
    root, gateway, handle, _ = _built(fixtures)
    with caplog.at_level("WARNING"):
        result = synthesize(gateway, root, handle.text, char_budget=50)
    assert result.answer == "root out"
    assert result.fold_merges >= 1  # folding ran out of pairs first
    assert any("over-budget summary at 0" in r.message for r in caplog.records)


def _root_over_leaves(summaries, merge, char_budget):
    """Synthesize a root whose leaf children summarize to the given texts;
    the root's fold merges return merge. Gives the calls made."""
    root = QueryTreeNode("root", "root", 0, "0", children=[
        QueryTreeNode(f"leaf {i}", f"leaf {i}", 1, f"0.{i}")
        for i in range(len(summaries))])
    calls = []
    gateway = LlmGateway(ScriptedAdapter({
        "summarize_leaf": {f"leaf {i}": text for i, text in enumerate(summaries)},
        "merge_intermediate": {"root": merge},
        "generate_root": {"root": "answer"},
    }), on_call=calls.append)
    synthesize(gateway, root, lambda pid: pid, char_budget=char_budget)
    return calls


def test_fold_over_three_summaries_merges_the_two_longest():
    short, longest, middle = "a" * 30, "b" * 50, "c" * 40
    calls = _root_over_leaves([short, longest, middle], "folded", char_budget=100)
    folds = [c for c in calls if c.role == "merge_intermediate"]
    assert len(folds) == 1
    assert longest in folds[0].prompt and middle in folds[0].prompt
    assert short not in folds[0].prompt
    # the merged summary takes the earlier of the pair's places
    assert f"- {short}\n- folded\n" in calls[-1].prompt


def test_single_overlong_summary_reaches_the_root_cut_to_the_budget():
    summary = "abcdefghij" * 30
    calls = _root_over_leaves([summary], "unused", char_budget=50)
    assert calls[-1].role == "generate_root"
    # the generate_root template places the block between these two lines
    block = calls[-1].prompt.rpartition("Aspect answers:\n")[2].rpartition("\nAnswer:")[0]
    assert len(block) <= 50
    assert block == f"- {summary[:48]}"
