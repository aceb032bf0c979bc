import pytest

from contregen.llm import LlmGateway, ScriptedAdapter
from contregen.planner import (PASSAGE_CHAR_BUDGET, parse_numbered_list, propose_plan,
                               render_passages)


def test_parse_numbered_list_formats():
    text = "1. first item\n2) second item\n- third item\n* fourth item\nplain prose line\n\n10. tenth"
    assert parse_numbered_list(text) == [
        "first item", "second item", "third item", "fourth item", "tenth"]


def test_parse_numbered_list_empty():
    assert parse_numbered_list("no items here, just prose") == []
    assert parse_numbered_list("") == []


def _plan(response, query="the query", main="the main", limit=5):
    adapter = ScriptedAdapter({"plan": {query: response}})
    gateway = LlmGateway(adapter)
    return propose_plan(gateway, query, main, "[1] text", limit)


def test_plan_extracts_items_in_order():
    assert _plan("1. alpha\n2. beta\n3. gamma") == ("alpha", "beta", "gamma")


def test_plan_deduplicates_case_insensitively():
    assert _plan("1. What is X?\n2. what  is x?\n3. other") == ("What is X?", "other")


def test_plan_drops_restated_queries():
    plan = _plan("1. The Query\n2. the main\n3. genuine question",
                 query="The Query", main="the main")
    assert plan == ("genuine question",)


def test_plan_truncates_to_limit():
    response = "\n".join(f"{i}. item {i}" for i in range(1, 9))
    plan = _plan(response, limit=3)
    assert plan == ("item 1", "item 2", "item 3")


def test_plan_unparseable_yields_empty(caplog):
    with caplog.at_level("WARNING"):
        plan = _plan("I cannot break this down further.")
    assert plan == ()
    assert any("no list items" in r.message for r in caplog.records)


@pytest.mark.parametrize("response, plan", [("1. alpha\n2. beta", ("alpha", "beta")),
                                            (" \n", ())], ids=["items", "blank"])
def test_plan_warns_of_no_list_items_only_for_prose(caplog, response, plan):
    with caplog.at_level("WARNING"):
        assert _plan(response) == plan
    assert not any("no list items" in r.message for r in caplog.records)


def test_render_passages_numbering():
    block = render_passages(["first text", "second text"])
    assert block == "[1] first text\n[2] second text"
    assert render_passages([]) == ""


def test_render_passages_budget_omits_whole_passages():
    size = PASSAGE_CHAR_BUDGET * 2 // 5 - 5  # a line and its newline take size + 5
    texts = ["x" * size, "y" * size, "z" * size]  # two fit in the budget, three do not
    block = render_passages(texts)
    assert "[1] " + "x" * size in block
    assert "[2] " + "y" * size in block
    assert "z" not in block
    assert "[1 more passages omitted]" in block


def test_render_passages_huge_first_passage_truncated():
    block = render_passages(["a" * (2 * PASSAGE_CHAR_BUDGET), "tail"])
    assert block.startswith("[1] " + "a" * (PASSAGE_CHAR_BUDGET - 4) + " [passage truncated]")
    assert "[passage truncated]" in block
    assert "[1 more passages omitted]" in block
    assert "tail" not in block


@pytest.mark.parametrize("extra", [-1, 0, 1])
def test_render_passages_keeps_a_first_passage_at_the_budget(extra):
    """A first line one under, at or one over the budget is kept or truncated,
    never omitted: no newline comes before it, so none is charged."""
    line = "[1] " + "x" * (PASSAGE_CHAR_BUDGET - len("[1] ") + extra)
    kept = line if extra <= 0 else line[:PASSAGE_CHAR_BUDGET] + " [passage truncated]"
    assert render_passages([line[4:]]) == kept
    assert render_passages([line[4:], "tail"]) == kept + "\n[1 more passages omitted]"


def test_render_passages_fills_the_budget_exactly():
    first = "[1] " + "a" * 1996
    second = "[2] " + "b" * (PASSAGE_CHAR_BUDGET - len(first) - 1 - 4)
    assert len(render_passages([first[4:], second[4:]])) == PASSAGE_CHAR_BUDGET
    assert "omitted" in render_passages([first[4:], second[4:] + "b"])
