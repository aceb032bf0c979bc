import pytest

from contregen.baselines import (
    parse_followup,
    run_iterretgen,
    run_retgen,
    run_selfask,
)
from contregen.llm import LlmGateway, ScriptedAdapter
from contregen.retrieval import LexicalIndex, RetrieverHandle

from conftest import (
    FACET_A,
    GOLD_IDS,
    ITERRETGEN_RESPONSES,
    ROOT_QUERY,
    SUB_B,
    SUB_C,
    iterretgen_fixtures,
    planted_corpus,
    retgen_fixtures,
    selfask_fixtures,
)
from oracles import per_round_sets


def _setup(fixtures, on_retrieval=None):
    store = planted_corpus()
    handle = RetrieverHandle(LexicalIndex(store), store, on_call=on_retrieval)
    adapter = ScriptedAdapter(fixtures)
    return LlmGateway(adapter), handle, adapter


def test_parse_followup():
    assert parse_followup("Follow up: where to look?") == "where to look?"
    assert parse_followup("follow-up:   trailing   ") == "trailing"
    assert parse_followup("Followup: compact form") == "compact form"
    assert parse_followup("no follow-up") is None
    assert parse_followup("No follow-up needed.") is None
    assert parse_followup("") is None


def test_parse_followup_skips_blank_first_lines():
    assert parse_followup("\n  \nFollow up: x") == "x"


def test_parse_followup_unparseable_stops(caplog):
    with caplog.at_level("WARNING"):
        assert parse_followup("I think we are done here") is None
    assert any("unparseable" in r.message for r in caplog.records)


def test_retgen_single_retrieval_single_call():
    retrievals = []
    gateway, handle, adapter = _setup(retgen_fixtures(), retrievals.append)
    run = run_retgen(gateway, handle, ROOT_QUERY, topk=5)
    assert adapter.backend_calls == 1
    assert handle.backend.backend_calls == 1
    assert set(run.retrieved_ids) == set(FACET_A)  # only facet A overlaps
    assert run.answer == "Inspect fixtures and chargers closely."
    assert run.rounds == (run.retrieved_ids,)
    assert [c.query for c in retrievals] == [ROOT_QUERY]


def test_retgen_generates_even_with_no_hits():
    fixtures = {"baseline_generate": {"zz yy xx": "nothing found"}}
    gateway, handle, adapter = _setup(fixtures)
    run = run_retgen(gateway, handle, "zz yy xx", topk=5)
    assert run.retrieved_ids == ()
    assert run.answer == "nothing found"
    assert adapter.backend_calls == 1


def test_iterretgen_reduces_to_retgen_at_one_iteration():
    gateway, handle, _ = _setup(iterretgen_fixtures())
    single = run_iterretgen(gateway, handle, ROOT_QUERY, topk=5, max_iterations=1)
    gateway2, handle2, _ = _setup(retgen_fixtures())
    plain = run_retgen(gateway2, handle2, ROOT_QUERY, topk=5)
    assert single.retrieved_ids == plain.retrieved_ids


def test_iterretgen_five_rounds_plateau():
    retrievals = []
    gateway, handle, adapter = _setup(iterretgen_fixtures(), retrievals.append)
    run = run_iterretgen(gateway, handle, ROOT_QUERY, topk=5, max_iterations=5)
    assert adapter.backend_calls == 5
    assert handle.backend.backend_calls == 5
    assert len(run.rounds) == 5
    # echo responses stay inside facet-A vocabulary, so the set never grows
    sets = per_round_sets(run)
    assert all(s == set(FACET_A) for s in sets)
    # later rounds query with the previous response prepended
    assert retrievals[0].query == ROOT_QUERY
    assert retrievals[1].query == ITERRETGEN_RESPONSES[0] + " " + ROOT_QUERY


def test_iterretgen_accumulated_sets_nested():
    gateway, handle, _ = _setup(iterretgen_fixtures())
    run = run_iterretgen(gateway, handle, ROOT_QUERY, topk=5, max_iterations=4)
    sets = per_round_sets(run)
    for earlier, later in zip(sets, sets[1:]):
        assert earlier <= later


def test_iterretgen_rejects_zero_iterations():
    gateway, handle, _ = _setup(iterretgen_fixtures())
    with pytest.raises(ValueError):
        run_iterretgen(gateway, handle, ROOT_QUERY, topk=5, max_iterations=0)


def test_selfask_rejects_zero_iterations():
    gateway, handle, adapter = _setup(selfask_fixtures())
    with pytest.raises(ValueError, match="max_iterations must be >= 1"):
        run_selfask(gateway, handle, ROOT_QUERY, topk=5, max_iterations=0)
    assert adapter.backend_calls == 0


def test_selfask_covers_all_facets_by_round_three():
    retrievals = []
    gateway, handle, adapter = _setup(selfask_fixtures(), retrievals.append)
    run = run_selfask(gateway, handle, ROOT_QUERY, topk=5, max_iterations=5)
    # 3 follow-up calls (B, C, stop) + 1 final generation
    assert adapter.backend_calls == 4
    # seed retrieval + one per answered follow-up
    assert handle.backend.backend_calls == 3
    assert set(run.retrieved_ids) == set(GOLD_IDS)
    # the seed, then one per round that asked a follow-up; the stop round none
    assert [c.query for c in retrievals] == [ROOT_QUERY, SUB_B, SUB_C]
    assert len(run.rounds) == 3
    sets = per_round_sets(run)
    assert sets[1] == set(GOLD_IDS)
    assert sets[2] == sets[1]


def test_selfask_early_stop_is_two_calls():
    fixtures = {
        "baseline_followup": {ROOT_QUERY: "no follow-up"},
        "baseline_generate": {ROOT_QUERY: "direct answer"},
    }
    gateway, handle, adapter = _setup(fixtures)
    run = run_selfask(gateway, handle, ROOT_QUERY, topk=5, max_iterations=5)
    assert adapter.backend_calls == 2
    assert handle.backend.backend_calls == 1  # only the seed retrieval
    assert run.answer == "direct answer"
    assert set(run.retrieved_ids) == set(FACET_A)
    assert len(run.rounds) == 1


def test_selfask_exhausts_rounds_then_answers():
    fixtures = {
        "baseline_followup": {ROOT_QUERY: [f"Follow up: {SUB_B}"] * 5},
        "baseline_generate": {ROOT_QUERY: "final"},
    }
    gateway, handle, adapter = _setup(fixtures)
    run = run_selfask(gateway, handle, ROOT_QUERY, topk=5, max_iterations=5)
    assert adapter.backend_calls == 6  # 5 follow-ups + final
    assert len(run.rounds) == 5
    assert run.answer == "final"


def test_selfask_history_carries_previous_followups():
    _, handle, adapter = _setup(selfask_fixtures())
    calls = []
    run_selfask(LlmGateway(adapter, on_call=calls.append), handle, ROOT_QUERY,
                topk=5, max_iterations=5)
    followup_calls = [c for c in calls if c.role == "baseline_followup"]
    assert f"Follow up: {SUB_B}" in followup_calls[1].prompt
    assert f"Follow up: {SUB_B}" not in followup_calls[0].prompt
