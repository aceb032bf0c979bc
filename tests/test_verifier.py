from contregen.corpus import CorpusStore, Passage
from contregen.llm import LlmGateway, ScriptedAdapter
from contregen.retrieval import LexicalIndex, RetrieverHandle
from contregen.verifier import parse_yes_no, verify


def _handle(texts: dict) -> RetrieverHandle:
    store = CorpusStore()
    for pid, text in texts.items():
        store.add(Passage(id=pid, text=text, meta={}))
    return RetrieverHandle(LexicalIndex(store), store)


def test_parse_yes_no_variants():
    assert parse_yes_no("yes") is True
    assert parse_yes_no("Yes.") is True
    assert parse_yes_no("  YES, because reasons") is True
    assert parse_yes_no("no") is False
    assert parse_yes_no("No: redundant") is False
    assert parse_yes_no("\n\nyes\nextra lines ignored") is True
    assert parse_yes_no("maybe") is None
    assert parse_yes_no("") is None
    assert parse_yes_no("the answer is yes") is None  # only first word counts


def test_necessity_no_skips_rewrite():
    adapter = ScriptedAdapter({"necessity": {"sub q": "no"}})
    gateway = LlmGateway(adapter)
    outcome = verify(gateway, _handle({"p1": "sub q"}), "sub q", "main q", topk=2)
    assert outcome.necessary is False
    assert outcome.rewritten == "sub q"
    assert adapter.backend_calls == 1  # no rewrite call


def test_necessity_yes_rewrites():
    adapter = ScriptedAdapter({
        "necessity": {"sub q": "yes"},
        "rewrite": {"sub q": "  standalone form  "},
    })
    gateway = LlmGateway(adapter)
    outcome = verify(gateway, _handle({"p1": "alpha"}), "sub q", "main q", topk=2)
    assert outcome.necessary is True
    assert outcome.rewritten == "standalone form"


def test_empty_rewrite_falls_back_to_original(caplog):
    adapter = ScriptedAdapter({"necessity": {"sub q": "yes"}, "rewrite": {"sub q": "  "}})
    gateway = LlmGateway(adapter)
    with caplog.at_level("WARNING"):
        outcome = verify(gateway, _handle({"p1": "alpha"}), "sub q", "main q", topk=2)
    assert outcome.rewritten == "sub q"
    assert "empty rewrite for 'sub q'; keeping the original form" in caplog.text


def test_unparseable_necessity_fails_closed(caplog):
    adapter = ScriptedAdapter({"necessity": {"sub q": "perhaps"}})
    gateway = LlmGateway(adapter)
    with caplog.at_level("WARNING"):
        outcome = verify(gateway, _handle({"p1": "sub q"}), "sub q", "main q", topk=2)
    assert outcome.necessary is False
    assert "unparseable necessity verdict for 'sub q'; treating as no" in caplog.text


def test_relevance_empty_probe_short_circuits():
    handle = _handle({"p1": "alpha beta"})
    adapter = ScriptedAdapter({"necessity": {"sub q": "yes"},
                               "rewrite": {"sub q": "zeta theta"}})  # no relevance fixture
    gateway = LlmGateway(adapter)
    outcome = verify(gateway, handle, "sub q", "main", topk=3)
    assert outcome.relevant is False
    assert outcome.probe_hits == ()
    assert adapter.backend_calls == 2  # necessity and rewrite only


def test_relevance_consults_model_on_hits(caplog):
    handle = _handle({"p1": "alpha beta", "p2": "alpha gamma"})
    adapter = ScriptedAdapter({"necessity": {"sub q": "yes", "other q": "yes"},
                               "rewrite": {"sub q": "alpha", "other q": "gamma"},
                               "relevance": {"alpha": "yes", "gamma": "unsure"}})
    calls = []
    gateway = LlmGateway(adapter, on_call=calls.append)
    outcome = verify(gateway, handle, "sub q", "main", topk=2)
    assert outcome.relevant is True
    assert {pid for pid, _ in outcome.probe_hits} == {"p1", "p2"}
    assert [call.role for call in calls] == ["necessity", "rewrite", "relevance"]
    assert "alpha beta" in calls[-1].prompt  # passages rendered into the prompt
    with caplog.at_level("WARNING"):
        assert not verify(gateway, handle, "other q", "main", topk=2).relevant
    assert "unparseable relevance verdict for 'gamma'; treating as no" in caplog.text


def test_verify_full_acceptance():
    handle = _handle({"p1": "standalone alpha text"})
    adapter = ScriptedAdapter({
        "necessity": {"orig": "yes"},
        "rewrite": {"orig": "standalone alpha"},
        "relevance": {"standalone alpha": "yes"},
    })
    gateway = LlmGateway(adapter)
    outcome = verify(gateway, handle, "orig", "main", topk=2)
    assert outcome.accepted
    assert outcome.subquestion == "orig"
    assert outcome.rewritten == "standalone alpha"
    assert outcome.probe_hits[0][0] == "p1"
    assert adapter.backend_calls == 3


def test_verify_rejection_paths():
    handle = _handle({"p1": "standalone alpha text"})
    adapter = ScriptedAdapter({
        "necessity": {"skip me": "no", "keep me": "yes"},
        "rewrite": {"keep me": "unfindable zeta"},
    })
    gateway = LlmGateway(adapter)
    rejected = verify(gateway, handle, "skip me", "main", topk=2)
    assert not rejected.accepted
    assert not rejected.necessary
    no_hits = verify(gateway, handle, "keep me", "main", topk=2)
    assert no_hits.necessary
    assert not no_hits.relevant
    assert no_hits.probe_hits == ()
    assert not no_hits.accepted
