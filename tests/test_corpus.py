import json

import pytest

from contregen.corpus import (
    ArticleDump,
    CorpusStore,
    Passage,
    build_wikihow_benchmark,
    ingest_corpus,
    load_article_dumps,
    load_queries,
    validate_queries,
    write_passages,
    write_queries,
)
from contregen.errors import DataError, DuplicateIdError, MalformedRecordError


def test_store_add_get_order():
    store = CorpusStore()
    store.add(Passage(id="z", text="last letter", meta={}))
    store.add(Passage(id="a", text="first letter", meta={"k": "v"}))
    assert len(store) == 2
    assert "z" in store and "q" not in store
    assert store.get("a").meta == {"k": "v"}
    assert store.text("z") == "last letter"
    assert [p.id for p in store] == ["z", "a"]  # insertion order preserved
    assert store.ids() == ["z", "a"]


def test_store_rejects_duplicates():
    store = CorpusStore()
    store.add(Passage(id="x", text="something", meta={}))
    with pytest.raises(DuplicateIdError):
        store.add(Passage(id="x", text="other", meta={}))


def test_ingest_round_trip(tmp_path):
    path = tmp_path / "corpus.jsonl"
    with path.open("w") as fh:
        fh.write(json.dumps({"id": "p1", "text": "alpha beta", "meta": {"s": "1"}}) + "\n")
        fh.write("\n")  # blank lines are fine
        fh.write(json.dumps({"id": "p2", "text": "gamma"}) + "\n")
    store = ingest_corpus(path)
    assert store.ids() == ["p1", "p2"]
    out = tmp_path / "copy.jsonl"
    assert write_passages(store, out) == 2
    again = ingest_corpus(out)
    assert again.get("p1") == store.get("p1")


def test_ingest_reports_line_numbers(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"id": "p1", "text": "fine"}\nnot json\n')
    with pytest.raises(MalformedRecordError) as err:
        ingest_corpus(path)
    assert err.value.line_no == 2
    assert str(path) in str(err.value)


def test_ingest_rejects_empty_text(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"id": "p1", "text": "   "}\n')
    with pytest.raises(MalformedRecordError):
        ingest_corpus(path)


def test_ingest_empty_file_warns(tmp_path, caplog):
    path = tmp_path / "empty.jsonl"
    path.write_text("")
    with caplog.at_level("WARNING"):
        store = ingest_corpus(path)
    assert len(store) == 0
    assert any("no passages" in r.message for r in caplog.records)


def test_load_queries_and_validation(tmp_path):
    path = tmp_path / "queries.jsonl"
    with path.open("w") as fh:
        fh.write(json.dumps({
            "id": "q1", "query": "a question", "gold_ids": ["p1", "p2"],
            "reference": "ref text", "facet_of": {"p1": "m1", "p2": "m2"},
            "short_answers": ["one", "two"],
        }) + "\n")
        fh.write(json.dumps({"id": "q2", "query": "bare question"}) + "\n")
    records = load_queries(path)
    assert records[0].gold_ids == frozenset({"p1", "p2"})
    assert records[0].short_answers == ("one", "two")
    assert records[1].gold_ids == frozenset()
    assert records[1].short_answers is None

    store = CorpusStore()
    store.add(Passage(id="p1", text="first", meta={}))
    with pytest.raises(DataError) as err:
        validate_queries(records, store)
    assert "p2" in str(err.value)
    store.add(Passage(id="p2", text="second", meta={}))
    validate_queries(records, store)

    out = tmp_path / "copy.jsonl"
    write_queries(records, out)
    assert load_queries(out) == records


@pytest.mark.parametrize("bad_id", [None, True, False, 1.5, [1], {"p": 1}])
def test_ingest_rejects_an_id_that_is_not_a_string_or_an_integer(bad_id, tmp_path):
    path = tmp_path / "corpus.jsonl"
    path.write_text(json.dumps({"id": "p1", "text": "fine"}) + "\n"
                    + json.dumps({"id": bad_id, "text": "also fine"}) + "\n")
    with pytest.raises(MalformedRecordError) as err:
        ingest_corpus(path)
    assert str(err.value) == f"{path}:2: id must be a string or an integer"


def test_integer_ids_stand_for_their_decimal_strings(tmp_path):
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text(json.dumps({"id": 7, "text": "seven"}) + "\n")
    assert ingest_corpus(corpus).ids() == ["7"]
    queries = tmp_path / "queries.jsonl"
    queries.write_text(json.dumps({"id": 1, "query": "x", "gold_ids": [7, "p2"]}) + "\n")
    (record,) = load_queries(queries)
    assert (record.id, record.gold_ids) == ("1", frozenset({"7", "p2"}))
    articles = tmp_path / "articles.jsonl"
    articles.write_text(json.dumps({"id": 7, "title": "t", "steps": ["s"]}) + "\n")
    assert load_article_dumps(articles)[0].article_id == "7"


@pytest.mark.parametrize("field, value, reason", [
    *(("query", value, "query must be a string") for value in (None, 5, True, ["x"], {"x": 1})),
    *(("id", value, "id must be a string or an integer")
      for value in (None, True, 2.0, ["q2"], {"q": 2})),
    *(("gold_ids", ["p1", value], "each gold_ids item must be a string or an integer")
      for value in (None, False, 3.5, ["p2"], {"p": 2})),
])
def test_load_queries_rejects_a_badly_typed_id_or_query(field, value, reason, tmp_path):
    path = tmp_path / "queries.jsonl"
    path.write_text(json.dumps({"id": "q1", "query": "fine"}) + "\n"
                    + json.dumps({"id": "q2", "query": "x", field: value}) + "\n")
    with pytest.raises(MalformedRecordError) as err:
        load_queries(path)
    assert str(err.value) == f"{path}:2: {reason}"


def test_load_queries_rejects_facet_outside_gold(tmp_path):
    path = tmp_path / "queries.jsonl"
    path.write_text(json.dumps({
        "id": "q1", "query": "x", "gold_ids": ["p1"],
        "facet_of": {"p1": "m", "stranger": "m"},
    }) + "\n")
    with pytest.raises(MalformedRecordError) as err:
        load_queries(path)
    assert "stranger" in str(err.value)


def test_load_queries_rejects_duplicate_ids(tmp_path):
    path = tmp_path / "queries.jsonl"
    line = json.dumps({"id": "q1", "query": "x"}) + "\n"
    path.write_text(line + line)
    with pytest.raises(DuplicateIdError):
        load_queries(path)


def _article(article_id, title, n_methods, n_steps):
    return {
        "id": article_id,
        "title": title,
        "summary": f"summary of {title}",
        "methods": [
            {"title": f"method {m}", "steps": [
                f"{title} method {m} step {s}" for s in range(n_steps)]}
            for m in range(n_methods)
        ],
    }


def test_load_article_dumps_both_shapes(tmp_path):
    path = tmp_path / "articles.json"
    path.write_text(json.dumps([
        _article("art1", "fix a bike", 2, 2),
        {"title": "boil eggs", "summary": "short one", "steps": ["fill pot", "boil"]},
    ]))
    dumps = load_article_dumps(path)
    assert dumps[0].article_id == "art1"
    assert [m[0] for m in dumps[0].methods] == ["method 0", "method 1"]
    assert dumps[1].article_id is None
    assert dumps[1].methods == [("boil eggs", ["fill pot", "boil"])]

    jsonl = tmp_path / "articles.jsonl"
    jsonl.write_text("\n".join(json.dumps(a) for a in [
        _article("art1", "fix a bike", 2, 2)]))
    assert load_article_dumps(jsonl)[0].title == "fix a bike"


_ARTICLE = {"id": "a1", "title": "how to x", "summary": "s", "steps": ["step one text"]}


@pytest.mark.parametrize("field, value, reason", [
    *(("id", value, "id must be a string or an integer")
      for value in (None, True, 1.5, ["a1"], {"a": 1})),
    *(("title", value, "title must be a string") for value in (None, 5, ["t"])),
    *(("summary", value, "summary must be a string") for value in (None, 5, False)),
    *(("steps", value, "steps must be a list of strings")
      for value in ("one long step", [None], ["step one", 5], [["step"]])),
    ("methods", [{"title": None, "steps": ["x"]}], "method title must be a string"),
    ("methods", [{"title": "m", "steps": ["x", 2.5]}], "steps must be a list of strings"),
])
def test_load_article_dumps_rejects_a_badly_typed_field(field, value, reason, tmp_path):
    """An article field of the wrong type is a data error naming the record,
    never text made of its Python repr (an id of null once became passage
    None:0:0)."""
    path = tmp_path / "articles.jsonl"
    path.write_text(json.dumps(_ARTICLE) + "\n" + json.dumps({**_ARTICLE, field: value}) + "\n")
    with pytest.raises(DataError) as err:
        load_article_dumps(path)
    assert str(err.value) == f"{path}:2: {reason}"


def test_build_wikihow_ids_and_facets():
    dumps = load_article_dumps_from([_article("art7", "grow basil", 2, 3)])
    passages, queries = build_wikihow_benchmark(dumps)
    assert [p.id for p in passages] == [
        "art7:0:0", "art7:0:1", "art7:0:2",
        "art7:1:0", "art7:1:1", "art7:1:2",
    ]
    assert passages[0].meta == {"article": "art7", "facet": "method 0", "step": "0"}
    (query,) = queries
    assert query.id == "art7"
    assert query.query == "grow basil"
    assert query.reference == "summary of grow basil"
    assert query.gold_ids == frozenset(p.id for p in passages)
    assert query.facet_of["art7:1:2"] == "method 1"


def load_article_dumps_from(raw):
    # small helper: build dumps without touching the filesystem
    return [
        ArticleDump(
            title=obj["title"],
            summary=obj.get("summary", ""),
            methods=[(m["title"], list(m["steps"])) for m in obj["methods"]],
            article_id=obj.get("id"),
        )
        for obj in raw
    ]


def test_build_wikihow_skips_empty_articles(caplog):
    dumps = load_article_dumps_from([_article("a1", "real article", 1, 2)])
    dumps.append(ArticleDump(title="hollow", summary="s", methods=[("m", [])],
                             article_id="a2"))
    with caplog.at_level("WARNING"):
        passages, queries = build_wikihow_benchmark(dumps)
    assert len(queries) == 1
    assert queries[0].id == "a1"
    assert any("hollow" in r.message for r in caplog.records)


def test_build_wikihow_positional_ids():
    dumps = load_article_dumps_from([
        {"title": "first", "methods": [{"title": "m", "steps": ["x"]}]},
        {"title": "second", "methods": [{"title": "m", "steps": ["y"]}]},
    ])
    passages, queries = build_wikihow_benchmark(dumps)
    assert [q.id for q in queries] == ["a0", "a1"]
    assert passages[0].id == "a0:0:0"
