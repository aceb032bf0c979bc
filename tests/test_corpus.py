import json
import random
import re
import sys
import tracemalloc

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

from oracles import corpus_fingerprint


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
    assert str(err.value).startswith(f"{path}:2: ")


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


# Inserted out of id order, with an id read as an integer, non-ASCII text
# and one passage with meta; the fingerprint is part of every retrieval
# cache key, so its bytes are pinned.
_PINNED_RECORDS = [
    {"id": "p10", "text": "Ten sorts after p1 and before p2"},
    {"id": 7, "text": "an integer id, read as its decimal string"},
    {"id": "p2", "text": "na\u00efve caf\u00e9 \u2014 \u65e5\u672c\u8a9e, \u212a",
     "meta": {"lang": "fr", "note": "\u00fcn\u00ef"}},
    {"id": "a", "text": "first in id order", "meta": None},
]
_PINNED_FINGERPRINT = "464d190f0cd3531b10d4f12d64ec8073b9387e9f1c0c5ab1ef0533a8687119df"


def test_fingerprint_bytes_are_pinned(tmp_path):
    path = tmp_path / "corpus.jsonl"
    path.write_text("".join(json.dumps(record, ensure_ascii=False) + "\n"
                            for record in _PINNED_RECORDS), encoding="utf-8")
    ingested = ingest_corpus(path)
    built = CorpusStore(Passage(id=str(record["id"]), text=record["text"],
                                meta=record.get("meta") or {})
                        for record in _PINNED_RECORDS)
    assert ingested.ids() == built.ids() == ["p10", "7", "p2", "a"]
    assert ingested.fingerprint() == built.fingerprint() == _PINNED_FINGERPRINT


# 1024 pairs are hashed per chunk: no pairs, and sizes on each side of one and two chunks
@pytest.mark.parametrize("size", [0, 1, 1023, 1024, 1025, 2048, 2049, 2500])
def test_fingerprint_matches_the_per_pair_formula_across_chunks(size, tmp_path):
    rng = random.Random(size)
    texts = {}
    while len(texts) < size:
        pid = "".join(rng.choice("ab\u00e9\u4e2d\U0001f600") for _ in range(rng.randint(1, 8)))
        texts[pid] = "".join(rng.choice("xy \u00ef\u2014\u65e5\t\x01")
                             for _ in range(rng.randint(0, 40))) + "z"
    path = tmp_path / "corpus.jsonl"
    write_passages((Passage(id=pid, text=text) for pid, text in texts.items()), path)
    store = ingest_corpus(path)
    assert len(store) == size
    assert store.fingerprint() == corpus_fingerprint(texts)


def test_store_builds_passages_equal_to_those_added():
    added = [Passage(id="z", text="no meta"),
             Passage(id="m", text="with meta", meta={"facet": "f", "step": "0"}),
             Passage(id="a", text="empty meta", meta={})]
    store = CorpusStore(added)
    assert [store.get(p.id) for p in added] == added
    assert list(store) == added  # insertion order, not id order
    assert store.get("m").meta == {"facet": "f", "step": "0"}
    bare = store.get("z")
    bare.meta["k"] = "v"  # a fresh dict each time, so the store does not change
    assert store.get("z").meta == {} and store.get("a").meta == {}
    with pytest.raises(DataError, match="unknown passage id: q"):
        store.get("q")


def test_store_add_rejects_empty_text_and_duplicate_id():
    store = CorpusStore([Passage(id="x", text="something")])
    with pytest.raises(DataError, match="^passage 'y' has empty text$"):
        store.add(Passage(id="y", text=" \n"))
    with pytest.raises(DuplicateIdError, match="^duplicate id: x$"):
        store.add(Passage(id="x", text="other"))
    assert store.ids() == ["x"] and store.text("x") == "something"


_TYPE_FAULT = "id, text and meta must be strings"


@pytest.mark.parametrize("passage, message", [
    (Passage(id="a", text="x\ud800y"),
     "passage 'a': text holds a lone surrogate, which is not UTF-8 text"),
    (Passage(id="\udc80", text="x"),
     "passage '\\udc80': id holds a lone surrogate, which is not UTF-8 text"),
    (Passage(id="a", text="x", meta={"k": "\ud800"}),
     "passage 'a': meta holds a lone surrogate, which is not UTF-8 text"),
    (Passage(id=5, text="abc"), f"passage 5: {_TYPE_FAULT}"),
    (Passage(id="a", text=b"abc"), f"passage 'a': {_TYPE_FAULT}"),
    (Passage(id="a", text="abc", meta={"k": 1}), f"passage 'a': {_TYPE_FAULT}"),
    (Passage(id="a", text="abc", meta={2: "v"}), f"passage 'a': {_TYPE_FAULT}"),
], ids=["surrogate-text", "surrogate-id", "surrogate-meta", "int-id", "bytes-text",
        "int-meta-value", "int-meta-key"])
def test_store_add_rejects_what_ingest_rejects(passage, message):
    """A store built in code takes no passage a passage file could not carry,
    so its fingerprint never meets text UTF-8 cannot encode."""
    with pytest.raises(DataError) as err:
        CorpusStore([passage])
    assert str(err.value) == message
    store = CorpusStore([Passage(id="b", text="fine")])
    with pytest.raises(DataError):
        store.add(passage)
    assert store.ids() == ["b"]
    assert store.fingerprint() == corpus_fingerprint({"b": "fine"})


def test_ingest_rejects_empty_text_and_duplicate_id(tmp_path):
    path = tmp_path / "corpus.jsonl"
    path.write_text('{"id": "p1", "text": "fine"}\n{"id": "p2", "text": " "}\n')
    with pytest.raises(MalformedRecordError,
                       match=f"^{re.escape(str(path))}:2: text must be a non-empty string$"):
        ingest_corpus(path)
    path.write_text('{"id": "p1", "text": "fine"}\n{"id": "p1", "text": "again"}\n')
    with pytest.raises(DuplicateIdError, match="^duplicate id: p1$"):
        ingest_corpus(path)


def test_store_keeps_little_per_passage_beyond_its_strings(tmp_path):
    """An ingested passage costs the store its id and text strings and about
    one dict entry (20-45 bytes); a record object per passage with an empty
    meta dict of its own costs 180-195 bytes more."""
    count = 2000
    path = tmp_path / "corpus.jsonl"
    path.write_text("".join(json.dumps({"id": f"p{i:05d}", "text": f"passage {i} text"}) + "\n"
                            for i in range(count)))
    ingest_corpus(path)  # first-use allocations stay out of the measurement
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        store = ingest_corpus(path)
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    strings = sum(sys.getsizeof(pid) + sys.getsizeof(store.text(pid)) for pid in store.ids())
    assert (retained - strings) / count < 100


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


@pytest.mark.parametrize("meta, reason", [
    *((meta, "meta must be an object") for meta in ([], 0, False, "", "x", ["k", "v"])),
    *(({"facet": "ok", "k": value}, "each meta value must be a string")
      for value in (None, 1, 1.5, True, {"a": 1}, [1, "x"])),
])
def test_ingest_rejects_meta_that_is_not_an_object_of_strings(meta, reason, tmp_path):
    """A passage's meta is absent, null or an object of strings; any other
    value is a data error, never kept as the text of its Python repr."""
    path = tmp_path / "corpus.jsonl"
    path.write_text(json.dumps({"id": "p1", "text": "fine", "meta": None}) + "\n"
                    + json.dumps({"id": "p2", "text": "also fine", "meta": meta}) + "\n")
    with pytest.raises(MalformedRecordError) as err:
        ingest_corpus(path)
    assert str(err.value) == f"{path}:2: {reason}"


@pytest.mark.parametrize("record, name", [
    ({"id": "p2", "text": "alpha \ud800 beta"}, "text"),
    ({"id": "p\udc00", "text": "also fine"}, "id"),
    ({"id": "p2", "text": "also fine", "meta": {"facet": "x\udfff"}}, "meta"),
    ({"id": "p2", "text": "also fine", "meta": {"\ud800": "x"}}, "meta"),
])
def test_ingest_rejects_a_lone_surrogate(record, name, tmp_path):
    """JSON can spell a lone surrogate, but UTF-8 cannot encode it, so the
    corpus fingerprint and ingest --out could not take the passage."""
    path = tmp_path / "corpus.jsonl"
    path.write_text(json.dumps({"id": "p1", "text": "smile \ud83d\ude00"}) + "\n"
                    + json.dumps(record) + "\n")
    with pytest.raises(MalformedRecordError) as err:
        ingest_corpus(path)
    assert str(err.value) == f"{path}:2: {name} holds a lone surrogate, which is not UTF-8 text"
    path.write_text(json.dumps({"id": "p1", "text": "smile \ud83d\ude00"}) + "\n")
    assert ingest_corpus(path).text("p1") == "smile \U0001f600"  # a pair is one character


_NUL_FAULT = "holds a NUL, which the corpus fingerprint uses as a separator"


def test_a_nul_in_a_passage_is_rejected_so_no_two_stores_share_a_fingerprint():
    """The fingerprint joins ids and texts with NUL: one passage whose text
    spells the join of two others once fingerprinted as those two did."""
    with pytest.raises(DataError) as err:
        CorpusStore([Passage("a", "b\0c\0d")])
    assert str(err.value) == f"passage 'a': text {_NUL_FAULT}"
    with pytest.raises(DataError) as err:
        CorpusStore([Passage("a\0b", "c")])
    assert str(err.value) == f"passage 'a\\x00b': id {_NUL_FAULT}"
    pair = CorpusStore([Passage("a", "b"), Passage("c", "d")])
    assert pair.fingerprint() == corpus_fingerprint({"a": "b", "c": "d"})


@pytest.mark.parametrize("record, name", [
    ({"id": "a", "text": "b\u0000c\u0000d"}, "text"),
    ({"id": "p\u00002", "text": "also fine"}, "id"),
    ({"id": "p2", "text": "\u0000"}, "text"),
])
def test_ingest_rejects_a_nul_in_an_id_or_text(record, name, tmp_path):
    path = tmp_path / "corpus.jsonl"
    line = json.dumps(record)  # spells each NUL as the \u0000 escape
    assert "\\u0000" in line
    path.write_text(json.dumps({"id": "p1", "text": "fine"}) + "\n" + line + "\n")
    with pytest.raises(MalformedRecordError) as err:
        ingest_corpus(path)
    assert str(err.value) == f"{path}:2: {name} {_NUL_FAULT}"


def test_ingest_takes_a_nul_in_meta(tmp_path):
    """meta is not part of the fingerprint, so it may hold a NUL."""
    path = tmp_path / "corpus.jsonl"
    path.write_text(json.dumps({"id": "p1", "text": "fine", "meta": {"k": "a\0b"}}) + "\n")
    assert ingest_corpus(path).get("p1").meta == {"k": "a\0b"}


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
    *(("short_answers", ["yes", value], "each short_answers item must be a string")
      for value in (None, 5, True, ["x"], {"x": 1})),
    *(("facet_of", {"p1": value}, "each facet_of value must be a string")
      for value in (None, 5, False, ["m"], {"m": 1})),
])
def test_load_queries_rejects_a_badly_typed_id_or_query(field, value, reason, tmp_path):
    path = tmp_path / "queries.jsonl"
    path.write_text(json.dumps({"id": "q1", "query": "fine"}) + "\n"
                    + json.dumps({"id": "q2", "query": "x", field: value}) + "\n")
    with pytest.raises(MalformedRecordError) as err:
        load_queries(path)
    assert str(err.value) == f"{path}:2: {reason}"


@pytest.mark.parametrize("record, name", [
    ({"id": "q\ud800", "query": "x"}, "id"),
    ({"id": "q2", "query": "alpha \udc00"}, "query"),
    ({"id": "q2", "query": "x", "reference": "ref \udfff"}, "reference"),
    ({"id": "q2", "query": "x", "gold_ids": ["p\ud800"]}, "gold_ids"),
    ({"id": "q2", "query": "x", "short_answers": ["yes", "n\ud800"]}, "short_answers"),
    ({"id": "q2", "query": "x", "gold_ids": ["p1"], "facet_of": {"p1": "m\ud800"}}, "facet_of"),
])
def test_load_queries_rejects_a_lone_surrogate(record, name, tmp_path):
    """A query id holding a lone surrogate once reached the trace and killed
    eval's text table; every text field of a query follows the corpus's rule."""
    path = tmp_path / "queries.jsonl"
    fine = {"id": "q1", "query": "smile \ud83d\ude00", "reference": "caf\u00e9",
            "short_answers": ["\u65e5\u672c"], "gold_ids": ["p1"], "facet_of": {"p1": "m\u00fc"}}
    path.write_text(json.dumps(fine) + "\n" + json.dumps(record) + "\n")
    with pytest.raises(MalformedRecordError) as err:
        load_queries(path)
    assert str(err.value) == f"{path}:2: {name} holds a lone surrogate, which is not UTF-8 text"
    path.write_text(json.dumps(fine) + "\n")
    assert load_queries(path)[0].query == "smile \U0001f600"  # a pair is one character


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


@pytest.mark.parametrize("article, name", [
    ({**_ARTICLE, "id": "a\ud800"}, "id"),
    ({**_ARTICLE, "title": "how to \udc00"}, "title"),
    ({**_ARTICLE, "summary": "s\udfff"}, "summary"),
    ({**_ARTICLE, "steps": ["fine", "step \ud800"]}, "step"),
    ({"title": "t", "methods": [{"title": "m\ud800", "steps": ["x"]}]}, "method title"),
])
def test_load_article_dumps_rejects_a_lone_surrogate(article, name, tmp_path):
    path = tmp_path / "articles.jsonl"
    path.write_text(json.dumps(_ARTICLE) + "\n" + json.dumps(article) + "\n")
    with pytest.raises(DataError) as err:
        load_article_dumps(path)
    assert str(err.value) == f"{path}:2: {name} holds a lone surrogate, which is not UTF-8 text"


@pytest.mark.parametrize("article, name", [
    ({**_ARTICLE, "id": "a\0"}, "id"),
    ({**_ARTICLE, "steps": ["fine", "step \0 two"]}, "step"),
    ({"title": "t", "methods": [{"title": "m", "steps": ["x"]}, {"steps": ["\0"]}]}, "step"),
])
def test_load_article_dumps_rejects_a_nul_in_an_id_or_step(article, name, tmp_path):
    """An article id and its steps become passage ids and texts."""
    path = tmp_path / "articles.jsonl"
    path.write_text(json.dumps(_ARTICLE) + "\n" + json.dumps(article) + "\n")
    with pytest.raises(DataError) as err:
        load_article_dumps(path)
    assert str(err.value) == f"{path}:2: {name} {_NUL_FAULT}"
    titled = {**_ARTICLE, "title": "how to \0", "summary": "s\0"}
    path.write_text(json.dumps(titled) + "\n")
    assert load_article_dumps(path)[0].title == "how to \0"


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
