import random

import pytest

from contregen.corpus import QueryRecord
from contregen.metrics import (
    evaluate_run,
    normalize,
    recall,
    render_table,
    rouge_l,
    string_em,
)

from oracles import recall_count, rouge_from_lcs


def test_normalize():
    assert normalize("Hello, World!  It's fine.") == "hello world it s fine"
    assert normalize("  spaced\tout \n text ") == "spaced out text"


def test_recall_examples():
    assert recall(["a", "b"], ["a", "b"]) == 1.0
    assert recall(["x", "y"], ["a", "b"]) == 0.0
    assert recall(["a", "a", "x"], ["a", "b"]) == 0.5  # duplicates count once
    assert recall([], ["a"]) == 0.0


def test_recall_empty_gold_rejected():
    with pytest.raises(ValueError):
        recall(["a"], [])


def test_recall_order_insensitive():
    assert recall(["b", "a"], ["a", "b", "c"]) == recall(["a", "b"], ["c", "b", "a"])


def test_recall_matches_counting_oracle():
    rng = random.Random(4242)
    universe = [f"p{i}" for i in range(40)]
    for _ in range(300):
        retrieved = rng.sample(universe, rng.randint(0, 20))
        gold = rng.sample(universe, rng.randint(1, 20))
        assert recall(retrieved, gold) == recall_count(retrieved, gold)


def test_rouge_worked_example():
    value = rouge_l("the cat sat", "the cat ran fast")
    # P = 2/3, R = 2/4 -> F1*100 = 400/7
    assert abs(value - 400.0 / 7.0) < 1e-9
    expected = rouge_from_lcs("the cat sat".split(), "the cat ran fast".split())
    assert abs(value - expected) < 1e-12


def test_rouge_identity_and_disjoint():
    assert rouge_l("same exact words", "same exact words") == 100.0
    assert rouge_l("alpha beta", "gamma delta") == 0.0


def test_rouge_normalization_applies():
    assert rouge_l("The CAT, sat!", "the cat sat") == 100.0


def test_rouge_empty_cases():
    assert rouge_l("", "reference words") == 0.0
    assert rouge_l("!!!", "reference words") == 0.0  # normalizes to nothing
    with pytest.raises(ValueError):
        rouge_l("candidate", "")


def test_rouge_f1_symmetric_under_swap():
    rng = random.Random(77)
    vocab = ["red", "green", "blue", "cyan", "teal", "gray"]
    for _ in range(100):
        cand = " ".join(rng.choices(vocab, k=rng.randint(1, 12)))
        ref = " ".join(rng.choices(vocab, k=rng.randint(1, 12)))
        assert abs(rouge_l(cand, ref) - rouge_l(ref, cand)) < 1e-12


def test_rouge_matches_oracle_randomized():
    rng = random.Random(123)
    vocab = ["one", "two", "three", "four", "five"]
    for _ in range(200):
        cand_tokens = rng.choices(vocab, k=rng.randint(1, 15))
        ref_tokens = rng.choices(vocab, k=rng.randint(1, 15))
        got = rouge_l(" ".join(cand_tokens), " ".join(ref_tokens))
        assert abs(got - rouge_from_lcs(cand_tokens, ref_tokens)) < 1e-12


def test_string_em_fractions():
    assert string_em(["cat", "dog"], "the cat chased the dog") == 1.0
    assert string_em(["bird"], "the cat chased the dog") == 0.0
    assert string_em(["cat", "bird", "dog", "fish"], "cat and dog here") == 0.5
    assert string_em(["The Cat!"], "a big the cat indeed") == 1.0  # normalized match
    with pytest.raises(ValueError):
        string_em([], "anything")


def test_string_em_counts_only_answers_of_at_least_one_word():
    """An answer that normalizes to nothing is a substring of every answer;
    it earns no credit and does not count."""
    for short in (["?"], [""], ["  ", "!?"]):
        with pytest.raises(ValueError):
            string_em(short, "completely unrelated answer")
    assert string_em(["?", "dog"], "the cat") == 0.0
    assert string_em(["", "cat", "bird"], "the cat") == 0.5
    queries = [_record("q1", short=("?", "")), _record("q2", short=("...", "alpha"))]
    report = evaluate_run(queries, {"q1": "anything", "q2": "alpha"}, {})
    assert report["per_query"]["q1"]["em"] is None
    assert report["per_query"]["q2"]["em"] == 1.0
    assert report["aggregates"]["em"] == 1.0


def _record(qid, gold=("p1",), reference="ref words", short=None):
    return QueryRecord(id=qid, query="q", gold_ids=frozenset(gold),
                       reference=reference, facet_of=None, short_answers=short)


def test_evaluate_run_aggregates_are_means():
    queries = [
        _record("q1", gold=("p1", "p2"), reference="alpha beta"),
        _record("q2", gold=("p3",), reference="gamma delta"),
    ]
    answers = {"q1": "alpha beta", "q2": "unrelated text"}
    retrieved = {"q1": ["p1"], "q2": ["p3", "p9"]}
    report = evaluate_run(queries, answers, retrieved)
    assert report == {
        "per_query": {"q1": {"recall": 0.5, "rouge_l": 100.0, "em": None},
                      "q2": {"recall": 1.0, "rouge_l": 0.0, "em": None}},
        "aggregates": {"recall": 0.75, "rouge_l": 50.0},  # no query carried short answers
    }


def test_evaluate_run_skips_unanswered_and_empty_gold(caplog):
    queries = [
        _record("answered", gold=()),
        _record("silent"),
    ]
    with caplog.at_level("WARNING"):
        report = evaluate_run(queries, {"answered": "text"}, {"answered": []})
    assert set(report) == {"per_query", "aggregates"}
    assert set(report["per_query"]) == {"answered"}
    assert report["per_query"]["answered"]["recall"] is None
    assert "recall" not in report["aggregates"]
    assert any("no gold passages" in r.message for r in caplog.records)


def test_evaluate_run_em_only_with_short_answers():
    queries = [_record("q1", short=("alpha", "zeta"))]
    report = evaluate_run(queries, {"q1": "alpha appears"}, {"q1": ["p1"]})
    assert report["per_query"]["q1"]["em"] == 0.5
    assert report["aggregates"]["em"] == 0.5


def test_render_table_shape():
    report = {
        "per_query": {"q2": {"recall": 1.0, "rouge_l": 50.0, "em": None},
                      "q1": {"recall": 0.5, "rouge_l": 25.0, "em": 1.0}},
        "aggregates": {"recall": 0.75, "rouge_l": 37.5, "em": 1.0},
    }
    table = render_table(report)
    lines = table.splitlines()
    assert lines[0].split() == ["query", "recall", "rouge_l", "em"]
    body = [line.split()[0] for line in lines[2:4]]
    assert body == ["q1", "q2"]  # sorted by query id
    assert lines[-1].startswith("mean")
    assert "0.7500" in lines[-1]
    assert "       -" in table  # the missing em renders as a dash

