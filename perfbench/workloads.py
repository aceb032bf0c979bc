"""Seeded benchmark inputs: corpus, queries, and a scripted fixture table.

Every text (passages, questions, sub-questions, rewrites, answers) is drawn
from one Zipf law over a fixed synthetic vocabulary, so the most frequent
words occur in nearly every passage, as stopwords do in real text, and a
question retrieves candidates from most of the corpus. Question-like texts
are stratified samples of that law (see `_Texts.key`).

The fixture table realizes every tree and baseline run. Tree shapes come
from a fixed catalog of accept/reject verdict patterns; the seed decides
which query gets which shape, so every seed has the same multiset of shapes
(and so the same number of model calls and retrievals) while the texts
differ. About a fifth of the accepted sub-questions (the second and sixth
leaf of each query) repeat a leaf of an earlier query.

Run directly to write one workload's inputs:

    python3 perfbench/workloads.py --workload tree-cold-50k --seed 1 --out DIR
"""

from __future__ import annotations

import argparse
import bisect
import itertools
import json
import random
from pathlib import Path

# Parameters per workload. `mode` selects how run.py drives it,
# `min_repeats` the fewest measured passes (more if --seconds allows) and
# `setup_repeats` how many set-ups it times at the least (one in each pass,
# the others in invocations with an empty query file).
WORKLOADS: dict[str, dict] = {
    "tree-cold-50k": {
        "mode": "cold",
        "methods": ["contregen"],
        "passages": 50000,
        "queries": 20,
        # Only the costly shapes (48 to 53 model calls): with 20 latency
        # samples a run, a narrow spread of per-query work keeps the median
        # inside one plateau.
        "shapes": [0, 2, 5, 8, 9],
        # One pass of 20 queries; the other set-ups run on an empty query file.
        "setup_repeats": 3,
    },
    "tree-latency-2k": {
        "mode": "engine",
        "methods": ["contregen"],
        "passages": 2000,
        "queries": 100,
        "delay_ms": 5.0,
        "setup_repeats": 5,
        # Questions without the 10 most frequent words keep retrieval under a
        # tenth of each query, so the model wait dominates.
        "text_min_rank": 10,
    },
    "replay-all-5k": {
        "mode": "replay",
        "methods": ["contregen", "retgen", "iterretgen", "selfask"],
        "passages": 5000,
        "queries": 200,
        # Replay never retrieves; rarer question words keep the untimed
        # cache fill cheap.
        "text_min_rank": 200,
        # A median of three passes per query keeps a host hiccup out of it.
        "min_repeats": 3,
    },
}

# Shared by every workload.
COMMON = {
    "vocab": 20000,
    "zipf_s": 1.0,
    "passage_tokens": (50, 70),
    "question_words": 8,
    "summary_words": 30,
    "answer_words": 60,
    "reference_words": 60,
    "gold_per_query": 4,
    "max_depth": 2,
    "max_plan_size": 3,
    "topk": 5,
    "max_iterations": 5,
    "repeat_leaf_slots": [2, 6],
    "text_min_rank": 0,
    "min_repeats": 1,
    "setup_repeats": 1,
    "shapes": list(range(10)),
}

# Verdict of one planned sub-question: accepted (A), rejected as unnecessary
# (N), or rejected after an irrelevant retrieval probe (R).
ACCEPT, NOT_NEEDED = "A", "N"

# Ten root patterns; each accepted root item carries its own child pattern.
# Model calls per query run from 36 to 53, retrievals from 9 to 13. Sorted by
# calls, the 5th and 6th shapes cost the same, as do the 9th and 10th, so the
# median and the 90th percentile of per-query latency fall inside a plateau
# rather than on a step between two shapes.
SHAPES: tuple[tuple[tuple[str, str], ...], ...] = (
    (("A", "AAA"), ("A", "AAA"), ("A", "AAA")),
    (("A", "AAA"), ("A", "AAA"), ("A", "AAA")),
    (("A", "AAN"), ("A", "AAA"), ("A", "ARA")),
    (("A", "AAA"), ("A", "NAA"), ("R", "")),
    (("A", "AAR"), ("N", ""), ("A", "AAA")),
    (("A", "RRA"), ("A", "AAA"), ("A", "ANA")),
    (("A", "AAA"), ("A", "AAA"), ("N", "")),
    (("R", ""), ("A", "AAA"), ("A", "AAN")),
    (("A", "AAR"), ("A", "AAR"), ("A", "AAN")),
    (("A", "AAA"), ("A", "ARR"), ("A", "AAA")),
)

# Follow-up rounds per self-ask run, assigned round robin like the shapes.
SELFASK_FOLLOWUPS = (0, 1, 2, 3, 2)

_CONSONANTS = "bdfgklmnprstvz"
_VOWELS = "aeiou"
_SYLLABLES = [c + v for c in _CONSONANTS for v in _VOWELS]


def vocabulary(size: int) -> list[str]:
    """Distinct lowercase words, the most frequent first; independent of the seed."""
    base = len(_SYLLABLES)
    words = []
    for rank in range(size):
        n = rank + base
        parts = []
        while n:
            n, digit = divmod(n, base)
            parts.append(_SYLLABLES[digit])
        words.append("".join(parts))
    return words


def shape_counts(shape) -> tuple[int, int]:
    """(model calls, logical retrievals) one tree query of this shape makes."""
    calls, retrievals = 2, 1  # root plan and root answer; root retrieval

    def vet(verdict: str) -> tuple[int, int]:
        return (1, 0) if verdict == NOT_NEEDED else (3, 1)

    for verdict, children in shape:
        c, r = vet(verdict)
        calls, retrievals = calls + c, retrievals + r
        if verdict != ACCEPT:
            continue
        calls += 2  # the child's plan and its summary or merge
        for child in children:
            c, r = vet(child)
            calls, retrievals = calls + c, retrievals + r
            if child == ACCEPT:
                calls += 1  # leaf summary
    return calls, retrievals


class _Texts:
    """Zipf-distributed word sequences, unique where a text is a fixture key."""

    def __init__(self, rng: random.Random, params: dict) -> None:
        self.rng = rng
        self.words = vocabulary(params["vocab"])
        weights = [1.0 / (rank + 1) ** params["zipf_s"] for rank in range(params["vocab"])]
        self.cum = list(itertools.accumulate(weights))
        # Texts other than passages may skip the most frequent ranks.
        skip = params["text_min_rank"]
        self.text_words = self.words[skip:]
        self.text_cum = list(itertools.accumulate(weights[skip:]))
        self.corpus_words: set[str] = set()
        self.used: set[str] = set()

    def draw(self, n: int) -> list[str]:
        return self.rng.choices(self.words, cum_weights=self.cum, k=n)

    def sentence(self, n: int) -> str:
        return " ".join(self.rng.choices(self.text_words, cum_weights=self.text_cum, k=n))

    def key(self, n: int) -> str:
        """A fresh question-like text that shares at least one word with the corpus.

        Its n words are a stratified sample of the Zipf law: word i comes
        from the i-th n-quantile band, so every question has about the same
        mix of frequent and rare words, and retrieval work varies less
        between questions and seeds than with independent draws.
        """
        total = self.text_cum[-1]
        while True:
            words = [self.text_words[min(len(self.text_words) - 1, bisect.bisect_left(
                self.text_cum, (i + self.rng.random()) * total / n))] for i in range(n)]
            self.rng.shuffle(words)
            text = " ".join(words)
            if text not in self.used and self.corpus_words.intersection(words):
                self.used.add(text)
                return text


def generate(workload: str, seed: int, out_dir: str | Path,
             overrides: dict | None = None) -> dict:
    """Write corpus.jsonl, queries.jsonl, empty.jsonl, fixtures.json,
    expected.json and params.json under out_dir; return the parameters used.

    `overrides` replaces generator parameters (tests use it to shrink sizes).
    """
    params = {**COMMON, **WORKLOADS[workload], **(overrides or {})}
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rng = random.Random(f"{workload}:{seed}")

    lo, hi = params["passage_tokens"]
    lengths = [rng.randint(lo, hi) for _ in range(params["passages"])]
    texts = _Texts(rng, params)
    flat = texts.draw(sum(lengths))
    texts.corpus_words = set(flat)
    passage_ids = [f"p{i:06d}" for i in range(params["passages"])]
    with (out / "corpus.jsonl").open("w", encoding="utf-8") as fh:
        start = 0
        for pid, length in zip(passage_ids, lengths):
            text = " ".join(flat[start:start + length])
            start += length
            fh.write(json.dumps({"id": pid, "text": text}) + "\n")
    del flat

    fixtures: dict[str, dict] = {
        "plan": {}, "necessity": {}, "rewrite": {}, "relevance": {},
        "summarize_leaf": {}, "merge_intermediate": {}, "generate_root": {},
        "baseline_generate": {}, "baseline_followup": {},
    }
    nq = params["queries"]
    shapes = [SHAPES[i] for i in params["shapes"]]
    shape_of = list(range(nq))
    rng.shuffle(shape_of)
    # The first query, which has nothing to repeat, always gets the first
    # shape, so the per-query work is the same multiset for every seed.
    first = next(i for i, s in enumerate(shape_of) if s % len(shapes) == 0)
    shape_of[0], shape_of[first] = shape_of[first], shape_of[0]
    earlier_leaves: list[str] = []
    qw = params["question_words"]

    def rejected(verdict: str) -> str:
        sub = texts.key(qw)
        if verdict == NOT_NEEDED:
            fixtures["necessity"][sub] = "no"
            return sub
        rewritten = texts.key(qw)
        fixtures["necessity"][sub] = "yes"
        fixtures["rewrite"][sub] = rewritten
        fixtures["relevance"][rewritten] = "no"
        return sub

    def accepted(pattern, leaves: list) -> str:
        """An accepted sub-question; one with a child pattern is planned.

        Leaves at the positions in `repeat_leaf_slots` (counted per query)
        repeat a leaf of an earlier query.
        """
        if pattern is None:
            leaves.append(None)
            if len(leaves) in params["repeat_leaf_slots"] and earlier_leaves:
                return rng.choice(earlier_leaves)
        sub, rewritten = texts.key(qw), texts.key(qw)
        fixtures["necessity"][sub] = "yes"
        fixtures["rewrite"][sub] = rewritten
        fixtures["relevance"][rewritten] = "yes"
        if pattern is None:
            fixtures["summarize_leaf"][rewritten] = texts.sentence(params["summary_words"])
            leaves[-1] = sub
        else:
            items = [accepted(None, leaves) if v == ACCEPT else rejected(v)
                     for v in pattern]
            fixtures["plan"][rewritten] = _numbered(items)
            role = "merge_intermediate" if ACCEPT in pattern else "summarize_leaf"
            fixtures[role][rewritten] = texts.sentence(params["summary_words"])
        return sub

    queries, expected = [], {}
    for index in range(nq):
        qid = f"q{index:04d}"
        query = texts.key(qw)
        shape = shapes[shape_of[index] % len(shapes)]
        leaves: list = []
        items = [accepted(children, leaves) if verdict == ACCEPT else rejected(verdict)
                 for verdict, children in shape]
        earlier_leaves += [leaf for leaf in leaves if leaf is not None]
        fixtures["plan"][query] = _numbered(items)
        answer = texts.sentence(params["answer_words"])
        fixtures["generate_root"][query] = answer
        baseline_answer = texts.sentence(params["answer_words"])
        fixtures["baseline_generate"][query] = baseline_answer
        followups = SELFASK_FOLLOWUPS[shape_of[index] % len(SELFASK_FOLLOWUPS)]
        fixtures["baseline_followup"][query] = (
            [f"Follow up: {texts.key(qw)}" for _ in range(followups)] + ["no follow-up"])
        calls, retrievals = shape_counts(shape)
        expected[qid] = {
            "contregen": {"answer": answer, "llm_calls": calls, "retrievals": retrievals},
            "retgen": {"answer": baseline_answer, "llm_calls": 1, "retrievals": 1},
            "iterretgen": {"answer": baseline_answer,
                           "llm_calls": params["max_iterations"],
                           "retrievals": params["max_iterations"]},
            "selfask": {"answer": baseline_answer, "llm_calls": followups + 2,
                        "retrievals": followups + 1},
        }
        queries.append({
            "id": qid,
            "query": query,
            "gold_ids": sorted(rng.sample(passage_ids, params["gold_per_query"])),
            "reference": texts.sentence(params["reference_words"]),
            "short_answers": [texts.sentence(2), texts.sentence(2)],
        })

    with (out / "queries.jsonl").open("w", encoding="utf-8") as fh:
        for record in queries:
            fh.write(json.dumps(record, sort_keys=True) + "\n")
    (out / "empty.jsonl").write_text("", encoding="utf-8")
    (out / "params.json").write_text(json.dumps(params, sort_keys=True) + "\n",
                                     encoding="utf-8")
    (out / "fixtures.json").write_text(
        json.dumps(fixtures, sort_keys=True, indent=0) + "\n", encoding="utf-8")
    (out / "expected.json").write_text(
        json.dumps(expected, sort_keys=True, indent=0) + "\n", encoding="utf-8")
    return params


def _numbered(items: list[str]) -> str:
    return "\n".join(f"{n}. {item}" for n, item in enumerate(items, start=1))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    print(json.dumps(generate(args.workload, args.seed, args.out), sort_keys=True))


if __name__ == "__main__":
    main()
