"""Tests of the benchmark itself: inputs, fixtures, percentiles, tracer.

    PYTHONPATH=src python -m pytest -q perfbench
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import hostspeed  # noqa: E402
import run as bench  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402
from contregen import runtrace  # noqa: E402

SMALL = {"passages": 300, "queries": 10}
FILES = ("corpus.jsonl", "queries.jsonl", "fixtures.json", "expected.json",
         "params.json", "empty.jsonl")


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_same_seed_gives_identical_files(tmp_path, workload):
    workloads.generate(workload, 7, tmp_path / "a", SMALL)
    workloads.generate(workload, 7, tmp_path / "b", SMALL)
    workloads.generate(workload, 8, tmp_path / "c", SMALL)
    for name in FILES:
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
    assert (tmp_path / "a" / "corpus.jsonl").read_bytes() != \
        (tmp_path / "c" / "corpus.jsonl").read_bytes()


def test_shape_catalog_matches_the_stated_call_range():
    counts = sorted(workloads.shape_counts(shape) for shape in workloads.SHAPES)
    assert counts[0] == (36, 9) and counts[-1] == (53, 13)
    assert counts[4] == counts[5] and counts[8] == counts[9]


def _config(inputs: Path, out: Path, method: str, params: dict) -> runtrace.RunConfig:
    return runtrace.RunConfig(
        method=method, corpus_path=str(inputs / "corpus.jsonl"),
        queries_path=str(inputs / "queries.jsonl"), out_dir=str(out),
        fixtures_path=str(inputs / "fixtures.json"), topk=params["topk"],
        max_depth=params["max_depth"], max_plan_size=params["max_plan_size"],
        max_iterations=params["max_iterations"])


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_scripted_run_over_every_workload_misses_no_fixture(tmp_path, workload):
    params = workloads.generate(workload, 3, tmp_path / "in", SMALL)
    expected = json.loads((tmp_path / "in" / "expected.json").read_text())
    for method in params["methods"]:
        trace = runtrace.run(_config(tmp_path / "in", tmp_path / method, method, params))
        assert sorted(trace.queries) == sorted(expected)
        for qid, section in trace.queries.items():
            assert section.error is None, section.error
            assert section.answer == expected[qid][method]["answer"]
            assert len(section.llm_calls) == expected[qid][method]["llm_calls"]
            assert len(section.retrieval_calls) == expected[qid][method]["retrievals"]


def test_percentile_needs_ten_samples_beyond():
    values = list(range(1, 101))
    assert bench.percentile(values, 0.9) == (90, 10)
    assert bench.percentile(values, 0.5) == (50, 50)
    assert bench.percentile(values[:99], 0.9)[1] == 9 < bench.TAIL_SAMPLES
    assert bench.percentile(list(range(20)), 0.5)[1] == 10
    assert bench.percentile([5.0], 0.9) == (5.0, 0)
    with pytest.raises(ValueError):
        bench.percentile([], 0.5)


def _raw(target: str):
    module, _, path = target.partition(":")
    owner = sys.modules[module]
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return vars(owner)[attr]


def test_tracer_restores_every_wrapped_attribute():
    import contregen.cli  # noqa: F401  (a wrapped module)

    before = {spec.target: _raw(spec.target) for spec in tracing.LAYER_SPECS}
    tracer = tracing.Tracer()
    tracer.install(tracing.LAYER_SPECS + (tracing.Spec("contregen.llm:Gone", "x"),
                                          tracing.Spec("contregen.nomodule:f", "y")))
    assert tracer.missing == ["contregen.llm:Gone", "contregen.nomodule:f"]
    for target, original in before.items():
        assert _raw(target) is not original, target
    assert isinstance(_raw("contregen.llm:LlmCache.key"), staticmethod)
    tracer.uninstall()
    for target, original in before.items():
        assert _raw(target) is original, target


def test_tracing_changes_no_output_and_nests_spans(tmp_path):
    params = workloads.generate("tree-cold-50k", 5, tmp_path / "in", SMALL)
    config = _config(tmp_path / "in", tmp_path / "out", "contregen", params)
    runtrace.run(config)
    untraced = (tmp_path / "out" / "trace.json").read_bytes()
    tracer = tracing.Tracer()
    tracer.install(tracing.LAYER_SPECS)
    try:
        runtrace.run(config)
    finally:
        tracer.uninstall()
    assert (tmp_path / "out" / "trace.json").read_bytes() == untraced
    agg = tracing.Aggregate([tracer.dump()])
    assert agg.errors == 0
    assert agg.n("tree.build") == agg.n("synthesis.synthesize") == SMALL["queries"]
    assert agg.n("retrieval.retrieve") == agg.n("retrieval.handle") > 0
    assert 0 < agg.self_s("retrieval.retrieve") < agg.s("retrieval.retrieve")
    assert agg.query_phase == pytest.approx(agg.s("tree.build") + agg.s("synthesis.synthesize"))
    assert len(tracing.query_intervals(tracer.dump())) == SMALL["queries"]


def test_host_adjustment_scales_compute_but_not_waits_or_readings():
    nominal = hostspeed.NOMINAL_S
    # Readings: (time, slice seconds, model wait so far, seconds taken).
    marks = hostspeed.Marks([(0.0, 2 * nominal, 0.0, 0.0), (10.0, 2 * nominal, 0.0, 0.5)])
    assert marks.adjust(1.0, 3.0) == pytest.approx(1.0)
    assert marks.adjust(1.0, 3.0, wait=1.0) == pytest.approx(1.5)
    assert marks.raw(9.0, 11.0) == pytest.approx(1.5)
    assert marks.adjust(9.0, 11.0) == pytest.approx(0.75)
    slowing = hostspeed.Marks([(0.0, nominal, 0.0, 0.0), (4.0, 3 * nominal, 0.0, 0.0)])
    assert slowing.factor(2.0) == pytest.approx(2.0 / 3.0)
    assert slowing.factor(-1.0) == 1.0 and slowing.factor(5.0) == pytest.approx(1.0 / 3.0)
