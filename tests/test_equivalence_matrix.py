"""The equivalence matrix: every method, on either kernel backend, writes the
same bytes cold or replayed, serial or four queries at a time.

The inputs come from the benchmark's own generator at a small size, so leaf
sub-questions repeat across queries, the case single-flight cache lookups
and the parallel replay exist for. Two queries also have a twin, a query of
the same text under another id, which runs beside it under ``--parallel 4``
and asks the same questions at the same moments. Every cell runs the CLI in
a working directory of its own with the same relative input, output and
cache paths, because the config snapshot in the trace records them.
"""

from __future__ import annotations

import importlib.util
import json
import shutil
import time
from pathlib import Path

import pytest

from contregen import runtrace
from contregen.cli import dispatch
from contregen.retrieval import LexicalIndex

_WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
_spec = importlib.util.spec_from_file_location("perfbench_workloads", _WORKLOADS)
workloads = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(workloads)

SIZES = {"passages": 300, "queries": 12, "vocab": 2000}
OUTPUTS = ("trace.json", "report.json", "outputs.jsonl")
TWINNED = ("q0000", "q0001")  # sorted ids put each twin beside its original


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """A workload with every method's fixtures, its queries with two twins
    appended, and the expected answers of each id, twins included."""
    path = tmp_path_factory.mktemp("matrix-inputs")
    params = workloads.generate("replay-all-5k", 7, path, SIZES)
    queries = path / "queries.jsonl"
    records = [json.loads(line) for line in queries.read_text(encoding="utf-8").splitlines()]
    twins = [{**record, "id": record["id"] + "-twin"} for record in records
             if record["id"] in TWINNED]
    with queries.open("a", encoding="utf-8") as fh:
        fh.writelines(json.dumps(twin, sort_keys=True) + "\n" for twin in twins)
    expected = json.loads((path / "expected.json").read_text(encoding="utf-8"))
    expected.update({qid + "-twin": expected[qid] for qid in TWINNED})
    return path, params, expected


class _Overlapping:
    """A model that answers after a short wait, which lets the other threads
    run, so that concurrent queries asking one question overlap."""

    def __init__(self, inner) -> None:
        self.inner = inner
        self.adapter_id = inner.adapter_id

    @property
    def backend_calls(self) -> int:
        return self.inner.backend_calls

    def complete(self, role, prompt, slots) -> str:
        time.sleep(0.002)
        return self.inner.complete(role, prompt, slots)


@pytest.fixture
def backends(monkeypatch):
    """Every model adapter and retrieval backend a run builds, and every index
    build; the model waits a little on each call when queries run at once."""
    built = {"adapters": [], "retrievers": [], "index_builds": []}
    real_adapter, real_backend, real_build = (runtrace._build_adapter,
                                              runtrace._build_backend, LexicalIndex._build)

    def build_adapter(config):
        adapter = real_adapter(config)
        built["adapters"].append(_Overlapping(adapter) if config.parallel > 1 else adapter)
        return built["adapters"][-1]

    def build_backend(config, store):
        built["retrievers"].append(real_backend(config, store))
        return built["retrievers"][-1]

    def counted_build(self):
        built["index_builds"].append(self)
        return real_build(self)

    monkeypatch.setattr(runtrace, "_build_adapter", build_adapter)
    monkeypatch.setattr(runtrace, "_build_backend", build_backend)
    monkeypatch.setattr(LexicalIndex, "_build", counted_build)
    return built


def _cell(command: str, method: str, parallel: int, params: dict) -> list[str]:
    return [command, "--method", method, "--corpus", "in/corpus.jsonl",
            "--queries", "in/queries.jsonl", "--adapter", "scripted",
            "--fixtures", "in/fixtures.json", "--out-dir", "out", "--cache-dir", "cache",
            "--topk", str(params["topk"]), "--max-depth", str(params["max_depth"]),
            "--max-plan-size", str(params["max_plan_size"]),
            "--max-iterations", str(params["max_iterations"]), "--parallel", str(parallel)]


@pytest.mark.parametrize("method", sorted(runtrace.METHODS))
def test_cold_and_replay_serial_and_parallel_write_the_same_bytes(
        method, inputs, backends, kernels, tmp_path, monkeypatch):
    source, params, expected = inputs
    outputs, calls = {}, {}
    for parallel in (1, 4):
        work = tmp_path / f"parallel-{parallel}"
        shutil.copytree(source, work / "in")
        monkeypatch.chdir(work)
        for command in ("run", "replay"):
            builds = len(backends["index_builds"])
            assert dispatch(_cell(command, method, parallel, params)) == 0
            outputs[command, parallel] = {name: (work / "out" / name).read_bytes()
                                          for name in OUTPUTS}
            calls[command, parallel] = (backends["adapters"][-1].backend_calls,
                                        backends["retrievers"][-1].backend_calls,
                                        len(backends["index_builds"]) - builds)

    cold = outputs["run", 1]
    for cell, files in outputs.items():
        assert files == cold, cell
    # a concurrent miss on a key another query is computing waits for it, so
    # four at a time make exactly the serial run's backend calls
    assert calls["run", 4] == calls["run", 1]
    assert calls["run", 1][2] == 1  # the cold run builds its index once
    for parallel in (1, 4):
        assert calls["replay", parallel] == (0, 0, 0)

    rows = [json.loads(line) for line in cold["outputs.jsonl"].decode().splitlines()]
    assert [row["id"] for row in rows] == sorted(expected)
    sections = json.loads(cold["trace.json"])["queries"]
    for row in rows:
        want = expected[row["id"]][method]
        assert (row["answer"], row["error"]) == (want["answer"], None)
        section = sections[row["id"]]
        assert len(section["llm_calls"]) == want["llm_calls"]
        assert len(section["retrieval_calls"]) == want["retrievals"]
