"""One measured invocation, run in its own process by run.py.

    python3 child.py cli --result R.json --spans query|all -- run --method ...
    python3 child.py engine --result R.json --spans query|all --inputs DIR \
        --queries FILE --delay-ms 5 --out-dir DIR

`cli` passes the arguments after `--` to the contregen command line, the path
users take. `engine` makes the per-query engine calls the `run` command makes
(tree build, then synthesis) through the public gateway and retriever handle,
with a model adapter that waits a fixed time on every call. Host speed
readings (hostspeed.py) are taken at start, every PERIOD_S and at the end;
their own time is taken out of every interval that contains them.
The result file holds the exit code, timings, host speed readings, peak
resident memory, the kernel backend and the recorded spans.
"""

from __future__ import annotations

import argparse
import json
import logging
import resource
import signal
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import hostspeed  # noqa: E402
import tracer as tracing  # noqa: E402

PERIOD_S = 0.1  # wall time between host speed readings


class LatencyAdapter:
    """llm.Adapter that waits a fixed time per call, then answers from fixtures."""

    adapter_id = "scripted-latency"
    waited = 0.0  # seconds slept over every instance, less readings taken meanwhile

    def __init__(self, inner, delay_s: float, marks: "HostMarks") -> None:
        self.inner = inner
        self.delay_s = delay_s
        self.marks = marks
        self.backend_calls = 0

    def complete(self, role, prompt, slots) -> str:
        self.backend_calls += 1
        start, busy = time.perf_counter(), self.marks.busy
        time.sleep(self.delay_s)
        LatencyAdapter.waited += time.perf_counter() - start - (self.marks.busy - busy)
        return self.inner.complete(role, prompt, slots)


class HostMarks:
    """Host speed readings, (time, slice seconds, model wait so far, seconds
    the reading took): one at start, then one every PERIOD_S from a SIGALRM
    handler, wherever the program is, and one at the end."""

    def __init__(self) -> None:
        self.readings: list[tuple[float, float, float, float]] = []
        self.busy = 0.0  # seconds spent taking readings
        self.take(warm=True)
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S)

    def take(self, warm: bool = False) -> None:
        start = time.perf_counter()
        if warm:
            hostspeed.reference_slice()
        seconds = hostspeed.timed_slice()
        end = time.perf_counter()
        self.busy += end - start
        self.readings.append(((start + end) / 2, seconds, LatencyAdapter.waited,
                              end - start))

    def _tick(self, signum, frame) -> None:
        self.take()
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.take()


def run_engine(args, marks: HostMarks) -> dict:
    from contregen import corpus, llm, retrieval, synthesis, tree
    from contregen.errors import ContregenError
    from contregen.runtrace import atomic_write, canonical_json

    inputs = Path(args.inputs)
    start = time.perf_counter()
    store = corpus.ingest_corpus(inputs / "corpus.jsonl")
    records = corpus.load_queries(args.queries)
    index = retrieval.LexicalIndex(store)
    templates = llm.load_templates()
    setup = (start, time.perf_counter())

    params = json.loads((inputs / "params.json").read_text(encoding="utf-8"))
    adapter = LatencyAdapter(llm.ScriptedAdapter.from_file(inputs / "fixtures.json"),
                             args.delay_ms / 1000.0, marks)
    config = tree.TreeConfig(max_depth=params["max_depth"],
                             max_plan_size=params["max_plan_size"],
                             topk=params["topk"])
    sections, intervals = {}, {}
    for record in sorted(records, key=lambda r: r.id):
        llm_calls, retrieval_calls = [], []
        gateway = llm.LlmGateway(adapter, templates, on_call=llm_calls.append)
        handle = retrieval.RetrieverHandle(index, store, on_call=retrieval_calls.append)
        section = {"answer": "", "error": None, "tree": None}
        waited = LatencyAdapter.waited
        began = time.perf_counter()
        try:
            root = tree.build_tree(gateway, handle, record.query, config)
            section["answer"] = synthesis.synthesize(gateway, root, handle.text).answer
        except ContregenError as exc:
            section["error"] = f"{type(exc).__name__}: {exc}"
        else:
            section["tree"] = tree.export_tree(root)
        intervals[record.id] = (began, time.perf_counter(), LatencyAdapter.waited - waited)
        section["llm_calls"] = [[c.role, c.node_path, c.prompt, c.response]
                                for c in llm_calls]
        section["retrieval_calls"] = [[c.query, list(c.hit_ids)] for c in retrieval_calls]
        sections[record.id] = section
    out_dir = Path(args.out_dir)
    atomic_write(out_dir / "trace.json", canonical_json(sections) + "\n")
    atomic_write(out_dir / "outputs.jsonl", "".join(
        canonical_json({"id": qid, "answer": s["answer"], "error": s["error"]}) + "\n"
        for qid, s in sorted(sections.items())))
    return {"rc": 0, "setup": setup, "intervals": intervals}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=("cli", "engine"))
    parser.add_argument("--result", required=True)
    parser.add_argument("--spans", choices=("query", "all"), default="query")
    parser.add_argument("--inputs")
    parser.add_argument("--queries")
    parser.add_argument("--delay-ms", type=float, default=0.0)
    parser.add_argument("--out-dir")
    own = sys.argv[1:]
    cli_argv: list[str] = []
    if "--" in own:
        split = own.index("--")
        own, cli_argv = own[:split], own[split + 1:]
    args = parser.parse_args(own)

    logging.basicConfig(level=logging.WARNING, stream=sys.stderr,
                        format="%(levelname)s %(name)s: %(message)s")
    marks = HostMarks()
    import contregen
    from contregen.cli import dispatch

    tracer = tracing.Tracer()
    tracer.install(tracing.LAYER_SPECS if args.spans == "all" else tracing.QUERY_SPECS)
    if args.spans == "all":
        tracer.wrap_attr(LatencyAdapter, "complete", "llm.model_wait")
    try:
        if args.mode == "cli":
            result = {"rc": dispatch(cli_argv)}
        else:
            result = run_engine(args, marks)
    finally:
        marks.stop()
        tracer.uninstall()
    result["marks"] = marks.readings
    result["maxrss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["kernel_backend"] = contregen.KERNEL_BACKEND
    result["trace"] = tracer.dump()
    Path(args.result).write_text(json.dumps(result), encoding="utf-8")
    return result["rc"]


if __name__ == "__main__":
    sys.exit(main())
