"""End-to-end and per-layer benchmark of the contregen engine.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --compare A.json B.json

Workloads (see workloads.py for the generator parameters):

* tree-cold-50k    `contregen run` over a 50k-passage corpus with a fresh,
                   empty cache: retrieval-bound.
* tree-latency-2k  the per-query engine calls over a 2k corpus with a fixed
                   5 ms wait on every model call: model-wait-bound.
* replay-all-5k    `contregen replay` of all four methods from a warm shared
                   cache: cache reads, baselines, metrics, trace output.

Load is a closed loop with one client: each invocation runs its queries one
after another with --parallel 1, and invocations run one at a time, each in
its own process. With --trace 0 the end-to-end metrics are measured with no
spans but the per-query engine calls; with --trace 1 an untraced and a traced
invocation are run and the per-layer metrics come from the traced one.

End-to-end metrics (--trace 0), each printed with its unit and sample count.
Every time is rescaled to the nominal host speed of hostspeed.py: the part
of it not spent waiting on the model is multiplied by the nominal over the
measured time of a fixed reference slice, timed every 0.1 s in the measured
process (the raw figures are printed too). On a shared host the same work
can run twice as slow from one second to the next; the rescaled figures
repeat where the raw ones do not.

* setup_s        median of the set-ups timed in the passes and in extra
                 invocations with an empty query file: the time from
                 starting an invocation to its first query (summed over the
                 four methods on replay); on the latency workload, the time
                 for ingest, queries, index and templates.
* queries_per_s  queries (method, query pairs on replay) per second of
                 invocation wall time, median over the measured passes.
* query_ms_p50, query_ms_p90
                 per-query latency around the engine calls, each query's
                 median over the passes; on replay a query's latency sums its
                 four methods. tree-cold-50k has 20 queries, so its p90 has
                 fewer than ten samples beyond it.
* peak_rss_mb    peak resident memory of the measured process (the largest
                 of the four on replay), median over passes.

Every run checks its outputs (exit codes, no failed query, answers equal to
the scripted ones, byte-identical trace.json across repeats, zero backend
calls on replay) and exits non-zero when a check fails. The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import hostspeed  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

END_TO_END = {
    "setup_s": "s",
    "queries_per_s": "1/s",
    "query_ms_p50": "ms",
    "query_ms_p90": "ms",
    "peak_rss_mb": "MB",
}
TAIL_SAMPLES = 10
DEADLINE_S = 170.0
HOST_TOLERANCE = 0.15


class CheckFailed(Exception):
    pass


def percentile(values, q: float) -> tuple[float, int]:
    """Nearest-rank q-quantile of values and the number of samples above it.

    A percentile is only trustworthy with at least TAIL_SAMPLES samples
    beyond it; callers flag the ones that fall short.
    """
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    rank = min(len(ordered), max(1, math.ceil(q * len(ordered))))
    return ordered[rank - 1], len(ordered) - rank


def _sha(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class Bench:
    """One workload run: inputs, child invocations, checks, metrics."""

    def __init__(self, workload: str, seed: int, seconds: float, work: Path) -> None:
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.work = work
        self.deadline = time.perf_counter() + DEADLINE_S
        self.params = workloads.generate(workload, seed, work / "in")
        self.expected = json.loads((work / "in" / "expected.json").read_text())
        self.qid_of = {}
        for line in (work / "in" / "queries.jsonl").read_text().splitlines():
            record = json.loads(line)
            self.qid_of[record["query"]] = record["id"]
        self.checks: list[str] = []
        self.failures: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.backends: set[str] = set()
        self._calls = 0
        self.digests: dict[str, list[str]] = {}
        self.missing: list[str] = []
        self.tail_beyond = None
        self.slices: list[float] = []  # host speed readings (hostspeed.py)
        self.raw: dict[str, float] = {}  # end-to-end metrics before adjustment

    # -- checks ---------------------------------------------------------

    def check(self, ok: bool, what: str) -> None:
        (self.checks if ok else self.failures).append(what)

    # -- child processes ------------------------------------------------

    def _child(self, mode: str, spans: str, extra: list[str]) -> dict:
        """Run one invocation; return its result with the parent's wall clock
        interval (perf_counter shares CLOCK_MONOTONIC with the child)."""
        self._calls += 1
        result_path = self.work / f"result-{self._calls}.json"
        cmd = [sys.executable, str(HERE / "child.py"), mode, "--result", str(result_path),
               "--spans", spans] + extra
        remaining = self.deadline - time.perf_counter()
        if remaining <= 1:
            raise CheckFailed("time budget of the run exhausted")
        start = time.perf_counter()
        try:
            proc = subprocess.run(cmd, cwd=self.work, capture_output=True, text=True,
                                  timeout=remaining)
        except subprocess.TimeoutExpired:
            raise CheckFailed("time budget of the run exhausted") from None
        end = time.perf_counter()
        if not result_path.exists():
            raise CheckFailed(f"{mode} child failed (exit {proc.returncode}): "
                              f"{proc.stderr.strip()[-2000:]}")
        result = json.loads(result_path.read_text())
        result_path.unlink()
        self.backends.add(result["kernel_backend"])
        self.check(proc.returncode == 0 and result["rc"] == 0,
                   f"exit code 0 ({' '.join(extra[:3])})")
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr[-2000:])
        result["interval"] = (start, end)
        self.slices += [reading[1] for reading in result["marks"]]
        return result

    def cli(self, command: str, method: str, queries: str, spans: str = "query",
            fresh_cache: bool = False) -> dict:
        if fresh_cache:
            shutil.rmtree(self.work / "cache", ignore_errors=True)
        p = self.params
        argv = [command, "--method", method,
                "--corpus", "in/corpus.jsonl", "--queries", f"in/{queries}",
                "--adapter", "scripted", "--fixtures", "in/fixtures.json",
                "--out-dir", f"out/{method}", "--cache-dir", "cache",
                "--topk", str(p["topk"]), "--max-depth", str(p["max_depth"]),
                "--max-plan-size", str(p["max_plan_size"]),
                "--max-iterations", str(p["max_iterations"]), "--parallel", "1"]
        return self._child("cli", spans, ["--"] + argv)

    def engine(self, queries: str, spans: str = "query") -> dict:
        return self._child("engine", spans, [
            "--inputs", "in", "--queries", f"in/{queries}",
            "--delay-ms", str(self.params["delay_ms"]), "--out-dir", "out/contregen"])

    def invoke(self, method: str, queries: str = "queries.jsonl",
               spans: str = "query") -> dict:
        """One invocation of the workload's kind for one method."""
        mode = self.params["mode"]
        if mode == "engine":
            return self.engine(queries, spans)
        return self.cli("replay" if mode == "replay" else "run", method, queries, spans,
                        fresh_cache=mode == "cold")

    # -- output checks ----------------------------------------------------

    def check_outputs(self, method: str) -> str:
        """Count and check one invocation's outputs; return trace.json's digest."""
        out = self.work / "out" / method
        rows = [json.loads(line) for line in
                (out / "outputs.jsonl").read_text().splitlines()]
        self.attempted += len(self.expected)
        errors = sum(1 for row in rows if row["error"] is not None)
        missing = len(self.expected) - len(rows)
        self.failed += errors + max(missing, 0)
        self.check(errors == 0 and missing == 0, f"no failed query ({method})")
        wrong = [row["id"] for row in rows
                 if row["answer"] != self.expected[row["id"]][method]["answer"]]
        self.check(not wrong, f"answers equal the scripted ones ({method})")
        return _sha(out / "trace.json")

    def same(self, digests, what: str) -> None:
        self.check(len(set(digests)) == 1, f"trace.json byte-identical {what}")

    def timings(self, result: dict, method: str, expected=None) -> dict:
        """Raw and host-adjusted (hostspeed.py) times of one invocation:
        wall, set-up, and seconds per query id (those of `expected`, by
        default every query)."""
        marks = hostspeed.Marks(result["marks"])
        start, end = result["interval"]
        if "intervals" in result:  # engine: timed around the engine calls
            setup = result["setup"]
            intervals = {qid: [tuple(iv)] for qid, iv in result["intervals"].items()}
        else:  # cli: the per-query spans; set-up runs until the first one
            intervals = {self.qid_of[text]: [(a, b, 0.0) for a, b in spans]
                         for text, spans in tracing.query_intervals(result["trace"]).items()}
            setup = (start, min((a for spans in intervals.values() for a, _, _ in spans),
                                default=end))
        expected = self.expected if expected is None else expected
        self.check(set(intervals) == set(expected), f"every query timed ({method})")
        raw = {qid: sum(marks.raw(a, b) for a, b, _ in spans)
               for qid, spans in intervals.items()}
        adjusted = {qid: sum(marks.adjust(a, b, wait) for a, b, wait in spans)
                    for qid, spans in intervals.items()}
        return {
            "wall": (marks.raw(start, end), marks.adjust(start, end, marks.waited())),
            "setup": (marks.raw(*setup), marks.adjust(*setup)),
            "query": (raw, adjusted),
        }

    def expected_total(self, methods, field: str) -> int:
        return sum(self.expected[qid][m][field] for qid in self.expected for m in methods)

    # -- the measured loop --------------------------------------------------

    def repeat(self, invoke, minimum: int) -> list:
        """Whole invocations, one after another, for about --seconds."""
        results, start = [], time.perf_counter()
        while True:
            began = time.perf_counter()
            results.append(invoke())
            last = time.perf_counter() - began
            if len(results) >= minimum and time.perf_counter() - start + last > self.seconds:
                return results

    # -- workloads ------------------------------------------------------------

    def measure(self) -> dict:
        """End-to-end metrics, name -> (value, samples); raw ones in self.raw."""
        mode = self.params["mode"]
        methods = self.params["methods"]
        nq = len(self.expected)
        if mode == "replay":
            self.fill()
        setups = [[], []]  # raw, adjusted; set-ups outside the passes
        for _ in range(self.params["setup_repeats"] - 1):
            setup = [0.0, 0.0]
            for m in methods:
                times = self.timings(self.invoke(m, "empty.jsonl"), m, [])
                setup[0] += times["setup"][0]
                setup[1] += times["setup"][1]
            setups[0].append(setup[0])
            setups[1].append(setup[1])

        def one_pass() -> list:
            """One pass over the queries, raw and host-adjusted: (set-up,
            queries per second, peak RSS, {(method, query id): latency}),
            set-up summed over the methods."""
            setup, wall, rss = [0.0, 0.0], [0.0, 0.0], 0.0
            latency = [{}, {}]
            for m in methods:
                result = self.invoke(m)
                self.digests.setdefault(m, []).append(self.check_outputs(m))
                times = self.timings(result, m)
                for which in (0, 1):
                    setup[which] += times["setup"][which]
                    wall[which] += times["wall"][which]
                    for qid, seconds in times["query"][which].items():
                        latency[which][m, qid] = seconds
                rss = max(rss, result["maxrss_mb"])
            return [(setup[w], len(methods) * nq / wall[w], rss, latency[w]) for w in (0, 1)]

        passes = self.repeat(one_pass, minimum=self.params["min_repeats"])
        for m, digests in self.digests.items():
            self.same(digests, f"across repeats ({m})")
        raw, metrics = (self.summarize([p[w] for p in passes], setups[w]) for w in (0, 1))
        self.raw = {name: value for name, (value, _) in raw.items()}
        return metrics

    def summarize(self, passes: list, setups: list) -> dict:
        """Metrics over the passes. A query's latency is the sum over the
        methods of its median over the passes: every pass replays the same
        queries, so a host hiccup of a few milliseconds, which slows
        different queries in different passes, does not reach the median,
        while a pause of the program's own (garbage collection, cache growth)
        recurs at the same query and does."""
        setups = setups + [p[0] for p in passes]
        samples = [sum(statistics.median(p[3][m, qid] for p in passes)
                       for m in self.params["methods"])
                   for qid in self.expected]
        p50, _ = percentile(samples, 0.5)
        p90, self.tail_beyond = percentile(samples, 0.9)
        return {
            "setup_s": (statistics.median(setups), len(setups)),
            "queries_per_s": (statistics.median(p[1] for p in passes), len(passes)),
            "query_ms_p50": (p50 * 1000.0, len(samples)),
            "query_ms_p90": (p90 * 1000.0, len(samples)),
            "peak_rss_mb": (statistics.median(p[2] for p in passes), len(passes)),
        }

    def fill(self) -> None:
        """Warm the shared cache with a cold run of every method (untimed)."""
        shutil.rmtree(self.work / "cache", ignore_errors=True)
        for m in self.params["methods"]:
            self.cli("run", m, "queries.jsonl")
            self.digests[m] = [self.check_outputs(m)]

    def trace(self) -> dict:
        """Per-layer metrics from a traced invocation, name -> (value, unit)."""
        mode = self.params["mode"]
        methods = self.params["methods"]
        if mode == "replay":
            self.fill()
        walls = {"query": 0.0, "all": 0.0}
        dumps = []
        for spans in ("query", "all"):
            for m in methods:
                result = self.invoke(m, spans=spans)
                self.digests.setdefault(m, []).append(self.check_outputs(m))
                walls[spans] += self.timings(result, m)["wall"][1]
                if spans == "all":
                    dumps.append(result["trace"])
        for m, digests in self.digests.items():
            what = "between cold fill, replay and traced replay" if mode == "replay" \
                else "between untraced and traced run"
            self.same(digests, f"{what} ({m})")

        agg = tracing.Aggregate(dumps)
        metrics = tracing.layer_metrics(agg, len(methods) * len(self.expected))
        metrics["tracing.overhead_ratio"] = (walls["all"] / walls["query"], "ratio")
        metrics["query_fail_ratio"] = (self.failed / self.attempted, "ratio")
        self.missing = agg.missing
        self.check(metrics["spans.errors"][0] == 0, "no exception passed through a span")
        self.check(agg.n("llm.gateway") == self.expected_total(methods, "llm_calls"),
                   "model calls equal the scripted count")
        self.check(agg.n("retrieval.handle") == self.expected_total(methods, "retrievals"),
                   "retrievals equal the scripted count")
        if mode == "replay":
            self.check(metrics["llm.backend_calls"][0] == 0, "replay made no model call")
            self.check(metrics["retrieval.retrieve_calls"][0] == 0,
                       "replay made no retrieval")
        return metrics

    def stamp(self, trace: bool) -> dict:
        return {
            "workload": self.workload,
            "seed": self.seed,
            "seconds": self.seconds,
            "trace": trace,
            "kernel_backend": ",".join(sorted(self.backends)),
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "host_slice_ms": (round(statistics.median(self.slices) * 1000.0, 3)
                              if self.slices else None),
            "params": self.params,
        }


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, bool]:
    work = ROOT / ".perfbench_work" / f"{workload}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        bench = Bench(workload, seed, seconds, work)
        try:
            if trace:
                metrics = {name: {"value": value, "unit": unit}
                           for name, (value, unit) in bench.trace().items()}
            else:
                metrics = {name: {"value": value, "unit": END_TO_END[name], "samples": n}
                           for name, (value, n) in bench.measure().items()}
        except CheckFailed as exc:
            bench.failures.append(str(exc))
            metrics = {}
        except Exception as exc:  # report the run as failed, never as a result
            traceback.print_exc()
            bench.failures.append(f"{type(exc).__name__}: {exc}")
            metrics = {}
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass
    correct = not bench.failures
    if len(bench.backends) > 1:
        bench.failures.append("kernel backend changed between invocations")
        correct = False
    return {
        "stamp": bench.stamp(trace),
        "checks": bench.checks,
        "failures": bench.failures,
        "unmeasured": bench.missing,
        "raw": bench.raw,
        "tail_samples_beyond_p90": bench.tail_beyond,
        "correct": correct,
        "attempted": max(bench.attempted, 1),
        "failed": bench.failed,
        "metrics": metrics,
    }, correct


def render(result: dict) -> str:
    lines = [f"== {result['stamp']['workload']} (seed {result['stamp']['seed']}, "
             f"kernel backend {result['stamp']['kernel_backend']}, "
             f"{result['stamp']['nproc']} cpus, python {result['stamp']['python']}, "
             f"reference slice {result['stamp']['host_slice_ms']} ms, "
             f"nominal {hostspeed.NOMINAL_S * 1000.0:g} ms)"]
    for name, metric in result["metrics"].items():
        samples = f"  n={metric['samples']}" if "samples" in metric else ""
        raw = f"  raw {result['raw'][name]:.6g}" if name in result["raw"] else ""
        lines.append(f"  {name:<32} {metric['value']:>14.6g} {metric['unit']:<12}"
                     f"{samples}{raw}")
    beyond = result["tail_samples_beyond_p90"]
    if beyond is not None and beyond < TAIL_SAMPLES:
        lines.append(f"  note: only {beyond} samples beyond query_ms_p90 "
                     f"(fewer than {TAIL_SAMPLES}); read it as indicative")
    for missing in result["unmeasured"]:
        lines.append(f"  unmeasured layer: {missing} no longer exists")
    lines.append(f"  checks passed: {len(result['checks'])}")
    for failure in result["failures"]:
        lines.append(f"  CHECK FAILED: {failure}")
    return "\n".join(lines)


def compare(path_a: str, path_b: str) -> int:
    a = json.loads(Path(path_a).read_text())
    b = json.loads(Path(path_b).read_text())
    comparable = True
    for key in ("workload", "kernel_backend", "nproc", "python", "params", "seconds"):
        if a["stamp"][key] != b["stamp"][key]:
            print(f"NOT COMPARABLE: {key} differs "
                  f"({a['stamp'][key]!r} vs {b['stamp'][key]!r})")
            comparable = False
    ha, hb = a["stamp"]["host_slice_ms"], b["stamp"]["host_slice_ms"]
    if ha and hb and abs(hb - ha) / ha > HOST_TOLERANCE:
        print(f"WARNING: the host ran the reference slice at different speeds "
              f"({ha} vs {hb} ms); raw timings differ for that reason alone")
    for name in sorted(set(a["metrics"]) & set(b["metrics"])):
        va, vb = a["metrics"][name]["value"], b["metrics"][name]["value"]
        change = f"{(vb - va) / va:+.1%}" if va else "n/a"
        print(f"{name:<32} {va:>14.6g} {vb:>14.6g} {change:>8} {a['metrics'][name]['unit']}")
    return 0 if comparable else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="also write the full result (stamp, checks) here")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"),
                        help="compare two single-workload results written with --out")
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if not args.workload:
        parser.error("--workload is required")
    if not (ROOT / "src" / "contregen" / "__init__.py").is_file():
        print(f"error: no contregen sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = sorted(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    results, all_correct = {}, True
    for name in names:
        result, correct = run_workload(name, args.seed, args.seconds, bool(args.trace))
        all_correct &= correct
        results[name] = result
        print(render(result), flush=True)
        print("stamp " + json.dumps(result["stamp"], sort_keys=True), flush=True)
    if args.out:
        Path(args.out).write_text(json.dumps(results if len(names) > 1 else results[names[0]],
                                             indent=1, sort_keys=True) + "\n")
    summary = {key: results[names[0]][key] for key in ("correct", "attempted", "failed")}
    summary["metrics"] = {name: {"value": m["value"], "unit": m["unit"]}
                          for name, m in results[names[0]]["metrics"].items()}
    if len(names) > 1:
        summary = {name: {key: r[key] for key in ("correct", "attempted", "failed")}
                   for name, r in results.items()}
    print(json.dumps(summary))
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
