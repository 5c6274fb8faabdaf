"""Benchmark for entgraph: two seeded workloads, end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

It benchmarks the checkout it sits in and works in ``.perfbench/`` there.
Every stage is the real ``entgraph`` CLI in a child process of this
single-threaded script, so at most two processes are live at once. This
process stays small (checks run in ``check.py`` children), because a
child's peak RSS as wait4 reports it starts from its parent's RSS.

Workloads (``BENCHMARK.json`` records why each was chosen):

* ``qa-sample``: the sample corpus replicated ``QA_COPIES`` times through
  all seven stages; outputs must match ``reference/qa-sample.json``.
* ``dense``: a Zipf-skewed synthetic corpus through ``ingest``,
  ``build-local`` and ``globalize``, whose graphs must match
  ``oracle.py``; then a query process (``query.py``) loads a
  ``GraphStore`` on them and answers a seeded closed-loop query mix,
  whose answers must match ``oracle.py``.

A pass is one run of the workload's job, a fresh process per stage. With
``--trace 0`` passes repeat until ``--seconds`` of them have run, and the
end-to-end metrics are medians over the passes: ``setup_s`` (CPU seconds
of this process and its children; the set-up runs ``SETUP_REPEATS`` times
at the start and as often again before each later pass), ``job_cpu_s``
(one pass: the CPU seconds, user plus system, of its processes, from each
child's own wait4 rusage) and ``peak_rss_mb`` (its largest process). The
job is measured in CPU time because every process is single-threaded and
CPU-bound, and on a shared 2-vCPU virtual machine wall time also counts
the time the host takes the CPU away and the waits for a shared disk:
that swung wall-clock job times by 20-30% between runs of the same code.
Wall times are printed too, and the traced run reports them
(``job_wall_s``, ``build_s``, ``qa_s``, ``store_load_s``). With
``--trace 1`` untraced and traced passes alternate, two of each; the
per-layer metrics come from the first traced pass and the tracing
overhead from the medians. Human-readable lines come first; the last line
of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import resource
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import gen
import spans
from spans import BUILD, QA

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

QA_COPIES = 40
QA_GEN_SEEDS = 4  # question-generation seeds with a stored reference
# The dense corpus is drawn from one fixed generator seed, so every run
# does the same work; the run seed renames its entities and draws the
# query mix. (Corpora drawn per run seed varied from 24k to 28k
# edges and from 92 to 108 MB peak RSS.)
DENSE = {"propositions": 4000, "lemmas": 80, "entities": 300, "days": 28,
         "binary_share": 0.6, "skew": 1.0, "seed": 0}
# The dense query mix per pass. Its shares follow qaeval.answer_graph, the
# store's one caller: on qa-sample (40 copies, seed 1, traced) it issued
# 24,604 direct and 14,737 composed entailment_score calls, so 37.5% of the
# typed queries are composed. It backs off for evidence whose predicate
# has no typed vertex, so back-off queries take the share of such
# propositions in the dense corpus (see gen.query_stream).
QUERY_MIX = {"n_queries": 2400, "composed_share": 14737 / 39341}
SETUP_REPEATS = 3

SUMMARY = {
    "ingest": r"^ingested \d+ propositions",
    "build-local": r"^built \d+ typed subgraphs with \d+ edges",
    "globalize": r"^globalized \d+ subgraphs",
    "gen-questions": r"^generated \d+ balanced questions",
    "answer-graph": r"^answered \d+/\d+ questions",
    "answer-exact": r"^answered \d+/\d+ questions",
    "evaluate": r"^graph-bb\+bu\+uu: answered=\d+/\d+ max_recall=",
}

QUERY = "query"  # the record of the dense workload's query process

END_TO_END = {"setup_s": "s", "job_cpu_s": "s", "peak_rss_mb": "MB"}
# Each workload's own headline metrics: printed by every run and reported,
# without a bound, by the traced run next to the per-layer metrics.
NAMED = {"job_wall_s": "s", "build_s": "s", "qa_s": "s", "store_load_s": "s",
         "query_direct_p50_us": "us", "query_composed_p50_us": "us",
         "query_composed_p99_us": "us", "queries_per_s": "1/s", "error_rate": "ratio"}
OVERHEAD = ("trace.build_overhead_s", "trace.qa_overhead_s", "trace.query_overhead_s")


def unit(name: str) -> str:
    """Unit of a traced-run metric, from its name."""
    if name in NAMED:
        return NAMED[name]
    for suffix, u in (("_per_s", "1/s"), ("_us", "us"), ("_s", "s"), (".s", "s"),
                      ("_mb", "MB"), (".bytes", "B"), ("_rate", "ratio"),
                      ("_ratio", "ratio"), ("_per_scored", "ratio")):
        if name.endswith(suffix):
            return u
    return "count"


def traced_metric_units() -> dict[str, str]:
    return {**{m: unit(m) for m in spans.LAYER_METRICS}, **NAMED,
            **{m: "s" for m in OVERHEAD}}


class Bench:
    """Operations attempted and failed during one benchmark run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def op(self, ok: bool, what: str, n: int = 1) -> bool:
        self.attempted += n
        if not ok:
            self.wrong(what, n)
        return ok

    def wrong(self, what: str, n: int = 1) -> None:
        """Count n already attempted operations as failed."""
        self.failed += n
        self.errors.append(what)

    def error_rate(self) -> float:
        return self.failed / max(self.attempted, 1)


def _env() -> dict:
    """Children import the checkout's sources, run numpy single-threaded
    (this process and one child fill two cores) and hash strings the
    same way every run."""
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""),
                PYTHONHASHSEED="0", OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
                MKL_NUM_THREADS="1")


def child(cmd: list, log: Path) -> dict:
    """Run one child: its exit code, start time, wall and CPU seconds,
    peak RSS in MB and combined output.

    Peak RSS and CPU time are this child's own wait4 rusage. For peak RSS
    RUSAGE_CHILDREN would be wrong: its maximum spans every child waited
    on so far.
    """
    with open(log, "w", encoding="utf-8") as fh:
        start = time.perf_counter()
        proc = subprocess.Popen([str(c) for c in cmd], stdout=fh, stderr=subprocess.STDOUT,
                                env=_env(), cwd=ROOT)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # interrupted or terminated: leave no child behind
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"code": proc.returncode, "start": start, "wall_s": wall,
            "cpu_s": usage.ru_utime + usage.ru_stime,
            "rss_mb": usage.ru_maxrss / 1024, "output": log.read_text(encoding="utf-8")}


def run_check(bench: Bench, work: Path, *args) -> dict:
    res = child([sys.executable, HERE / "check.py", *args], work / f"check-{args[0]}.log")
    text = res["output"]
    if res["code"] != 0:
        bench.wrong(f"check {args[0]} failed: {text[-300:]!r}")
        return {}
    return json.loads(text.splitlines()[-1]) if text.strip() else {}


def stage_args(stage: str, corpus: Path, gen_seed: int) -> list:
    return {
        "ingest": ["ingest", "--corpus", corpus],
        "build-local": ["build-local"],
        "globalize": ["globalize"],
        "gen-questions": ["gen-questions", "--seed", gen_seed],
        "answer-graph": ["answer", "--model", "graph"],
        "answer-exact": ["answer", "--model", "exact"],
        "evaluate": ["evaluate"],
    }[stage]


def run_stages(bench: Bench, out: Path, corpus: Path, stages, gen_seed: int = 0,
               traced: bool = False) -> list[dict]:
    """Run stages in a fresh ``out`` directory; one record per process."""
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    records = []
    for stage in stages:
        args = [*stage_args(stage, corpus, gen_seed), "--out", out]
        trace_file = out.parent / f"spans-{stage}.json"
        cmd = ([sys.executable, HERE / "traced_cli.py", trace_file, "--", *args]
               if traced else [sys.executable, "-m", "entgraph.cli", *args])
        rec = child(cmd, out.parent / f"{stage}.log")
        text = rec.pop("output")
        rec["ok"] = rec["code"] == 0 and re.search(SUMMARY[stage], text, re.M) is not None
        bench.op(rec["ok"], f"{stage}: exit {rec['code']}, output {text[-300:]!r}")
        rec["stage"] = stage
        if traced and rec["ok"]:
            rec.update(json.loads(trace_file.read_text(encoding="utf-8")))
            rec["traced_wall_s"] = rec.pop("end") - rec["start"]
        records.append(rec)
    return records


def cpu_seconds() -> float:
    """CPU seconds, user plus system, of this process and its waited-for
    children so far (CPU time sums over children; only peak RSS does not)."""
    return sum(u.ru_utime + u.ru_stime for u in (resource.getrusage(resource.RUSAGE_SELF),
                                                 resource.getrusage(resource.RUSAGE_CHILDREN)))


def timed_setup(make, times: list | None = None):
    """Run a set-up SETUP_REPEATS times; (CPU seconds of each, last result)."""
    times, result = [] if times is None else times, None
    for _ in range(SETUP_REPEATS):
        start = cpu_seconds()
        result = make()
        times.append(cpu_seconds() - start)
    return times, result


def _sum(records, key: str, stages=None) -> float:
    return sum(r[key] for r in records if stages is None or r["stage"] in stages)


def repeat(seconds: float, trace: bool, run_pass, setup) -> list[list[dict]]:
    """Passes of a workload's job, each a list of process records.

    Traced: untraced and traced passes alternate, two of each. Otherwise
    passes repeat until ``seconds`` of them have run, and ``setup()`` runs
    again before each later pass, so that the set-up times sample the
    whole run.
    """
    if trace:
        return [run_pass(i, i % 2 == 1) for i in range(4)]
    passes, measured = [], 0.0
    while not passes or measured < seconds:
        if passes:
            setup()
        passes.append(run_pass(len(passes), False))
        measured += _sum(passes[-1], "wall_s")
    return passes


def job_metrics(passes: list[list[dict]], trace: bool) -> dict:
    """Medians over the untraced passes; with ``trace``, the per-layer
    metrics of the first traced pass and the tracing overheads."""
    plain, traced = (passes[0::2], passes[1::2]) if trace else (passes, [])
    cpu = [_sum(p, "cpu_s") for p in plain]
    wall = [_sum(p, "wall_s") for p in plain]
    m = {
        "job_cpu_s": spans.median(cpu),
        "job_wall_s": spans.median(wall),
        "build_s": spans.median([_sum(p, "wall_s", BUILD) for p in plain]),
        "peak_rss_mb": spans.median([max(r["rss_mb"] for r in p) for p in plain]),
        "passes": len(plain),
        "pass_cpu_s": cpu,
        "pass_wall_s": wall,
    }
    parts = {"build": BUILD}
    if any(r["stage"] in QA for r in plain[0]):
        m["qa_s"] = spans.median([_sum(p, "wall_s", QA) for p in plain])
        parts["qa"] = QA
    queries = [r for p in plain for r in p if r["stage"] == QUERY]
    if queries:
        m.update(query_metrics(queries))
        parts["query"] = (QUERY,)
    if traced and all(r["ok"] for r in traced[0]):
        by_stage = {r["stage"]: r for r in plain[0]}
        m.update(spans.layer_metrics(
            [{**r, "wall_s": by_stage[r["stage"]]["wall_s"],
              "rss_mb": by_stage[r["stage"]]["rss_mb"]} for r in traced[0]]))
        for name, part in parts.items():
            m[f"trace.{name}_overhead_s"] = (
                spans.median([_sum(p, "wall_s", part) for p in traced])
                - spans.median([_sum(p, "wall_s", part) for p in plain]))
    return m


def report_wrong(bench: Bench, diffs: dict) -> None:
    """Count the stages whose output ``check.py`` found wrong."""
    for out, bad in diffs.items():
        for stage, why in bad.items():
            bench.wrong(f"{stage} output in {Path(out).name}: {why}")


# -- workloads ------------------------------------------------------------------------


def qa_setup(seed: int) -> Path:
    work = WORK / "qa-sample"
    sample = gen.SAMPLE.read_text(encoding="utf-8").splitlines()
    gen.write_lines(work / "corpus.jsonl", gen.qa_sample_records(sample, QA_COPIES, seed))
    return work


def qa_sample(bench: Bench, seed: int, seconds: float, trace: bool) -> dict:
    times, work = timed_setup(lambda: qa_setup(seed))
    gen_seed = seed % QA_GEN_SEEDS
    passes = repeat(seconds, trace,
                    lambda i, traced: run_stages(bench, work / f"out-{i}", work / "corpus.jsonl",
                                                 spans.STAGES, gen_seed, traced),
                    lambda: timed_setup(lambda: qa_setup(seed), times))
    report_wrong(bench, run_check(bench, work, "qa", gen_seed,
                                  *[work / f"out-{i}" for i in range(len(passes))]))
    return {"setup_s": spans.median(times), **job_metrics(passes, trace)}


def dense_setup(seed: int) -> Path:
    work = WORK / "dense"
    gen.write_lines(work / "corpus.jsonl",
                    gen.dense_records(**DENSE, name_salt=gen.copy_tag(seed, 0)))
    return work


def run_queries(bench: Bench, work: Path, out: Path, traced: bool = False) -> dict:
    """One query process on ``out``'s global graphs, its answers checked
    against the oracle's; a process record like ``run_stages``'s."""
    result = work / "query-result.json"
    cmd = [sys.executable, HERE / "query.py", out / "graphs" / "global",
           work / "queries.json", result]
    if traced:
        cmd.append(work / "spans-query.json")
    rec = child(cmd, work / "query.log")
    text = rec.pop("output")
    rec["stage"] = QUERY
    rec["ok"] = bench.op(rec["code"] == 0, f"query process: exit {rec['code']}, "
                                           f"output {text[-300:]!r}")
    if not rec["ok"]:
        return rec
    res = json.loads(result.read_text(encoding="utf-8"))
    expected = json.loads((work / "expected.json").read_text(encoding="utf-8"))
    answers = res.pop("answers")
    bench.op(True, "queries", n=len(expected))
    wrong = [i for i, want in enumerate(expected)
             if i >= len(answers) or not _close(answers[i][0], want)]
    if wrong:
        bench.wrong(f"{len(wrong)} wrong answers, first query #{wrong[0]}", len(wrong))
    rec.update(res)
    if traced:
        rec.update(json.loads((work / "spans-query.json").read_text(encoding="utf-8")))
    return rec


def _close(a: float, b: float) -> bool:
    """``oracle.close``, without importing numpy into this process."""
    return abs(a - b) <= 1e-12 * max(abs(a), abs(b))


def query_metrics(queries: list[dict]) -> dict:
    """Medians over query processes; latency percentiles over all their queries."""
    lat = {k: [x for q in queries for x in q["latency_s"][k]] for k in queries[0]["latency_s"]}
    query_s = sum(q["queries_s"] for q in queries)
    return {
        "store_load_s": spans.median([q["load_s"] for q in queries]),
        "query_direct_p50_us": spans.percentile(lat["direct"], 50) * 1e6,
        "query_composed_p50_us": spans.percentile(lat["composed"], 50) * 1e6,
        "query_composed_p99_us": spans.percentile(lat["composed"], 99) * 1e6,
        "queries_per_s": sum(map(len, lat.values())) / query_s,
        "composed_samples": len(lat["composed"]),
    }


def dense(bench: Bench, seed: int, seconds: float, trace: bool) -> dict:
    times, work = timed_setup(lambda: dense_setup(seed))
    corpus = work / "corpus.jsonl"

    def run_pass(i: int, traced: bool) -> list[dict]:
        out = work / f"out-{i}"
        records = run_stages(bench, out, corpus, BUILD, traced=traced)
        if i == 0:
            # The query stream and the oracle's answers, from the first
            # pass's graphs and outside every timing: the benchmark's own work.
            run_check(bench, work, "queries", corpus, out / "graphs" / "global", seed,
                      work / "queries.json", work / "expected.json", json.dumps(QUERY_MIX))
        if all(r["ok"] for r in records) and (work / "expected.json").is_file():
            records.append(run_queries(bench, work, out, traced))
        return records

    for stale in ("queries.json", "expected.json"):
        (work / stale).unlink(missing_ok=True)
    passes = repeat(seconds, trace, run_pass, lambda: timed_setup(lambda: dense_setup(seed), times))
    report_wrong(bench, run_check(bench, work, "dense", corpus,
                                  *[work / f"out-{i}" for i in range(len(passes))]))
    return {"setup_s": spans.median(times), **job_metrics(passes, trace)}


WORKLOADS = {"qa-sample": qa_sample, "dense": dense}


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    bench = Bench()
    measured = WORKLOADS[name](bench, seed, seconds, trace)
    measured["error_rate"] = bench.error_rate()
    wanted = traced_metric_units() if trace else END_TO_END
    print(f"{name}: seed={seed} trace={int(trace)} attempted={bench.attempted} "
          f"failed={bench.failed}")
    for err in bench.errors[:10]:
        print(f"  error: {err}")
    for key in [*END_TO_END, *NAMED, "passes", "composed_samples"]:
        if key in measured:
            print(f"  {key} = {measured[key]:.6g} {END_TO_END.get(key, NAMED.get(key, ''))}")
    for key in ("pass_cpu_s", "pass_wall_s"):
        if key in measured:
            print(f"  {key} = " + " ".join(f"{x:.4g}" for x in measured[key]))
    return {
        "correct": bench.failed == 0,
        "attempted": max(bench.attempted, 1),
        "failed": bench.failed,
        "metrics": {m: {"value": float(measured.get(m, 0.0)), "unit": u}
                    for m, u in wanted.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if not (SRC / "entgraph" / "cli.py").is_file():
        print(f"error: no entgraph sources under {SRC}; perfbench/ must sit in an "
              "entgraph checkout", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {n: run_workload(n, args.seed, args.seconds, bool(args.trace)) for n in names}
    if len(results) == 1:
        print(json.dumps(results[names[0]]))
    else:
        print(json.dumps({
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}/{m}": v for n, r in results.items()
                        for m, v in r["metrics"].items()},
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
