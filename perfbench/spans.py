"""Tracing hooks for the traced run, and the per-layer metrics built from them.

``install`` wraps the public functions of every ``entgraph`` module (plus
a few public methods) from outside the package: each wrapper records a
span (name, start, end, parent span, optional attributes) in memory, and
the spans are written out once the process ends. Every module attribute
(and module-level dict value) that holds a wrapped function object is
rebound, so names imported with ``from .features import count`` are
caught too. Per-candidate hot functions are only counted, never timed,
so tracing does not swamp the work it measures.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import os
import statistics
import sys
import time
from collections import Counter, defaultdict

LAYERS = ("cli", "ingest", "model", "features", "localgraph", "graphio",
          "globalgraph", "lexicon", "qagen", "qaeval", "store", "resources")

# Public module-level functions called per record, candidate, edge or query:
# counted only.
COUNT_ONLY = {
    "lemmatize_token", "normalize_predicate", "decompose_higher_valency",
    "parse_record", "proposition_record", "normalize_surface", "pmi",
    "valid_maps", "inclusion_oracle", "weeds_precision", "lin_similarity",
    "binc", "edge_key", "canonical_signature", "swapped_pair_features",
    "subgraph_filename", "question_record", "question_from_record",
    "compatible_evidence", "default_type_inventory_path",
    "fixture_wordnet_dir", "sample_corpus_path",
}

# (module, class, method, span label, timed?)
METHODS = (
    ("localgraph", "ArgMap", "__post_init__", "localgraph.argmap", False),
    ("localgraph", "TypedSubgraph", "find_edges", "localgraph.find_edges", False),
    ("localgraph", "TypedSubgraph", "with_scores", "localgraph.with_scores", True),
    ("lexicon", "LexicalResource", "from_wordnet_dir", "lexicon.from_wordnet_dir", True),
    ("lexicon", "LexicalResource", "fixture", "lexicon.fixture", True),
    ("lexicon", "LexicalResource", "substitutes_for_predicate", "lexicon.substitutes", False),
    ("store", "GraphStore", "open", "store.open", True),
    ("store", "GraphStore", "from_subgraphs", "store.from_subgraphs", True),
    ("store", "GraphStore", "entailment_score", "store.entailment_score", True),
    ("store", "GraphStore", "backoff_score", "store.backoff_score", True),
    ("store", "GraphStore", "subgraph_for", "store.subgraph_for", False),
    ("store", "GraphStore", "has_typed_vertex", "store.has_typed_vertex", False),
)


def _size(path) -> int:
    return os.path.getsize(path)


# Attributes taken from a call's arguments and result once it returns.
NOTES = {
    "ingest.ingest": lambda a, r: {"props": len(r)},
    "features.build_vectors": lambda a, r: {
        "kept": len(r), "dropped": len(a[0].pred_marginal) - len(r)},
    "features.save_counts": lambda a, r: {"bytes": _size(a[0])},
    "features.dump_counts_tsv": lambda a, r: {"bytes": _size(a[0])},
    "features.save_vectors": lambda a, r: {"bytes": _size(a[0])},
    "features.dump_vectors_tsv": lambda a, r: {"bytes": _size(a[0])},
    "localgraph.build_bivalent": lambda a, r: {"edges": len(r.edges)},
    "localgraph.build_univalent": lambda a, r: {"edges": len(r.edges)},
    "graphio.write_subgraph": lambda a, r: {"bytes": _size(a[1])},
    "graphio.read_subgraph": lambda a, r: {"edges": len(r.edges)},
    "globalgraph.globalize": lambda a, r: {
        "family": "bivalent" if any(len(s) == 2 for s in a[0]) else "univalent",
        "iterations": r.iterations_run},
    "globalgraph.write_provenance": lambda a, r: {"bytes": _size(a[1])},
    "qagen.generate_questions": lambda a, r: {
        "questions": len(r.questions), "partitions": r.manifest["partitions"]},
    "store.entailment_score": lambda a, r: {
        "composed": a[1].predicate.valency == 2 and a[2].valency == 1,
        "hops": len(r.path)},
    "qaeval.answer_graph": lambda a, r: {
        "evidence": len(a[1].propositions), "answered": r.confidence > 0},
}


class Tracer:
    """In-memory spans ``[name, start, end, parent index, attrs]`` and counts."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    def span(self, name: str, fn):
        note = NOTES.get(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if note is not None:
                rec[4] = note(args, result)
            return result

        return wrapper

    def counter(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def dump(self) -> dict:
        return {"spans": self.spans, "counts": dict(self.counts)}


def install(tracer: Tracer) -> None:
    """Wrap entgraph's public functions and the methods in ``METHODS``."""
    modules = [importlib.import_module(f"entgraph.{name}") for name in LAYERS]
    wrapped = {}
    for mod in modules:
        layer = mod.__name__.split(".")[-1]
        for name, obj in vars(mod).items():
            if (name.startswith("_") or not inspect.isfunction(obj)
                    or obj.__module__ != mod.__name__ or inspect.isgeneratorfunction(obj)):
                continue
            label = f"{layer}.{name}"
            wrapped[obj] = (tracer.counter(label, obj) if name in COUNT_ONLY
                            else tracer.span(label, obj))
    for modname, clsname, meth, label, timed in METHODS:
        cls = getattr(importlib.import_module(f"entgraph.{modname}"), clsname)
        raw = cls.__dict__[meth]
        fn = raw.__func__ if isinstance(raw, classmethod) else raw
        new = tracer.span(label, fn) if timed else tracer.counter(label, fn)
        setattr(cls, meth, classmethod(new) if isinstance(raw, classmethod) else new)
    for mod in [m for n, m in sys.modules.items() if n.split(".")[0] == "entgraph"]:
        for name, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and obj in wrapped:
                setattr(mod, name, wrapped[obj])
            elif isinstance(obj, dict) and not name.startswith("__"):
                for key, value in list(obj.items()):
                    if inspect.isfunction(value) and value in wrapped:
                        obj[key] = wrapped[value]


# -- aggregation -------------------------------------------------------------------


def self_times(spans: list) -> list[float]:
    """Each span's duration minus the part of it its child spans cover."""
    children = defaultdict(list)
    for i, s in enumerate(spans):
        if s[3] >= 0:
            children[s[3]].append((s[1], s[2]))
    out = []
    for i, (_, start, end, _, _) in enumerate(spans):
        covered, cursor = 0.0, start
        for a, b in sorted(children[i]):
            a, b = max(a, cursor), min(b, end)
            if b > a:
                covered += b - a
                cursor = b
        out.append((end - start) - covered)
    return out


def percentile(values, q: float) -> float:
    """Nearest-rank percentile; 0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100 * len(ordered)) - 1)]


# Stages of the entgraph pipeline as the benchmark runs them: the
# graph-learning job, then the evaluation job.
BUILD = ("ingest", "build-local", "globalize")
QA = ("gen-questions", "answer-graph", "answer-exact", "evaluate")
STAGES = BUILD + QA
SELF_LAYERS = ("cli", "ingest", "features", "localgraph", "graphio", "globalgraph",
               "lexicon", "qagen", "qaeval", "store")

LAYER_METRICS = (
    [f"cli.{s}.{m}" for s in STAGES for m in ("wall_s", "rss_mb", "overhead_s")]
    + ["ingest.ingest.s", "ingest.ingest.calls", "ingest.props_per_s",
       "features.count.s", "features.count.calls", "features.build_vectors.s",
       "features.vectors_kept", "features.vectors_dropped", "features.dump.s",
       "features.dump.bytes",
       "localgraph.build_bivalent.s", "localgraph.build_univalent.s",
       "localgraph.max_signature.s", "localgraph.candidates_scored",
       "localgraph.edges_kept", "localgraph.kept_per_scored",
       "localgraph.weeds_precision.calls", "localgraph.lin_similarity.calls",
       "localgraph.argmap.calls", "localgraph.find_edges.calls",
       "graphio.write.s", "graphio.write.bytes", "graphio.read_subgraph.s",
       "graphio.edges_parsed_per_s", "graphio.read_header.s",
       "globalgraph.globalize.bivalent.s", "globalgraph.globalize.univalent.s",
       "globalgraph.iterations_run", "globalgraph.find_paraphrases.s",
       "globalgraph.write_provenance.s", "globalgraph.provenance.bytes",
       "lexicon.load.s",
       "qagen.generate_questions.s", "qagen.partition.s", "qagen.select_positives.s",
       "qagen.generate_negatives.s", "qagen.balance.s", "qagen.write.s",
       "qagen.read_evidence.s", "qagen.questions", "qagen.partitions",
       "store.open.s", "store.entailment_score.calls",
       "store.entailment_score.direct.p50_us", "store.entailment_score.direct.p99_us",
       "store.entailment_score.composed.p50_us",
       "store.entailment_score.composed.p99_us", "store.backoff_score.p50_us",
       "store.composition_win_rate", "store.backoff_rate",
       "qaeval.answer_graph.p50_us", "qaeval.answer_graph.p99_us",
       "qaeval.answer_graph.s", "qaeval.evidence_per_question",
       "qaeval.answered_ratio", "qaeval.answer_exact.s", "qaeval.pr_curve.s",
       "qaeval.write_answers.s"]
    + [f"{layer}.self_s" for layer in SELF_LAYERS]
)


def layer_metrics(processes: list[dict]) -> dict[str, float]:
    """Per-layer metrics from traced processes.

    Each process is ``{"stage": name, "wall_s", "rss_mb",
    "traced_wall_s", "spans", "counts"}``; ``wall_s``/``rss_mb`` come
    from the untraced pass, and ``cli.*`` metrics are kept for the CLI
    stages only. Metrics of layers that did not run are 0.
    """
    m = dict.fromkeys(LAYER_METRICS, 0.0)
    total, calls, maxdur = defaultdict(float), Counter(), defaultdict(float)
    attrs = defaultdict(list)
    durations = defaultdict(list)
    counts: Counter = Counter()
    for proc in processes:
        spans = proc["spans"]
        selfs = self_times(spans)
        counts.update(proc["counts"])
        covered = 0.0
        for (name, start, end, parent, attr), own in zip(spans, selfs):
            dur = end - start
            layer = name.split(".")[0]
            parent_layer = spans[parent][0].split(".")[0] if parent >= 0 else None
            total[name] += dur
            calls[name] += 1
            maxdur[name] = max(maxdur[name], dur)
            if layer in SELF_LAYERS:
                m[f"{layer}.self_s"] += own
            if parent_layer != layer:
                total[f"{layer}.outer"] += dur
            if layer != "cli" and parent_layer in (None, "cli"):
                covered += dur
            if attr is not None:
                attrs[name].append(attr)
                if name == "globalgraph.globalize":
                    total[f"globalgraph.globalize.{attr['family']}"] += dur
                if name == "store.entailment_score":
                    kind = "composed" if attr["composed"] else "direct"
                    durations[f"store.entailment_score.{kind}"].append(dur)
            if name in ("store.backoff_score", "qaeval.answer_graph"):
                durations[name].append(dur)
        if proc["stage"] in STAGES:
            prefix = f"cli.{proc['stage']}"
            m[f"{prefix}.wall_s"] += proc["wall_s"]
            m[f"{prefix}.rss_mb"] = max(m[f"{prefix}.rss_mb"], proc["rss_mb"])
            m[f"{prefix}.overhead_s"] += proc["traced_wall_s"] - covered

    def attr_sum(name, key):
        return sum(a[key] for a in attrs[name])

    def us(values, q):
        return percentile(values, q) * 1e6

    m["ingest.ingest.s"] = total["ingest.ingest"]
    m["ingest.ingest.calls"] = calls["ingest.ingest"]
    if total["ingest.ingest"]:
        m["ingest.props_per_s"] = attr_sum("ingest.ingest", "props") / total["ingest.ingest"]
    m["features.count.s"] = total["features.count"]
    m["features.count.calls"] = calls["features.count"]
    m["features.build_vectors.s"] = total["features.build_vectors"]
    m["features.vectors_kept"] = attr_sum("features.build_vectors", "kept")
    m["features.vectors_dropped"] = attr_sum("features.build_vectors", "dropped")
    dumps = ("features.save_counts", "features.dump_counts_tsv",
             "features.save_vectors", "features.dump_vectors_tsv")
    m["features.dump.s"] = sum(total[d] for d in dumps)
    m["features.dump.bytes"] = sum(attr_sum(d, "bytes") for d in dumps)
    m["localgraph.build_bivalent.s"] = total["localgraph.build_bivalent"]
    m["localgraph.build_univalent.s"] = total["localgraph.build_univalent"]
    m["localgraph.max_signature.s"] = max(maxdur["localgraph.build_bivalent"],
                                          maxdur["localgraph.build_univalent"])
    m["localgraph.candidates_scored"] = counts["localgraph.binc"]
    m["localgraph.edges_kept"] = (attr_sum("localgraph.build_bivalent", "edges")
                                  + attr_sum("localgraph.build_univalent", "edges"))
    if counts["localgraph.binc"]:
        m["localgraph.kept_per_scored"] = m["localgraph.edges_kept"] / counts["localgraph.binc"]
    for name in ("weeds_precision", "lin_similarity", "argmap", "find_edges"):
        m[f"localgraph.{name}.calls"] = counts[f"localgraph.{name}"]
    m["graphio.write.s"] = total["graphio.write_subgraph"]
    m["graphio.write.bytes"] = attr_sum("graphio.write_subgraph", "bytes")
    m["graphio.read_subgraph.s"] = total["graphio.read_subgraph"]
    if total["graphio.read_subgraph"]:
        m["graphio.edges_parsed_per_s"] = (attr_sum("graphio.read_subgraph", "edges")
                                           / total["graphio.read_subgraph"])
    m["graphio.read_header.s"] = total["graphio.read_header"]
    for family in ("bivalent", "univalent"):
        m[f"globalgraph.globalize.{family}.s"] = total[f"globalgraph.globalize.{family}"]
    if attrs["globalgraph.globalize"]:
        m["globalgraph.iterations_run"] = (attr_sum("globalgraph.globalize", "iterations")
                                           / len(attrs["globalgraph.globalize"]))
    m["globalgraph.find_paraphrases.s"] = total["globalgraph.find_paraphrases"]
    m["globalgraph.write_provenance.s"] = total["globalgraph.write_provenance"]
    m["globalgraph.provenance.bytes"] = attr_sum("globalgraph.write_provenance", "bytes")
    m["lexicon.load.s"] = total["lexicon.outer"]
    for name in ("generate_questions", "partition", "select_positives",
                 "generate_negatives", "balance", "read_evidence"):
        m[f"qagen.{name}.s"] = total[f"qagen.{name}"]
    m["qagen.write.s"] = total["qagen.write_questions"] + total["qagen.write_evidence"]
    m["qagen.questions"] = attr_sum("qagen.generate_questions", "questions")
    m["qagen.partitions"] = attr_sum("qagen.generate_questions", "partitions")
    m["store.open.s"] = total["store.open"]
    ent = attrs["store.entailment_score"]
    m["store.entailment_score.calls"] = len(ent)
    for kind in ("direct", "composed"):
        d = durations[f"store.entailment_score.{kind}"]
        m[f"store.entailment_score.{kind}.p50_us"] = us(d, 50)
        m[f"store.entailment_score.{kind}.p99_us"] = us(d, 99)
    m["store.backoff_score.p50_us"] = us(durations["store.backoff_score"], 50)
    composed = [a for a in ent if a["composed"]]
    if composed:
        m["store.composition_win_rate"] = sum(a["hops"] == 2 for a in composed) / len(composed)
    if ent or calls["store.backoff_score"]:
        m["store.backoff_rate"] = calls["store.backoff_score"] / (
            len(ent) + calls["store.backoff_score"])
    graph_answers = durations["qaeval.answer_graph"]
    m["qaeval.answer_graph.p50_us"] = us(graph_answers, 50)
    m["qaeval.answer_graph.p99_us"] = us(graph_answers, 99)
    m["qaeval.answer_graph.s"] = total["qaeval.answer_graph"]
    if graph_answers:
        m["qaeval.evidence_per_question"] = (attr_sum("qaeval.answer_graph", "evidence")
                                             / len(graph_answers))
        m["qaeval.answered_ratio"] = (attr_sum("qaeval.answer_graph", "answered")
                                      / len(graph_answers))
    m["qaeval.answer_exact.s"] = total["qaeval.answer_exact_match"]
    m["qaeval.pr_curve.s"] = total["qaeval.pr_curve"]
    m["qaeval.write_answers.s"] = total["qaeval.write_answers"]
    return m


def median(values) -> float:
    return statistics.median(values) if values else 0.0
