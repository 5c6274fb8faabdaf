"""Command-line pipeline driver.

Each stage reads the previous stage's artifacts from the output directory
and writes its own, with a JSON manifest (stage version, config hash,
seed, input digests) so identical inputs reproduce identical bytes.

A stage normally runs as a process of its own, so each subcommand
imports the layers it calls when it runs, not when this module loads:
``globalgraph`` is loaded by ``globalize`` alone, ``lexicon`` by
``gen-questions`` alone, ``qagen`` and ``qaeval`` only by the stages that
use them, and ``store`` with the graph layers only where a graph is
opened. Every layer uses the standard library alone, and none imports
``dataclasses``.

Exit codes: 0 success, 1 usage error, 2 data/dependency error, 3 file
format version mismatch.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from pathlib import Path

from . import resources
from .model import (
    BB,
    BU,
    UU,
    EntityId,
    Proposition,
    TypeInventory,
    TypedPredicate,
    VersionMismatch,
    _atomic_writer,
)

STAGE_VERSION = 1

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_VERSION = 3


class UsageError(Exception):
    pass


class DataError(Exception):
    pass


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def _write_manifest(out_dir: Path, stage: str, config: dict, inputs: list[Path], seed=None) -> None:
    payload = {
        "stage": stage,
        "stage_version": STAGE_VERSION,
        "seed": seed,
        "config": config,
        "config_hash": hashlib.sha256(
            json.dumps(config, sort_keys=True).encode()
        ).hexdigest(),
        "inputs": {str(p): _sha256(p) for p in inputs if p.is_file()},
    }
    with _atomic_writer(out_dir / f"{stage}.manifest.json") as fh:
        fh.write(json.dumps(payload, sort_keys=True, indent=2) + "\n")


def _require(path: Path, produced_by: str) -> Path:
    """An artifact an earlier stage writes."""
    if not path.exists():
        raise DataError(
            f"missing artifact {path}; run the `{produced_by}` subcommand first"
        )
    return path


def _input_file(path: Path, what: str) -> Path:
    """A file the user names on the command line."""
    if not path.exists():
        raise DataError(f"{what} {path} does not exist")
    if not path.is_file():
        raise DataError(f"{what} {path} is not a file")
    return path


# -- subcommands -------------------------------------------------------------


def cmd_ingest(args) -> int:
    from .ingest import ingest, save_corpus

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    corpus_path = _input_file(Path(args.corpus), "input corpus file")
    inventory = None
    if args.types:
        inventory = TypeInventory.from_file(_input_file(Path(args.types), "type inventory file"))
    corpus = ingest(corpus_path, inventory)
    save_corpus(corpus, out / "corpus.jsonl")
    config = {"corpus": str(corpus_path), "types": args.types, "stats": corpus.stats.as_dict()}
    _write_manifest(out, "ingest", config, [corpus_path])
    print(
        f"ingested {corpus.stats.propositions} propositions "
        f"({corpus.stats.skipped_malformed} malformed, "
        f"{corpus.stats.skipped_unnamed} without named entity)"
    )
    return EXIT_OK


def cmd_build_local(args) -> int:
    from . import graphio
    from .features import FeatureConfig
    from .ingest import read_corpus
    from .localgraph import LocalBuildConfig, build_local_graphs

    out = Path(args.out)
    corpus_path = _require(out / "corpus.jsonl", "ingest")
    corpus = read_corpus(corpus_path)
    config = LocalBuildConfig(
        FeatureConfig(min_count=args.min_count), edge_threshold=args.edge_threshold
    )
    graphs = build_local_graphs(corpus, config)
    local_dir = out / "graphs" / "local"
    paths = graphio.write_graph_dir(graphs, local_dir)
    n_edges = sum(len(sub.scores) for sub in graphs.values())
    _write_manifest(
        out, "build-local",
        {"min_count": args.min_count, "edge_threshold": args.edge_threshold},
        [corpus_path],
    )
    print(f"built {len(paths)} typed subgraphs with {n_edges} edges in {local_dir}")
    return EXIT_OK


def cmd_globalize(args) -> int:
    from . import graphio
    from .globalgraph import GlobalConfig, apply_to_all

    out = Path(args.out)
    local_dir = _require(out / "graphs" / "local", "build-local")
    local = graphio.read_graph_dir(local_dir)
    bivalent = {sig: sub for sig, sub in local.items() if len(sig) == 2}
    univalent = {sig: sub for sig, sub in local.items() if len(sig) == 1}
    config = GlobalConfig(
        lambda_para=args.lambda_para,
        lambda_cross=args.lambda_cross,
        paraphrase_tau=args.tau,
    )
    bi_graph, uni_graph = apply_to_all(bivalent, univalent, config)
    global_dir = out / "graphs" / "global"
    merged = {}
    merged.update(bi_graph.subgraphs)
    merged.update(uni_graph.subgraphs)
    graphio.write_graph_dir(merged, global_dir)
    _write_manifest(
        out, "globalize",
        {"lambda_para": args.lambda_para, "lambda_cross": args.lambda_cross, "tau": args.tau},
        sorted(local_dir.glob("*.graph")),
    )
    print(f"globalized {len(merged)} subgraphs into {global_dir}")
    return EXIT_OK


def cmd_gen_questions(args) -> int:
    from .ingest import read_corpus
    from .lexicon import LexicalResource
    from .qagen import QaGenConfig, generate_questions, write_evidence, write_questions

    out = Path(args.out)
    corpus_path = _require(out / "corpus.jsonl", "ingest")
    corpus = read_corpus(corpus_path)
    lex = (
        LexicalResource.from_wordnet_dir(args.wordnet)
        if args.wordnet
        else LexicalResource.fixture()
    )
    config = QaGenConfig(
        window_days=args.window,
        entity_min=args.entity_min,
        predicate_min=args.predicate_min,
        positives_per_partition=args.positives,
        seed=args.seed,
    )
    qs = generate_questions(corpus, lex, config)
    write_questions(qs, out / "questions.jsonl")
    write_evidence(qs.evidence, out / "evidence.jsonl")
    _write_manifest(
        out, "gen-questions",
        {k: v for k, v in qs.manifest.items() if k != "format"},
        [corpus_path], seed=args.seed,
    )
    print(
        f"generated {qs.manifest['questions']} balanced questions "
        f"over {qs.manifest['partitions']} partitions"
    )
    return EXIT_OK


def _graph_dir(out: Path, choice: str) -> Path:
    """The graph directory ``--graphs`` names; it must hold ``*.graph`` files."""
    if choice == "global":
        path = _require(out / "graphs" / "global", "globalize")
    elif choice == "local":
        path = _require(out / "graphs" / "local", "build-local")
    elif choice == "auto" and (out / "graphs" / "global").exists():
        path = out / "graphs" / "global"
    elif choice == "auto":
        path = _require(out / "graphs" / "local", "build-local")
    else:
        path = Path(choice)
        if not path.exists():
            raise DataError(f"graph directory {path} does not exist")
    if not path.is_dir():
        raise DataError(f"graph directory {path} is not a directory")
    if not any(path.glob("*.graph")):
        raise DataError(f"graph directory {path} holds no *.graph file")
    return path


def _parse_components(text: str) -> frozenset[str]:
    names = {"bb": BB, "uu": UU, "bu": BU}
    out = set()
    for part in text.split(","):
        part = part.strip().lower()
        if part not in names:
            raise UsageError(f"unknown component {part!r} (expected bb, uu, bu)")
        out.add(names[part])
    return frozenset(out)


def cmd_answer(args) -> int:
    from . import qaeval
    from .qagen import read_evidence, read_questions

    out = Path(args.out)
    questions, _ = read_questions(_require(out / "questions.jsonl", "gen-questions"))
    evidence_path = _require(out / "evidence.jsonl", "gen-questions")
    evidence = {p.id: p for p in read_evidence(evidence_path)}
    for q in questions:
        if q.partition_id not in evidence:
            raise DataError(
                f"question {q.id} names partition {q.partition_id!r}, "
                f"which {evidence_path} does not hold"
            )
    records = []
    if args.model == "exact":
        tag = "exact"
        for q in questions:
            records.append(qaeval.answer_exact_match(q, evidence[q.partition_id]))
    elif args.model == "graph":
        from .store import GraphStore

        kinds = _parse_components(args.components)
        tag = qaeval._model_id(kinds)
        store = GraphStore.open(_graph_dir(out, args.graphs))
        for q in questions:
            records.append(qaeval.answer_graph(q, evidence[q.partition_id], store, kinds))
    else:  # external
        if args.export_evidence:
            qaeval.export_evidence(questions, evidence, Path(args.export_evidence))
            print(f"wrote evidence export to {args.export_evidence}")
            if not args.scores:
                return EXIT_OK
        if not args.scores:
            raise UsageError("--model external needs --scores (or --export-evidence)")
        tag = "external"
        candidates = {
            q.id: set(qaeval.compatible_evidence(q, evidence[q.partition_id]))
            for q in questions
        }
        scores = qaeval.read_external_scores(
            _input_file(Path(args.scores), "score file"), candidates
        )
        records = qaeval.external_scores(questions, scores)
    path = out / f"answers-{tag}.csv"
    qaeval.write_answers(records, path)
    _write_manifest(
        out, f"answer-{tag}",
        {"model": args.model, "components": getattr(args, "components", None),
         "graphs": getattr(args, "graphs", None)},
        [out / "questions.jsonl", out / "evidence.jsonl"],
    )
    answered = sum(1 for r in records if r.confidence > 0)
    print(f"answered {answered}/{len(records)} questions -> {path}")
    return EXIT_OK


def cmd_evaluate(args) -> int:
    from . import qaeval
    from .qagen import read_questions

    out = Path(args.out)
    questions_path = _require(out / "questions.jsonl", "gen-questions")
    questions, _ = read_questions(questions_path)
    question_ids = [q.id for q in questions]
    known = set(question_ids)
    suffix = ""
    if args.filtered:
        from .store import GraphStore

        store = GraphStore.open(_graph_dir(out, args.graphs))
        questions = qaeval.filter_questions(questions, store, args.seed)
        if not questions:
            raise DataError("no questions left after vertex filtering")
        suffix = "-filtered"
    gold = {q.id: q.polarity == "positive" for q in questions}
    answer_paths = sorted(out.glob("answers-*.csv"))
    if args.answers:
        answer_paths = [_input_file(Path(p), "answer file") for p in args.answers]
    if not answer_paths:
        raise DataError("no answer files found; run the `answer` subcommand first")
    # every file is read and checked before any report is written
    answers = []
    for path in answer_paths:
        records = qaeval.read_answers(path)
        seen = set()
        for r in records:
            if r.question_id not in known:
                raise DataError(f"{path}: question {r.question_id!r} is not in {questions_path}")
            if r.question_id in seen:
                raise DataError(f"{path}: question {r.question_id!r} is answered twice")
            seen.add(r.question_id)
        unanswered = next((qid for qid in question_ids if qid not in seen), None)
        if unanswered is not None:
            raise DataError(
                f"{path}: question {unanswered!r} of {questions_path} is not answered"
            )
        answers.append((path, [r for r in records if r.question_id in gold]))
    report_dir = out / "report"
    report_dir.mkdir(parents=True, exist_ok=True)
    summary_lines = []
    if args.filtered:
        summary_lines.append(f"filtered question set: {len(questions)} questions")
    for path, records in answers:
        model = records[0].model_id if records else path.stem
        curve = qaeval.pr_curve(records, gold)
        qaeval.write_pr_csv(curve, report_dir / f"pr-{model}{suffix}.csv")
        accs = []
        for k in args.k:
            acc = qaeval.accuracy_at_k(records, gold, k)
            accs.append(f"acc@{k}={acc.accuracy:.4f} (n={acc.k_used})")
        summary_lines.append(
            f"{model}: answered={sum(1 for r in records if r.confidence > 0)}"
            f"/{len(records)} max_recall={curve.max_recall:.4f} " + " ".join(accs)
        )
    summary = "\n".join(summary_lines) + "\n"
    with _atomic_writer(report_dir / f"summary{suffix}.txt") as fh:
        fh.write(summary)
    _write_manifest(
        out, f"evaluate{suffix}",
        {"k": args.k, "filtered": args.filtered},
        answer_paths, seed=args.seed if args.filtered else None,
    )
    print(summary, end="")
    return EXIT_OK


def cmd_query(args) -> int:
    from .localgraph import _bound_args, valid_maps
    from .store import GraphStore

    out = Path(args.out)
    store = GraphStore.open(_graph_dir(out, args.graphs))
    premise = _parse_query_predicate(args.premise, args.type)
    hypothesis = _parse_query_predicate(args.hypothesis, args.type)

    # bind fresh placeholder entities per candidate argument map
    ents = tuple(
        EntityId(f"x{i}", None, True) for i in range(1, premise.valency + 1)
    )
    prop = Proposition(premise, ents)
    best = None
    for amap in valid_maps(premise.valency, hypothesis.valency):
        result = store.score(prop, hypothesis, _bound_args(amap, prop.arg_keys))
        if result.score > 0 and (best is None or result.score > best.score):
            best = result
    if best is None:
        print(f"no entailment found: {premise.token()} -> {hypothesis.token()}")
        return EXIT_OK
    print(f"score={best.score:.6f} backed_off={best.backed_off}")
    for e in best.path:
        print(
            f"  {e.premise.token()} -> {e.hypothesis.token()} "
            f"[{e.kind} {e.arg_map.format()}] {e.score:.6f}"
        )
    return EXIT_OK


def _parse_query_predicate(text: str, default_type: str | None) -> TypedPredicate:
    if "#" in text:
        return TypedPredicate.parse_token(text)
    if not default_type:
        raise UsageError(f"predicate {text!r} carries no types; pass --type")
    name = text
    if len(name) > 2 and name[-2] == "." and name[-1] in "12":
        return TypedPredicate(name[:-2], 1, (default_type,), name[-2:])
    return TypedPredicate(name, 2, (default_type, default_type))


# -- parser ------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors exit 1, not argparse's 2
        self.print_usage(sys.stderr)
        raise UsageError(message)


def _bounded(convert, *checks):
    """An argparse ``type`` that converts an option's value and refuses
    it, as a usage error naming the bound, at the first ``(within,
    bound)`` check for which ``within(value)`` is false."""

    def parse(text: str):
        value = convert(text)
        for within, bound in checks:
            if not within(value):
                raise argparse.ArgumentTypeError(f"{text} is not {bound}")
        return value

    parse.__name__ = convert.__name__  # argparse names the type in its errors
    return parse


_POSITIVE_INT = _bounded(int, (lambda v: v >= 1, ">= 1"))
_COUNT = _bounded(int, (lambda v: v >= 0, ">= 0"))
_WEIGHT = _bounded(float, (math.isfinite, "finite"), (lambda v: v >= 0, ">= 0"))
_UNIT_SCORE = _bounded(float, (lambda v: 0 < v <= 1, "in (0, 1]"))
_THRESHOLD = _bounded(float, (lambda v: 0 <= v <= 1, "in [0, 1]"))


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="entgraph", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--out", default="out", help="pipeline artifact directory")

    p = sub.add_parser("ingest", help="read a proposition file into a corpus artifact")
    common(p)
    p.add_argument("--types", default=None, help="type inventory file")
    p.add_argument("--corpus", default=str(resources.sample_corpus_path()),
                   help="proposition file (default: shipped sample)")

    p = sub.add_parser("build-local", help="build typed subgraphs from the corpus")
    common(p)
    p.add_argument("--min-count", type=_COUNT, default=3)
    p.add_argument("--edge-threshold", type=_THRESHOLD, default=0.01)

    p = sub.add_parser("globalize", help="refine scores with soft constraints")
    common(p)
    p.add_argument("--lambda-para", type=_WEIGHT, default=1.0)
    p.add_argument("--lambda-cross", type=_WEIGHT, default=0.5)
    p.add_argument("--tau", type=_UNIT_SCORE, default=0.9)

    p = sub.add_parser("gen-questions", help="generate the true/false question set")
    common(p)
    p.add_argument("--wordnet", default=None, help="WordNet database directory")
    p.add_argument("--window", type=_POSITIVE_INT, default=3)
    p.add_argument("--entity-min", type=_COUNT, default=6)
    p.add_argument("--predicate-min", type=_COUNT, default=11)
    p.add_argument("--positives", type=_COUNT, default=8)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("answer", help="answer questions with a model")
    common(p)
    p.add_argument("--model", choices=("exact", "graph", "external"), default="graph")
    p.add_argument("--components", default="bb,uu,bu")
    p.add_argument("--graphs", default="auto", help="local|global|auto|path")
    p.add_argument("--scores", default=None, help="external score file")
    p.add_argument("--export-evidence", default=None,
                   help="write the evidence export for external scorers")

    p = sub.add_parser("evaluate", help="compute PR curves and accuracy@K")
    common(p)
    p.add_argument("--answers", nargs="*", default=None)
    p.add_argument("--k", type=_POSITIVE_INT, nargs="*", default=[50, 200])
    p.add_argument("--filtered", action="store_true",
                   help="keep only questions with a graph vertex, re-balanced")
    p.add_argument("--graphs", default="auto")
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("query", help="query one entailment")
    common(p)
    p.add_argument("premise")
    p.add_argument("hypothesis")
    p.add_argument("--type", default=None)
    p.add_argument("--graphs", default="auto")
    return parser


_COMMANDS = {
    "ingest": cmd_ingest,
    "build-local": cmd_build_local,
    "globalize": cmd_globalize,
    "gen-questions": cmd_gen_questions,
    "answer": cmd_answer,
    "evaluate": cmd_evaluate,
    "query": cmd_query,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except VersionMismatch as exc:
        print(f"version mismatch: {exc}", file=sys.stderr)
        return EXIT_VERSION
    except DataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except ValueError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
