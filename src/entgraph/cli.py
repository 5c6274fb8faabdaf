"""Command-line pipeline driver.

Each stage reads the previous stage's artifacts from the output directory
and writes its own, with a JSON manifest (stage version, option values,
digests of the files read and written) so identical inputs reproduce
identical bytes. A stage reads an artifact only as its producer's
manifest lists it, up the chain, and otherwise exits 2 (``Artifacts``).

A stage normally runs as a process of its own, so each subcommand
imports the layers it calls when it runs, not when this module loads:
``ingest`` is loaded by ``ingest`` alone (later stages read its corpus
through ``records``), ``globalgraph`` by ``globalize`` alone, ``lexicon`` by
``gen-questions`` alone, ``qagen`` and ``qaeval`` only by the stages that
use them, and ``store`` with the graph layers only where a graph is
opened. Every layer uses the standard library alone, and none imports
``dataclasses``.

Exit codes: 0 success, 1 usage error, 2 data/dependency error, 3 file
format version mismatch.
"""

from __future__ import annotations

import argparse
import functools
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

STAGE_VERSION = 2
# the saved corpus ``ingest`` writes (see ``records``), and the corpus rows
# of the evidence ``gen-questions`` writes (see ``qagen.read_evidence``)
CORPUS = "corpus.columns"
EVIDENCE = "evidence.columns"
# each artifact under ``--out`` -> the stage that writes it; besides these,
# ``answers-<tag>.csv`` is written by ``answer-<tag>`` (see ``_producer``)
PRODUCERS = {
    CORPUS: "ingest",
    "graphs/local": "build-local",
    "graphs/global": "globalize",
    "questions.jsonl": "gen-questions",
    "evidence.jsonl": "gen-questions",
    EVIDENCE: "gen-questions",
}
# arguments kept out of a manifest's config: the options that name files
_NOT_CONFIG = {"command", "out", "corpus", "types", "wordnet", "graphs", "scores",
               "export_evidence", "answers"}

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


def _producer(name: str) -> str | None:
    """The stage that writes the ``--out`` artifact ``name``, if it is one."""
    if name.startswith("answers-") and name.endswith(".csv"):
        return "answer-" + name[len("answers-"):-len(".csv")]
    return PRODUCERS.get(name)


class Artifacts:
    """The files one stage run reads and writes. ``read`` accepts an
    ``--out`` artifact only if its producer's manifest lists each of its
    files with the digest it has now, and each ``--out`` input of that
    manifest is itself accepted, up the chain; otherwise DataError names
    the file and the stage to rerun. Each file is hashed at most once."""

    def __init__(self, args):
        self.args, self.out = args, Path(args.out)
        self.inputs: dict[str, str] = {}
        self._outputs: dict[str, dict] = {}  # stage -> its manifest's outputs
        self._sha256 = functools.lru_cache(maxsize=None)(_sha256)

    def _listing(self, name: str, sha256=None) -> dict[str, str]:
        """{key: digest} of the files the artifact ``name`` holds now."""
        path = self.out / name
        files = sorted(path.glob("*.graph")) if path.is_dir() else [path]
        return {f.relative_to(self.out).as_posix(): (sha256 or self._sha256)(f) for f in files}

    def _check(self, recorded: dict, name: str, stage: str, did: str) -> None:
        listed = {k: v for k, v in recorded.items() if name in (k, k.rpartition("/")[0])}
        now = self._listing(name)
        if listed != now:
            key = min(k for k in listed.keys() | now.keys() if listed.get(k) != now.get(k))
            raise DataError(
                f"{self.out / key} is not what `{stage}` {did}; rerun the `{stage}` stage")

    def _manifest_outputs(self, stage: str) -> dict:
        """The outputs ``stage``'s manifest lists, once its inputs are accepted."""
        if stage not in self._outputs:
            path = self.out / f"{stage}.manifest.json"
            if not path.is_file():
                raise DataError(f"missing manifest {path}; rerun the `{stage}` stage")
            try:
                manifest = json.loads(path.read_text(encoding="utf-8"))
                inputs, outputs = dict(manifest["inputs"]), dict(manifest["outputs"])
                current = manifest["stage_version"] == STAGE_VERSION
            except (ValueError, TypeError, KeyError):
                current = False
            if not current:
                raise DataError(f"{path} is not a current manifest; rerun the `{stage}` stage")
            self._outputs[stage] = outputs
            for name in sorted({k if _producer(k) else k.rpartition("/")[0]
                                for k in inputs if not k.startswith("-")}):
                self._accept(name)
                self._check(inputs, name, stage, "read")
        return self._outputs[stage]

    def _accept(self, name: str) -> Path:
        path, stage = self.out / name, _producer(name)
        if not path.exists():
            raise DataError(f"missing artifact {path}; run the `{stage}` subcommand first")
        self._check(self._manifest_outputs(stage), name, stage, "wrote")
        return path

    def read(self, name: str) -> Path:
        """The ``--out`` artifact ``name``, accepted, as an input of this run."""
        path = self._accept(name)
        self.inputs.update(self._listing(name))
        return path

    def read_file(self, path: Path, key: str, what: str) -> Path:
        """A file the command line names, as an input of this run under ``key``."""
        if not path.exists():
            raise DataError(f"{what} {path} does not exist")
        if not path.is_file():
            raise DataError(f"{what} {path} is not a file")
        self.inputs[key] = self._sha256(path)
        return path

    def seal(self, stage: str, outputs: list[str]) -> None:
        """Write ``<stage>.manifest.json``: the run's option values, and the
        digests of its inputs and of the ``outputs`` it wrote, keyed by path
        relative to ``--out`` or, for a file the command line names, by option."""
        config = {k: v for k, v in vars(self.args).items() if k not in _NOT_CONFIG}
        payload = {
            "stage": stage, "stage_version": STAGE_VERSION, "config": config,
            "config_hash": hashlib.sha256(json.dumps(config, sort_keys=True).encode()).hexdigest(),
            "inputs": self.inputs,
            "outputs": {k: v for name in outputs for k, v in self._listing(name, _sha256).items()},
        }
        with _atomic_writer(self.out / f"{stage}.manifest.json") as fh:
            fh.write(json.dumps(payload, sort_keys=True, indent=2) + "\n")


# -- subcommands -------------------------------------------------------------


def cmd_ingest(args, run: Artifacts) -> int:
    from .ingest import ingest
    from .records import save_corpus

    run.out.mkdir(parents=True, exist_ok=True)
    corpus_path = run.read_file(Path(args.corpus), "--corpus", "input corpus file")
    inventory = None
    if args.types:
        inventory = TypeInventory.from_file(
            run.read_file(Path(args.types), "--types", "type inventory file"))
    corpus = ingest(corpus_path, inventory)
    save_corpus(corpus, run.out / CORPUS)
    run.seal("ingest", [CORPUS])
    print(
        f"ingested {corpus.stats.propositions} propositions "
        f"({corpus.stats.skipped_malformed} malformed, "
        f"{corpus.stats.skipped_unnamed} without named entity)"
    )
    return EXIT_OK


def cmd_build_local(args, run: Artifacts) -> int:
    from . import graphio
    from .features import FeatureConfig
    from .localgraph import LocalBuildConfig, build_local_graphs
    from .records import read_corpus

    corpus = read_corpus(run.read(CORPUS))
    config = LocalBuildConfig(
        FeatureConfig(min_count=args.min_count), edge_threshold=args.edge_threshold
    )
    graphs = build_local_graphs(corpus, config)
    local_dir = run.out / "graphs" / "local"
    paths = graphio.write_graph_dir(graphs, local_dir)
    n_edges = sum(len(sub.scores) for sub in graphs.values())
    run.seal("build-local", ["graphs/local"])
    print(f"built {len(paths)} typed subgraphs with {n_edges} edges in {local_dir}")
    return EXIT_OK


def cmd_globalize(args, run: Artifacts) -> int:
    from . import graphio
    from .globalgraph import GlobalConfig, apply_to_all

    local_dir = run.read("graphs/local")
    config = GlobalConfig(
        lambda_para=args.lambda_para,
        lambda_cross=args.lambda_cross,
        paraphrase_tau=args.tau,
    )
    local = graphio.read_graph_dir(local_dir)
    bivalent, univalent = apply_to_all(
        {sig: sub for sig, sub in local.items() if len(sig) == 2},
        {sig: sub for sig, sub in local.items() if len(sig) == 1}, config)
    refined = {**bivalent.subgraphs, **univalent.subgraphs}
    global_dir = run.out / "graphs" / "global"
    graphio.write_graph_dir(refined, global_dir)
    run.seal("globalize", ["graphs/global"])
    print(f"globalized {len(refined)} subgraphs into {global_dir}")
    return EXIT_OK


def cmd_gen_questions(args, run: Artifacts) -> int:
    from .lexicon import WORDNET_FILES, LexicalResource
    from .qagen import (
        QaGenConfig, generate_questions, save_evidence, write_evidence, write_questions)
    from .records import read_corpus

    corpus = read_corpus(run.read(CORPUS))
    if args.wordnet:
        for name in WORDNET_FILES:
            run.read_file(Path(args.wordnet) / name, f"--wordnet/{name}", "WordNet file")
        lex = LexicalResource.from_wordnet_dir(args.wordnet)
    else:
        lex = LexicalResource.fixture()
    config = QaGenConfig(
        window_days=args.window,
        entity_min=args.entity_min,
        predicate_min=args.predicate_min,
        positives_per_partition=args.positives,
        seed=args.seed,
    )
    qs = generate_questions(corpus, lex, config)
    write_questions(qs, run.out / "questions.jsonl")
    write_evidence(qs.evidence, corpus, run.out / "evidence.jsonl")
    save_evidence(qs.evidence, corpus, run.out / EVIDENCE)
    run.seal("gen-questions", ["questions.jsonl", "evidence.jsonl", EVIDENCE])
    print(
        f"generated {qs.manifest['questions']} balanced questions "
        f"over {qs.manifest['partitions']} partitions"
    )
    return EXIT_OK


def cmd_dump_corpus(args, run: Artifacts) -> int:
    from .records import corpus_lines, read_corpus

    corpus = read_corpus(run.read(CORPUS))
    sys.stdout.writelines(corpus_lines(corpus))
    return EXIT_OK


def _graph_dir(run: Artifacts, choice: str) -> Path:
    """The graph directory ``--graphs`` names, read; it must hold ``*.graph``
    files. The files of a directory named by path are recorded by option."""
    if choice == "auto":
        choice = "global" if (run.out / "graphs" / "global").exists() else "local"
    if choice in ("global", "local"):
        path = run.read(f"graphs/{choice}")
    else:
        path = Path(choice)
        if not path.exists():
            raise DataError(f"graph directory {path} does not exist")
        if not path.is_dir():
            raise DataError(f"graph directory {path} is not a directory")
        for graph in sorted(path.glob("*.graph")):
            run.read_file(graph, f"--graphs/{graph.name}", "graph file")
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


def cmd_answer(args, run: Artifacts) -> int:
    from . import qaeval
    from .qagen import read_evidence, read_questions
    from .records import read_corpus

    questions, _ = read_questions(run.read("questions.jsonl"))
    evidence_path = run.read(EVIDENCE)
    evidence = {p.id: p for p in read_evidence(evidence_path, read_corpus(run.read(CORPUS)))}
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
        graph_dir = _graph_dir(run, args.graphs)
        store = GraphStore.open(graph_dir)
        for q in questions:
            records.append(qaeval.answer_graph(q, evidence[q.partition_id], store, kinds))
        if graph_dir != run.out / "graphs" / "global":
            # named apart, so that these answers never overwrite global ones
            tag = tag.replace("graph-", f"graph-{graph_dir.name}-", 1)
            records = [r._replace(model_id=tag) for r in records]
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
            run.read_file(Path(args.scores), "--scores", "score file"), candidates
        )
        records = qaeval.external_scores(questions, scores)
    path = run.out / f"answers-{tag}.csv"
    qaeval.write_answers(records, path)
    run.seal(f"answer-{tag}", [path.name])
    answered = sum(1 for r in records if r.confidence > 0)
    print(f"answered {answered}/{len(records)} questions -> {path}")
    return EXIT_OK


def cmd_evaluate(args, run: Artifacts) -> int:
    from . import qaeval
    from .qagen import read_questions

    questions_path = run.read("questions.jsonl")
    questions, _ = read_questions(questions_path)
    question_ids = [q.id for q in questions]
    known = set(question_ids)
    suffix = ""
    if args.filtered:
        from .store import GraphStore

        store = GraphStore.open(_graph_dir(run, args.graphs))
        questions = qaeval.filter_questions(questions, store, args.seed)
        if not questions:
            raise DataError("no questions left after vertex filtering")
        suffix = "-filtered"
    gold = {q.id: q.polarity == "positive" for q in questions}
    if args.answers:
        answer_paths = [run.read_file(Path(p), f"--answers[{i}]", "answer file")
                        for i, p in enumerate(args.answers)]
    else:
        answer_paths = [run.read(p.name) for p in sorted(run.out.glob("answers-*.csv"))]
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
    report_dir = run.out / "report"
    report_dir.mkdir(parents=True, exist_ok=True)
    summary_lines, written = [], [f"report/summary{suffix}.txt"]
    if args.filtered:
        summary_lines.append(f"filtered question set: {len(questions)} questions")
    for path, records in answers:
        model = records[0].model_id if records else path.stem
        curve = qaeval.pr_curve(records, gold)
        qaeval.write_pr_csv(curve, report_dir / f"pr-{model}{suffix}.csv")
        written.append(f"report/pr-{model}{suffix}.csv")
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
    run.seal(f"evaluate{suffix}", written)
    print(summary, end="")
    return EXIT_OK


def cmd_query(args, run: Artifacts) -> int:
    from .localgraph import EDGE_SLOTS, EDGE_VALENCIES
    from .store import GraphStore

    store = GraphStore.open(_graph_dir(run, args.graphs))
    premise = _parse_query_predicate(args.premise, args.type)
    hypothesis = _parse_query_predicate(args.hypothesis, args.type)

    # bind fresh placeholder entities, carried over by each candidate code
    ents = tuple(
        EntityId(f"x{i}", None, True) for i in range(1, premise.valency + 1)
    )
    prop = Proposition(premise, ents)
    best = None
    for slots, valencies in zip(EDGE_SLOTS, EDGE_VALENCIES):
        if valencies != (premise.valency, hypothesis.valency):
            continue
        result = store.score(prop, hypothesis, tuple(prop.arg_keys[i] for i in slots))
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

    p = sub.add_parser("dump-corpus",
                       help="print the saved corpus as one JSON record per line")
    common(p)

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
    "dump-corpus": cmd_dump_corpus,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args, Artifacts(args))
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
