#!/usr/bin/env python3
"""Regenerate the golden digests of the sample pipeline's graphs and answers.

Runs ``ingest``, ``build-local`` and ``globalize`` with their defaults
(the shipped sample corpus) through ``entgraph.cli.main`` in a temporary
directory, then writes the sha256 of every ``graphs/local`` and
``graphs/global`` file to ``tests/data/sample_graph_digests.sha256`` in
``sha256sum`` format, which ``tests/test_cli.py::TestGoldenGraphs``
checks. It then runs ``gen-questions --seed 3`` and the graph model's
``answer --components`` for each of the 7 non-empty subsets of
``bb,bu,uu``, and writes the sha256 of every ``answers-*.csv`` to
``tests/data/sample_answer_digests.sha256``, which
``tests/test_cli.py::TestStageWiring::test_answer_file_name_matches_model_id``
checks. It then runs ``evaluate`` with its defaults on those 7 answer
files and writes the sha256 of ``report/pr-*.csv`` and
``report/summary.txt`` to ``tests/data/sample_report_digests.sha256``,
which the same test checks. It writes the sha256 of ``corpus.jsonl``
(what ``entgraph dump-corpus`` prints of the saved corpus),
``questions.jsonl``, ``evidence.jsonl`` and ``evidence.columns`` to
``tests/data/sample_jsonl_digests.sha256``, which
``tests/test_cli.py::TestGoldenGraphs`` checks. Last, it builds the
local graphs of ``synthetic_corpus()``, a seeded corpus with BB
identity, BB swap, BU and UU edges, and writes their sha256 to
``tests/data/synthetic_graph_digests.sha256``, which
``tests/test_cli.py::TestGoldenGraphs`` also checks. It then runs
``ingest``, ``build-local`` and ``globalize`` on two corpora of
``perfbench/gen.py``'s ``dense_records`` (imported, never changed): the
benchmark's 4,000-proposition dense corpus and one four times its size,
and writes the sha256 of each one's ``corpus.jsonl`` dump and its local
and global graph files to ``tests/data/dense_graph_digests.sha256``, which
``tests/test_cli.py::TestGoldenGraphs`` checks too. Last, it runs all
seven stages on qa x40, ``perfbench/gen.py``'s ``qa_sample_records`` of
the sample at 40 copies and seed 1 with ``gen-questions --seed 1``:
``answer`` with the exact model and the graph model's ``bb,bu,uu``,
``bb``, ``bu`` and ``uu``, then ``evaluate`` on those five. It writes the
sha256 of the ``corpus.jsonl`` dump, the local and global graphs,
``questions.jsonl``, ``evidence.jsonl``, ``evidence.columns``, the
answers and the report to
``tests/data/qa40_digests.sha256``, which
``tests/test_cli.py::TestGoldenGraphs`` checks as well. Run it after an
intended change to the graphs, the answers, the report or the JSONL
files:

    python3 scripts/make_sample_graph_digests.py
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib.util
import io
import itertools
import random
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "tests" / "data"
OUT = DATA / "sample_graph_digests.sha256"
ANSWERS_OUT = DATA / "sample_answer_digests.sha256"
REPORT_OUT = DATA / "sample_report_digests.sha256"
SYNTHETIC_OUT = DATA / "synthetic_graph_digests.sha256"
JSONL_OUT = DATA / "sample_jsonl_digests.sha256"
DENSE_OUT = DATA / "dense_graph_digests.sha256"
QA40_OUT = DATA / "qa40_digests.sha256"
# the files of the question stage; the corpus is hashed as its dump
QA_FILES = ("questions.jsonl", "evidence.jsonl", "evidence.columns")

# the question seed of tests/test_cli.py's pipeline fixture
QUESTION_SEED = "3"
COMPONENTS = tuple(
    ",".join(subset)
    for n in (1, 2, 3)
    for subset in itertools.combinations(("bb", "bu", "uu"), n)
)

# ``perfbench/gen.py``'s ``dense_records`` arguments: 4k is the dense
# benchmark workload's corpus (``perfbench/run.py``'s DENSE), 16k scales
# its propositions, lemmas and entities by four
DENSE_CORPORA = {
    "dense-4k": {"propositions": 4000, "lemmas": 80, "entities": 300, "seed": 0},
    "dense-16k": {"propositions": 16000, "lemmas": 320, "entities": 1200, "seed": 0},
}

# qa x40: ``perfbench/gen.py``'s ``qa_sample_records`` arguments, the
# question seed and the answer models, exact first
QA40_COPIES, QA40_SEED = 40, 1
QA40_MODELS = (("--model", "exact"),) + tuple(
    ("--components", components) for components in ("bb,bu,uu", "bb", "bu", "uu"))

sys.path.insert(0, str(ROOT / "src"))

from entgraph.cli import EXIT_OK, main as cli_main  # noqa: E402
from entgraph.graphio import write_graph_dir  # noqa: E402
from entgraph.localgraph import build_local_graphs  # noqa: E402
from entgraph.model import Corpus, EntityId, Proposition, TypedPredicate  # noqa: E402


def _sha256sum(paths, base: Path) -> list[str]:
    return [
        f"{hashlib.sha256(path.read_bytes()).hexdigest()}  {path.relative_to(base).as_posix()}"
        for path in paths
    ]


def digest_lines(graphs: Path) -> list[str]:
    """``sha256sum local/*.graph global/*.graph`` run in ``graphs``."""
    families = (sorted((graphs / family).glob("*.graph")) for family in ("local", "global"))
    return _sha256sum([path for paths in families for path in paths], graphs)


def answer_digest_lines(out: Path) -> list[str]:
    """``sha256sum answers-*.csv`` run in ``out``."""
    return _sha256sum(sorted(out.glob("answers-*.csv")), out)


def report_digest_lines(out: Path) -> list[str]:
    """``sha256sum report/pr-*.csv report/summary.txt`` run in ``out``."""
    report = out / "report"
    return _sha256sum([*sorted(report.glob("pr-*.csv")), report / "summary.txt"], out)


def corpus_digest_line(out: Path, base: Path) -> str:
    """``entgraph dump-corpus --out <out> | sha256sum``, named as the file
    ``corpus.jsonl`` in ``out``, relative to ``base``."""
    digest = hashlib.sha256(_run("dump-corpus", "--out", str(out)).encode("utf-8")).hexdigest()
    return f"{digest}  {(out / 'corpus.jsonl').relative_to(base).as_posix()}"


def jsonl_digest_lines(out: Path) -> list[str]:
    """The ``corpus.jsonl`` dump's digest, then ``sha256sum questions.jsonl
    evidence.jsonl evidence.columns`` run in ``out``."""
    return [corpus_digest_line(out, out), *_sha256sum([out / name for name in QA_FILES], out)]


def synthetic_corpus(seed: int = 14) -> Corpus:
    """A seeded corpus of a few hundred propositions over two types.

    Facts are (person, organization) pairs. Each "work.at" binary holds
    a random share of them in that order and each "employ" one a share
    with the arguments reversed, so the first group links by identity and
    the two groups by swap. Each "meet" binary holds a share of (person,
    person) facts, one of them reversed, so identity and swap compete in
    one signature. Each unary keeps one slot of a share of the facts, so
    binaries entail unaries (BU) and unaries of one type entail each
    other (UU).
    """
    rng = random.Random(seed)
    people = [EntityId(f"p{i}", None, True) for i in range(30)]
    orgs = [EntityId(f"o{i}", None, True) for i in range(20)]
    facts = sorted({(rng.choice(people), rng.choice(orgs)) for _ in range(60)},
                   key=lambda f: (f[0].key, f[1].key))
    colleagues = sorted({(rng.choice(people), rng.choice(people)) for _ in range(30)},
                        key=lambda f: (f[0].key, f[1].key))
    props = []

    def add(lemma, valency, types, case, args):
        predicate = TypedPredicate(lemma, valency, types, case)
        props.append(Proposition(predicate, args, f"a{len(props)}"))

    for n in range(5):
        for person, org in rng.sample(facts, rng.randint(8, 24)):
            add(f"work.at{n}", 2, ("person", "organization"), None, (person, org))
    for n in range(3):
        for person, org in rng.sample(facts, rng.randint(8, 24)):
            add(f"employ{n}", 2, ("organization", "person"), None, (org, person))
    for n in range(3):
        for a, b in rng.sample(colleagues, rng.randint(8, 20)):
            add(f"meet{n}", 2, ("person", "person"), None, (b, a) if n == 2 else (a, b))
    for n in range(4):
        for person, org in rng.sample(facts, rng.randint(6, 20)):
            add(f"be.worker{n}", 1, ("person",), ".1", (person,))
            add(f"be.employer{n}", 1, ("organization",), ".1", (org,))
    return Corpus(props)


def synthetic_digest_lines(directory: Path) -> list[str]:
    """Write the local graphs of ``synthetic_corpus()`` to ``directory``/local
    and return ``sha256sum local/*.graph`` run in ``directory``."""
    paths = write_graph_dir(build_local_graphs(synthetic_corpus()), directory / "local")
    return _sha256sum(sorted(paths), directory)


def _bench_gen():
    """``perfbench/gen.py``, loaded as a module of its own name."""
    spec = importlib.util.spec_from_file_location("perfbench_gen", ROOT / "perfbench" / "gen.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def dense_digest_lines(directory: Path) -> list[str]:
    """Run ``ingest``, ``build-local`` and ``globalize`` on each dense
    corpus in ``directory``/<name> and return the digest of its
    ``corpus.jsonl`` dump, then ``sha256sum <name>/graphs/local/*.graph
    <name>/graphs/global/*.graph`` run in ``directory``, corpus by corpus."""
    gen = _bench_gen()
    lines = []
    for name, params in DENSE_CORPORA.items():
        out = directory / name
        records = directory / f"{name}.jsonl"
        gen.write_lines(records, gen.dense_records(**params))
        _run("ingest", "--corpus", str(records), "--out", str(out))
        for stage in ("build-local", "globalize"):
            _run(stage, "--out", str(out))
        families = (sorted((out / "graphs" / family).glob("*.graph"))
                    for family in ("local", "global"))
        lines.append(corpus_digest_line(out, directory))
        lines += _sha256sum([path for paths in families for path in paths], directory)
    return lines


def qa40_digest_lines(directory: Path) -> list[str]:
    """Run all seven stages on qa x40 in ``directory``/qa40 and return the
    digest of its ``corpus.jsonl`` dump, then ``sha256sum graphs/local/*.graph
    graphs/global/*.graph questions.jsonl evidence.jsonl evidence.columns answers-*.csv
    report/pr-*.csv report/summary.txt`` run in ``directory``/qa40."""
    gen = _bench_gen()
    out, records = directory / "qa40", directory / "qa40.jsonl"
    sample = gen.SAMPLE.read_text(encoding="utf-8").splitlines()
    gen.write_lines(records, gen.qa_sample_records(sample, QA40_COPIES, QA40_SEED))
    _run("ingest", "--corpus", str(records), "--out", str(out))
    for stage in ("build-local", "globalize"):
        _run(stage, "--out", str(out))
    _run("gen-questions", "--out", str(out), "--seed", str(QA40_SEED))
    for model in QA40_MODELS:
        _run("answer", "--out", str(out), *model)
    _run("evaluate", "--out", str(out))
    graphs = [path for family in ("local", "global")
              for path in sorted((out / "graphs" / family).glob("*.graph"))]
    return ([corpus_digest_line(out, out)]
            + _sha256sum([*graphs, *(out / name for name in QA_FILES)], out)
            + answer_digest_lines(out) + report_digest_lines(out))


def _run(*argv: str) -> str:
    """The standard output of ``entgraph <argv>``, which must succeed."""
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = cli_main(list(argv))
    if code != EXIT_OK:
        sys.exit(f"entgraph {argv[0]} exited with {code}")
    return stdout.getvalue()


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        for stage in ("ingest", "build-local", "globalize"):
            _run(stage, "--out", tmp)
        _run("gen-questions", "--out", tmp, "--seed", QUESTION_SEED)
        for components in COMPONENTS:
            _run("answer", "--out", tmp, "--components", components)
        _run("evaluate", "--out", tmp)
        lines = digest_lines(Path(tmp) / "graphs")
        answer_lines = answer_digest_lines(Path(tmp))
        report_lines = report_digest_lines(Path(tmp))
        jsonl_lines = jsonl_digest_lines(Path(tmp))
        synthetic_lines = synthetic_digest_lines(Path(tmp) / "synthetic")
        dense_lines = dense_digest_lines(Path(tmp) / "dense")
        qa40_lines = qa40_digest_lines(Path(tmp))
    for path, found in ((OUT, lines), (ANSWERS_OUT, answer_lines),
                        (REPORT_OUT, report_lines), (JSONL_OUT, jsonl_lines),
                        (SYNTHETIC_OUT, synthetic_lines), (DENSE_OUT, dense_lines),
                        (QA40_OUT, qa40_lines)):
        path.write_text("".join(line + "\n" for line in found), encoding="utf-8")
        print(f"wrote {len(found)} digests to {path}")


if __name__ == "__main__":
    main()
