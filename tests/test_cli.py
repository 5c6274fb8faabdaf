"""CLI orchestration tests: stage wiring, exit codes, reproducibility."""

import csv
import datetime as dt
import hashlib
import importlib.util
import itertools
import json
import random
import shutil
from array import array
from pathlib import Path

import pytest

from entgraph import resources
from entgraph.cli import EXIT_DATA, EXIT_OK, EXIT_USAGE, EXIT_VERSION, build_parser, main
from entgraph.columns import read_columns, write_columns
from entgraph.localgraph import BU, EDGE_CODES, UU, build_local_graphs
from entgraph.model import Corpus, EntityId, Proposition, TypedPredicate
from entgraph.qaeval import answer_graph, read_answers
from entgraph.qagen import EVIDENCE_MAGIC, EVIDENCE_ROWS_VERSION, Partition, Question
from entgraph.records import read_corpus
from entgraph.store import GraphStore

from conftest import DATA, reseal
from oracles import bound_args, valency_maps


@pytest.fixture(scope="module")
def pipeline_dir(tmp_path_factory) -> Path:
    out = tmp_path_factory.mktemp("pipeline")
    assert main(["ingest", "--out", str(out)]) == EXIT_OK
    assert main(["build-local", "--out", str(out)]) == EXIT_OK
    assert main(["globalize", "--out", str(out)]) == EXIT_OK
    assert main(["gen-questions", "--out", str(out), "--seed", "3"]) == EXIT_OK
    return out


def _digest_script():
    """``scripts/make_sample_graph_digests.py``, loaded as a module."""
    script = DATA.parent.parent / "scripts" / "make_sample_graph_digests.py"
    spec = importlib.util.spec_from_file_location("make_sample_graph_digests", script)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# every stage of the sample pipeline, in order
PIPELINE = (["ingest"], ["build-local"], ["globalize"], ["gen-questions", "--seed", "11"],
            ["answer", "--model", "graph"], ["answer", "--model", "exact"],
            ["evaluate"], ["evaluate", "--filtered"])


def _tree(out: Path) -> dict[str, bytes]:
    """Every file under ``out``, by path relative to it."""
    return {p.relative_to(out).as_posix(): p.read_bytes()
            for p in sorted(out.rglob("*")) if p.is_file()}


class TestStageWiring:
    def test_artifacts_exist(self, pipeline_dir):
        for name in ("corpus.columns", "questions.jsonl", "evidence.jsonl", "evidence.columns"):
            assert (pipeline_dir / name).is_file()
        # one saved corpus: its line form is printed by dump-corpus, not written
        assert not (pipeline_dir / "corpus.jsonl").exists()
        assert not (pipeline_dir / "vectors.tsv").exists()
        assert list((pipeline_dir / "graphs" / "local").glob("*.graph"))
        assert list((pipeline_dir / "graphs" / "global").glob("*.graph"))

    def test_global_files_align_with_local_files(self, pipeline_dir):
        local_dir = pipeline_dir / "graphs" / "local"
        global_dir = pipeline_dir / "graphs" / "global"
        names = sorted(p.name for p in local_dir.glob("*.graph"))
        assert names == sorted(p.name for p in global_dir.glob("*.graph"))
        for name in names:
            local = (local_dir / name).read_text().splitlines()
            final = (global_dir / name).read_text().splitlines()
            assert len(local) == len(final), name
            # globalization moves scores only: every line but the score column agrees
            for a, b in zip(local, final):
                cut = a.rfind("\t") if a.startswith("E\t") else len(a)
                assert a[:cut] == b[:cut], (name, a, b)
                assert a.startswith("E\t") or a == b

    def test_manifests_record_stage_and_seed(self, pipeline_dir):
        manifest = json.loads(
            (pipeline_dir / "gen-questions.manifest.json").read_text()
        )
        assert manifest["stage"] == "gen-questions"
        assert manifest["config"]["seed"] == 3
        assert "config_hash" in manifest
        # keyed by path relative to --out, each file with its digest
        digest = hashlib.sha256((pipeline_dir / "corpus.columns").read_bytes()).hexdigest()
        assert manifest["inputs"] == {"corpus.columns": digest}
        assert sorted(manifest["outputs"]) == [
            "evidence.columns", "evidence.jsonl", "questions.jsonl"]

    def test_manifests_list_every_file_read(self, pipeline_dir, tmp_path):
        def inputs(out, stage):
            return json.loads((out / f"{stage}.manifest.json").read_text())["inputs"]

        def digest(path):
            return hashlib.sha256(path.read_bytes()).hexdigest()

        # files the command line names are keyed by option
        fresh = tmp_path / "fresh"
        types, wordnet = resources.default_type_inventory_path(), resources.fixture_wordnet_dir()
        assert main(["ingest", "--out", str(fresh), "--types", str(types)]) == EXIT_OK
        assert main(["gen-questions", "--out", str(fresh), "--wordnet", str(wordnet)]) == EXIT_OK
        assert inputs(fresh, "ingest") == {
            "--corpus": digest(resources.sample_corpus_path()), "--types": digest(types)}
        assert inputs(fresh, "gen-questions") == {
            "corpus.columns": digest(fresh / "corpus.columns"),
            **{f"--wordnet/{n}": digest(wordnet / n)
               for n in ("index.noun", "data.noun", "index.verb", "data.verb")}}
        # answer lists its graphs and --scores, evaluate its questions
        out = tmp_path / "out"
        shutil.copytree(pipeline_dir, out, ignore=shutil.ignore_patterns("answers-*", "report"))
        assert main(["answer", "--out", str(out), "--model", "graph"]) == EXIT_OK
        scores = tmp_path / "scores.tsv"
        scores.write_text("")
        assert main(["answer", "--out", str(out), "--model", "external",
                     "--scores", str(scores)]) == EXIT_OK
        assert main(["evaluate", "--out", str(out)]) == EXIT_OK
        # answer reads the evidence as rows of the corpus, not evidence.jsonl
        qa = {name: digest(out / name)
              for name in ("questions.jsonl", "corpus.columns", "evidence.columns")}
        graphs = {p.relative_to(out).as_posix(): digest(p)
                  for p in sorted((out / "graphs" / "global").glob("*.graph"))}
        assert inputs(out, "answer-graph-bb+bu+uu") == {**qa, **graphs}
        assert inputs(out, "answer-external") == {**qa, "--scores": digest(scores)}
        assert inputs(out, "evaluate") == {
            name: digest(out / name) for name in (
                "questions.jsonl", "answers-external.csv", "answers-graph-bb+bu+uu.csv")}

    def test_answer_and_evaluate(self, pipeline_dir):
        assert main(["answer", "--out", str(pipeline_dir), "--model", "graph"]) == EXIT_OK
        assert main(["answer", "--out", str(pipeline_dir), "--model", "exact"]) == EXIT_OK
        assert main(["evaluate", "--out", str(pipeline_dir), "--k", "10"]) == EXIT_OK
        report = pipeline_dir / "report"
        assert (report / "summary.txt").is_file()
        assert list(report.glob("pr-*.csv"))

    def test_filtered_evaluation(self, pipeline_dir):
        assert main(["answer", "--out", str(pipeline_dir), "--model", "graph"]) == EXIT_OK
        assert main([
            "evaluate", "--out", str(pipeline_dir), "--k", "10", "--filtered",
        ]) == EXIT_OK
        summary = (pipeline_dir / "report" / "summary-filtered.txt").read_text()
        assert "filtered question set:" in summary

    def test_answer_file_name_matches_model_id(self, pipeline_dir, tmp_path):
        out = tmp_path / "out"
        shutil.copytree(pipeline_dir, out, ignore=shutil.ignore_patterns("answers-*", "report"))
        for n in (1, 2, 3):
            for subset in itertools.combinations(("bb", "bu", "uu"), n):
                components = ",".join(reversed(subset))
                assert main(["answer", "--out", str(out), "--components", components]) == EXIT_OK
        paths = sorted(out.glob("answers-*.csv"))
        assert len(paths) == 7
        for path in paths:
            with open(path, newline="") as fh:
                model_ids = {row["model_id"] for row in csv.DictReader(fh)}
            assert model_ids == {path.stem.removeprefix("answers-")}
        # the answers of every component subset are pinned; an intended
        # change regenerates them with scripts/make_sample_graph_digests.py
        script = _digest_script()
        assert script.QUESTION_SEED == "3"
        assert "".join(line + "\n" for line in script.answer_digest_lines(out)) == (
            DATA / "sample_answer_digests.sha256").read_text()
        # and so is the report evaluate writes from them
        assert main(["evaluate", "--out", str(out)]) == EXIT_OK
        assert "".join(line + "\n" for line in script.report_digest_lines(out)) == (
            DATA / "sample_report_digests.sha256").read_text()

    def test_local_answers_sit_beside_global_ones(self, pipeline_dir, tmp_path):
        out = tmp_path / "out"
        shutil.copytree(pipeline_dir, out, ignore=shutil.ignore_patterns("answers-*", "report"))
        mine = shutil.copytree(out / "graphs" / "global", tmp_path / "mine")
        assert main(["answer", "--out", str(out)]) == EXIT_OK
        assert main(["answer", "--out", str(out), "--graphs", "local"]) == EXIT_OK
        assert main(["answer", "--out", str(out), "--graphs", str(mine)]) == EXIT_OK
        tags = ["graph-bb+bu+uu", "graph-local-bb+bu+uu", "graph-mine-bb+bu+uu"]
        assert sorted(p.name for p in out.glob("answers-*.csv")) == [
            f"answers-{tag}.csv" for tag in tags]
        for tag in tags:
            assert {r.model_id for r in read_answers(out / f"answers-{tag}.csv")} == {tag}
            assert (out / f"answer-{tag}.manifest.json").is_file()
        # a copy of the global graphs answers as they do, and is recorded by option
        confidences = {tag: [r.confidence for r in read_answers(out / f"answers-{tag}.csv")]
                       for tag in (tags[0], tags[2])}
        assert confidences[tags[0]] == confidences[tags[2]]
        inputs = json.loads((out / f"answer-{tags[2]}.manifest.json").read_text())["inputs"]
        assert sorted(k for k in inputs if k.startswith("--graphs/")) == [
            f"--graphs/{p.name}" for p in sorted(mine.glob("*.graph"))]
        assert main(["evaluate", "--out", str(out)]) == EXIT_OK
        summary = (out / "report" / "summary.txt").read_text()
        assert [line.split(":")[0] for line in summary.splitlines()] == tags
        # with no global graphs, auto reads the local ones, and says so too
        bare = tmp_path / "bare"
        shutil.copytree(pipeline_dir, bare,
                        ignore=shutil.ignore_patterns("answers-*", "report", "global"))
        assert main(["answer", "--out", str(bare), "--components", "bb"]) == EXIT_OK
        assert [p.name for p in bare.glob("answers-*.csv")] == ["answers-graph-local-bb.csv"]

    def test_query_finds_planted_edge(self, pipeline_dir, capsys):
        code = main([
            "query", "kill.2", "die.1", "--type", "person", "--out", str(pipeline_dir),
        ])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "score=" in out and "UU" in out
        score = float(out.splitlines()[0].split("=")[1].split()[0])
        assert score > 0

    def test_query_backs_off_only_without_typed_vertex(self, pipeline_dir, capsys):
        def query(premise):
            assert main(["query", premise, "be.winner.1#organization",
                         "--out", str(pipeline_dir)]) == EXIT_OK
            return capsys.readouterr().out.splitlines()[0]

        # a typed vertex with no typed route: no untyped average
        assert query("be.champion.1#person") == (
            "no entailment found: be.champion.1#person -> be.winner.1#organization")
        assert query("be.champion.1#nonexistent") == "score=0.669934 backed_off=True"

    def test_query_agrees_with_answer_graph(self, pipeline_dir, capsys):
        """`query` answers a pair as `answer_graph` answers the question of
        the hypothesis over a partition holding only the premise, bound to
        the same placeholders, under its best argument map."""
        store = GraphStore.open(pipeline_dir / "graphs" / "global")
        subgraphs = [*store.bivalent.values(), *store.univalent.values()]
        edges = [e for sub in subgraphs for e in sub.edges]
        direct = {(e.premise.untyped, e.hypothesis.untyped) for e in edges}
        bu_from = {e.premise.untyped for e in edges if e.kind == BU}
        uu_into = {e.hypothesis.untyped for e in edges if e.kind == UU}
        tokens = sorted({v.token() for sub in subgraphs for v in sub.vertices})
        # a premise with no typed vertex anywhere: only the back-off can answer
        backoff = sorted({t.split("#")[0] + "#nonexistent" * t.count("#") for t in tokens})

        def reachable(p, h):  # every pair an identity, an edge or a BU+UU path could answer
            p, h = TypedPredicate.parse_token(p).untyped, TypedPredicate.parse_token(h).untyped
            return p == h or (p, h) in direct or (p in bu_from and h in uu_into)

        rng = random.Random(10)
        pairs = {(p, h) for p in tokens + backoff for h in tokens if reachable(p, h)}
        pairs |= {(p, rng.choice(tokens)) for p in backoff}

        def answered(premise, hypothesis):
            prop = Proposition(premise, tuple(
                EntityId(f"x{i}", None, True) for i in range(1, premise.valency + 1)))
            best = None
            for amap in valency_maps(premise.valency, hypothesis.valency):
                question = Question("q", 0, hypothesis, bound_args(amap, prop.args), "positive", {})
                record = answer_graph(
                    question, Partition(0, (dt.date.min,) * 2, Corpus([prop]), [0]), store)
                if record.confidence > 0 and (best is None or record.confidence > best.confidence):
                    best = record
            if best is None:
                return f"no entailment found: {premise.token()} -> {hypothesis.token()}"
            return f"score={best.confidence:.6f} backed_off={best.backed_off}"

        capsys.readouterr()
        outcomes = set()
        for p, h in sorted(pairs):
            assert main(["query", p, h, "--out", str(pipeline_dir)]) == EXIT_OK
            line = capsys.readouterr().out.splitlines()[0]
            assert line == answered(TypedPredicate.parse_token(p),
                                    TypedPredicate.parse_token(h)), (p, h)
            outcomes.add(line.split()[-1] if line.startswith("score=") else "none")
        assert outcomes == {"backed_off=False", "backed_off=True", "none"}

    def test_external_scorer_round_trip(self, pipeline_dir, tmp_path):
        export = tmp_path / "export.tsv"
        assert main([
            "answer", "--out", str(pipeline_dir), "--model", "external",
            "--export-evidence", str(export),
        ]) == EXIT_OK
        rows = export.read_text().splitlines()[1:]
        assert rows
        scores = tmp_path / "scores.tsv"
        scores.write_text("\n".join(f"{r}\t0.5" for r in rows) + "\n")
        assert main([
            "answer", "--out", str(pipeline_dir), "--model", "external",
            "--scores", str(scores),
        ]) == EXIT_OK
        assert (pipeline_dir / "answers-external.csv").is_file()


class TestExitCodes:
    def test_missing_stage_names_prerequisite(self, tmp_path, capsys):
        code = main(["evaluate", "--out", str(tmp_path)])
        assert code == EXIT_DATA
        err = capsys.readouterr().err
        assert "gen-questions" in err

    def test_build_local_before_ingest(self, tmp_path, capsys):
        code = main(["build-local", "--out", str(tmp_path)])
        assert code == EXIT_DATA
        assert "ingest" in capsys.readouterr().err

    @pytest.mark.parametrize("stage", ["gen-questions", "dump-corpus"])
    def test_corpus_reader_before_ingest(self, tmp_path, capsys, stage):
        code = main([stage, "--out", str(tmp_path)])
        assert code == EXIT_DATA
        assert "corpus.columns; run the `ingest` subcommand first" in capsys.readouterr().err

    def test_usage_error(self, capsys):
        assert main(["answer", "--model", "psychic"]) == EXIT_USAGE

    @pytest.mark.parametrize("option", [["--iterations", "5"], ["--eps", "1e-3"]])
    def test_removed_globalize_options_rejected(self, option, tmp_path):
        assert main(["globalize", "--out", str(tmp_path), *option]) == EXIT_USAGE

    def test_removed_answer_option_rejected(self, pipeline_dir, capsys):
        code = main(["answer", "--out", str(pipeline_dir), "--no-composition"])
        assert code == EXIT_USAGE
        assert "unrecognized arguments: --no-composition" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, message", [
        (["gen-questions", "--window", "0"], "--window: 0 is not >= 1"),
        (["gen-questions", "--positives", "-1"], "--positives: -1 is not >= 0"),
        (["evaluate", "--k", "50", "-3"], "--k: -3 is not >= 1"),
        (["globalize", "--tau", "0"], "--tau: 0 is not in (0, 1]"),
        (["globalize", "--tau", "1.5"], "--tau: 1.5 is not in (0, 1]"),
        (["globalize", "--lambda-para", "-1"], "--lambda-para: -1 is not >= 0"),
        (["globalize", "--lambda-cross", "-0.5"], "--lambda-cross: -0.5 is not >= 0"),
        (["globalize", "--tau", "high"], "--tau: invalid float value: 'high'"),
        (["globalize", "--lambda-para", "inf"], "--lambda-para: inf is not finite"),
        (["globalize", "--lambda-cross", "inf"], "--lambda-cross: inf is not finite"),
        (["globalize", "--lambda-para", "nan"], "--lambda-para: nan is not finite"),
        (["build-local", "--edge-threshold", "1.5"], "--edge-threshold: 1.5 is not in [0, 1]"),
        (["build-local", "--edge-threshold", "-0.1"], "--edge-threshold: -0.1 is not in [0, 1]"),
        (["build-local", "--min-count", "-5"], "--min-count: -5 is not >= 0"),
        (["gen-questions", "--entity-min", "-1"], "--entity-min: -1 is not >= 0"),
        (["gen-questions", "--predicate-min", "-2"], "--predicate-min: -2 is not >= 0"),
    ])
    def test_out_of_range_option_is_usage_error(self, argv, message, tmp_path, capsys):
        # the parser refuses the value before the stage looks for its inputs
        assert main([*argv, "--out", str(tmp_path)]) == EXIT_USAGE
        assert f"usage error: argument {message}" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, option, value", [
        (["build-local", "--edge-threshold", "0"], "edge_threshold", 0.0),
        (["build-local", "--edge-threshold", "1"], "edge_threshold", 1.0),
        (["build-local", "--min-count", "0"], "min_count", 0),
        (["gen-questions", "--entity-min", "0"], "entity_min", 0),
        (["globalize", "--lambda-para", "0"], "lambda_para", 0.0),
        (["globalize", "--lambda-cross", "1e300"], "lambda_cross", 1e300),
    ])
    def test_option_bound_itself_accepted(self, argv, option, value):
        assert getattr(build_parser().parse_args(argv), option) == value

    def test_unknown_component_usage_error(self, pipeline_dir, capsys):
        code = main([
            "answer", "--out", str(pipeline_dir), "--model", "graph",
            "--components", "zz",
        ])
        assert code == EXIT_USAGE

    def test_version_mismatch_refused(self, tmp_path):
        out = tmp_path
        assert main(["ingest", "--out", str(out)]) == EXIT_OK
        assert main(["build-local", "--out", str(out)]) == EXIT_OK
        victim = next((out / "graphs" / "local").glob("*.graph"))
        victim.write_text(
            victim.read_text().replace("entgraph-subgraph v1", "entgraph-subgraph v9")
        )
        reseal(out, "graphs/local")
        assert main(["globalize", "--out", str(out)]) == EXIT_VERSION


class TestUserInputs:
    """Files named on the command line are checked before they are read."""

    @pytest.mark.parametrize("option", ["--corpus", "--types"])
    def test_directory_refused(self, option, tmp_path, capsys):
        folder = tmp_path / "folder"
        folder.mkdir()
        code = main(["ingest", "--out", str(tmp_path / "out"), option, str(folder)])
        assert code == EXIT_DATA
        assert f"{folder} is not a file" in capsys.readouterr().err

    @pytest.mark.parametrize("option, what", [
        ("--corpus", "input corpus file"), ("--types", "type inventory file"),
    ])
    def test_missing_file_named_as_input(self, option, what, tmp_path, capsys):
        missing = tmp_path / "no-such-file"
        code = main(["ingest", "--out", str(tmp_path / "out"), option, str(missing)])
        assert code == EXIT_DATA
        err = capsys.readouterr().err
        assert f"{what} {missing} does not exist" in err
        assert "artifact" not in err and "subcommand" not in err


class TestGraphDirRefused:
    """``--graphs`` must name a directory holding ``*.graph`` files."""

    COMMANDS = {
        "answer": ["answer", "--model", "graph"],
        "evaluate": ["evaluate", "--filtered"],
        "query": ["query", "kill.2", "die.1", "--type", "person"],
    }

    @pytest.mark.parametrize("command", COMMANDS)
    def test_empty_directory_refused(self, command, pipeline_dir, tmp_path, capsys):
        empty = tmp_path / "empty"
        empty.mkdir()
        argv = [*self.COMMANDS[command], "--out", str(pipeline_dir), "--graphs", str(empty)]
        assert main(argv) == EXIT_DATA
        assert f"{empty} holds no *.graph file" in capsys.readouterr().err

    @pytest.mark.parametrize("command", COMMANDS)
    def test_file_refused(self, command, pipeline_dir, capsys):
        graph = next((pipeline_dir / "graphs" / "global").glob("*.graph"))
        argv = [*self.COMMANDS[command], "--out", str(pipeline_dir), "--graphs", str(graph)]
        assert main(argv) == EXIT_DATA
        assert f"{graph} is not a directory" in capsys.readouterr().err

    def test_graph_directory_path_accepted(self, pipeline_dir):
        graphs = str(pipeline_dir / "graphs" / "local")
        assert main(["query", "kill.2", "die.1", "--type", "person",
                     "--out", str(pipeline_dir), "--graphs", graphs]) == EXIT_OK


# the sha256 of the sample's corpus.columns; the sample's dump is pinned in
# tests/data/sample_jsonl_digests.sha256
SAMPLE_CORPUS_COLUMNS = "0585376ec9bb4f13ad06c1d13bd8d925e8e91a34639834c11ddc04f25bc1f4d3"


class TestGoldenGraphs:
    """The shipped sample pipeline writes the graphs recorded in
    ``tests/data/sample_graph_digests.sha256`` and the JSONL files recorded
    in ``tests/data/sample_jsonl_digests.sha256``. An intended change to
    them must regenerate those files with
    ``scripts/make_sample_graph_digests.py``."""

    def test_sample_graphs_match_recorded_digests(self, pipeline_dir):
        recorded = {}
        for line in (DATA / "sample_graph_digests.sha256").read_text().splitlines():
            digest, name = line.split()
            recorded[name] = digest
        graphs = pipeline_dir / "graphs"
        written = {
            path.relative_to(graphs).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(graphs.glob("*/*.graph"))
        }
        assert written == recorded, (
            "the sample graphs changed; if that is intended, regenerate the digests "
            "with python3 scripts/make_sample_graph_digests.py"
        )

    def test_digest_script_writes_the_recorded_file(self, pipeline_dir):
        lines = _digest_script().digest_lines(pipeline_dir / "graphs")
        assert "".join(line + "\n" for line in lines) == (
            DATA / "sample_graph_digests.sha256").read_text()

    def test_sample_jsonl_match_recorded_digests(self, pipeline_dir):
        # the corpus, question and evidence files of the same pipeline, pinned
        # in tests/data/sample_jsonl_digests.sha256 by the same script
        lines = _digest_script().jsonl_digest_lines(pipeline_dir)
        assert "".join(line + "\n" for line in lines) == (
            DATA / "sample_jsonl_digests.sha256").read_text(), (
            "the sample's JSONL artifacts changed; if that is intended, regenerate "
            "the digests with python3 scripts/make_sample_graph_digests.py"
        )

    def test_stages_before_answer_build_no_proposition(self, tmp_path, monkeypatch):
        # ingest, build-local, globalize, gen-questions and dump-corpus read
        # the corpus's tables and columns; only answer builds propositions
        def refuse(*args, **kwargs):
            raise AssertionError("a stage before answer built a proposition")

        monkeypatch.setattr(Proposition, "__new__", staticmethod(refuse))
        monkeypatch.setattr(Corpus, "proposition", refuse)
        script, out = _digest_script(), tmp_path / "out"
        for stage in (["ingest"], ["build-local"], ["globalize"],
                      ["gen-questions", "--seed", script.QUESTION_SEED]):
            script._run(*stage, "--out", str(out))
        digest = hashlib.sha256((out / "corpus.columns").read_bytes()).hexdigest()
        assert digest == SAMPLE_CORPUS_COLUMNS
        assert "".join(line + "\n" for line in script.digest_lines(out / "graphs")) == (
            DATA / "sample_graph_digests.sha256").read_text()
        # the corpus's digest is its dump's, which dump-corpus prints here
        assert "".join(line + "\n" for line in script.jsonl_digest_lines(out)) == (
            DATA / "sample_jsonl_digests.sha256").read_text()

    def test_synthetic_local_graphs_match_recorded_digests(self, tmp_path):
        # a seeded corpus that yields every edge kind and map, pinned in
        # tests/data/synthetic_graph_digests.sha256 by the same script
        script = _digest_script()
        graphs = build_local_graphs(script.synthetic_corpus())
        found = {EDGE_CODES[c] for sub in graphs.values() for c in sub.codes}
        assert found == set(EDGE_CODES)
        lines = script.synthetic_digest_lines(tmp_path)
        assert "".join(line + "\n" for line in lines) == (
            DATA / "synthetic_graph_digests.sha256").read_text(), (
            "the synthetic corpus's local graphs changed; if that is intended, regenerate "
            "the digests with python3 scripts/make_sample_graph_digests.py"
        )

    def test_dense_graphs_match_recorded_digests(self, tmp_path):
        # the benchmark's dense corpus and one four times its size, through
        # ingest, build-local and globalize, pinned in
        # tests/data/dense_graph_digests.sha256 by the same script
        lines = _digest_script().dense_digest_lines(tmp_path)
        assert "".join(line + "\n" for line in lines) == (
            DATA / "dense_graph_digests.sha256").read_text(), (
            "the dense corpora's graphs changed; if that is intended, regenerate "
            "the digests with python3 scripts/make_sample_graph_digests.py"
        )

    def test_qa40_matches_recorded_digests(self, tmp_path):
        # the sample at 40 copies through all seven stages, pinned in
        # tests/data/qa40_digests.sha256 by the same script
        lines = _digest_script().qa40_digest_lines(tmp_path)
        assert "".join(line + "\n" for line in lines) == (
            DATA / "qa40_digests.sha256").read_text(), (
            "the qa x40 artifacts changed; if that is intended, regenerate "
            "the digests with python3 scripts/make_sample_graph_digests.py"
        )
        # the paper's cross-valency claim, through the stages: evidence of
        # every valency answers strictly more questions than BB or UU alone
        answered = {
            path.stem.removeprefix("answers-graph-"):
                sum(r.confidence > 0 for r in read_answers(path))
            for path in (tmp_path / "qa40").glob("answers-graph-*.csv")
        }
        assert answered["bb+bu+uu"] > max(answered["bb"], answered["uu"]), answered


class TestStaleArtifacts:
    def test_rebuild_removes_subgraphs_of_earlier_run(self, tmp_path, capsys):
        out = str(tmp_path)
        assert main(["ingest", "--out", out]) == EXIT_OK
        assert main(["build-local", "--out", out]) == EXIT_OK
        assert main(["globalize", "--out", out]) == EXIT_OK
        before = len(list((tmp_path / "graphs" / "local").glob("*.graph")))
        capsys.readouterr()
        assert main(["build-local", "--out", out, "--min-count", "12"]) == EXIT_OK
        built = int(capsys.readouterr().out.split()[1])
        assert built < before
        assert len(list((tmp_path / "graphs" / "local").glob("*.graph"))) == built
        assert main(["globalize", "--out", out]) == EXIT_OK
        assert capsys.readouterr().out.startswith(f"globalized {built} subgraphs")
        assert len(list((tmp_path / "graphs" / "global").glob("*.graph"))) == built

    @staticmethod
    def _refused(out: Path, argv: list[str], capsys) -> str:
        """The error of a stage that must exit 2 and leave ``out`` as it was."""
        before = _tree(out)
        capsys.readouterr()
        assert main([*argv, "--out", str(out)]) == EXIT_DATA
        assert _tree(out) == before
        return capsys.readouterr().err

    def test_evidence_of_another_seed_refused(self, pipeline_dir, tmp_path, capsys):
        out = tmp_path / "out"
        shutil.copytree(pipeline_dir, out)
        seed3 = (out / "evidence.columns").read_bytes()
        assert main(["gen-questions", "--out", str(out), "--seed", "5"]) == EXIT_OK
        assert (out / "evidence.columns").read_bytes() != seed3
        (out / "evidence.columns").write_bytes(seed3)
        for model in ("exact", "graph"):
            err = self._refused(out, ["answer", "--model", model], capsys)
            assert f"{out / 'evidence.columns'} is not what `gen-questions` wrote" in err
            assert "rerun the `gen-questions` stage" in err

    def test_corpus_of_another_ingest_refused(self, pipeline_dir, tmp_path, capsys):
        out = tmp_path / "out"
        shutil.copytree(pipeline_dir, out)
        assert main(["answer", "--out", str(out), "--model", "exact"]) == EXIT_OK
        other = tmp_path / "other.jsonl"
        other.write_text("".join(
            resources.sample_corpus_path().read_text().splitlines(keepends=True)[:40]))
        assert main(["ingest", "--out", str(out), "--corpus", str(other)]) == EXIT_OK
        # query reads the global graphs only: the check goes up their chain
        for argv, stage in ((["globalize"], "build-local"),
                            (["query", "kill.2", "die.1", "--type", "person"], "build-local"),
                            (["answer", "--model", "graph"], "gen-questions"),
                            (["evaluate"], "gen-questions")):
            err = self._refused(out, argv, capsys)
            assert f"{out / 'corpus.columns'} is not what `{stage}` read" in err, argv
            assert f"rerun the `{stage}` stage" in err

    @pytest.mark.parametrize("stage, argv", [
        ("ingest", ["dump-corpus"]),
        ("build-local", ["globalize"]),
        ("globalize", ["query", "kill.2", "die.1", "--type", "person"]),
        ("gen-questions", ["answer", "--model", "exact"]),
        ("answer-exact", ["evaluate"]),
    ])
    @pytest.mark.parametrize("manifest", ["missing", "older-format", "older-version"])
    def test_missing_or_older_manifest_refused(
        self, pipeline_dir, tmp_path, capsys, stage, argv, manifest
    ):
        out = tmp_path / "out"
        shutil.copytree(pipeline_dir, out)
        assert main(["answer", "--out", str(out), "--model", "exact"]) == EXIT_OK
        path = out / f"{stage}.manifest.json"
        if manifest == "missing":
            path.unlink()
            reason = f"missing manifest {path}"
        elif manifest == "older-version":
            path.write_text(path.read_text().replace('"stage_version": 2', '"stage_version": 1'))
            reason = f"{path} is not a current manifest"
        else:
            # as the former writer wrote it: version 1, inputs keyed by the
            # path as given, no output digests
            current = json.loads(path.read_text())
            path.write_text(json.dumps({
                "stage": stage, "stage_version": 1, "seed": None,
                "config": current["config"], "config_hash": current["config_hash"],
                "inputs": {str(out / k): v for k, v in current["inputs"].items()},
            }, sort_keys=True, indent=2) + "\n")
            reason = f"{path} is not a current manifest"
        err = self._refused(out, argv, capsys)
        assert f"{reason}; rerun the `{stage}` stage" in err

    @pytest.mark.parametrize("family, argv, stage", [
        ("local", ["globalize"], "build-local"),
        ("global", ["query", "kill.2", "die.1", "--type", "person"], "globalize"),
    ])
    @pytest.mark.parametrize("change", ["added", "removed"])
    def test_graph_file_added_or_removed_refused(
        self, pipeline_dir, tmp_path, capsys, family, argv, stage, change
    ):
        out = tmp_path / "out"
        shutil.copytree(pipeline_dir, out)
        graphs = sorted((out / "graphs" / family).glob("*.graph"))
        if change == "added":
            victim = graphs[0].with_name("bi__zzz__zzz.graph")
            shutil.copyfile(graphs[0], victim)
        else:
            victim = graphs[0]
            victim.unlink()
        err = self._refused(out, argv, capsys)
        assert f"{victim} is not what `{stage}` wrote; rerun the `{stage}` stage" in err


class TestReproducibility:
    def test_rerun_byte_identical(self, tmp_path):
        # the whole pipeline in two --out directories at different paths:
        # every file, manifests included, is byte for byte the same
        a, b = tmp_path / "a", tmp_path / "x" / "y" / "b"
        for out in (a, b):
            for stage in PIPELINE:
                assert main([*stage, "--out", str(out)]) == EXIT_OK
        assert len(list(a.glob("*.manifest.json"))) == 8
        assert _tree(a) == _tree(b)


def _raw_corpus(path: Path, records: list[dict]) -> Path:
    path.write_text("".join(json.dumps(r) + "\n" for r in records))
    return path


class TestIngestDecidesOnce:
    """Lemmas and types are decided by `ingest`; later stages read its output."""

    def test_custom_type_survives_every_stage(self, pipeline_dir, tmp_path):
        records = []
        for line in resources.sample_corpus_path().read_text().splitlines():
            rec = json.loads(line)
            for a in rec["args"]:
                if a["type"] == "person":
                    a["type"] = "swimmer"
            records.append(rec)
        corpus = _raw_corpus(tmp_path / "swimmers.jsonl", records)
        types = tmp_path / "types.txt"
        types.write_text(resources.default_type_inventory_path().read_text() + "swimmer\n")
        out = str(tmp_path / "out")
        code = main(["ingest", "--out", out, "--corpus", str(corpus), "--types", str(types)])
        assert code == EXIT_OK
        for stage in (["build-local"], ["globalize"], ["gen-questions", "--seed", "3"],
                      ["answer", "--model", "graph"]):
            assert main([*stage, "--out", out]) == EXIT_OK
        assert main(["answer", "--out", str(pipeline_dir), "--model", "graph"]) == EXIT_OK

        def names(root, graphs):
            return sorted(p.name for p in (root / "graphs" / graphs).glob("*.graph"))

        for graphs in ("local", "global"):
            assert names(Path(out), graphs) == sorted(
                n.replace("person", "swimmer") for n in names(pipeline_dir, graphs))
        questions = (Path(out) / "questions.jsonl").read_text()
        assert "#swimmer" in questions
        assert questions == (pipeline_dir / "questions.jsonl").read_text().replace(
            "#person", "#swimmer")
        answers = "answers-graph-bb+bu+uu.csv"
        assert (Path(out) / answers).read_bytes() == (pipeline_dir / answers).read_bytes()

    def test_saved_lemma_is_not_normalized_again(self, tmp_path):
        records = [
            {
                "article_id": f"a{i}", "date": "2021-03-01", "predicate": "caused",
                "args": [
                    {"surface": "Phelps", "type": "person", "is_named": True, "role_index": 1},
                    {"surface": f"Team {i}", "type": "organization", "is_named": True,
                     "role_index": 2},
                ],
            }
            for i in range(3)
        ]
        corpus = _raw_corpus(tmp_path / "caused.jsonl", records)
        out = tmp_path / "out"
        assert main(["ingest", "--out", str(out), "--corpus", str(corpus)]) == EXIT_OK
        assert main(["build-local", "--out", str(out)]) == EXIT_OK
        (graph,) = (out / "graphs" / "local").glob("*.graph")
        assert "V\tcaus#person#organization" in graph.read_text().splitlines()

    def test_bad_type_label_refused(self, tmp_path, capsys):
        types = tmp_path / "types.txt"
        types.write_text("person\nkill#a\n")
        assert main(["ingest", "--out", str(tmp_path), "--types", str(types)]) == EXIT_DATA
        assert "'kill#a'" in capsys.readouterr().err

    def test_missing_types_file_refused(self, tmp_path, capsys):
        types = tmp_path / "no-such-types.txt"
        assert main(["ingest", "--out", str(tmp_path), "--types", str(types)]) == EXIT_DATA
        assert str(types) in capsys.readouterr().err

    def test_predicate_with_token_separator_is_malformed(self, tmp_path, capsys):
        sample = resources.sample_corpus_path().read_text().splitlines()
        hashed = {
            "article_id": "x1", "date": "2021-03-01", "predicate": "kill#x",
            "args": [
                {"surface": "Mustard", "type": "person", "is_named": True, "role_index": 1},
                {"surface": "Boddy", "type": "person", "is_named": True, "role_index": 2},
            ],
        }
        corpus = _raw_corpus(tmp_path / "hashed.jsonl",
                             [json.loads(line) for line in sample] + [hashed] * 3)
        out = str(tmp_path / "out")
        assert main(["ingest", "--out", out, "--corpus", str(corpus)]) == EXIT_OK
        assert "(3 malformed," in capsys.readouterr().out
        assert main(["build-local", "--out", out]) == EXIT_OK
        assert main(["globalize", "--out", out]) == EXIT_OK

    @pytest.mark.parametrize("stage", [
        ["build-local"], ["globalize"], ["gen-questions"], ["answer"], ["evaluate"],
        ["query", "kill", "die.1"],
    ])
    def test_types_option_belongs_to_ingest(self, stage, tmp_path):
        assert main([*stage, "--out", str(tmp_path), "--types", "x"]) == EXIT_USAGE

    def test_hand_edited_corpus_line_refused(self, tmp_path, capsys):
        out = tmp_path
        assert main(["ingest", "--out", str(out)]) == EXIT_OK
        path = out / "corpus.columns"
        magic, tables, columns = path.read_bytes().split(b"\n", 2)
        edited = tables.replace(b'["person", "person"]', b'["person", "Person"]', 1)
        assert edited != tables
        path.write_bytes(b"\n".join([magic, edited, columns]))
        reseal(out, "corpus.columns")
        capsys.readouterr()
        assert main(["build-local", "--out", str(out)]) == EXIT_DATA
        err = capsys.readouterr().err
        assert "corpus.columns: predicates entry " in err and "'Person'" in err
        assert not (out / "graphs").exists()

    def test_hand_edited_evidence_refused(self, pipeline_dir, tmp_path, capsys):
        out = tmp_path / "out"
        shutil.copytree(pipeline_dir, out)
        path = out / "evidence.columns"
        tables, (rows,) = read_columns(path, EVIDENCE_MAGIC, EVIDENCE_ROWS_VERSION,
                                       ("corpus_rows", "partitions"), "i")
        edited = array("i", rows)
        edited[3] = edited[2]
        write_columns(path, EVIDENCE_MAGIC, EVIDENCE_ROWS_VERSION, tables, [edited])
        reseal(out, "evidence.columns")
        capsys.readouterr()
        assert main(["answer", "--out", str(out), "--model", "exact"]) == EXIT_DATA
        assert f"evidence.columns: partition 0: row {rows[2]} does not follow row {rows[2]}" in (
            capsys.readouterr().err)
        path.write_bytes(path.read_bytes()[:-4])
        reseal(out, "evidence.columns")
        assert main(["answer", "--out", str(out), "--model", "exact"]) == EXIT_DATA
        assert "evidence.columns: column 0 is short" in capsys.readouterr().err


def _part_rows(tables: dict, i: int) -> slice:
    """Where partition entry ``i``'s rows lie in the column."""
    start = sum(p["size"] for p in tables["partitions"][:i])
    return slice(start, start + tables["partitions"][i]["size"])


def _add_row(tables: dict, rows: list, i: int, row: int) -> None:
    """``row`` added to partition entry ``i``, its rows kept in order."""
    where = _part_rows(tables, i)
    rows[where] = sorted([*rows[where], row])
    tables["partitions"][i]["size"] += 1


def _entry(i: int, key: str, value):
    """An edit setting ``key`` of partition entry ``i`` to ``value`` of
    what it holds."""
    def edit(tables, rows, corpus):
        tables["partitions"][i][key] = value(tables["partitions"][i][key])
    return edit


def _row(i: int, value):
    """An edit setting the ``i``-th row of partition 0 to ``value`` of the
    rows and the corpus's length."""
    def edit(tables, rows, corpus):
        rows[i] = value(rows, len(corpus))
    return edit


def _add_undated(tables, rows, corpus):
    _add_row(tables, rows, 0, corpus.columns[3].index(0))


def _add_from_partition_1(tables, rows, corpus):
    _add_row(tables, rows, 0, rows[_part_rows(tables, 1)][0])


def _swap_first_rows(tables, rows, corpus):
    rows[0], rows[1] = rows[1], rows[0]


# hand edits of the evidence rows of ``TestEvidenceRowsRefused``'s pipeline,
# where corpus row 202 is undated and partition 0 spans 2021-03-01 to
# 2021-03-03 and begins with rows 0 and 1, each with what the reader must
# say after the file's name
EVIDENCE_ROW_EDITS = {
    "id-float": (_entry(0, "id", float), "partitions entry 0: id 0.0 is not int"),
    "id-bool": (_entry(1, "id", bool), "partitions entry 1: id True is not int"),
    "size-float": (_entry(0, "size", float), "partitions entry 0: size 29.0 is not int"),
    "size-negative": (_entry(0, "size", lambda s: -1),
                      "partitions entry 0: size -1 is negative"),
    "id-repeated": (_entry(1, "id", lambda i: 0),
                    "partitions entry 1: id 0 repeats an earlier entry"),
    "extra-key": ((lambda t, r, c: t["partitions"][0].update(note=1)),
                  "partitions entry 0: is not an object of id, date_range and size"),
    "date-compact": (_entry(0, "date_range", lambda d: ["20210301", d[1]]),
                     "partitions entry 0: bad date '20210301'"),
    "date-impossible": (_entry(0, "date_range", lambda d: [d[0], "2021-02-30"]),
                        "partitions entry 0: bad date '2021-02-30'"),
    "range-reversed": (_entry(0, "date_range", lambda d: d[::-1]),
                       "partitions entry 0: date_range ['2021-03-03', '2021-03-01'] "
                       "starts after it ends"),
    "sizes-short": (_entry(3, "size", lambda s: s - 1),
                    "partition sizes add up to 170, not to the column's 171 rows"),
    "corpus-rows": ((lambda t, r, c: t.update(corpus_rows=t["corpus_rows"] - 1)),
                    "corpus_rows 202 is not the corpus's 203 rows"),
    "row-past-corpus": (_row(0, lambda rows, n: n),
                        "partition 0: row 203 is outside the corpus of 203 rows"),
    "row-negative": (_row(0, lambda rows, n: -1),
                     "partition 0: row -1 is outside the corpus of 203 rows"),
    "row-repeated": (_row(1, lambda rows, n: rows[0]), "partition 0: row 0 does not follow row 0"),
    "rows-decreasing": (_swap_first_rows, "partition 0: row 0 does not follow row 1"),
    "row-undated": (_add_undated, "partition 0: row 202 is undated"),
    "row-of-partition-1": (_add_from_partition_1, "partition 0: row 38 is dated 2021-03-04, "
                                                  "outside 2021-03-01 to 2021-03-03"),
}


class TestEvidenceRowsRefused:
    """`answer` reads ``evidence.columns`` against the corpus and refuses,
    exit 2 (3 for a version), anything ``save_evidence`` would not write of
    it, naming the file and the partition entry or the partition and row,
    before any model runs."""

    @pytest.fixture(scope="class")
    def undated_dir(self, tmp_path_factory) -> Path:
        """The sample pipeline to ``gen-questions``, with an undated copy of
        the sample's first record as corpus row 202."""
        root = tmp_path_factory.mktemp("undated")
        lines = resources.sample_corpus_path().read_text().splitlines()
        raw = _raw_corpus(root / "raw.jsonl", [json.loads(line) for line in lines]
                          + [{**json.loads(lines[0]), "date": None, "article_id": "undated"}])
        out = root / "out"
        assert main(["ingest", "--out", str(out), "--corpus", str(raw)]) == EXIT_OK
        for stage in (["build-local"], ["globalize"], ["gen-questions", "--seed", "3"]):
            assert main([*stage, "--out", str(out)]) == EXIT_OK
        return out

    @staticmethod
    def _refused(out: Path, code: int, reason: str, capsys) -> None:
        for model in ("exact", "graph"):
            before = _tree(out)
            capsys.readouterr()
            assert main(["answer", "--model", model, "--out", str(out)]) == code
            assert _tree(out) == before
            assert f"{out / 'evidence.columns'}: {reason}" in capsys.readouterr().err

    @pytest.mark.parametrize("edit, reason", EVIDENCE_ROW_EDITS.values(),
                             ids=EVIDENCE_ROW_EDITS.keys())
    def test_edited_rows_refused(self, edit, reason, undated_dir, tmp_path, capsys):
        out = tmp_path / "out"
        shutil.copytree(undated_dir, out)
        path = out / "evidence.columns"
        tables, (column,) = read_columns(path, EVIDENCE_MAGIC, EVIDENCE_ROWS_VERSION,
                                         ("corpus_rows", "partitions"), "i")
        rows = list(column)
        edit(tables, rows, read_corpus(out / "corpus.columns"))
        write_columns(path, EVIDENCE_MAGIC, EVIDENCE_ROWS_VERSION, tables, [array("i", rows)])
        reseal(out, "evidence.columns")
        self._refused(out, EXIT_DATA, reason, capsys)

    @pytest.mark.parametrize("edit, code, reason", [
        (lambda b: b.replace(b"entgraph-evidence-rows", b"entgraph-evidence", 1), EXIT_DATA,
         "not a entgraph-evidence-rows file"),
        (lambda b: b.replace(b" v1\n", b" v2\n", 1), EXIT_VERSION,
         "format v2 unsupported (expected v1)"),
        (lambda b: b[:-1], EXIT_DATA, "column 0 is short"),
        (lambda b: b + bytes(4), EXIT_DATA, "trailing bytes after the last column"),
    ], ids=["magic", "version", "short-column", "trailing-bytes"])
    def test_edited_file_refused(self, edit, code, reason, undated_dir, tmp_path, capsys):
        out = tmp_path / "out"
        shutil.copytree(undated_dir, out)
        path = out / "evidence.columns"
        path.write_bytes(edit(path.read_bytes()))
        reseal(out, "evidence.columns")
        self._refused(out, code, reason, capsys)

    def test_fixture_reads(self, undated_dir, tmp_path):
        # the unedited files are read, and the undated row is in no partition
        out = tmp_path / "out"
        shutil.copytree(undated_dir, out)
        assert main(["answer", "--model", "exact", "--out", str(out)]) == EXIT_OK


class TestQaArtifactsReadStrictly:
    """Hand-edited question and answer files, and questions whose partition
    has no evidence, exit 2 with the file named instead of ending in a
    traceback; `answer` refuses them before any model runs."""

    @staticmethod
    def _copy(pipeline_dir, tmp_path) -> tuple[Path, list[str]]:
        out = tmp_path / "out"
        shutil.copytree(pipeline_dir, out, ignore=shutil.ignore_patterns("answers-*"))
        return out, (out / "questions.jsonl").read_text().splitlines()

    @pytest.mark.parametrize("edit, reason", [
        (lambda q: {k: v for k, v in q.items() if k != "args"}, "missing field 'args'"),
        (lambda q: None, "Expecting value"),
        (lambda q: {**q, "polarity": "maybe"}, "polarity 'maybe'"),
        (lambda q: {**q, "extra": 1}, "['extra'] differ"),
        (lambda q: {**q, "predicate": "#".join(
            [t if i == 0 else t.upper() for i, t in enumerate(q["predicate"].split("#"))])},
         "is not an inventory label"),
        (lambda q: {**q, "args": [{**q["args"][0], "surface": "PHELPS  x"}, *q["args"][1:]]},
         "surface 'PHELPS  x' is not normalized"),
        (lambda q: {**q, "args": [{**q["args"][0], "surface": "phelps x"}, *q["args"][1:]]},
         "has surfaces 'phelps' and 'phelps x'"),
    ], ids=["no-args", "blank-line", "polarity-maybe", "extra-field", "upper-case-type",
            "unnormalized-surface", "second-kb-surface"])
    def test_hand_edited_question_refused(self, edit, reason, pipeline_dir, tmp_path, capsys):
        out, lines = self._copy(pipeline_dir, tmp_path)
        edited = edit(json.loads(lines[2]))
        lines[2] = "" if edited is None else json.dumps(edited, sort_keys=True)
        (out / "questions.jsonl").write_text("\n".join(lines) + "\n")
        reseal(out, "questions.jsonl")
        capsys.readouterr()
        for stage in (["answer", "--model", "graph"], ["answer", "--model", "exact"],
                      ["evaluate"]):
            assert main([*stage, "--out", str(out)]) == EXIT_DATA
            err = capsys.readouterr().err
            assert "questions.jsonl:3: not a canonical question record" in err and reason in err
        assert not list(out.glob("answers-*.csv"))

    def test_question_without_evidence_refused(self, pipeline_dir, tmp_path, capsys):
        out, lines = self._copy(pipeline_dir, tmp_path)
        record = json.loads(lines[2])
        lines[2] = json.dumps({**record, "partition_id": 9999}, sort_keys=True)
        (out / "questions.jsonl").write_text("\n".join(lines) + "\n")
        reseal(out, "questions.jsonl")
        export = tmp_path / "export.tsv"
        capsys.readouterr()
        for model in (["--model", "graph"], ["--model", "exact"],
                      ["--model", "external", "--export-evidence", str(export)]):
            assert main(["answer", "--out", str(out), *model]) == EXIT_DATA
            err = capsys.readouterr().err
            assert f"question {record['id']} names partition 9999" in err
            assert "evidence.columns does not hold" in err
        assert not export.exists() and not list(out.glob("answers-*.csv"))

    def test_answer_file_with_other_header_refused(self, pipeline_dir, tmp_path, capsys):
        out, _ = self._copy(pipeline_dir, tmp_path)
        assert main(["answer", "--out", str(out), "--model", "exact"]) == EXIT_OK
        rows = (out / "answers-exact.csv").read_text().splitlines()
        other = tmp_path / "f.csv"
        other.write_text("\n".join(["id,model,confidence", *rows[1:]]) + "\n")
        short = tmp_path / "short.csv"
        short.write_text("\n".join([rows[0], "q000-pos0000,exact"]) + "\n")
        capsys.readouterr()
        assert main(["evaluate", "--out", str(out), "--answers", str(other)]) == EXIT_DATA
        assert f"{other}: not an answer file" in capsys.readouterr().err
        assert main(["evaluate", "--out", str(out), "--answers", str(short)]) == EXIT_DATA
        assert f"{short}:2: bad answer row" in capsys.readouterr().err

    @pytest.mark.parametrize("edit, reason", [
        (lambda f: [*f[:4], "7"], "fields ['backed_off'] differ from the written form"),
        (lambda f: [*f[:4], " 1"], "fields ['backed_off'] differ from the written form"),
        (lambda f: [*f, "x"], "6 fields, not 5"),
        (lambda f: [f[0], "graph-bb", *f[2:]], "model id 'graph-bb' is not the first row's"),
    ], ids=["backed-off-7", "backed-off-space-1", "sixth-field", "mixed-model-ids"])
    def test_answer_row_not_as_written_refused(self, edit, reason, pipeline_dir, tmp_path,
                                               capsys):
        out, _ = self._copy(pipeline_dir, tmp_path)
        assert main(["answer", "--out", str(out), "--model", "exact"]) == EXIT_OK
        rows = (out / "answers-exact.csv").read_text().splitlines()
        edited = tmp_path / "edited.csv"
        edited.write_text("\n".join([*rows[:3], ",".join(edit(rows[3].split(","))), *rows[4:]])
                          + "\n")
        before = _tree(out)
        capsys.readouterr()
        assert main(["evaluate", "--out", str(out), "--answers", str(edited)]) == EXIT_DATA
        assert f"{edited}:4: bad answer row: {reason}" in capsys.readouterr().err
        assert _tree(out) == before

    def test_incomplete_answer_file_refused(self, pipeline_dir, tmp_path, capsys):
        out, _ = self._copy(pipeline_dir, tmp_path)
        assert main(["answer", "--out", str(out), "--model", "exact"]) == EXIT_OK
        assert main(["evaluate", "--out", str(out)]) == EXIT_OK
        report = {p.name: p.read_bytes() for p in (out / "report").iterdir()}
        rows = (out / "answers-exact.csv").read_text().splitlines()
        header_only = tmp_path / "hdr.csv"
        header_only.write_text(rows[0] + "\n")
        no_second = tmp_path / "partial.csv"
        no_second.write_text("\n".join([rows[0], rows[1], *rows[3:]]) + "\n")
        first, second = (row.split(",")[0] for row in rows[1:3])
        capsys.readouterr()
        for path, missing in ((header_only, first), (no_second, second)):
            for extra in ([], ["--filtered"]):
                code = main(["evaluate", "--out", str(out), "--answers", str(path), *extra])
                assert code == EXIT_DATA
                err = capsys.readouterr().err
                assert f"{path}: question {missing!r} of " in err and "is not answered" in err
        assert {p.name: p.read_bytes() for p in (out / "report").iterdir()} == report

    def test_external_scores_outside_the_export_refused(self, pipeline_dir, tmp_path, capsys):
        out, lines = self._copy(pipeline_dir, tmp_path)
        export = tmp_path / "export.tsv"
        assert main(["answer", "--out", str(out), "--model", "external",
                     "--export-evidence", str(export)]) == EXIT_OK
        exported = export.read_text().splitlines()[1]
        question = exported.split("\t")[0]
        positive = next(
            q for q in map(json.loads, lines[1:])
            if q["polarity"] == "positive" and "source_prop" in q["provenance"]
        )
        source = positive["provenance"]["source_prop"]
        scores = tmp_path / "scores.tsv"
        capsys.readouterr()
        for rows, reason in (
            (["zzz\tp999999"], ":1: unknown question 'zzz'"),
            ([exported, f"{question}\tp999999"],
             f":2: 'p999999' is not an evidence candidate of question {question!r}"),
            ([f"{positive['id']}\t{source}"],
             f":1: {source!r} is not an evidence candidate of question {positive['id']!r}"),
        ):
            scores.write_text("".join(f"{row}\t0.9\n" for row in rows))
            assert main(["answer", "--out", str(out), "--model", "external",
                         "--scores", str(scores)]) == EXIT_DATA
            assert f"{scores}{reason}" in capsys.readouterr().err
        assert not (out / "answers-external.csv").exists()

    # the header is line 0 of questions.jsonl, and the tables line, line 1,
    # of evidence.columns
    @pytest.mark.parametrize("name, line, edit, reason", [
        ("evidence.columns", 1,
         lambda h: json.dumps({k: v for k, v in h.items() if k != "partitions"}),
         "evidence.columns: tables have keys ['corpus_rows', 'rows'], "
         "not ['corpus_rows', 'partitions', 'rows']"),
        ("questions.jsonl", 0, lambda h: "[1]", "questions.jsonl: not a question file"),
    ], ids=["evidence-without-partitions", "questions-list"])
    def test_malformed_qa_header_refused(
        self, name, line, edit, reason, pipeline_dir, tmp_path, capsys
    ):
        out, _ = self._copy(pipeline_dir, tmp_path)
        lines = (out / name).read_bytes().split(b"\n", line + 1)
        lines[line] = edit(json.loads(lines[line])).encode()
        (out / name).write_bytes(b"\n".join(lines))
        reseal(out, name)
        capsys.readouterr()
        assert main(["answer", "--out", str(out), "--model", "exact"]) == EXIT_DATA
        assert reason in capsys.readouterr().err
        assert not list(out.glob("answers-*.csv"))

    def test_answer_file_with_unknown_or_repeated_question_refused(
        self, pipeline_dir, tmp_path, capsys
    ):
        out, _ = self._copy(pipeline_dir, tmp_path)
        assert main(["answer", "--out", str(out), "--model", "exact"]) == EXIT_OK
        assert main(["evaluate", "--out", str(out)]) == EXIT_OK
        report = {p.name: p.read_bytes() for p in (out / "report").iterdir()}
        rows = (out / "answers-exact.csv").read_text().splitlines()
        unknown = tmp_path / "fake.csv"
        unknown.write_text("\n".join([rows[0], "zzz,fake,0.0,,0"]) + "\n")
        twice = tmp_path / "twice.csv"
        twice.write_text("\n".join([*rows, rows[1]]) + "\n")
        question = rows[1].split(",")[0]
        capsys.readouterr()
        for path, reason in ((unknown, "question 'zzz' is not in"),
                             (twice, f"question {question!r} is answered twice")):
            for extra in ([], ["--filtered"]):
                code = main(["evaluate", "--out", str(out), "--answers",
                             str(out / "answers-exact.csv"), str(path), *extra])
                assert code == EXIT_DATA
                assert f"{path}: {reason}" in capsys.readouterr().err
        assert {p.name: p.read_bytes() for p in (out / "report").iterdir()} == report
