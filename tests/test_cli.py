"""CLI orchestration tests: stage wiring, exit codes, reproducibility."""

import csv
import itertools
import json
import shutil
from pathlib import Path

import pytest

from entgraph import resources
from entgraph.cli import EXIT_DATA, EXIT_OK, EXIT_USAGE, EXIT_VERSION, main


@pytest.fixture(scope="module")
def pipeline_dir(tmp_path_factory) -> Path:
    out = tmp_path_factory.mktemp("pipeline")
    assert main(["ingest", "--out", str(out)]) == EXIT_OK
    assert main(["build-local", "--out", str(out)]) == EXIT_OK
    assert main(["globalize", "--out", str(out)]) == EXIT_OK
    assert main(["gen-questions", "--out", str(out), "--seed", "3"]) == EXIT_OK
    return out


class TestStageWiring:
    def test_artifacts_exist(self, pipeline_dir):
        for name in (
            "corpus.jsonl", "vectors.tsv",
            "questions.jsonl", "evidence.jsonl",
        ):
            assert (pipeline_dir / name).is_file()
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
        assert manifest["seed"] == 3
        assert "config_hash" in manifest and manifest["inputs"]

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
        shutil.copytree(pipeline_dir, out, ignore=shutil.ignore_patterns("answers-*"))
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

    def test_query_finds_planted_edge(self, pipeline_dir, capsys):
        code = main([
            "query", "kill.2", "die.1", "--type", "person", "--out", str(pipeline_dir),
        ])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "score=" in out and "UU" in out
        score = float(out.splitlines()[0].split("=")[1].split()[0])
        assert score > 0

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

    def test_usage_error(self, capsys):
        assert main(["answer", "--model", "psychic"]) == EXIT_USAGE

    @pytest.mark.parametrize("option", [["--iterations", "5"], ["--eps", "1e-3"]])
    def test_removed_globalize_options_rejected(self, option, tmp_path):
        assert main(["globalize", "--out", str(tmp_path), *option]) == EXIT_USAGE

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
        assert main(["globalize", "--out", str(out)]) == EXIT_VERSION


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


class TestReproducibility:
    def test_rerun_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert main(["ingest", "--out", str(out)]) == EXIT_OK
            assert main(["build-local", "--out", str(out)]) == EXIT_OK
            assert main(["globalize", "--out", str(out)]) == EXIT_OK
            assert main(["gen-questions", "--out", str(out), "--seed", "11"]) == EXIT_OK
        for rel in ["corpus.jsonl", "vectors.tsv", "questions.jsonl", "evidence.jsonl"]:
            assert (a / rel).read_bytes() == (b / rel).read_bytes(), rel
        for graph_a in sorted((a / "graphs" / "global").glob("*")):
            graph_b = b / "graphs" / "global" / graph_a.name
            assert graph_a.read_bytes() == graph_b.read_bytes(), graph_a.name
        for man in a.glob("*.manifest.json"):
            twin = b / man.name
            ma = json.loads(man.read_text())
            mb = json.loads(twin.read_text())
            ma["inputs"] = {Path(k).name: v for k, v in ma["inputs"].items()}
            mb["inputs"] = {Path(k).name: v for k, v in mb["inputs"].items()}
            ma["config"] = {k: v for k, v in ma["config"].items() if k != "corpus"}
            mb["config"] = {k: v for k, v in mb["config"].items() if k != "corpus"}
            assert {k: v for k, v in ma.items() if k != "config_hash"} == {
                k: v for k, v in mb.items() if k != "config_hash"
            }


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
        path = out / "corpus.jsonl"
        lines = path.read_text().splitlines()
        lines[4] = lines[4].replace('"voice": "active"', '"voice": "passive"')
        assert '"passive"' in lines[4]
        path.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert main(["build-local", "--out", str(out)]) == EXIT_DATA
        err = capsys.readouterr().err
        assert "corpus.jsonl:5:" in err and "voice" in err
        assert not (out / "graphs").exists()

    def test_hand_edited_evidence_refused(self, pipeline_dir, tmp_path, capsys):
        out = tmp_path / "out"
        shutil.copytree(pipeline_dir, out)
        path = out / "evidence.jsonl"
        lines = path.read_text().splitlines()
        edited = lines[3].replace('"is_named": true', '"is_named": "yes"')
        assert edited != lines[3]
        path.write_text("\n".join([*lines[:3], edited, *lines[4:]]) + "\n")
        capsys.readouterr()
        assert main(["answer", "--out", str(out), "--model", "exact"]) == EXIT_DATA
        assert "evidence.jsonl:4:" in capsys.readouterr().err
        path.write_text("\n".join(lines[:-1]) + "\n")
        assert main(["answer", "--out", str(out), "--model", "exact"]) == EXIT_DATA
        assert "the header declares" in capsys.readouterr().err
