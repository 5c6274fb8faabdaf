"""Subgraph file format tests, pinned by a golden file."""

import builtins
import errno
import functools

import pytest

from entgraph import model, qaeval, qagen
from entgraph.cli import EXIT_DATA, Artifacts, build_parser, main
from entgraph.graphio import (
    VersionMismatch,
    read_graph_dir,
    read_subgraph,
    subgraph_filename,
    write_graph_dir,
    write_subgraph,
)
from entgraph.localgraph import (
    BB,
    BU,
    UU,
    ArgMap,
    EntailmentEdge,
    TypedSubgraph,
)

from entgraph.records import save_corpus

from conftest import DATA, corpus, ent, pred, prop, reseal
from oracles import valency_maps


def golden_subgraph() -> TypedSubgraph:
    kill = pred("kill", "person", "person")
    slay = pred("slay", "person", "person")
    die = pred("die.1", "person")
    edges = [
        EntailmentEdge(kill, die, BU, ArgMap.from_slot(2), 0.7745966692414834),
        EntailmentEdge(kill, slay, BB, ArgMap.identity(2), 0.5),
        EntailmentEdge(slay, kill, BB, ArgMap.swap(), 0.25),
    ]
    return TypedSubgraph(("person", "person"), {kill, slay, die}, edges)


def test_write_matches_golden_file(tmp_path):
    path = tmp_path / "out.graph"
    write_subgraph(golden_subgraph(), path)
    assert path.read_bytes() == (DATA / "golden_bivalent.graph").read_bytes()


def test_read_golden_round_trip():
    sub = read_subgraph(DATA / "golden_bivalent.graph")
    expected = golden_subgraph()
    assert sub.signature == expected.signature
    assert sub.vertices == expected.vertices
    assert sub.edges == expected.edges


def test_scores_reload_bit_exactly(tmp_path):
    sub = golden_subgraph()
    path = tmp_path / "roundtrip.graph"
    write_subgraph(sub, path)
    again = read_subgraph(path)
    for a, b in zip(sub.edges, again.edges):
        assert a.score == b.score  # exact, not approximate


def test_version_mismatch_refused(tmp_path):
    path = tmp_path / "future.graph"
    text = (DATA / "golden_bivalent.graph").read_text().replace(
        "entgraph-subgraph v1", "entgraph-subgraph v99"
    )
    path.write_text(text)
    with pytest.raises(VersionMismatch):
        read_subgraph(path)


def test_not_a_graph_file(tmp_path):
    path = tmp_path / "noise.graph"
    path.write_text("hello\n")
    with pytest.raises(ValueError):
        read_subgraph(path)


def test_count_mismatch_detected(tmp_path):
    path = tmp_path / "bad.graph"
    text = (DATA / "golden_bivalent.graph").read_text().replace("edges=3", "edges=7")
    path.write_text(text)
    with pytest.raises(ValueError):
        read_subgraph(path)


def test_non_integer_count_names_file(tmp_path):
    path = tmp_path / "bad.graph"
    text = (DATA / "golden_bivalent.graph").read_text().replace("vertices=3", "vertices=x")
    path.write_text(text)
    with pytest.raises(ValueError, match=r"bad\.graph: vertices=x but 3 found"):
        read_subgraph(path)


def univalent_subgraph() -> TypedSubgraph:
    die = pred("die.1", "person")
    perish = pred("perish.1", "person")
    return TypedSubgraph(
        ("person",),
        {die, perish},
        [EntailmentEdge(die, perish, UU, ArgMap.identity(1), 0.5)],
    )


def test_univalent_file(tmp_path):
    sub = univalent_subgraph()
    path = tmp_path / subgraph_filename(sub.signature)
    assert path.name == "uni__person.graph"
    write_subgraph(sub, path)
    again = read_subgraph(path)
    assert again.kind == "univalent"
    assert again.edges == sub.edges


def test_kind_must_match_types(tmp_path, capsys):
    path = tmp_path / "graphs" / "bi__person__person.graph"
    path.parent.mkdir()
    text = (DATA / "golden_bivalent.graph").read_text()
    path.write_text(text.replace("kind=bivalent", "kind=univalent"))
    with pytest.raises(ValueError, match=r"bi__person__person\.graph.*kind=univalent"):
        read_subgraph(path)
    code = main(["query", "--out", str(tmp_path), "--graphs", str(path.parent),
                 "kill#person#person", "die.1#person"])
    assert code == EXIT_DATA
    assert "kind=univalent" in capsys.readouterr().err


def test_write_graph_dir(tmp_path):
    subs = {("person", "person"): golden_subgraph()}
    paths = write_graph_dir(subs, tmp_path / "graphs")
    assert [p.name for p in paths] == ["bi__person__person.graph"]


def test_read_graph_dir_inverts_write_and_shares_vertices(tmp_path):
    subs = {("person", "person"): golden_subgraph(), ("person",): univalent_subgraph()}
    write_graph_dir(subs, tmp_path)
    again = read_graph_dir(tmp_path)
    assert list(again) == [("person", "person"), ("person",)]
    for sig, sub in subs.items():
        assert again[sig].vertices == sub.vertices and again[sig].edges == sub.edges
    # a BU edge's unary hypothesis is the univalent graph's own vertex object
    uni = {v: v for v in again[("person",)].vertices}
    bu = [e for e in again[("person", "person")].edges if e.kind == BU]
    assert bu
    for e in bu:
        assert e.hypothesis is uni[e.hypothesis]


def test_read_graph_dir_refuses_two_files_of_one_signature(tmp_path):
    write_graph_dir({("person", "person"): golden_subgraph()}, tmp_path)
    (tmp_path / "copy.graph").write_bytes((DATA / "golden_bivalent.graph").read_bytes())
    with pytest.raises(ValueError, match=r"copy\.graph.*person,person"):
        read_graph_dir(tmp_path)


def test_edge_endpoint_resolves_only_in_its_own_file(tmp_path):
    # die.1#person has a V line in uni__person.graph, which is read first,
    # but not in the bivalent file whose E line names it
    write_graph_dir({("person",): univalent_subgraph()}, tmp_path)
    text = (DATA / "golden_bivalent.graph").read_text()
    text = text.replace("V\tdie.1#person\n", "").replace("vertices=3", "vertices=2")
    (tmp_path / "z__orphan.graph").write_text(text)
    with pytest.raises(ValueError, match=r"z__orphan\.graph.*'die\.1#person' has no V line"):
        read_graph_dir(tmp_path)


def test_edge_endpoint_without_vertex_line_names_file_and_token(tmp_path):
    path = tmp_path / "orphan.graph"
    text = (DATA / "golden_bivalent.graph").read_text()
    text = text.replace("V\tdie.1#person\n", "").replace("vertices=3", "vertices=2")
    path.write_text(text)
    with pytest.raises(ValueError, match=r"orphan\.graph.*'die\.1#person'"):
        read_subgraph(path)


def test_vertex_line_after_edge_lines_refused(tmp_path):
    path = tmp_path / "late.graph"
    text = (DATA / "golden_bivalent.graph").read_text()
    path.write_text(text.replace("vertices=3", "vertices=4") + "V\twin.1#person\n")
    with pytest.raises(ValueError, match=r"late\.graph.*V line after the E lines"):
        read_subgraph(path)


def test_repeated_vertex_line_refused(tmp_path):
    path = tmp_path / "twice.graph"
    text = (DATA / "golden_bivalent.graph").read_text()
    path.write_text(text.replace("V\tkill#person#person\n", "V\tkill#person#person\n" * 2)
                    .replace("vertices=3", "vertices=4"))
    with pytest.raises(
        ValueError, match=r"twice\.graph: two vertices share the token 'kill#person#person'"
    ):
        read_subgraph(path)


@pytest.mark.parametrize("first, second", [
    ("V\tdie.1#person\n", "V\tkill#person#person\n"),
    ("E\tkill#person#person\tdie.1#person\tBU\t2:1\t0.7745966692414834\n",
     "E\tkill#person#person\tslay#person#person\tBB\t1:1,2:2\t0.5\n"),
], ids=["vertices", "edges"])
def test_globalize_refuses_shuffled_local_graph(tmp_path, capsys, first, second):
    local = tmp_path / "graphs" / "local"
    local.mkdir(parents=True)
    path = local / "bi__person__person.graph"
    text = (DATA / "golden_bivalent.graph").read_text()
    assert text.count(first + second) == 1
    path.write_text(text.replace(first + second, second + first))
    reseal(tmp_path, "graphs/local")
    assert main(["globalize", "--out", str(tmp_path)]) == EXIT_DATA
    assert f"{path}: " in capsys.readouterr().err
    assert not (tmp_path / "graphs" / "global").exists()


def test_parsed_edges_share_vertex_objects():
    sub = read_subgraph(DATA / "golden_bivalent.graph")
    vertex_ids = {id(v) for v in sub.vertices}
    for e in sub.edges:
        assert id(e.premise) in vertex_ids and id(e.hypothesis) in vertex_ids


def test_parsed_edges_carry_canonical_maps():
    sub = read_subgraph(DATA / "golden_bivalent.graph")
    for e in sub.edges:
        maps = valency_maps(e.premise.valency, e.hypothesis.valency)
        assert any(e.arg_map is m for m in maps)


class _FailMidway:
    """A file handle whose write stores half the text, then fails."""

    def __init__(self, fh):
        self.fh = fh

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def write(self, text):
        self.fh.write(text[: len(text) // 2])
        self.fh.flush()
        raise OSError(errno.ENOSPC, "No space left on device")


@pytest.mark.parametrize(
    "artifact", ["subgraph", "manifest", "questions", "answers", "corpus"]
)
def test_interrupted_write_keeps_previous_file(tmp_path, monkeypatch, artifact):
    if artifact == "subgraph":
        path = tmp_path / "bi__person__person.graph"
        write = functools.partial(write_subgraph, golden_subgraph(), path)
    elif artifact == "manifest":
        path = tmp_path / "globalize.manifest.json"
        run = Artifacts(build_parser().parse_args(["globalize", "--out", str(tmp_path)]))
        write = functools.partial(run.seal, "globalize", [])
    elif artifact == "questions":
        path = tmp_path / "questions.jsonl"
        question = qagen.Question(
            "q1", 0, pred("die.1", "person"), (ent("boddy"),), "positive", {})
        qs = qagen.QuestionSet([question], [], {"format": "entgraph-questions"})
        write = functools.partial(qagen.write_questions, qs, path)
    elif artifact == "answers":
        path = tmp_path / "answers-graph-bb.csv"
        records = [qaeval.AnswerRecord("q1", "graph-bb", 0.5, "p1")]
        write = functools.partial(qaeval.write_answers, records, path)
    else:
        path = tmp_path / "corpus.columns"
        write = functools.partial(save_corpus, corpus(prop("sing.1", ("knowles",))), path)
    write()
    before = path.read_bytes()
    monkeypatch.setattr(
        model, "open",
        lambda *a, **kw: _FailMidway(builtins.open(*a, **kw)), raising=False,
    )
    with pytest.raises(OSError):
        write()
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == [path.name]


@pytest.mark.parametrize("old, new, line, reason", [
    ("BU\t2:1", "UU\t2:1", 9, r"UU 2:1 is not an edge kind and argument map"),
    ("BU\t2:1", "UU\tx", 9, r"UU x is not an edge kind and argument map"),
    ("BU\t2:1", "XX\t1:1", 9, r"XX 1:1 is not an edge kind and argument map"),
    ("BU\t2:1", "BU\t2:1\textra", 9, r"edge line has 7 fields, not 6"),
    ("0.7745966692414834", "high", 9, r"bad edge score 'high'"),
    ("0.25\n", "0.25\nthis line is junk\n", 12, r"unknown line 'this line is junk'"),
    ("edges=3\n", "edges=3\nformat=2\n", 6, r"unknown line 'format=2'"),
    ("edges=3\n", "edges=3\nkind=bivalent\n", 6, r"second kind= line"),
    ("slay#person#person\nE", "slay#person#person\nkind=bivalent\nE", 9,
     r"kind= line after the V lines"),
    ("0.25\n", "0.25\nedges=3\n", 12, r"edges= line after the V lines"),
], ids=["uu-with-bu-map", "unparsed-map", "unknown-kind", "extra-field", "bad-score",
        "junk-line", "unknown-header", "repeated-header", "header-after-vertices",
        "header-after-edges"])
def test_bad_edge_text_names_file_and_line(tmp_path, capsys, old, new, line, reason):
    path = tmp_path / "graphs" / "bi__person__person.graph"
    path.parent.mkdir()
    text = (DATA / "golden_bivalent.graph").read_text()
    assert text.count(old) == 1
    path.write_text(text.replace(old, new))
    with pytest.raises(ValueError, match=rf"bi__person__person\.graph:{line}: {reason}"):
        read_subgraph(path)
    code = main(["query", "--out", str(tmp_path), "--graphs", str(path.parent),
                 "kill#person#person", "die.1#person"])
    assert code == EXIT_DATA
    assert f"{path}:{line}: " in capsys.readouterr().err


def test_blank_lines_ignored(tmp_path):
    path = tmp_path / "bi__person__person.graph"
    text = (DATA / "golden_bivalent.graph").read_text()
    path.write_text(text.replace("\n", "\n\n").replace("edges=3\n", "edges=3\n  \n"))
    assert read_subgraph(path).edges == read_subgraph(DATA / "golden_bivalent.graph").edges


def test_edge_inconsistent_with_its_vertices_names_file(tmp_path):
    # a known kind and map, but a BB edge needs two binary vertices
    path = tmp_path / "bi__person__person.graph"
    path.write_text(
        (DATA / "golden_bivalent.graph").read_text().replace("BU\t2:1", "BB\t1:1,2:2")
    )
    with pytest.raises(
        ValueError, match=r"bi__person__person\.graph: kind BB inconsistent with valencies"
    ):
        read_subgraph(path)
