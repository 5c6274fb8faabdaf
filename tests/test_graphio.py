"""Subgraph file format tests, pinned by a golden file."""

import builtins
import errno
import functools

import pytest

from entgraph import graphio
from entgraph.cli import _write_manifest
from entgraph.graphio import (
    VersionMismatch,
    read_header,
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
    valid_maps,
)

from conftest import DATA, pred


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


def test_header_read_skips_edges():
    header = read_header(DATA / "golden_bivalent.graph")
    assert header["kind"] == "bivalent"
    assert header["types"] == ("person", "person")
    assert header["vertices"] == 3 and header["edges"] == 3
    assert len(header["vertex_list"]) == 3


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


def test_univalent_file(tmp_path):
    die = pred("die.1", "person")
    perish = pred("perish.1", "person")
    sub = TypedSubgraph(
        ("person",),
        {die, perish},
        [EntailmentEdge(die, perish, UU, ArgMap.identity(1), 0.5)],
    )
    path = tmp_path / subgraph_filename(sub.signature)
    assert path.name == "uni__person.graph"
    write_subgraph(sub, path)
    again = read_subgraph(path)
    assert again.kind == "univalent"
    assert again.edges == sub.edges


def test_write_graph_dir(tmp_path):
    subs = {("person", "person"): golden_subgraph()}
    paths = write_graph_dir(subs, tmp_path / "graphs")
    assert [p.name for p in paths] == ["bi__person__person.graph"]


def test_edge_endpoint_without_vertex_line_names_file_and_token(tmp_path):
    path = tmp_path / "orphan.graph"
    text = (DATA / "golden_bivalent.graph").read_text()
    text = text.replace("V\tdie.1#person\n", "").replace("vertices=3", "vertices=2")
    path.write_text(text)
    with pytest.raises(ValueError, match=r"orphan\.graph.*'die\.1#person'"):
        read_subgraph(path)


def test_parsed_edges_share_vertex_objects():
    sub = read_subgraph(DATA / "golden_bivalent.graph")
    vertex_ids = {id(v) for v in sub.vertices}
    for e in sub.edges:
        assert id(e.premise) in vertex_ids and id(e.hypothesis) in vertex_ids


def test_parsed_edges_carry_canonical_maps():
    assert ArgMap.parse("1:2,2:1") is ArgMap.swap()
    sub = read_subgraph(DATA / "golden_bivalent.graph")
    for e in sub.edges:
        maps = valid_maps(e.premise.valency, e.hypothesis.valency)
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


@pytest.mark.parametrize("artifact", ["subgraph", "manifest"])
def test_interrupted_write_keeps_previous_file(tmp_path, monkeypatch, artifact):
    if artifact == "subgraph":
        path = tmp_path / "bi__person__person.graph"
        write = functools.partial(write_subgraph, golden_subgraph(), path)
    else:
        path = tmp_path / "globalize.manifest.json"
        write = functools.partial(_write_manifest, tmp_path, "globalize", {"tau": 0.9}, [])
    write()
    before = path.read_bytes()
    monkeypatch.setattr(
        graphio, "open",
        lambda *a, **kw: _FailMidway(builtins.open(*a, **kw)), raising=False,
    )
    with pytest.raises(OSError):
        write()
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == [path.name]
