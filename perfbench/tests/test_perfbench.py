"""Tests of the benchmark's own code: generators, oracles, error counting,
span arithmetic, and agreement between BENCHMARK.json and the metrics."""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import gen  # noqa: E402
import oracle  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
from entgraph.features import FeatureConfig  # noqa: E402
from entgraph.globalgraph import apply_to_all  # noqa: E402
from entgraph.graphio import write_graph_dir  # noqa: E402
from entgraph.ingest import ingest  # noqa: E402
from entgraph.localgraph import (  # noqa: E402
    BB, BU, UU, ArgMap, EntailmentEdge, LocalBuildConfig, TypedSubgraph,
    build_local_graphs,
)
from entgraph.model import EntityId, Proposition, TypedPredicate  # noqa: E402
from entgraph.store import GraphStore  # noqa: E402

P = TypedPredicate.parse_token
KILL, SHOOT = P("kill#person#person"), P("shoot#person#person")
DIE, PERISH, SUFFER = P("die.1#person"), P("perish.1#person"), P("suffer.1#person")
KILL_ORG = P("kill#organization#person")


def small_graphs(directory: Path) -> None:
    """Composition beats a direct edge (kill -> perish), and 'kill' has an
    untyped twin in a second subgraph for back-off."""
    bivalent = {
        ("person", "person"): TypedSubgraph(("person", "person"), {KILL, SHOOT, DIE, PERISH}, [
            EntailmentEdge(KILL, DIE, BU, ArgMap.from_slot(2), 0.9),
            EntailmentEdge(KILL, PERISH, BU, ArgMap.from_slot(2), 0.3),
            EntailmentEdge(KILL, SHOOT, BB, ArgMap.identity(2), 0.5),
            EntailmentEdge(SHOOT, KILL, BB, ArgMap.swap(), 0.25),
        ]),
        ("organization", "person"): TypedSubgraph(("organization", "person"), {KILL_ORG, DIE}, [
            EntailmentEdge(KILL_ORG, DIE, BU, ArgMap.from_slot(2), 0.7),
        ]),
    }
    univalent = {
        ("person",): TypedSubgraph(("person",), {DIE, PERISH, SUFFER}, [
            EntailmentEdge(DIE, PERISH, UU, ArgMap.identity(1), 0.8),
            EntailmentEdge(DIE, SUFFER, UU, ArgMap.identity(1), 0.4),
        ]),
    }
    write_graph_dir({**bivalent, **univalent}, directory)


QUERIES = [
    ["ent", "kill#person#person", ["a", "b"], "perish.1#person", ["b"]],  # composed 0.8 > 0.3
    ["ent", "kill#person#person", ["a", "b"], "die.1#person", ["b"]],
    ["ent", "kill#person#person", ["a", "b"], "suffer.1#person", ["b"]],
    ["ent", "kill#person#person", ["a", "b"], "perish.1#person", ["a"]],  # wrong slot
    ["ent", "kill#person#person", ["a", "b"], "shoot#person#person", ["a", "b"]],
    ["ent", "shoot#person#person", ["a", "b"], "kill#person#person", ["b", "a"]],
    ["ent", "shoot#person#person", ["a", "b"], "kill#person#person", ["a", "b"]],
    ["ent", "die.1#person", ["a"], "perish.1#person", ["a"]],
    ["ent", "die.1#person", ["a"], "die.1#person", ["a"]],
    ["back", "kill", 2, ["a", "b"], "die.1", 1, ["b"]],  # mean of 0.9 and 0.7
    ["back", "kill", 2, ["a", "b"], "die.1", 1, ["a"]],
    ["back", "shoot", 2, ["a", "b"], "kill", 2, ["b", "a"]],
]


def store_answer(store: GraphStore, q: list) -> float:
    if q[0] == "ent":
        prem = Proposition(P(q[1]), tuple(EntityId(k, None, True) for k in q[2]))
        return store.entailment_score(prem, P(q[3]), tuple(q[4])).score
    return store.backoff_score(q[1], q[2], tuple(q[3]), q[4], q[5], tuple(q[6])).score


def test_dense_generator_is_deterministic():
    a = gen.dense_records(300, 12, 40, seed=3)
    assert a == gen.dense_records(300, 12, 40, seed=3)
    assert a != gen.dense_records(300, 12, 40, seed=4)
    recs = [json.loads(line) for line in a]
    assert {len(r["args"]) for r in recs} == {1, 2}
    assert len({r["date"] for r in recs}) <= 28


def test_qa_sample_generator_is_deterministic_and_only_renames():
    sample = gen.SAMPLE.read_text(encoding="utf-8").splitlines()
    a = gen.qa_sample_records(sample, 3, seed=1)
    assert a == gen.qa_sample_records(sample, 3, seed=1)
    b = gen.qa_sample_records(sample, 3, seed=2)
    assert a != b and len(a) == 3 * len(sample)
    unsalted = [reference._SALT.sub(r"~\1", x) for x in a]
    assert unsalted == [reference._SALT.sub(r"~\1", x) for x in b]


def test_query_stream_is_deterministic(tmp_path):
    small_graphs(tmp_path)
    corpus = [json.dumps({"predicate": p, "args": args}) for p, args in (
        ("kill", [{"role_index": 1, "surface": "a", "type": "person"},
                  {"role_index": 2, "surface": "b", "type": "person"}]),
        ("die", [{"role_index": 1, "surface": "b", "type": "person"}]),
        ("kill", [{"role_index": 1, "surface": "c", "type": "person"},
                  {"role_index": 2, "surface": "d", "type": "location"}]),
    )]
    graphs = oracle.Graphs(tmp_path)
    a = gen.query_stream(corpus, graphs, 15, 0.5, seed=1)
    assert a == gen.query_stream(corpus, graphs, 15, 0.5, seed=1)
    # one corpus proposition in three has no typed vertex: 5 back-off
    # queries; the typed 10 split evenly into composed and direct
    assert len(a) == 15 and sum(q[0] == "back" for q in a) == 5
    composed = [q for q in a if q[0] == "ent" and len(q[2]) == 2 and len(q[4]) == 1]
    assert len(composed) == 5


def test_query_oracle_agrees_with_store(tmp_path):
    small_graphs(tmp_path)
    store, graphs = GraphStore.open(tmp_path), oracle.Graphs(tmp_path)
    got = [oracle.answer(graphs, q) for q in QUERIES]
    assert got == [store_answer(store, q) for q in QUERIES]
    assert got[0] == 0.8  # composition beat the direct 0.3 edge
    assert got[9] == pytest.approx((0.9 + 0.7) / 2)  # back-off mean


def test_build_oracles_agree_with_program(tmp_path):
    lines = gen.dense_records(600, 10, 30, seed=5)
    gen.write_lines(tmp_path / "corpus.jsonl", lines)
    graphs = build_local_graphs(ingest(tmp_path / "corpus.jsonl"),
                                LocalBuildConfig(FeatureConfig(min_count=3)))
    write_graph_dir(graphs.all_subgraphs(), tmp_path / "local")
    vertices, edges, ambiguous = oracle.local_edges([json.loads(x) for x in lines])
    local_v, local_e = oracle.graph_dir_edges(tmp_path / "local")
    assert len(edges) > 100
    assert oracle.edge_mismatches(edges, local_e, ambiguous) == []
    assert oracle.vertex_mismatches(vertices, local_v, ambiguous) == []
    bi, uni = apply_to_all(graphs.bivalent, graphs.univalent)
    write_graph_dir({**bi.subgraphs, **uni.subgraphs}, tmp_path / "global")
    _, global_e = oracle.graph_dir_edges(tmp_path / "global")
    expected = {}
    for family in (1, 2):
        expected.update(oracle.global_scores(
            {k: v for k, v in local_e.items() if len(k[0]) == family}))
    assert oracle.edge_mismatches(expected, global_e) == []
    assert expected != local_e  # the solve moved some scores


def test_build_oracle_flags_extra_edge_on_unscored_same_type_pair():
    # Identity and swap tie at 0 for a same-type pair with no shared
    # features; an edge the program wrote there must still be reported.
    lines = gen.dense_records(600, 10, 30, seed=5)
    vertices, edges, ambiguous = oracle.local_edges([json.loads(x) for x in lines])
    scored = {k[:3] for k in edges}
    unscored = [(sig, p, q, "BB", oracle.IDENTITY2)
                for sig, vs in sorted(vertices.items()) if len(sig) == 2 and sig[0] == sig[1]
                for p in sorted(vs) for q in sorted(vs)
                if p != q and oracle.types_of(p) == sig and oracle.types_of(q) == sig
                and (sig, p, q) not in scored]
    assert unscored
    extra = unscored[0]
    assert extra not in ambiguous
    assert oracle.edge_mismatches(edges, {**edges, extra: 0.5}, ambiguous) == [
        f"extra {extra!r}"]

    sig = extra[0]
    stray = {**vertices, sig: vertices[sig] | {"stray.1#person"}}
    assert oracle.vertex_mismatches(vertices, stray, ambiguous)


def test_wrong_answer_counts_in_error_rate(tmp_path):
    small_graphs(tmp_path / "out" / "graphs" / "global")
    graphs = oracle.Graphs(tmp_path / "out" / "graphs" / "global")
    expected = [oracle.answer(graphs, q) for q in QUERIES]
    (tmp_path / "queries.json").write_text(json.dumps(QUERIES))
    (tmp_path / "expected.json").write_text(json.dumps(expected))
    bench = run.Bench()
    assert run.run_queries(bench, tmp_path, tmp_path / "out")
    assert (bench.attempted, bench.failed) == (1 + len(QUERIES), 0)

    expected[0] = 0.3  # inject one wrong reference answer
    (tmp_path / "expected.json").write_text(json.dumps(expected))
    bench = run.Bench()
    run.run_queries(bench, tmp_path, tmp_path / "out")
    assert bench.failed == 1
    assert bench.error_rate() == 1 / (1 + len(QUERIES))


def test_self_time_subtracts_covered_child_time():
    # root [0, 10] with children [1, 3] and [2, 5] (overlapping) and [6, 7];
    # the [2, 5] child has a grandchild [2.5, 4].
    tree = [
        ["cli.main", 0.0, 10.0, -1, None],
        ["ingest.ingest", 1.0, 3.0, 0, None],
        ["features.count", 2.0, 5.0, 0, None],
        ["features.pmi", 2.5, 4.0, 2, None],
        ["graphio.write_subgraph", 6.0, 7.0, 0, None],
    ]
    assert spans.self_times(tree) == [10.0 - 5.0, 2.0, 1.5, 1.5, 1.0]
    m = spans.layer_metrics([{"stage": "ingest", "wall_s": 9.0, "rss_mb": 40.0,
                              "traced_wall_s": 12.0, "spans": tree, "counts": {}}])
    assert m["cli.self_s"] == 5.0
    assert m["features.self_s"] == 3.0
    assert m["cli.ingest.overhead_s"] == 12.0 - (2.0 + 3.0 + 1.0)
    assert m["ingest.ingest.calls"] == 1 and m["features.count.calls"] == 1


def test_benchmark_json_matches_emitted_metrics():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.traced_metric_units()
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
