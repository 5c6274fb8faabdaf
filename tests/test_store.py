"""Graph store query tests: routing, composition, back-off."""

import functools
import math
import operator
import random

import pytest

from entgraph.graphio import write_graph_dir
from entgraph.localgraph import (
    BB,
    BU,
    UU,
    ArgMap,
    EntailmentEdge,
    TypedSubgraph,
    consistent_codes,
)
from entgraph.store import GraphStore, QueryResult

from entgraph.model import Proposition

from conftest import ent, pred, prop

KILL = pred("kill", "person", "person")
DIE = pred("die.1", "person")
PERISH = pred("perish.1", "person")
BUY = pred("buy", "organization", "organization")
SELL = pred("sell.to", "organization", "organization")
WRITE = pred("write", "person", "written_work")
AUTHOR = pred("be.author.1", "person")

ID1 = ArgMap.identity(1)
ID2 = ArgMap.identity(2)


def demo_store() -> GraphStore:
    bivalent = {
        ("person", "person"): TypedSubgraph(
            ("person", "person"),
            {KILL, DIE},
            [EntailmentEdge(KILL, DIE, BU, ArgMap.from_slot(2), 0.8)],
        ),
        ("organization", "organization"): TypedSubgraph(
            ("organization", "organization"),
            {BUY, SELL},
            [EntailmentEdge(BUY, SELL, BB, ArgMap.swap(), 0.9)],
        ),
        ("person", "written_work"): TypedSubgraph(
            ("person", "written_work"),
            {WRITE, AUTHOR},
            [EntailmentEdge(WRITE, AUTHOR, BU, ArgMap.from_slot(1), 0.75)],
        ),
    }
    univalent = {
        ("person",): TypedSubgraph(
            ("person",),
            {DIE, PERISH},
            [EntailmentEdge(DIE, PERISH, UU, ID1, 0.6)],
        ),
    }
    return GraphStore.from_subgraphs(bivalent, univalent)


class TestTypedRouting:
    def test_swap_edge_answers_sold_to(self):
        store = demo_store()
        evidence = prop("buy", ("google", "youtube"), types=("organization",) * 2)
        result = store.entailment_score(evidence, SELL, ("youtube", "google"))
        assert result.score == pytest.approx(0.9)
        assert result.path[0].arg_map == ArgMap.swap()
        assert not result.backed_off

    def test_swap_edge_rejects_unswapped_binding(self):
        store = demo_store()
        evidence = prop("buy", ("google", "youtube"), types=("organization",) * 2)
        result = store.entailment_score(evidence, SELL, ("google", "youtube"))
        assert result.score == 0.0

    def test_bu_edge_fires_on_object(self):
        store = demo_store()
        evidence = prop("kill", ("mustard", "boddy"))
        result = store.entailment_score(evidence, DIE, ("boddy",))
        assert result.score == pytest.approx(0.8)
        assert result.path[0].kind == BU

    def test_bu_edge_respects_binding(self):
        store = demo_store()
        evidence = prop("kill", ("mustard", "boddy"))
        assert store.entailment_score(evidence, DIE, ("mustard",)).score == 0.0

    def test_write_entails_author(self):
        store = demo_store()
        evidence = prop("write", ("rowling", "book"), types=("person", "written_work"))
        result = store.entailment_score(evidence, AUTHOR, ("rowling",))
        assert result.score == pytest.approx(0.75)

    def test_reflexivity_scores_one(self):
        store = demo_store()
        evidence = prop("kill", ("mustard", "boddy"))
        result = store.entailment_score(evidence, KILL, ("mustard", "boddy"))
        assert result.score == 1.0
        assert result.path == ()

    def test_incompatible_binding_scores_zero(self):
        store = demo_store()
        evidence = prop("kill", ("mustard", "boddy"))
        assert store.entailment_score(evidence, DIE, ("plum",)).score == 0.0

    def test_lower_to_higher_valency_impossible(self):
        store = demo_store()
        evidence = prop("die.1", ("boddy",))
        assert store.entailment_score(evidence, KILL, ("mustard", "boddy")).score == 0.0

    def test_kind_restriction(self):
        store = demo_store()
        evidence = prop("kill", ("mustard", "boddy"))
        assert store.score(evidence, DIE, ("boddy",), frozenset({BB})) == QueryResult(0.0)
        assert store.score(evidence, DIE, ("boddy",), frozenset({BU})).score == pytest.approx(0.8)


class TestComposition:
    def test_bu_then_uu_takes_min(self):
        store = demo_store()
        evidence = prop("kill", ("mustard", "boddy"))
        result = store.entailment_score(evidence, PERISH, ("boddy",))
        assert result.score == pytest.approx(0.6)  # min(0.8, 0.6)
        assert [e.kind for e in result.path] == [BU, UU]
        assert result.path[0].score >= result.score
        assert result.path[1].score >= result.score

    def test_composition_flag_gated(self):
        store = demo_store()
        evidence = prop("kill", ("mustard", "boddy"))
        gated = store.entailment_score(evidence, PERISH, ("boddy",), compose=False)
        assert gated == QueryResult(0.0)
        assert store.score(evidence, PERISH, ("boddy",), frozenset({BB, BU})) == gated

    def test_composition_needs_both_kinds_enabled(self):
        store = demo_store()
        evidence = prop("kill", ("mustard", "boddy"))
        only_bu = store.score(evidence, PERISH, ("boddy",), frozenset({BU}))
        assert only_bu == QueryResult(0.0)
        both = store.score(evidence, PERISH, ("boddy",), frozenset({BU, UU}))
        assert both.score == pytest.approx(0.6)

    def test_direct_edge_beats_weaker_path(self):
        store = demo_store()
        evidence = prop("kill", ("mustard", "boddy"))
        result = store.entailment_score(evidence, DIE, ("boddy",))
        assert result.score == pytest.approx(0.8)
        assert len(result.path) == 1


class TestBackoff:
    def _planted_store(self):
        # the same untyped lemma pair lives in two typed subgraphs
        hire_pp = pred("hire", "person", "person")
        pay_pp = pred("pay", "person", "person")
        hire_oo = pred("hire", "organization", "organization")
        pay_oo = pred("pay", "organization", "organization")
        bivalent = {
            ("person", "person"): TypedSubgraph(
                ("person", "person"), {hire_pp, pay_pp},
                [EntailmentEdge(hire_pp, pay_pp, BB, ID2, 0.4)],
            ),
            ("organization", "organization"): TypedSubgraph(
                ("organization", "organization"), {hire_oo, pay_oo},
                [EntailmentEdge(hire_oo, pay_oo, BB, ID2, 0.8)],
            ),
        }
        return GraphStore.from_subgraphs(bivalent, {})

    def test_mean_over_subgraphs(self):
        store = self._planted_store()
        result = store.backoff_score(
            "hire", 2, ("acme", "bob"), "pay", 2, ("acme", "bob")
        )
        assert result.score == pytest.approx(0.6, abs=1e-9)
        assert result.backed_off

    def test_absent_pair_scores_zero(self):
        store = self._planted_store()
        result = store.backoff_score(
            "hire", 2, ("acme", "bob"), "promote", 2, ("acme", "bob")
        )
        assert result.score == 0.0 and result.backed_off

    def test_mean_sums_left_to_right(self):
        # ten subgraphs at 0.1: the left-to-right sum is 0.9999999999999999,
        # a compensated one 1.0
        bivalent = {}
        for i in range(10):
            sig = (f"t{i}", f"t{i}")
            hire, pay = pred("hire", *sig), pred("pay", *sig)
            bivalent[sig] = TypedSubgraph(
                sig, {hire, pay}, [EntailmentEdge(hire, pay, BB, ID2, 0.1)]
            )
        store = GraphStore.from_subgraphs(bivalent, {})
        result = store.backoff_score("hire", 2, ("a", "b"), "pay", 2, ("a", "b"))
        expected = functools.reduce(operator.add, [0.1] * 10, 0.0) / 10
        assert expected != math.fsum([0.1] * 10) / 10
        assert result.score == expected

    def test_single_subgraph_mean_of_one(self):
        store = demo_store()
        result = store.backoff_score(
            "buy", 2, ("google", "youtube"), "sell.to", 2, ("youtube", "google")
        )
        assert result.score == pytest.approx(0.9)

    def test_untyped_index_covers_exactly_vertices(self):
        store = demo_store()
        indexed = {
            (sig, v.token())
            for entries in store.untyped_index.values()
            for sig, v in entries
        }
        expected = set()
        for sig, sub in {**store.bivalent, **store.univalent}.items():
            for v in sub.vertices:
                expected.add((sig, v.token()))
        assert indexed == expected


class TestDiskRoundTrip:
    def test_open_from_directory(self, tmp_path):
        store = demo_store()
        write_graph_dir({**store.bivalent, **store.univalent}, tmp_path)
        loaded = GraphStore.open(tmp_path)
        assert set(loaded.bivalent) == set(store.bivalent)
        assert set(loaded.univalent) == set(store.univalent)
        # queries resolve identically after the disk round trip
        evidence = prop("kill", ("mustard", "boddy"))
        assert loaded.entailment_score(evidence, PERISH, ("boddy",)).score == pytest.approx(0.6)

    def test_paths_returned_exist_in_files(self, tmp_path):
        store = demo_store()
        write_graph_dir({**store.bivalent, **store.univalent}, tmp_path)
        loaded = GraphStore.open(tmp_path)
        evidence = prop("kill", ("mustard", "boddy"))
        result = loaded.entailment_score(evidence, DIE, ("boddy",))
        on_disk = set()
        for path in tmp_path.glob("*.graph"):
            for line in path.read_text().splitlines():
                if line.startswith("E\t"):
                    on_disk.add(line)
        for e in result.path:
            line = "E\t{}\t{}\t{}\t{}\t{}".format(
                e.premise.token(), e.hypothesis.token(), e.kind,
                e.arg_map.format(), repr(e.score),
            )
            assert line in on_disk

    def test_queries_do_not_mutate(self):
        store = demo_store()
        evidence = prop("kill", ("mustard", "boddy"))
        first = store.entailment_score(evidence, DIE, ("boddy",))
        second = store.entailment_score(evidence, DIE, ("boddy",))
        assert first == second


def reference_composed(store, sub, premise, hypothesis, hypothesis_args):
    """Every BU-then-UU path in scan order, and the one composition picks.

    The full scan the indexed store replaced: for slot 1, then slot 2,
    every edge of the premise's subgraph in order, joined with the UU
    edges from its unary to the hypothesis. The first strictly best path
    wins.
    """
    paths = []
    premise_keys = premise.arg_keys
    for slot in (1, 2):
        if premise_keys[slot - 1] != hypothesis_args[0]:
            continue
        bu_map = ArgMap.from_slot(slot)
        slot_type = premise.predicate.slot_types[slot - 1]
        uni = store.univalent.get((slot_type,))
        if uni is None:
            continue
        for e in sub.edges:
            if e.kind != BU or e.premise != premise.predicate:
                continue
            if e.arg_map != bu_map or e.hypothesis == hypothesis:
                continue
            for e2 in uni.find_edges(e.hypothesis, hypothesis, ArgMap.identity(1)):
                paths.append((min(e.score, e2.score), (e, e2)))
    best = QueryResult(0.0)
    for score, path in paths:
        if score > best.score:
            best = QueryResult(score, path)
    return paths, best


class TestComposedIndexOracle:
    """The indexed composition against the full-scan reference."""

    TYPES = ("person", "organization")
    BINARIES = ("defeat", "beat", "face", "meet")
    UNARIES = ("win.1", "lose.1", "be.winner.1", "compete.1", "be.beaten.2")
    # few distinct scores, so several paths often tie for the best
    SCORES = (0.25, 0.5, 0.75, 1.0)

    def _random_graphs(self, rng):
        univalent = {}
        for t in self.TYPES:
            if rng.random() < 0.15:
                continue  # a slot type without a univalent graph
            unaries = [pred(n, t) for n in self.UNARIES]
            edges = [
                EntailmentEdge(p, q, UU, ID1, rng.choice(self.SCORES))
                for p in unaries
                for q in unaries
                if p != q and rng.random() < 0.5
            ]
            univalent[(t,)] = TypedSubgraph((t,), set(unaries), edges)
        bivalent = {}
        for sig in (("person", "person"), ("organization", "person")):
            binaries = [pred(n, *types) for n in self.BINARIES for types in {sig, sig[::-1]}]
            vertices, edges = set(binaries), []
            for p in binaries:
                for slot in (1, 2):
                    for name in self.UNARIES:
                        if rng.random() < 0.6:
                            unary = pred(name, p.slot_types[slot - 1])
                            vertices.add(unary)
                            edges.append(EntailmentEdge(
                                p, unary, BU, ArgMap.from_slot(slot), rng.choice(self.SCORES)))
                # BB edges sort among the BU edges of the premise, so the
                # walk over its out-edges must skip them
                for q in binaries:
                    for amap, types in ((ID2, q.slot_types), (ArgMap.swap(), q.slot_types[::-1])):
                        if p != q and p.slot_types == types and rng.random() < 0.5:
                            edges.append(EntailmentEdge(p, q, BB, amap, rng.choice(self.SCORES)))
            bivalent[sig] = TypedSubgraph(sig, vertices, edges)
        return bivalent, univalent

    def _queries(self, store):
        unaries = [pred(n, t) for n in self.UNARIES for t in self.TYPES]
        for sub in store.bivalent.values():
            for premise_pred in sorted(v for v in sub.vertices if v.valency == 2):
                # equal arguments let both slots bind the hypothesis
                for args in (("a", "b"), ("a", "a")):
                    premise = Proposition(premise_pred, tuple(ent(a) for a in args))
                    for hypothesis in unaries:
                        for hyp_args in (("a",), ("b",), ("c",)):
                            yield sub, premise, hypothesis, hyp_args

    def test_indexed_matches_full_scan(self, tmp_path):
        rng = random.Random(2021)
        seen = {"found": 0, "tied": 0, "slot2": 0}
        for trial in range(12):
            bivalent, univalent = self._random_graphs(rng)
            write_graph_dir({**bivalent, **univalent}, tmp_path / str(trial))
            memory = GraphStore.from_subgraphs(bivalent, univalent)
            disk = GraphStore.open(tmp_path / str(trial))
            for store in (memory, disk):
                for sub, premise, hypothesis, hyp_args in self._queries(store):
                    paths, expected = reference_composed(
                        store, sub, premise, hypothesis, hyp_args)
                    p = sub.vertex_id(premise.predicate)
                    got = store._composed(sub, p, premise.predicate, hypothesis,
                                          consistent_codes(premise.arg_keys, hyp_args))
                    assert got.score == expected.score
                    # a subgraph holds an edge once, so equal edges are one position
                    assert got.path == expected.path
                    if expected.path:
                        seen["found"] += 1
                        seen["tied"] += sum(s == expected.score for s, _ in paths) > 1
                        seen["slot2"] += expected.path[0].arg_map == ArgMap.from_slot(2)
        assert all(n > 100 for n in seen.values()), seen
