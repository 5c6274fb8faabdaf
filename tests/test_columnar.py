"""Columnar subgraphs against plain edge lists.

A ``TypedSubgraph`` keeps its edges as integer columns and builds
``EntailmentEdge`` objects only when they are read. The reference here is
the representation it replaced: a sorted list of edge objects searched by
scanning. Random families compare the two on edge lookup, on composed
BU->UU queries and on the file format; counting tests pin that queries
and globalization do not compare or hash predicates per edge.
"""

from __future__ import annotations

import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from entgraph.globalgraph import GlobalConfig, globalize
from entgraph.graphio import read_subgraph, write_subgraph
from entgraph.localgraph import (
    ALL_KINDS,
    BB,
    BU,
    UU,
    ArgMap,
    EntailmentEdge,
    TypedSubgraph,
    consistent_codes,
)
from entgraph.model import Proposition, TypedPredicate
from entgraph.store import GraphStore, QueryResult

from conftest import ent, pred

ID1, ID2, SWAP = ArgMap.identity(1), ArgMap.identity(2), ArgMap.swap()
TYPES = ("organization", "person")
SIGNATURES = (("person", "person"), ("organization", "person"))
BINARIES = ("beat", "defeat", "face", "meet")
UNARIES = ("win.1", "lose.1", "be.winner.1", "compete.1", "be.beaten.2")
# few distinct scores, so that composed paths often tie
SCORES = (0.25, 0.5, 0.75, 1.0)
KIND_SETS = (ALL_KINDS, frozenset({BB}), frozenset({BU, UU}))


def _token_order(e: EntailmentEdge) -> tuple:
    return (e.premise.token(), e.hypothesis.token(), e.arg_map)


def _edge_line(e: EntailmentEdge) -> str:
    return (f"E\t{e.premise.token()}\t{e.hypothesis.token()}\t{e.kind}\t"
            f"{e.arg_map.format()}\t{e.score!r}")


class EdgeList:
    """The reference subgraph: a sorted edge list, searched by scanning."""

    def __init__(self, signature, vertices, edges):
        self.signature = signature
        self.vertices = tuple(sorted(set(vertices), key=TypedPredicate.token))
        self.edges = sorted(edges, key=_token_order)

    def find_edges(self, premise, hypothesis, arg_map=None, kinds=ALL_KINDS):
        return [
            e for e in self.edges
            if e.premise == premise and e.hypothesis == hypothesis and e.kind in kinds
            and (arg_map is None or e.arg_map == arg_map)
        ]

    def text(self) -> str:
        """The subgraph file as the format describes it."""
        lines = [
            "entgraph-subgraph v1",
            "kind=" + ("bivalent" if len(self.signature) == 2 else "univalent"),
            "types=" + ",".join(self.signature),
            f"vertices={len(self.vertices)}",
            f"edges={len(self.edges)}",
            *(f"V\t{v.token()}" for v in self.vertices),
            *map(_edge_line, self.edges),
        ]
        return "\n".join(lines) + "\n"


def _score(rng: random.Random) -> float:
    return rng.choice(SCORES) if rng.random() < 0.5 else rng.uniform(0.01, 1.0)


def random_family(rng: random.Random) -> dict[tuple[str, ...], EdgeList]:
    """Same-type and mixed-type bivalent graphs and their univalent graphs.

    BB pairs get the identity map, the swap map or both where the slot
    types allow them; BU edges leave both slots; a slot type may lack its
    univalent graph.
    """
    family = {}
    for t in TYPES:
        if rng.random() < 0.15:
            continue
        unaries = [pred(n, t) for n in UNARIES if rng.random() < 0.8]
        edges = [EntailmentEdge(p, q, UU, ID1, _score(rng))
                 for p in unaries for q in unaries if p != q and rng.random() < 0.5]
        family[(t,)] = EdgeList((t,), unaries, edges)
    for sig in SIGNATURES:
        names = [n for n in BINARIES if rng.random() < 0.8] or [BINARIES[0]]
        binaries = [pred(n, *types) for n in names for types in sorted({sig, sig[::-1]})]
        vertices, edges = list(binaries), []
        for p in binaries:
            for q in binaries:
                maps = []
                if p.slot_types == q.slot_types and p != q:
                    maps.append(ID2)
                if p.slot_types == q.slot_types[::-1]:
                    maps.append(SWAP)
                edges += [EntailmentEdge(p, q, BB, m, _score(rng))
                          for m in maps if rng.random() < 0.5]
            for slot in (1, 2):
                for name in UNARIES:
                    if rng.random() < 0.4:
                        unary = pred(name, p.slot_types[slot - 1])
                        vertices.append(unary)
                        edges.append(EntailmentEdge(
                            p, unary, BU, ArgMap.from_slot(slot), _score(rng)))
        family[sig] = EdgeList(sig, vertices, edges)
    return family


def columnar(ref: EdgeList, rng: random.Random) -> TypedSubgraph:
    """The same subgraph built from shuffled vertices and edges."""
    vertices, edges = list(ref.vertices), list(ref.edges)
    rng.shuffle(vertices)
    rng.shuffle(edges)
    return TypedSubgraph(ref.signature, vertices, edges)


class TestAgainstEdgeLists:
    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32))
    def test_find_edges_for_every_pair_and_map(self, seed):
        rng = random.Random(seed)
        for ref in random_family(rng).values():
            sub = columnar(ref, rng)
            assert sub.vertices == ref.vertices
            assert sub.edges == ref.edges
            for p in ref.vertices:
                for h in ref.vertices:
                    for amap in (None, ID1, ID2, SWAP, ArgMap.from_slot(2)):
                        for kinds in KIND_SETS:
                            assert sub.find_edges(p, h, amap, kinds) == ref.find_edges(
                                p, h, amap, kinds)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32))
    def test_write_read_write_is_byte_identical(self, seed, tmp_path_factory):
        rng = random.Random(seed)
        tmp = tmp_path_factory.mktemp("graphs")
        for ref in random_family(rng).values():
            first, second = tmp / "first.graph", tmp / "second.graph"
            write_subgraph(columnar(ref, rng), first)
            assert first.read_text() == ref.text()
            write_subgraph(read_subgraph(first), second)
            assert second.read_bytes() == first.read_bytes()

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32))
    def test_unsorted_file_refused(self, seed, tmp_path_factory):
        rng = random.Random(seed)
        tmp = tmp_path_factory.mktemp("graphs")
        for ref in random_family(rng).values():
            lines = ref.text().splitlines()
            n = len(ref.vertices)
            head, vertex_lines, edge_lines = lines[:5], lines[5:5 + n], lines[5 + n:]
            for section, reason in ((vertex_lines, "out of token order"),
                                    (edge_lines, "out of order")):
                if len(section) < 2:
                    continue
                shuffled = list(section)
                while shuffled == section:
                    rng.shuffle(shuffled)
                path = tmp / "shuffled.graph"
                path.write_text("\n".join(lines).replace("\n".join(section), "\n".join(shuffled))
                                + "\n")
                with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}: .*{reason}"):
                    read_subgraph(path)

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**32))
    def test_composed_joins(self, seed):
        rng = random.Random(seed)
        family = random_family(rng)
        store = GraphStore({sig: columnar(ref, rng) for sig, ref in family.items()})
        unaries = [pred(n, t) for n in UNARIES for t in TYPES]
        for sig, ref in family.items():
            if len(sig) == 1:
                continue
            sub = store.bivalent[sig]
            for premise_pred in (v for v in ref.vertices if v.valency == 2):
                for args in (("a", "b"), ("a", "a")):
                    premise = Proposition(premise_pred, tuple(ent(a) for a in args))
                    for hypothesis in unaries:
                        for hyp_args in (("a",), ("b",)):
                            expected = reference_composed(family, premise, hypothesis, hyp_args)
                            got = store._composed(
                                sub, sub.vertex_id(premise_pred), premise_pred, hypothesis,
                                consistent_codes(premise.arg_keys, hyp_args))
                            assert got.score == expected.score
                            assert got.path == expected.path

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**32))
    def test_duplicate_edge_refused(self, seed, tmp_path_factory):
        rng = random.Random(seed)
        for ref in random_family(rng).values():
            if not ref.edges:
                continue
            e = rng.choice(ref.edges)
            twin = EntailmentEdge(e.premise, e.hypothesis, e.kind, e.arg_map, 1 - e.score / 2)
            with pytest.raises(ValueError, match="duplicate edge"):
                TypedSubgraph(ref.signature, ref.vertices, [*ref.edges, twin])
            text = ref.text().replace(f"edges={len(ref.edges)}", f"edges={len(ref.edges) + 1}")
            line = _edge_line(e) + "\n"
            path = tmp_path_factory.mktemp("graphs") / "twin.graph"
            path.write_text(text.replace(line, line + _edge_line(twin) + "\n"))
            with pytest.raises(ValueError, match="duplicate edge"):
                read_subgraph(path)

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**32))
    def test_missing_endpoint_refused(self, seed, tmp_path_factory):
        rng = random.Random(seed)
        for ref in random_family(rng).values():
            if not ref.edges:
                continue
            e = rng.choice(ref.edges)
            gone = rng.choice((e.premise, e.hypothesis))
            kept = [v for v in ref.vertices if v != gone]
            with pytest.raises(ValueError, match="edge endpoint missing"):
                TypedSubgraph(ref.signature, kept, ref.edges)
            text = ref.text().replace(f"V\t{gone.token()}\n", "").replace(
                f"vertices={len(ref.vertices)}", f"vertices={len(kept)}")
            path = tmp_path_factory.mktemp("graphs") / "orphan.graph"
            path.write_text(text)
            with pytest.raises(ValueError, match=f"'{gone.token()}' has no V line"):
                read_subgraph(path)


def reference_composed(family, premise, hypothesis, hypothesis_args) -> QueryResult:
    """The best BU-then-UU path by scanning the edge lists: slot 1 before
    slot 2, BU edges in subgraph order, the first strictly best wins."""
    best = QueryResult(0.0)
    sub = family[tuple(sorted(premise.predicate.slot_types))]
    for slot in (1, 2):
        if premise.arg_keys[slot - 1] != hypothesis_args[0]:
            continue
        uni = family.get((premise.predicate.slot_types[slot - 1],))
        if uni is None:
            continue
        for e in sub.edges:
            if (e.kind != BU or e.premise != premise.predicate
                    or e.arg_map != ArgMap.from_slot(slot) or e.hypothesis == hypothesis):
                continue
            for e2 in uni.find_edges(e.hypothesis, hypothesis):
                if min(e.score, e2.score) > best.score:
                    best = QueryResult(min(e.score, e2.score), (e, e2))
    return best


class PredicateCalls:
    """Counts ``TypedPredicate.__eq__`` and ``__hash__`` calls."""

    def __init__(self, monkeypatch):
        self.eq = self.hash = 0
        eq, hash_ = TypedPredicate.__eq__, TypedPredicate.__hash__

        def counted_eq(a, b):
            self.eq += 1
            return eq(a, b)

        def counted_hash(a):
            self.hash += 1
            return hash_(a)

        monkeypatch.setattr(TypedPredicate, "__eq__", counted_eq)
        monkeypatch.setattr(TypedPredicate, "__hash__", counted_hash)

    def reset(self) -> None:
        self.eq = self.hash = 0


class TestPredicateComparisons:
    def _fan_out_store(self, out_degree: int) -> GraphStore:
        """beat has one BU edge per unary, and each unary a UU edge to win."""
        beat = pred("beat", "person", "person")
        win = pred("win.1", "person")
        unaries = [pred(f"u{i}.1", "person") for i in range(out_degree)]
        bivalent = TypedSubgraph(("person", "person"), [beat, *unaries], [
            EntailmentEdge(beat, u, BU, ArgMap.from_slot(1), 0.5) for u in unaries])
        univalent = TypedSubgraph(("person",), [win, *unaries], [
            EntailmentEdge(u, win, UU, ID1, 0.25 + i / (4 * out_degree))
            for i, u in enumerate(unaries)])
        return GraphStore.from_subgraphs({bivalent.signature: bivalent},
                                         {univalent.signature: univalent})

    def test_composed_query_cost_does_not_grow_with_out_degree(self, monkeypatch):
        counts = []
        for out_degree in (4, 40, 400):
            store = self._fan_out_store(out_degree)
            calls = PredicateCalls(monkeypatch)
            # the caller's predicates are equal to the store's, not the same objects
            premise = Proposition(pred("beat", "person", "person"), (ent("a"), ent("b")))
            result = store.entailment_score(premise, pred("win.1", "person"), ("a",))
            assert len(result.path) == 2
            counts.append((calls.eq, calls.hash))
            monkeypatch.undo()
        assert counts[0] == counts[1] == counts[2]
        assert sum(counts[0]) <= 4

    def test_globalize_hashes_predicates_per_vertex_not_per_edge(self, monkeypatch):
        rng = random.Random(8)
        names = [f"p{i}" for i in range(12)]
        family, n_vertices, n_edges = {}, 0, 0
        for t in TYPES:
            sig = (t, t)
            preds = [pred(n, *sig) for n in names]
            edges = [EntailmentEdge(p, q, BB, rng.choice((ID2, SWAP)),
                                    rng.uniform(0.9, 1.0) if rng.random() < 0.3
                                    else rng.uniform(0.01, 1.0))
                     for p in preds for q in preds if p != q and rng.random() < 0.8]
            family[sig] = TypedSubgraph(sig, preds, edges)
            n_vertices, n_edges = n_vertices + len(preds), n_edges + len(edges)
        assert n_edges > 8 * n_vertices
        calls = PredicateCalls(monkeypatch)
        globalize(family, GlobalConfig())
        assert calls.hash <= n_vertices
