"""Query-time graph access: typed routing, path composition, back-off.

A store maps type signatures to subgraphs (read from a graph directory,
or wrapped from memory). Queries route a premise proposition to its typed
subgraph and check direct edges under every edge code consistent with the
bound arguments (``localgraph.consistent_codes``, the one binding rule);
unary hypotheses may additionally be reached through one binary->unary
edge followed by one hop inside the matching univalent graph, scored as
the minimum of the two edges. ``score`` is the one route from an evidence
proposition to a question and the one place that reads the components
asked for: the two valencies fix the one component that may answer, and
composition runs only when UU is asked for too. When the typed route
finds nothing and the premise predicate has no vertex in its typed
subgraph, ``score`` falls back to an untyped query over all subgraphs,
averaging the scores found.

Queries work on vertex ids and edge codes. A query maps the caller's
premise and hypothesis predicates to ids once, by token, and its binding
to the consistent codes once; every lookup after that is keyed by
integers, and an ``EntailmentEdge`` is built only for the edges of the
path it returns. Direct lookups bisect the subgraph's sorted edge
columns. Composition follows adjacency rather than scanning: when the
store opens it builds its one index, which maps each univalent graph's
hypothesis ids to the position of the UU edge from each premise id (the
transpose a bisect cannot give), and maps each unary vertex of a bivalent
graph to its id in the univalent graph of its type. A composed query
walks the premise's out-edges, keeps the BU edges under each consistent
BU code, slot 1 first, and joins each, with one dict lookup, to a UU edge
from that edge's unary into the hypothesis, so its cost grows with the
premise's out-degree, not with the subgraph.
"""

from __future__ import annotations

from array import array
from collections import namedtuple
from pathlib import Path
from typing import Mapping, Sequence

from . import graphio
from .localgraph import (
    ALL_KINDS,
    EDGE_SLOTS,
    UU,
    TypedSubgraph,
    _left_sum,
    canonical_signature,
    consistent_codes,
    edge_kind,
)
from .model import Proposition, TypedPredicate


class QueryResult(namedtuple("QueryResult", "score path backed_off", defaults=((), False))):
    """A query's score, the edges of the route that gave it, and whether
    the untyped back-off answered."""

    __slots__ = ()


_MISS = QueryResult(0.0)


class GraphStore:
    """Read-only collection of typed subgraphs with an untyped index."""

    def __init__(self, subgraphs: Mapping[tuple[str, ...], TypedSubgraph]):
        self.bivalent: dict[tuple[str, str], TypedSubgraph] = {}
        self.univalent: dict[tuple[str], TypedSubgraph] = {}
        self.untyped_index: dict[tuple[str, int], list] = {}
        self._by_signature = {tuple(sig): sub for sig, sub in subgraphs.items()}
        for sig, sub in self._by_signature.items():
            (self.bivalent if len(sig) == 2 else self.univalent)[sig] = sub
            for vertex in sub.vertices:
                self.untyped_index.setdefault(vertex.untyped, []).append((sig, vertex))
        # per bivalent subgraph, each vertex id's id in the univalent graph
        # of its type (-1 for binaries and unaries that graph lacks)
        self._univalent_ids: dict[tuple[str, str], array] = {}
        for sig, sub in self.bivalent.items():
            ids = array("i", [-1]) * len(sub.vertices)
            for i, (vertex, token) in enumerate(zip(sub.vertices, sub.token_ids)):
                uni = self.univalent.get(vertex.slot_types) if vertex.valency == 1 else None
                if uni is not None:
                    ids[i] = uni.token_ids.get(token, -1)
            self._univalent_ids[sig] = ids
        # per univalent subgraph, each hypothesis id's UU in-edges: the
        # position of the edge from each premise id
        self._uu_in: dict[tuple[str], dict[int, dict[int, int]]] = {}
        for sig, sub in self.univalent.items():
            into = self._uu_in[sig] = {}
            for i, (p, h) in enumerate(zip(sub.premise_ids, sub.hypothesis_ids)):
                into.setdefault(h, {})[p] = i

    @classmethod
    def open(cls, directory: str | Path) -> "GraphStore":
        """Read every subgraph file of a graph directory."""
        return cls(graphio.read_graph_dir(directory))

    @classmethod
    def from_subgraphs(cls, bivalent: Mapping, univalent: Mapping) -> "GraphStore":
        return cls({**bivalent, **univalent})

    # -- typed lookups ----------------------------------------------------

    def subgraph_for(self, predicate: TypedPredicate) -> TypedSubgraph | None:
        return self._by_signature.get(canonical_signature(predicate.slot_types))

    def has_typed_vertex(self, predicate: TypedPredicate) -> bool:
        sub = self.subgraph_for(predicate)
        return sub is not None and predicate in sub

    def score(
        self,
        premise: Proposition,
        hypothesis: TypedPredicate,
        hypothesis_args: Sequence[str],
        kinds: frozenset[str] = ALL_KINDS,
    ) -> QueryResult:
        """The answer one evidence proposition gives a query.

        Only the component that links the two valencies may answer (BB a
        binary from a binary, BU a unary from a binary, UU a unary from a
        unary), and it must be in ``kinds``; every edge either route finds
        between such vertices is of that component. A BU answer may also
        compose with a UU edge when UU is asked for. The typed route answers
        when it finds an entailment or the premise has a typed vertex;
        otherwise the untyped back-off does.
        """
        if edge_kind(premise.predicate.valency, hypothesis.valency) not in kinds:
            return _MISS
        typed = self.entailment_score(premise, hypothesis, hypothesis_args, UU in kinds)
        if typed.score > 0 or self.has_typed_vertex(premise.predicate):
            return typed
        return self.backoff_score(
            premise.predicate.name, premise.predicate.valency, premise.arg_keys,
            hypothesis.name, hypothesis.valency, hypothesis_args,
        )

    def entailment_score(
        self,
        premise: Proposition,
        hypothesis: TypedPredicate,
        hypothesis_args: Sequence[str],
        compose: bool = True,
    ) -> QueryResult:
        """Max-scoring typed route from an evidence proposition to a query.

        An identical predicate and binding scores 1.0 without any lookup
        (self edges are implicit). Otherwise the best direct edge wins,
        except where a composed two-hop path beats it; ``compose`` allows
        that path from a binary premise to a unary hypothesis.
        """
        premise_keys = premise.arg_keys
        codes = consistent_codes(premise_keys, hypothesis_args)
        if not codes:
            return _MISS
        if (
            premise.predicate.untyped == hypothesis.untyped
            and tuple(premise_keys) == tuple(hypothesis_args)
        ):
            return QueryResult(1.0)

        sub = self.subgraph_for(premise.predicate)
        p = None if sub is None else sub.vertex_id(premise.predicate)
        if p is None:
            return _MISS
        best = _MISS
        h = sub.vertex_id(hypothesis)
        if h is not None:
            i = _best_edge(sub, p, h, codes)
            if i is not None and sub.scores[i] > 0.0:
                best = QueryResult(sub.scores[i], (sub.edge(i),))
        if compose and hypothesis.valency == 1 and premise.predicate.valency == 2:
            composed = self._composed(sub, p, premise.predicate, hypothesis, codes)
            if composed.score > best.score:
                best = composed
        return best

    def _composed(
        self,
        sub: TypedSubgraph,
        p: int,
        premise: TypedPredicate,
        hypothesis: TypedPredicate,
        codes: Sequence[int],
    ) -> QueryResult:
        """One BU edge, then one hop inside the univalent graph.

        ``p`` is the premise's id in ``sub``, and ``codes`` are the BU codes
        consistent with the query's binding, ascending. The first strictly
        best path wins, slot 1 before slot 2 and BU edges in subgraph order.
        """
        best, best_at = 0.0, None
        out = sub.out_positions(p)
        to_univalent = self._univalent_ids[sub.signature]
        for code in codes:
            (slot,) = EDGE_SLOTS[code]
            uni_sig = (premise.slot_types[slot],)
            uni = self.univalent.get(uni_sig)
            if uni is None:
                continue
            h = uni.vertex_id(hypothesis)
            into_hypothesis = self._uu_in[uni_sig].get(h)
            if not into_hypothesis:
                continue
            for i in out:
                if sub.codes[i] != code:
                    continue
                u = to_univalent[sub.hypothesis_ids[i]]
                j = into_hypothesis.get(u)
                if j is not None and u != h:
                    score = min(sub.scores[i], uni.scores[j])
                    if score > best:
                        best, best_at = score, (uni, i, j)
        if best_at is None:
            return _MISS
        uni, i, j = best_at
        return QueryResult(best, (sub.edge(i), uni.edge(j)))

    # -- untyped back-off --------------------------------------------------

    def backoff_score(
        self,
        premise_name: str,
        premise_valency: int,
        premise_args: Sequence[str],
        hypothesis_name: str,
        hypothesis_valency: int,
        hypothesis_args: Sequence[str],
    ) -> QueryResult:
        """Untyped query over all subgraphs holding both predicate names.

        Within each such subgraph the best binding-consistent edge is
        taken; the result is the arithmetic mean over subgraphs where an
        edge was found, summed left to right in signature order, or 0 when
        there is none.
        """
        codes = consistent_codes(premise_args, hypothesis_args)
        if not codes:
            return QueryResult(0.0, backed_off=True)
        prem_vertices = self.untyped_index.get((premise_name, premise_valency), [])
        hyp_sigs: dict = {}
        for sig, vertex in self.untyped_index.get(
            (hypothesis_name, hypothesis_valency), []
        ):
            hyp_sigs.setdefault(sig, []).append(vertex)

        found: list[float] = []
        best_path: tuple = ()
        by_sig: dict = {}
        for sig, vertex in prem_vertices:
            if sig in hyp_sigs:
                by_sig.setdefault(sig, []).append(vertex)
        for sig in sorted(by_sig):
            sub = self._by_signature[sig]
            sub_best = None
            for prem_vertex in by_sig[sig]:
                p = sub.vertex_id(prem_vertex)
                for hyp_vertex in hyp_sigs[sig]:
                    i = _best_edge(sub, p, sub.vertex_id(hyp_vertex), codes)
                    if i is not None and (
                        sub_best is None or sub.scores[i] > sub.scores[sub_best]
                    ):
                        sub_best = i
            if sub_best is not None:
                edge = sub.edge(sub_best)
                found.append(edge.score)
                if not best_path or edge.score > best_path[0].score:
                    best_path = (edge,)
        if not found:
            return QueryResult(0.0, backed_off=True)
        return QueryResult(_left_sum(found) / len(found), best_path, backed_off=True)


def _best_edge(sub: TypedSubgraph, p: int, h: int, codes: Sequence[int]) -> int | None:
    """Position of the first best-scoring edge from p to h under one of
    the codes; edges of a pair come in code order."""
    best = None
    for i in sub.pair_positions(p, h):
        if sub.codes[i] in codes and (
            best is None or sub.scores[i] > sub.scores[best]
        ):
            best = i
    return best
