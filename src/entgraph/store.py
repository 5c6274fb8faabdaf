"""Query-time graph access: typed routing, path composition, back-off.

A store maps type signatures to subgraphs (read from a graph directory,
or wrapped from memory). Queries route a premise proposition to its typed
subgraph and check direct edges under every argument map that is
consistent with the bound arguments; unary hypotheses may additionally be
reached through one binary->unary edge followed by one hop inside the
matching univalent graph, scored as the minimum of the two edges. When the
premise predicate has no vertex in its typed subgraph, callers fall back
to an untyped query over all subgraphs, averaging the scores found.

Composition follows adjacency rather than scanning: each subgraph indexes
its BU edges by premise and argument map (``bu_out``) and its UU edges by
hypothesis, then premise (``uu_in``). A composed query walks the
premise's BU edges under the slot's map and joins each, with one dict
lookup, to a UU edge from that edge's unary into the hypothesis, so its
cost grows with the premise's out-degree, not with the subgraph.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence

from . import graphio
from .localgraph import (
    ALL_KINDS,
    BU,
    UU,
    ArgMap,
    EntailmentEdge,
    TypedSubgraph,
    _consistent_maps,
    canonical_signature,
)
from .model import Proposition, TypedPredicate


@dataclass(frozen=True)
class QueryResult:
    score: float
    path: tuple[EntailmentEdge, ...] = ()
    backed_off: bool = False


_MISS = QueryResult(0.0)


class GraphStore:
    """Read-only collection of typed subgraphs with an untyped index."""

    def __init__(
        self,
        subgraphs: Mapping[tuple[str, ...], TypedSubgraph],
        enable_composition: bool = True,
    ):
        self.bivalent: dict[tuple[str, str], TypedSubgraph] = {}
        self.univalent: dict[tuple[str], TypedSubgraph] = {}
        self.untyped_index: dict[tuple[str, int], list] = {}
        self.enable_composition = enable_composition
        self._by_signature = {tuple(sig): sub for sig, sub in subgraphs.items()}
        for sig, sub in self._by_signature.items():
            (self.bivalent if len(sig) == 2 else self.univalent)[sig] = sub
            for vertex in sorted(sub.vertices, key=lambda p: p.token()):
                self.untyped_index.setdefault(vertex.untyped, []).append((sig, vertex))

    @classmethod
    def open(cls, directory: str | Path, enable_composition: bool = True) -> "GraphStore":
        """Read every subgraph file of a graph directory."""
        return cls(graphio.read_graph_dir(directory), enable_composition)

    @classmethod
    def from_subgraphs(
        cls,
        bivalent: Mapping,
        univalent: Mapping,
        enable_composition: bool = True,
    ) -> "GraphStore":
        return cls({**bivalent, **univalent}, enable_composition)

    # -- typed lookups ----------------------------------------------------

    def subgraph_for(self, predicate: TypedPredicate) -> TypedSubgraph | None:
        return self._by_signature.get(canonical_signature(predicate.slot_types))

    def has_typed_vertex(self, predicate: TypedPredicate) -> bool:
        sub = self.subgraph_for(predicate)
        return sub is not None and predicate in sub

    def entailment_score(
        self,
        premise: Proposition,
        hypothesis: TypedPredicate,
        hypothesis_args: Sequence[str],
        kinds: frozenset[str] = ALL_KINDS,
    ) -> QueryResult:
        """Max-scoring typed route from an evidence proposition to a query.

        An identical predicate and binding scores 1.0 without any lookup
        (self edges are implicit). Otherwise the best direct edge wins,
        except where a composed two-hop path beats it.
        """
        if premise.predicate.valency < hypothesis.valency:
            return _MISS
        premise_keys = premise.arg_keys
        cand_maps = _consistent_maps(premise_keys, hypothesis_args)
        if not cand_maps:
            return _MISS
        if (
            premise.predicate.untyped == hypothesis.untyped
            and tuple(premise_keys) == tuple(hypothesis_args)
        ):
            return QueryResult(1.0)

        best = _MISS
        sub = self.subgraph_for(premise.predicate)
        if sub is not None and premise.predicate in sub:
            for amap in cand_maps:
                for e in sub.find_edges(premise.predicate, hypothesis, amap, kinds):
                    if e.score > best.score:
                        best = QueryResult(e.score, (e,))
            if (
                self.enable_composition
                and hypothesis.valency == 1
                and premise.predicate.valency == 2
                and BU in kinds
                and UU in kinds
            ):
                composed = self._composed(sub, premise, hypothesis, hypothesis_args)
                if composed.score > best.score:
                    best = composed
        return best

    def _composed(
        self,
        sub: TypedSubgraph,
        premise: Proposition,
        hypothesis: TypedPredicate,
        hypothesis_args: Sequence[str],
    ) -> QueryResult:
        """One BU edge, then one hop inside the univalent graph.

        The first strictly best path wins, slot 1 before slot 2 and BU
        edges in subgraph order.
        """
        best = _MISS
        premise_keys = premise.arg_keys
        for slot in (1, 2):
            if premise_keys[slot - 1] != hypothesis_args[0]:
                continue
            slot_type = premise.predicate.slot_types[slot - 1]
            uni = self.univalent.get((slot_type,))
            if uni is None:
                continue
            into_hypothesis = uni.uu_in.get(hypothesis)
            if not into_hypothesis:
                continue
            for e in sub.bu_out.get((premise.predicate, ArgMap.from_slot(slot)), ()):
                e2 = into_hypothesis.get(e.hypothesis)
                if e2 is not None and e.hypothesis != hypothesis:
                    score = min(e.score, e2.score)
                    if score > best.score:
                        best = QueryResult(score, (e, e2))
        return best

    # -- untyped back-off --------------------------------------------------

    def backoff_score(
        self,
        premise_name: str,
        premise_valency: int,
        premise_args: Sequence[str],
        hypothesis_name: str,
        hypothesis_valency: int,
        hypothesis_args: Sequence[str],
        kinds: frozenset[str] = ALL_KINDS,
    ) -> QueryResult:
        """Untyped query over all subgraphs holding both predicate names.

        Within each such subgraph the best binding-consistent edge is
        taken; the result is the arithmetic mean over subgraphs where an
        edge was found, or 0 when there is none.
        """
        cand_maps = _consistent_maps(premise_args, hypothesis_args)
        if not cand_maps:
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
            sub_best: EntailmentEdge | None = None
            for prem_vertex in by_sig[sig]:
                for hyp_vertex in hyp_sigs[sig]:
                    for amap in cand_maps:
                        for e in sub.find_edges(prem_vertex, hyp_vertex, amap, kinds):
                            if sub_best is None or e.score > sub_best.score:
                                sub_best = e
            if sub_best is not None:
                found.append(sub_best.score)
                if not best_path or sub_best.score > best_path[0].score:
                    best_path = (sub_best,)
        if not found:
            return QueryResult(0.0, backed_off=True)
        return QueryResult(sum(found) / len(found), best_path, backed_off=True)
