"""Local entailment learning within and across predicate valencies.

Two routes to the same relation live here. The exact route checks subtuple
inclusion between the argument-tuple sets of a premise and a hypothesis
predicate under an argument mapping: if every selected subtuple of the
premise's instances also occurs among the hypothesis's instances, the
premise entails the hypothesis. The distributional route relaxes that set
inclusion to Balanced Inclusion (BInc) over PMI feature vectors, the
geometric mean of Weeds Precision (directional coverage) and Lin
similarity (symmetric, damping rare predicates).

Edges are assembled into disjoint typed subgraphs: bivalent graphs keyed
by a type pair hold binary->binary (BB) and binary->unary (BU) edges;
univalent graphs keyed by one type hold unary->unary (UU) edges.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from .features import (
    PAIR,
    SLOT,
    FeatureConfig,
    PairVector,
    SlotVector,
    build_vectors,
    count,
)
from .model import Corpus, TypedPredicate

BB = "BB"
BU = "BU"
UU = "UU"
ALL_KINDS = frozenset((BB, BU, UU))


@dataclass(frozen=True, order=True)
class ArgMap:
    """Bijective assignment of selected premise slots to hypothesis slots.

    pairs lists (premise_slot, hypothesis_slot); the premise selection may
    drop slots (binary premise, unary hypothesis) but never invents them,
    so the hypothesis valency is at most the premise valency.
    """

    pairs: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        src = [p for p, _ in self.pairs]
        dst = [h for _, h in self.pairs]
        if len(set(src)) != len(src) or sorted(dst) != list(range(1, len(dst) + 1)):
            raise ValueError(f"invalid argument map {self.pairs}")

    @classmethod
    def identity(cls, valency: int) -> "ArgMap":
        canon = _IDENTITY.get(valency)
        return canon if canon is not None else cls(tuple((i, i) for i in range(1, valency + 1)))

    @classmethod
    def swap(cls) -> "ArgMap":
        return _SWAP

    @classmethod
    def from_slot(cls, slot: int) -> "ArgMap":
        """Binary premise slot -> the single unary hypothesis slot."""
        canon = _FROM_SLOT.get(slot)
        return canon if canon is not None else cls(((slot, 1),))

    @property
    def premise_slots(self) -> tuple[int, ...]:
        return tuple(p for p, _ in self.pairs)

    def format(self) -> str:
        return ",".join(f"{p}:{h}" for p, h in self.pairs)

    @classmethod
    def parse(cls, text: str) -> "ArgMap":
        canon = _BY_TEXT.get(text)
        if canon is not None:
            return canon
        pairs = []
        for part in text.split(","):
            p, h = part.split(":")
            pairs.append((int(p), int(h)))
        return cls(tuple(pairs))


# The four maps any edge can carry, built and validated once: the
# constructors above hand out these instances rather than new copies.
_IDENTITY = {1: ArgMap(((1, 1),)), 2: ArgMap(((1, 1), (2, 2)))}
_SWAP = ArgMap(((1, 2), (2, 1)))
_FROM_SLOT = {1: _IDENTITY[1], 2: ArgMap(((2, 1),))}
_BY_TEXT = {m.format(): m for m in (*_IDENTITY.values(), _SWAP, _FROM_SLOT[2])}
_VALID_MAPS = {
    (2, 2): (_IDENTITY[2], _SWAP),
    (2, 1): (_FROM_SLOT[1], _FROM_SLOT[2]),
    (1, 1): (_IDENTITY[1],),
}


def valid_maps(premise_valency: int, hypothesis_valency: int) -> tuple[ArgMap, ...]:
    """All argument maps for a (premise, hypothesis) valency combination."""
    return _VALID_MAPS.get((premise_valency, hypothesis_valency), ())


def _bound_args(amap: ArgMap, premise_args: Sequence) -> tuple:
    """The hypothesis binding that carries premise_args over under amap."""
    out = [None] * len(amap.pairs)
    for p_slot, h_slot in amap.pairs:
        out[h_slot - 1] = premise_args[p_slot - 1]
    return tuple(out)


def _consistent_maps(premise_args: Sequence, hypothesis_args: Sequence) -> list[ArgMap]:
    """Maps under which the hypothesis binding matches the premise's."""
    hypothesis_args = tuple(hypothesis_args)
    return [
        amap
        for amap in valid_maps(len(premise_args), len(hypothesis_args))
        if _bound_args(amap, premise_args) == hypothesis_args
    ]


def inclusion_oracle(
    premise_tuples: Iterable[Sequence],
    hypothesis_tuples: Iterable[Sequence],
    arg_map: ArgMap,
) -> bool:
    """Exact subtuple-inclusion test between two argument-tuple sets.

    True iff for every premise tuple, the hypothesis set contains a tuple
    that agrees with it on every mapped slot. Tuple arities must match the
    map's premise and hypothesis sides.
    """
    premise_tuples = [tuple(t) for t in premise_tuples]
    hypothesis_set = set(map(tuple, hypothesis_tuples))
    j = len(arg_map.pairs)
    for t in hypothesis_set:
        if len(t) != j:
            raise ValueError(f"hypothesis tuple arity {len(t)} != map arity {j}")
    max_slot = max(p for p, _ in arg_map.pairs)
    arities = {len(t) for t in premise_tuples}
    if len(arities) > 1 or (arities and min(arities) < max_slot):
        raise ValueError(f"premise tuple arities {arities} invalid for map {arg_map.pairs}")
    selected = set()
    for t in premise_tuples:
        image = [None] * j
        for p_slot, h_slot in arg_map.pairs:
            image[h_slot - 1] = t[p_slot - 1]
        selected.add(tuple(image))
    return selected <= hypothesis_set


def weeds_precision(u: Mapping, v: Mapping) -> float:
    """Directional coverage: the share of u's mass on features v also has.

    sum_{f in supp(u) & supp(v)} u[f] / sum_{f in supp(u)} u[f]; 0 when u
    is empty. Equals 1 exactly when supp(u) is contained in supp(v).
    """
    denom = sum(u[f] for f in sorted(u))
    if denom == 0:
        return 0.0
    num = sum(u[f] for f in sorted(u) if f in v)
    return num / denom


def lin_similarity(u: Mapping, v: Mapping) -> float:
    """Symmetric similarity: shared mass over total mass of both vectors."""
    denom = sum(u[f] for f in sorted(u)) + sum(v[f] for f in sorted(v))
    if denom == 0:
        return 0.0
    num = sum(u[f] + v[f] for f in sorted(u) if f in v)
    return num / denom


def binc(u: Mapping, v: Mapping) -> float:
    """Balanced Inclusion: geometric mean of Weeds Precision and Lin."""
    wp = weeds_precision(u, v)
    if wp == 0.0:
        return 0.0
    return math.sqrt(wp * lin_similarity(u, v))


_KIND_OF = {(2, 2): BB, (2, 1): BU, (1, 1): UU}


@dataclass(frozen=True, order=True)
class EntailmentEdge:
    """Directed, scored entailment between two typed predicates."""

    premise: TypedPredicate
    hypothesis: TypedPredicate
    kind: str
    arg_map: ArgMap
    score: float

    def __post_init__(self) -> None:
        valencies = (self.premise.valency, self.hypothesis.valency)
        if _KIND_OF.get(valencies) != self.kind:
            raise ValueError(f"kind {self.kind} inconsistent with valencies")
        if self.arg_map not in _VALID_MAPS[valencies]:
            raise ValueError(
                f"argument map {self.arg_map.format()} invalid for a {self.kind} edge"
            )
        if not 0.0 <= self.score <= 1.0:
            raise ValueError(f"score {self.score} outside [0, 1]")


class TypedSubgraph:
    """All vertices and scored edges for one type signature.

    Bivalent subgraphs (two types) hold BB and BU edges; the unary
    hypotheses of BU edges are registered as vertices so queries resolve,
    while their own outgoing edges live in their univalent graph.

    Two adjacency indexes serve path composition, both in ``edges``
    order: ``bu_out`` lists the BU edges of each (premise, argument map),
    and ``uu_in`` maps each hypothesis to its UU in-edges keyed by
    premise. An edge is identified by its premise, hypothesis and map,
    so duplicates are rejected.
    """

    def __init__(
        self,
        signature: tuple[str, ...],
        vertices: Iterable[TypedPredicate],
        edges: Iterable[EntailmentEdge],
    ):
        self.signature = tuple(signature)
        if len(self.signature) not in (1, 2):
            raise ValueError("signature must have one or two types")
        self.vertices: set[TypedPredicate] = set(vertices)
        token = {v: v.token() for v in self.vertices}
        try:
            self.edges: list[EntailmentEdge] = sorted(
                edges, key=lambda e: (token[e.premise], token[e.hypothesis], e.arg_map)
            )
        except KeyError:
            raise ValueError("edge endpoint missing from vertex set") from None
        allowed = {UU} if len(self.signature) == 1 else {BB, BU}
        self._by_pair: dict[tuple[TypedPredicate, TypedPredicate], list[EntailmentEdge]] = {}
        self.bu_out: dict[tuple[TypedPredicate, ArgMap], list[EntailmentEdge]] = {}
        self.uu_in: dict[TypedPredicate, dict[TypedPredicate, EntailmentEdge]] = {}
        for e in self.edges:
            if e.kind not in allowed:
                raise ValueError(f"{e.kind} edge not allowed in this subgraph")
            same_pair = self._by_pair.setdefault((e.premise, e.hypothesis), [])
            if any(f.arg_map == e.arg_map for f in same_pair):
                raise ValueError(
                    f"duplicate edge {e.premise.token()} -> {e.hypothesis.token()} "
                    f"under {e.arg_map.format()}"
                )
            same_pair.append(e)
            if e.kind == BU:
                self.bu_out.setdefault((e.premise, e.arg_map), []).append(e)
            elif e.kind == UU:
                self.uu_in.setdefault(e.hypothesis, {})[e.premise] = e

    @property
    def kind(self) -> str:
        return "bivalent" if len(self.signature) == 2 else "univalent"

    def __contains__(self, predicate: TypedPredicate) -> bool:
        return predicate in self.vertices

    def find_edges(
        self,
        premise: TypedPredicate,
        hypothesis: TypedPredicate,
        arg_map: ArgMap | None = None,
        kinds: frozenset[str] = ALL_KINDS,
    ) -> list[EntailmentEdge]:
        found = self._by_pair.get((premise, hypothesis), [])
        return [
            e
            for e in found
            if e.kind in kinds and (arg_map is None or e.arg_map == arg_map)
        ]

    def with_scores(self, scores: Iterable[float]) -> "TypedSubgraph":
        """Copy with one new score per edge, given in ``edges`` order."""
        new_edges = [
            EntailmentEdge(e.premise, e.hypothesis, e.kind, e.arg_map, s)
            for e, s in zip(self.edges, scores, strict=True)
        ]
        return TypedSubgraph(self.signature, self.vertices, new_edges)


def edge_key(e: EntailmentEdge) -> tuple:
    """Identity of an edge irrespective of its score."""
    return (e.premise, e.hypothesis, e.kind, e.arg_map)


def canonical_signature(slot_types: Sequence[str]) -> tuple[str, ...]:
    """Bivalent subgraphs are keyed by the sorted type pair."""
    if len(slot_types) == 1:
        return tuple(slot_types)
    return tuple(sorted(slot_types))


def swapped_pair_features(features: Mapping) -> dict:
    return {(b, a): w for (a, b), w in features.items()}


@dataclass(frozen=True)
class LocalBuildConfig:
    features: FeatureConfig = FeatureConfig()
    # edges scoring below the threshold are not stored
    edge_threshold: float = 0.01


def build_bivalent(
    signature: tuple[str, str],
    pair_vectors: Mapping[TypedPredicate, PairVector],
    slot_vectors: Mapping[tuple[TypedPredicate, int], SlotVector],
    unaries_by_type: Mapping[str, list[TypedPredicate]],
    threshold: float = 0.01,
) -> TypedSubgraph:
    """Score all BB and BU candidates for one bivalent type signature.

    BB pairs are scored under every argument map whose type constraints
    hold (identity and, when slot types allow, swap) and the best map is
    kept. BU candidates compare a binary slot vector against the vector of
    each unary of the matching type; each slot yields its own edge since
    the two claims differ.
    """
    binaries = sorted(
        (p for p in pair_vectors if canonical_signature(p.slot_types) == tuple(signature)),
        key=lambda p: p.token(),
    )
    vertices: set[TypedPredicate] = set(binaries)
    edges: list[EntailmentEdge] = []

    for p in binaries:
        u = pair_vectors[p].features
        for q in binaries:
            if p == q:
                continue
            best: tuple[float, ArgMap] | None = None
            if p.slot_types == q.slot_types:
                s = binc(u, pair_vectors[q].features)
                best = (s, ArgMap.identity(2))
            if p.slot_types == (q.slot_types[1], q.slot_types[0]):
                s = binc(u, swapped_pair_features(pair_vectors[q].features))
                if best is None or s > best[0]:
                    best = (s, ArgMap.swap())
            if best is not None and best[0] >= threshold and best[0] > 0.0:
                edges.append(EntailmentEdge(p, q, BB, best[1], min(best[0], 1.0)))

    for p in binaries:
        for slot in (1, 2):
            sv = slot_vectors.get((p, slot))
            if sv is None:
                continue
            for unary in unaries_by_type.get(sv.slot_type, ()):
                uv = slot_vectors.get((unary, 1))
                if uv is None:
                    continue
                s = binc(sv.features, uv.features)
                if s >= threshold and s > 0.0:
                    vertices.add(unary)
                    edges.append(
                        EntailmentEdge(p, unary, BU, ArgMap.from_slot(slot), min(s, 1.0))
                    )

    return TypedSubgraph(tuple(signature), vertices, edges)


def build_univalent(
    slot_type: str,
    unaries: list[TypedPredicate],
    slot_vectors: Mapping[tuple[TypedPredicate, int], SlotVector],
    threshold: float = 0.01,
) -> TypedSubgraph:
    """Score all UU candidates among the unaries of one type."""
    unaries = sorted(set(unaries), key=lambda p: p.token())
    edges = []
    for p in unaries:
        pv = slot_vectors.get((p, 1))
        if pv is None:
            continue
        for q in unaries:
            if p == q:
                continue
            qv = slot_vectors.get((q, 1))
            if qv is None:
                continue
            s = binc(pv.features, qv.features)
            if s >= threshold and s > 0.0:
                edges.append(
                    EntailmentEdge(p, q, UU, ArgMap.identity(1), min(s, 1.0))
                )
    return TypedSubgraph((slot_type,), set(unaries), edges)


@dataclass
class LocalGraphs:
    bivalent: dict[tuple[str, str], TypedSubgraph]
    univalent: dict[tuple[str], TypedSubgraph]
    # the PMI vectors the subgraphs were scored from
    pair_vectors: dict[TypedPredicate, PairVector]
    slot_vectors: dict[tuple[TypedPredicate, int], SlotVector]

    def all_subgraphs(self) -> dict[tuple[str, ...], TypedSubgraph]:
        out: dict[tuple[str, ...], TypedSubgraph] = {}
        out.update(self.bivalent)
        out.update(self.univalent)
        return out


def build_local_graphs(corpus: Corpus, config: LocalBuildConfig = LocalBuildConfig()) -> LocalGraphs:
    """Full local stage: counts, vectors, then one subgraph per signature."""
    pair_vectors = build_vectors(count(corpus, PAIR), config.features)
    slot_vectors = build_vectors(count(corpus, SLOT), config.features)

    unaries_by_type: dict[str, list[TypedPredicate]] = {}
    for (pred, slot) in slot_vectors:
        if pred.valency == 1:
            unaries_by_type.setdefault(pred.slot_types[0], []).append(pred)
    for preds in unaries_by_type.values():
        preds.sort(key=lambda p: p.token())

    signatures = sorted(
        {canonical_signature(p.slot_types) for p in pair_vectors}
    )
    bivalent = {
        sig: build_bivalent(sig, pair_vectors, slot_vectors, unaries_by_type,
                            config.edge_threshold)
        for sig in signatures
    }
    univalent = {
        (t,): build_univalent(t, preds, slot_vectors, config.edge_threshold)
        for t, preds in sorted(unaries_by_type.items())
    }
    return LocalGraphs(bivalent, univalent, pair_vectors, slot_vectors)
