"""Local entailment learning within and across predicate valencies.

A premise entails a hypothesis under an argument mapping when every
selected subtuple of the premise's instances also occurs among the
hypothesis's instances. Scoring relaxes that set inclusion to Balanced
Inclusion (BInc) over PMI feature vectors, the geometric mean of Weeds
Precision (directional coverage) and Lin similarity (symmetric, damping
rare predicates). A pair that shares no feature has Weeds Precision 0,
so BInc 0, and is never kept; so candidates are found by one
inverted-index join (Bayardo, Ma & Srikant 2007), ``BIncJoin``, for
every edge kind: a set of hypotheses is indexed by feature once, and
each premise walks its own features through that index, visiting only
the hypotheses it shares one with. A signature's binaries are indexed
for its BB edges; each type's unaries are indexed once, for the BU
edges of every signature holding the type and for the type's UU edges.
Sums add left to right in sorted-feature order, so a score is the same
bits on every supported Python.

Edges are assembled into disjoint typed subgraphs: bivalent graphs keyed
by a type pair hold binary->binary (BB) and binary->unary (BU) edges;
univalent graphs keyed by one type hold unary->unary (UU) edges.

A subgraph is stored by integer ids: its vertices are numbered in token
order, and its edges are parallel stdlib arrays of premise id, hypothesis
id, a kind/map code and the score, sorted by (premise id, hypothesis
id, code), each edge once. That order is a contract, not a repair: the
builders emit the columns in it, the graph file reader refuses a file out
of it, and a subgraph checks it but never sorts columns it is given.
The graph file writer, the globalization solve and the query store work
on the columns, so no stage builds or hashes an object per edge. A
subgraph keeps no index: the edges of a premise, or of a (premise,
hypothesis) pair, are found by bisecting the sorted columns.
``EntailmentEdge`` objects are built from the columns each time an edge
is read through ``edges``, ``edge`` or ``find_edges``, and kept by no one.
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_left, bisect_right
from collections import namedtuple
from collections.abc import Sequence
from typing import Iterable, Mapping

from .features import FeatureConfig, build_vectors, count
from .model import ALL_KINDS, BB, BU, UU, Corpus, TypedPredicate


class ArgMap(namedtuple("ArgMap", "pairs")):
    """Bijective assignment of selected premise slots to hypothesis slots.

    pairs lists (premise_slot, hypothesis_slot); the premise selection may
    drop slots (binary premise, unary hypothesis) but never invents them,
    so the hypothesis valency is at most the premise valency. Maps compare,
    order and hash as the tuple of their pairs.
    """

    __slots__ = ()

    def __new__(cls, pairs: tuple[tuple[int, int], ...]):
        amap = tuple.__new__(cls, (pairs,))
        amap.__post_init__()
        return amap

    def __post_init__(self) -> None:
        """Check a new map; a method of its own, so that a tracer can count
        the maps built."""
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

    def format(self) -> str:
        return ",".join(f"{p}:{h}" for p, h in self.pairs)


# The four maps any edge can carry, built and validated once: the
# constructors above hand out these instances rather than new copies.
_IDENTITY = {1: ArgMap(((1, 1),)), 2: ArgMap(((1, 1), (2, 2)))}
_SWAP = ArgMap(((1, 2), (2, 1)))
_FROM_SLOT = {1: _IDENTITY[1], 2: ArgMap(((2, 1),))}

# The edge rules, one small code per (kind, argument map) an edge can
# carry, and the (premise, hypothesis) valencies of that code's edges.
# Within a kind the codes follow ArgMap order, and the valencies fix the
# kind of a (premise, hypothesis) pair, so ordering edges by (premise id,
# hypothesis id, code) orders them by (premise, hypothesis, map).
EDGE_CODES: tuple[tuple[str, ArgMap], ...] = (
    (BB, _IDENTITY[2]), (BB, _SWAP), (BU, _FROM_SLOT[1]), (BU, _FROM_SLOT[2]), (UU, _IDENTITY[1]),
)
EDGE_VALENCIES: tuple[tuple[int, int], ...] = ((2, 2), (2, 2), (2, 1), (2, 1), (1, 1))
EDGE_CODE = {kind_map: code for code, kind_map in enumerate(EDGE_CODES)}
# the same table by valencies: the one kind that links them, and its maps
_BY_VALENCIES: dict[tuple[int, int], tuple[str, tuple[ArgMap, ...]]] = {
    valencies: (kind, tuple(m for (_, m), v in zip(EDGE_CODES, EDGE_VALENCIES) if v == valencies))
    for (kind, _), valencies in zip(EDGE_CODES, EDGE_VALENCIES)
}
_NO_RULE = (None, ())


def edge_kind(premise_valency: int, hypothesis_valency: int) -> str | None:
    """The kind of the edges between two valencies, or None."""
    return _BY_VALENCIES.get((premise_valency, hypothesis_valency), _NO_RULE)[0]


def valid_maps(premise_valency: int, hypothesis_valency: int) -> tuple[ArgMap, ...]:
    """All argument maps for a (premise, hypothesis) valency combination."""
    return _BY_VALENCIES.get((premise_valency, hypothesis_valency), _NO_RULE)[1]


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


def _left_sum(values: Iterable[float]) -> float:
    """The sum of floats added strictly left to right.

    Python 3.12 made ``sum`` of floats compensated, which can change the
    last bits; this loop is what ``sum`` computed before, so scores, and
    the graph files holding them, are the same bits on every interpreter.
    """
    total = 0.0
    for value in values:
        total += value
    return total


class EntailmentEdge(namedtuple("EntailmentEdge", "premise hypothesis kind arg_map score")):
    """Directed, scored entailment between two typed predicates; edges
    compare, order and hash as the tuple of their fields."""

    __slots__ = ()

    def __new__(
        cls,
        premise: TypedPredicate,
        hypothesis: TypedPredicate,
        kind: str,
        arg_map: ArgMap,
        score: float,
    ):
        kind_of, maps = _BY_VALENCIES.get((premise.valency, hypothesis.valency), _NO_RULE)
        if kind_of != kind:
            raise ValueError(f"kind {kind} inconsistent with valencies")
        if arg_map not in maps:
            raise ValueError(f"argument map {arg_map.format()} invalid for a {kind} edge")
        if not 0.0 <= score <= 1.0:
            raise ValueError(f"score {score} outside [0, 1]")
        return tuple.__new__(cls, (premise, hypothesis, kind, arg_map, score))


class TypedSubgraph:
    """All vertices and scored edges for one type signature.

    Bivalent subgraphs (two types) hold BB and BU edges; the unary
    hypotheses of BU edges are registered as vertices so queries resolve,
    while their own outgoing edges live in their univalent graph.

    Storage is columnar. ``vertices`` is a tuple sorted by token, which is
    the file order, and a vertex's position in it is its id; ``token_ids``
    maps each token to its id. Edges are four parallel columns, sorted by
    (premise id, hypothesis id, code): ``premise_ids`` and
    ``hypothesis_ids`` (``array('i')``), ``codes`` (``array('b')``, an
    index into ``EDGE_CODES``) and ``scores`` (``array('d')``). An edge is
    identified by its premise, hypothesis and map, so duplicates are
    rejected. ``edge(i)`` builds the ``EntailmentEdge`` of position i from
    the columns each time it is called, and ``edges`` builds the list of
    them all. The constructor takes vertices and edge objects in any
    order and sorts them; ``from_columns`` takes columns already in this
    order and refuses any other.

    No index is kept beside the columns: because of their sort order,
    ``out_positions`` finds a premise's edges by bisecting
    ``premise_ids``, and ``pair_positions`` finds a pair's edges by
    bisecting ``hypothesis_ids`` within them.
    """

    def __init__(
        self,
        signature: tuple[str, ...],
        vertices: Iterable[TypedPredicate],
        edges: Iterable[EntailmentEdge],
    ):
        vertices = sorted(set(vertices), key=TypedPredicate.token)
        ids = {v: i for i, v in enumerate(vertices)}
        try:
            rows = sorted((ids[e.premise], ids[e.hypothesis], EDGE_CODE[e.kind, e.arg_map], e.score)
                          for e in edges)
        except KeyError:
            raise ValueError("edge endpoint missing from vertex set") from None
        p, h, c, s = zip(*rows) if rows else ((),) * 4
        self._setup(signature, vertices, array("i", p), array("i", h), array("b", c), array("d", s))

    @classmethod
    def from_columns(
        cls,
        signature: tuple[str, ...],
        vertices: Sequence[TypedPredicate],
        premise_ids: array,
        hypothesis_ids: array,
        codes: array,
        scores: array,
    ) -> "TypedSubgraph":
        """A subgraph from edge columns whose ids are positions in ``vertices``.

        The columns are taken as they come, never sorted: vertex tokens
        must strictly increase, and so must the edges' (premise id,
        hypothesis id, code), so a vertex or an edge comes once. Anything
        else raises ValueError naming the tokens out of place, as do
        columns of unequal length, an id that is not a vertex's position
        and a code that is not an ``EDGE_CODES`` index.
        """
        sub = cls.__new__(cls)
        sub._setup(signature, vertices, premise_ids, hypothesis_ids, codes, scores)
        return sub

    def _setup(self, signature, vertices, premise_ids, hypothesis_ids, codes, scores) -> None:
        self.signature = tuple(signature)
        if len(self.signature) not in (1, 2):
            raise ValueError("signature must have one or two types")
        self.vertices: tuple[TypedPredicate, ...] = tuple(vertices)
        tokens = [v.token() for v in self.vertices]
        for a, b in zip(tokens, tokens[1:]):
            if a >= b:
                raise ValueError(f"two vertices share the token {a!r}" if a == b
                                 else f"vertex {b!r} after {a!r}, out of token order")
        self.token_ids: dict[str, int] = {t: i for i, t in enumerate(tokens)}

        n_codes, n_vertices = len(EDGE_CODES), len(tokens)
        lengths = (len(premise_ids), len(hypothesis_ids), len(codes), len(scores))
        if len(set(lengths)) > 1:
            raise ValueError("edge columns of unequal length: {} premise ids, {} hypothesis "
                             "ids, {} codes, {} scores".format(*lengths))
        for name, column, stop in (("premise id", premise_ids, n_vertices),
                                   ("hypothesis id", hypothesis_ids, n_vertices),
                                   ("edge code", codes, n_codes)):
            if column:
                low, high = min(column), max(column)
                if low < 0 or high >= stop:
                    raise ValueError(f"{name} {low if low < 0 else high} outside [0, {stop})")

        # an edge's premise valency is the signature's length: a bivalent
        # subgraph holds BB and BU edges, a univalent one UU edges
        n_types = len(self.signature)
        valency = [v.valency for v in self.vertices]
        last = -1
        for p, h, c, s in zip(premise_ids, hypothesis_ids, codes, scores):
            valencies = EDGE_VALENCIES[c]
            if valencies[0] != n_types:
                raise ValueError(f"{EDGE_CODES[c][0]} edge not allowed in this subgraph")
            if valencies != (valency[p], valency[h]):
                raise ValueError(f"kind {EDGE_CODES[c][0]} inconsistent with valencies")
            if not 0.0 <= s <= 1.0:
                raise ValueError(f"score {s} outside [0, 1]")
            key = (p * n_vertices + h) * n_codes + c
            if key <= last:
                raise ValueError(f"{'duplicate edge' if key == last else 'edge out of order:'} "
                                 f"{tokens[p]} -> {tokens[h]} under {EDGE_CODES[c][1].format()}")
            last = key
        self.premise_ids: array = premise_ids
        self.hypothesis_ids: array = hypothesis_ids
        self.codes: array = codes
        self.scores: array = scores

    @property
    def kind(self) -> str:
        return "bivalent" if len(self.signature) == 2 else "univalent"

    def vertex_id(self, predicate: TypedPredicate) -> int | None:
        return self.token_ids.get(predicate.token())

    def __contains__(self, predicate: TypedPredicate) -> bool:
        return predicate.token() in self.token_ids

    @property
    def edges(self) -> list[EntailmentEdge]:
        """Every edge, in column order."""
        return [self.edge(i) for i in range(len(self.scores))]

    def edge(self, i: int) -> EntailmentEdge:
        """The edge at position i, built from the columns; ``_setup``
        checked them, so the edge's own checks are not run again."""
        kind, amap = EDGE_CODES[self.codes[i]]
        return tuple.__new__(EntailmentEdge, (
            self.vertices[self.premise_ids[i]], self.vertices[self.hypothesis_ids[i]],
            kind, amap, self.scores[i],
        ))

    def pair_positions(self, premise_id: int, hypothesis_id: int) -> range:
        """Positions of the edges from one vertex id to another."""
        out = self.out_positions(premise_id)
        lo = bisect_left(self.hypothesis_ids, hypothesis_id, out.start, out.stop)
        return range(lo, bisect_right(self.hypothesis_ids, hypothesis_id, lo, out.stop))

    def out_positions(self, premise_id: int) -> range:
        """Positions of the edges of one premise id."""
        lo = bisect_left(self.premise_ids, premise_id)
        return range(lo, bisect_right(self.premise_ids, premise_id, lo))

    def find_edges(
        self,
        premise: TypedPredicate,
        hypothesis: TypedPredicate,
        arg_map: ArgMap | None = None,
        kinds: frozenset[str] = ALL_KINDS,
    ) -> list[EntailmentEdge]:
        p, h = self.vertex_id(premise), self.vertex_id(hypothesis)
        if p is None or h is None:
            return []
        found = []
        for i in self.pair_positions(p, h):
            kind, amap = EDGE_CODES[self.codes[i]]
            if kind in kinds and (arg_map is None or amap == arg_map):
                found.append(self.edge(i))
        return found

    def with_scores(self, scores: Iterable[float]) -> "TypedSubgraph":
        """Copy with one new score per edge, given in ``edges`` order.

        Only the score column is new: the vertices and the other columns
        are shared with this subgraph.
        """
        column = array("d", scores)
        if len(column) != len(self.scores):
            raise ValueError(f"{len(column)} scores for {len(self.scores)} edges")
        for s in column:
            if not 0.0 <= s <= 1.0:
                raise ValueError(f"score {s} outside [0, 1]")
        new = object.__new__(type(self))
        new.__dict__.update(self.__dict__)
        new.scores = column
        return new


def _columns() -> tuple[array, array, array, array]:
    """Empty premise id, hypothesis id, code and score columns."""
    return array("i"), array("i"), array("b"), array("d")


def canonical_signature(slot_types: Sequence[str]) -> tuple[str, ...]:
    """Bivalent subgraphs are keyed by the sorted type pair."""
    if len(slot_types) == 1:
        return tuple(slot_types)
    return tuple(sorted(slot_types))


class LocalBuildConfig(
    namedtuple("LocalBuildConfig", "features edge_threshold", defaults=(FeatureConfig(), 0.01))
):
    """Vector options, and the score below which an edge is not stored."""

    __slots__ = ()


def _vector(items: Iterable[tuple]) -> tuple[list, float]:
    """A vector's (feature, weight) items in feature order, and its mass:
    the sum of its weights, added left to right in that order."""
    items = sorted(items)
    return items, _left_sum(w for _, w in items)


class BIncJoin:
    """One side of the BInc join: a set of hypothesis vectors, by id.

    It holds each hypothesis's mass and the postings (feature -> the
    (id, weight) of each hypothesis holding it) of their vectors, and
    ``scores`` scores one premise vector against all of them at once.
    BB identity, BB swap, BU and UU edges all score through it.
    """

    __slots__ = ("masses", "postings")

    def __init__(self, vectors: Iterable[tuple[int, tuple[list, float]]]):
        """From each hypothesis's id and its ``_vector``."""
        masses: dict[int, float] = {}
        postings: dict = {}
        for h, (items, mass) in vectors:
            masses[h] = mass
            for f, w in items:
                postings.setdefault(f, []).append((h, w))
        self.masses, self.postings = masses, postings

    def scores(self, premise: tuple[list, float]) -> dict[int, float]:
        """BInc of a premise with each hypothesis that shares a feature with it.

        ``premise`` is a ``_vector``. Walking its features in order adds,
        per hypothesis, the Weeds precision numerator (u[f]) and the Lin
        numerator (u[f] + v[f]) left to right over the shared features,
        the order of the pairwise definitions:

            WP = sum_{f shared} u[f] / |u|
            Lin = sum_{f shared} (u[f] + v[f]) / (|u| + |v|)
            BInc = sqrt(WP * Lin), and 0 when WP is 0

        A hypothesis that shares no feature has WP 0, so BInc 0, and is
        left out; a premise that is its own hypothesis is not.
        """
        items, mass = premise
        if mass == 0:
            return {}
        postings, masses = self.postings, self.masses
        wp: dict[int, float] = {}
        lin: dict[int, float] = {}
        for f, w in items:
            for h, x in postings.get(f, ()):
                wp[h] = wp.get(h, 0.0) + w
                lin[h] = lin.get(h, 0.0) + (w + x)
        scores = {}
        for h, num in wp.items():
            precision = num / mass
            if precision != 0.0:
                denom = mass + masses[h]
                scores[h] = math.sqrt(precision * (lin[h] / denom if denom != 0 else 0.0))
        return scores


class UnarySide(namedtuple("UnarySide", "predicates vectors join")):
    """The unaries of one type that have a vector, in token order; their
    ``_vector``s, by position; and a ``BIncJoin`` over those vectors, with
    a unary's position as its id. Built once per type, it is the
    hypothesis side of the BU edges of every signature holding the type
    and both sides of the type's UU edges."""

    __slots__ = ()


def build_bivalent(
    signature: tuple[str, str],
    binaries: list[TypedPredicate],
    pair_vectors: Mapping[TypedPredicate, Mapping],
    slot_vectors: Mapping[tuple[TypedPredicate, int], Mapping],
    unary_sides: Mapping[str, UnarySide],
    threshold: float = 0.01,
) -> TypedSubgraph:
    """Score the BB and BU candidates of one bivalent type signature.

    ``binaries`` are the signature's binaries in token order, and
    ``unary_sides`` holds the ``UnarySide`` of each type that has unaries.
    BB pairs are scored under every argument map whose type constraints
    hold (identity and, when slot types allow, swap) and the best map is
    kept. BU candidates compare a binary slot vector against the vector
    of each unary of the matching type; each slot yields its own edge
    since the two claims differ. Only candidates that share a feature are
    scored, through a ``BIncJoin``: any other candidate has BInc 0 and is
    never kept. The BB joins live while the signature is scored; a type's
    unary side serves every signature holding the type.
    """
    # the unaries of the signature's types, numbered across the types; the
    # BU hits share these int objects, so that the hundreds of thousands
    # of hits of a large signature do not each hold an int of their own
    sides: dict[str, tuple[list[int], BIncJoin]] = {}
    unaries: list[TypedPredicate] = []
    for t in sorted(unary_sides.keys() & set(signature)):
        numbers = list(range(len(unaries), len(unaries) + len(unary_sides[t].predicates)))
        sides[t] = (numbers, unary_sides[t].join)
        unaries += unary_sides[t].predicates
    # kept BU hits first, by premise: a unary is a vertex only once it
    # heads one, and vertex ids follow the tokens of all the vertices
    bu_hits: dict[int, list] = {}
    for i, p in enumerate(binaries):
        for slot in (1, 2):
            vector = slot_vectors.get((p, slot))
            side = sides.get(p.slot_types[slot - 1])
            if vector is not None and side is not None:
                numbers, join = side
                code = EDGE_CODE[BU, ArgMap.from_slot(slot)]
                for k, s in join.scores(_vector(vector.items())).items():
                    if s >= threshold and s > 0.0:
                        bu_hits.setdefault(i, []).append((numbers[k], code, min(s, 1.0)))
    heads = {k for hits in bu_hits.values() for k, _, _ in hits}
    vertices = sorted(binaries + [unaries[k] for k in heads], key=TypedPredicate.token)
    vertex_id = {v: n for n, v in enumerate(vertices)}
    binary_id = [vertex_id[p] for p in binaries]
    unary_id = {k: vertex_id[unaries[k]] for k in heads}

    # BB hypotheses are joined by their own slot types: a premise takes
    # identity from those of its slot types and swap, with the argument
    # pairs of the hypothesis reversed, from those of the reversed ones
    features = [pair_vectors[p] for p in binaries]
    vectors = [_vector(f.items()) for f in features]
    by_types: dict[tuple[str, ...], list[int]] = {}
    for j, q in enumerate(binaries):
        by_types.setdefault(q.slot_types, []).append(j)
    same = {t: BIncJoin((j, vectors[j]) for j in js) for t, js in by_types.items()}
    swapped = {t: BIncJoin((j, _vector(((b, a), w) for (a, b), w in features[j].items()))
                           for j in js)
               for t, js in by_types.items()}
    identity, swap = EDGE_CODE[BB, ArgMap.identity(2)], EDGE_CODE[BB, ArgMap.swap()]

    # premises in id order, each premise's BB and BU edges merged by
    # (hypothesis id, code): the columns come out in their final order
    premise_ids, hypothesis_ids, codes, scores = _columns()
    for i, p in enumerate(binaries):
        ids = same[p.slot_types].scores(vectors[i])
        reverse = swapped.get(p.slot_types[::-1])
        swaps = reverse.scores(vectors[i]) if reverse is not None else {}
        row = [(unary_id[k], code, s) for k, code, s in bu_hits.pop(i, ())]
        for j in ids.keys() | swaps.keys():
            # identity, the first map tried, wins a tie
            best, code = ids.get(j, 0.0), identity
            if swaps.get(j, 0.0) > best:
                best, code = swaps[j], swap
            if j != i and best >= threshold and best > 0.0:
                row.append((binary_id[j], code, min(best, 1.0)))
        row.sort()
        premise_ids.extend([binary_id[i]] * len(row))
        for column, values in zip((hypothesis_ids, codes, scores), zip(*row)):
            column.extend(values)

    return TypedSubgraph.from_columns(
        signature, vertices, premise_ids, hypothesis_ids, codes, scores
    )


def build_univalent(slot_type: str, side: UnarySide, threshold: float = 0.01) -> TypedSubgraph:
    """Score the UU candidates among the unaries of one type.

    Each unary's vector is scored as a premise against the type's
    ``BIncJoin``, so only pairs that share a feature are scored: any other
    pair has BInc 0 and is never kept.
    """
    premise_ids, hypothesis_ids, codes, scores = _columns()
    code = EDGE_CODE[UU, ArgMap.identity(1)]
    for i, premise in enumerate(side.vectors):
        found = side.join.scores(premise)
        for j in sorted(found):
            s = found[j]
            if j != i and s >= threshold and s > 0.0:
                premise_ids.append(i)
                hypothesis_ids.append(j)
                codes.append(code)
                scores.append(min(s, 1.0))
    return TypedSubgraph.from_columns(
        (slot_type,), side.predicates, premise_ids, hypothesis_ids, codes, scores
    )


class LocalGraphs(dict):
    """Signature -> local subgraph, bivalent ones first, each family in
    signature order: what ``graphio.write_graph_dir`` takes. The benchmark's
    build-oracle test still reads the three views below."""

    bivalent = property(lambda self: {sig: g for sig, g in self.items() if len(sig) == 2})
    univalent = property(lambda self: {sig: g for sig, g in self.items() if len(sig) == 1})
    all_subgraphs = dict.copy


def _subgraphs(pair_vectors: Mapping, slot_vectors: Mapping, threshold: float) -> LocalGraphs:
    """One subgraph per signature from the pair and slot vectors.

    Binaries are grouped by signature once, and each type's unary side is
    built once, then shared by the BU step of every signature holding the
    type and by the type's UU graph.
    """
    binaries: dict[tuple[str, ...], list[TypedPredicate]] = {}
    for p in sorted(pair_vectors, key=TypedPredicate.token):
        binaries.setdefault(canonical_signature(p.slot_types), []).append(p)
    unaries: dict[str, list[TypedPredicate]] = {}
    for pred in sorted((p for p, _ in slot_vectors if p.valency == 1), key=TypedPredicate.token):
        unaries.setdefault(pred.slot_types[0], []).append(pred)
    sides = {}
    for t, preds in unaries.items():
        vectors = [_vector(slot_vectors[(u, 1)].items()) for u in preds]
        sides[t] = UnarySide(preds, vectors, BIncJoin(enumerate(vectors)))

    graphs = LocalGraphs(
        (sig, build_bivalent(sig, binaries[sig], pair_vectors, slot_vectors, sides, threshold))
        for sig in sorted(binaries)
    )
    graphs.update(((t,), build_univalent(t, sides[t], threshold)) for t in sorted(sides))
    return graphs


def build_local_graphs(corpus: Corpus, config: LocalBuildConfig = LocalBuildConfig()) -> LocalGraphs:
    """Full local stage: counts in one pass over the corpus, vectors, then
    one subgraph per signature."""
    pairs, slots = count(corpus)
    # each count store is dropped once its vectors are built, so that
    # neither lives on through the build
    pair_vectors = build_vectors(pairs, config.features)
    del pairs
    slot_vectors = build_vectors(slots, config.features)
    del slots
    return _subgraphs(pair_vectors, slot_vectors, config.edge_threshold)
