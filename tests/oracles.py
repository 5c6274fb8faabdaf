"""Reference implementations the tests check the package against.

No pipeline stage runs these: each restates a definition from the paper
directly, or a fast path's plain loop, so that tests can compare the
package's fast paths with it.
"""

from __future__ import annotations

import datetime as dt
import json
import math
import random
from array import array
from collections import Counter
from itertools import combinations
from typing import Iterable, Mapping, Sequence

from entgraph.columns import write_columns
from entgraph.ingest import RecordError, normalize_predicate, parse_record

from entgraph.localgraph import (
    ALL_KINDS,
    BB,
    BU,
    UU,
    EDGE_CODES,
    EDGE_SLOTS,
    EDGE_VALENCIES,
    ArgMap,
    EntailmentEdge,
    TypedSubgraph,
    _left_sum,
    canonical_signature,
)
from entgraph.model import (
    Corpus,
    EntityId,
    IngestStats,
    Proposition,
    TypedPredicate,
    TypeInventory,
    normalize_surface,
    prop_id,
)
from entgraph.qaeval import AnswerRecord, PRCurve, PRPoint, _model_id, _untyped_match
from entgraph.qagen import (
    EVIDENCE_FORMAT_VERSION,
    Partition,
    PositiveSelection,
    Question,
    ScreeningStats,
    _read_qa_file,
)
from entgraph.records import (
    CORPUS_MAGIC,
    CORPUS_VERSION,
    _CanonicalReader,
    _iso_date,
    _key_clash,
    _typed,
)
from entgraph.store import GraphStore


def valency_maps(premise_valency: int, hypothesis_valency: int) -> tuple[ArgMap, ...]:
    """The argument maps of the edge codes between two valencies, in code order."""
    return tuple(amap for (_, amap), valencies in zip(EDGE_CODES, EDGE_VALENCIES)
                 if valencies == (premise_valency, hypothesis_valency))


def bound_args(amap: ArgMap, premise_args: Sequence) -> tuple:
    """The hypothesis binding that carries premise_args over under amap."""
    out = [None] * len(amap.pairs)
    for p_slot, h_slot in amap.pairs:
        out[h_slot - 1] = premise_args[p_slot - 1]
    return tuple(out)


def consistent_maps(premise_args: Sequence, hypothesis_args: Sequence) -> list[ArgMap]:
    """The binding rule by ``ArgMap``: the maps of the two valencies under
    which the hypothesis binding matches the premise's, in code order. The
    reference of ``localgraph.consistent_codes``."""
    hypothesis_args = tuple(hypothesis_args)
    return [
        amap
        for amap in valency_maps(len(premise_args), len(hypothesis_args))
        if bound_args(amap, premise_args) == hypothesis_args
    ]


def consistent_codes_scan(premise_args: Sequence, hypothesis_args: Sequence) -> tuple[int, ...]:
    """The binding rule by code, scanning all five codes and building the
    carried binding of each code of the right valencies: the reference of
    ``localgraph.consistent_codes``."""
    valencies = (len(premise_args), len(hypothesis_args))
    hypothesis_args = tuple(hypothesis_args)
    return tuple(
        code for code, slots in enumerate(EDGE_SLOTS)
        if EDGE_VALENCIES[code] == valencies
        and tuple(premise_args[i] for i in slots) == hypothesis_args
    )


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
    denom = _left_sum(u[f] for f in sorted(u))
    if denom == 0:
        return 0.0
    num = _left_sum(u[f] for f in sorted(u) if f in v)
    return num / denom


def lin_similarity(u: Mapping, v: Mapping) -> float:
    """Symmetric similarity: shared mass over total mass of both vectors."""
    denom = _left_sum(u[f] for f in sorted(u)) + _left_sum(v[f] for f in sorted(v))
    if denom == 0:
        return 0.0
    num = _left_sum(u[f] + v[f] for f in sorted(u) if f in v)
    return num / denom


def binc(u: Mapping, v: Mapping) -> float:
    """Balanced Inclusion: geometric mean of Weeds Precision and Lin."""
    wp = weeds_precision(u, v)
    if wp == 0.0:
        return 0.0
    return math.sqrt(wp * lin_similarity(u, v))


def swapped_pair_features(features: Mapping) -> dict:
    """A pair vector with each argument pair reversed."""
    return {(b, a): w for (a, b), w in features.items()}


def build_bivalent_pairwise(
    signature: tuple[str, str],
    pair_vectors: Mapping[TypedPredicate, Mapping],
    slot_vectors: Mapping[tuple[TypedPredicate, int], Mapping],
    unaries_by_type: Mapping[str, list[TypedPredicate]],
    threshold: float = 0.01,
) -> TypedSubgraph:
    """``localgraph.build_bivalent`` by scoring every (premise, hypothesis)
    pair with ``binc``, whether or not the two share a feature.

    Edges are collected in scoring order; ``TypedSubgraph`` sorts them,
    and the vertices, into the columns' order.
    """
    binaries = [p for p in pair_vectors if canonical_signature(p.slot_types) == tuple(signature)]
    vertices = set(binaries)
    edges = []
    for p in binaries:
        u = pair_vectors[p]
        for q in binaries:
            if p == q:
                continue
            v = pair_vectors[q]
            best: tuple[float, ArgMap] | None = None
            if p.slot_types == q.slot_types:
                best = (binc(u, v), ArgMap.identity(2))
            if p.slot_types == (q.slot_types[1], q.slot_types[0]):
                s = binc(u, swapped_pair_features(v))
                if best is None or s > best[0]:
                    best = (s, ArgMap.swap())
            if best is not None and best[0] >= threshold and best[0] > 0.0:
                edges.append(EntailmentEdge(p, q, BB, best[1], min(best[0], 1.0)))

        for slot in (1, 2):
            sv = slot_vectors.get((p, slot))
            if sv is None:
                continue
            for unary in unaries_by_type.get(p.slot_types[slot - 1], ()):
                uv = slot_vectors.get((unary, 1))
                s = binc(sv, uv) if uv is not None else 0.0
                if s >= threshold and s > 0.0:
                    vertices.add(unary)
                    edges.append(EntailmentEdge(p, unary, BU, ArgMap.from_slot(slot), min(s, 1.0)))
    return TypedSubgraph(signature, vertices, edges)


def build_univalent_pairwise(
    slot_type: str,
    unaries: list[TypedPredicate],
    slot_vectors: Mapping[tuple[TypedPredicate, int], Mapping],
    threshold: float = 0.01,
) -> TypedSubgraph:
    """``localgraph.build_univalent`` by scoring every pair of unaries
    with ``binc``."""
    vectors = {p: slot_vectors[(p, 1)] for p in unaries if (p, 1) in slot_vectors}
    edges = [
        EntailmentEdge(p, q, UU, ArgMap.identity(1), min(s, 1.0))
        for p, u in vectors.items()
        for q, v in vectors.items()
        if p != q and (s := binc(u, v)) >= threshold and s > 0.0
    ]
    return TypedSubgraph((slot_type,), unaries, edges)


def objective(scores: Sequence[float], local: Sequence[float], groups) -> float:
    """The globalization quadratic at ``scores``: squared distance to the
    local scores plus each clique's weighted pairwise squared differences."""
    value = sum((s - x) ** 2 for s, x in zip(scores, local))
    for weight, vids in groups:
        for i in range(len(vids)):
            for j in range(i + 1, len(vids)):
                value += weight * (scores[vids[i]] - scores[vids[j]]) ** 2
    return value


def edge_positions(family: Mapping) -> list[tuple[tuple, int]]:
    """The (signature, index in its ``edges``) of each position that
    globalization numbers a family's edges by: sorted signature, then
    each subgraph's edge order."""
    return [(sig, i) for sig in sorted(family) for i in range(len(family[sig].scores))]


def pr_curve_scan(records: Sequence[AnswerRecord], gold: Mapping[str, bool]) -> PRCurve:
    """``qaeval.pr_curve`` counting every answered record again at each
    distinct threshold."""
    n_pos = sum(1 for qid in gold if gold[qid])
    if n_pos == 0:
        raise ValueError("gold labels contain no positives")
    answered = [(r.confidence, bool(gold[r.question_id])) for r in records if r.confidence > 0]
    thresholds = sorted({c for c, _ in answered})
    points = []
    for t in thresholds:
        tp = sum(1 for c, g in answered if c >= t and g)
        fp = sum(1 for c, g in answered if c >= t and not g)
        precision = tp / (tp + fp) if tp + fp else 0.0
        points.append(PRPoint(t, precision, tp / n_pos))
    return PRCurve(points, points[0].recall if points else 0.0)


def combine_components(records: Sequence[AnswerRecord]) -> AnswerRecord:
    """Overall prediction: the max over component confidences, so the
    combined model predicts true whenever any component does."""
    if not records:
        raise ValueError("no component records")
    best = max(records, key=lambda r: r.confidence)
    return AnswerRecord(
        best.question_id, "combined", best.confidence,
        best.best_evidence, best.backed_off,
    )


# -- answer models over every evidence proposition ----------------------------


def partition_items(evidence: Partition) -> list[tuple[str, Proposition]]:
    """The (``prop_id``, proposition) item of each evidence row."""
    return [(prop_id(row), evidence.corpus.proposition(row)) for row in evidence.propositions]


def answer_exact_match_scan(question: Question, evidence: Partition) -> AnswerRecord:
    """``answer_exact_match`` reading every proposition of the partition."""
    for pid, prop in partition_items(evidence):
        if _untyped_match(question, prop):
            return AnswerRecord(question.id, "exact", 1.0, pid)
    return AnswerRecord(question.id, "exact", 0.0)


def answer_graph_scan(
    question: Question,
    evidence: Partition,
    store: GraphStore,
    kinds: frozenset[str] = ALL_KINDS,
) -> AnswerRecord:
    """``answer_graph`` scoring every proposition of the partition: the max
    of ``GraphStore.score``, reached first at the best evidence."""
    hyp_args = tuple(a.key for a in question.args)
    best, best_pid, backed_off = 0.0, None, False
    for pid, prop in partition_items(evidence):
        result = store.score(prop, question.predicate, hyp_args, kinds)
        if result.score > best:
            best, best_pid, backed_off = result.score, pid, result.backed_off
    return AnswerRecord(question.id, _model_id(kinds), best, best_pid, backed_off)


def compatible_evidence_scan(question: Question, evidence: Partition) -> list[str]:
    """``compatible_evidence`` testing every proposition of the partition."""
    hyp_args = tuple(a.key for a in question.args)
    return [
        pid for pid, prop in partition_items(evidence)
        if consistent_maps(prop.arg_keys, hyp_args)
    ]


# -- question generation over Proposition objects --------------------------------


class ItemPartition:
    """A partition holding (``prop_id``, proposition) items, the form
    question generation took before it read corpus rows."""

    def __init__(self, id: int, date_range: tuple[dt.date, dt.date],
                 propositions: list[tuple[str, Proposition]]):
        self.id = id
        self.date_range = date_range
        self.propositions = propositions

    def without(self, prop_ids: set[str]) -> "ItemPartition":
        return ItemPartition(self.id, self.date_range,
                             [(pid, p) for pid, p in self.propositions if pid not in prop_ids])


def partition_objects(corpus: Corpus, window_days: int = 3) -> tuple[list[ItemPartition], int]:
    """``qagen.partition`` over the corpus's (``prop_id``, proposition) items."""
    dated = [(prop_id(i), p) for i, p in enumerate(corpus.propositions) if p.date is not None]
    undated = len(corpus) - len(dated)
    if not dated:
        return [], undated
    start = min(p.date for _, p in dated)
    buckets: dict[int, list[tuple[str, Proposition]]] = {}
    for pid, p in dated:
        buckets.setdefault((p.date - start).days // window_days, []).append((pid, p))
    partitions = []
    for idx in sorted(buckets):
        lo = start + dt.timedelta(days=idx * window_days)
        hi = lo + dt.timedelta(days=window_days - 1)
        partitions.append(ItemPartition(idx, (lo, hi), buckets[idx]))
    return partitions, undated


def select_positives_objects(
    part: ItemPartition, corpus: Corpus, entity_min: int = 6, predicate_min: int = 11,
    n: int = 8, rng: random.Random | None = None,
) -> PositiveSelection:
    """``qagen.select_positives`` over a partition's items: a binary's star
    binding is its sorted key pair, a unary's its key, and candidates are
    drawn in ``prop_id`` order."""
    rng = rng or random.Random(0)
    pair_counts: Counter = Counter()
    entity_counts: Counter = Counter()
    for _, p in part.propositions:
        for k in p.arg_keys:
            entity_counts[k] += 1
        if p.predicate.valency == 2:
            pair_counts[tuple(sorted(p.arg_keys))] += 1
    candidates = []
    for pid, p in part.propositions:
        if corpus.untyped_index[p.predicate.untyped] < predicate_min:
            continue
        if p.predicate.valency == 2:
            starred = pair_counts[tuple(sorted(p.arg_keys))] >= entity_min
        else:
            starred = entity_counts[p.arg_keys[0]] >= entity_min
        if starred:
            candidates.append((pid, p))
    candidates.sort(key=lambda item: item[0])
    chosen = sorted(rng.sample(candidates, min(n, len(candidates))))
    questions = [
        Question(f"q{part.id:03d}-pos{seq:04d}", part.id, p.predicate, p.args, "positive",
                 {"source_prop": pid})
        for seq, (pid, p) in enumerate(chosen)
    ]
    return PositiveSelection(questions, part.without({pid for pid, _ in chosen}),
                             shortfall=len(chosen) < n)


def generate_negatives_objects(
    positives: list[Question], lex, part: ItemPartition, corpus: Corpus,
) -> tuple[list[Question], ScreeningStats]:
    """``qagen.generate_negatives`` screening against a partition's items."""
    stats = ScreeningStats()
    in_partition = {(p.predicate.name, p.predicate.valency, p.arg_keys)
                    for _, p in part.propositions}
    negatives = []
    for pos in positives:
        subs = lex.substitutes_for_predicate(pos.predicate)
        if not subs:
            stats.positives_without_substitutes += 1
            continue
        for lemma, relation in subs:
            stats.proposed += 1
            pred = TypedPredicate(lemma, pos.predicate.valency, pos.predicate.slot_types,
                                  pos.predicate.case_marker)
            if (pred.name, pred.valency, tuple(a.key for a in pos.args)) in in_partition:
                stats.screened_in_partition += 1
                continue
            if corpus.untyped_index.get(pred.untyped, 0) == 0:
                stats.screened_zero_corpus += 1
                continue
            negatives.append(Question(
                f"q{part.id:03d}-neg{len(negatives):04d}", part.id, pred, pos.args, "negative",
                {"source_positive": pos.id, "relation": relation}))
            stats.emitted += 1
    return negatives, stats


# -- raw record parsing through dict copies -----------------------------------


def _decompose_dicts(record: dict) -> list[dict]:
    """One binary sub-record per unordered role pair (i < j) of a record with
    more than two arguments, the pair appended to the predicate; a record
    with at most two arguments unchanged."""
    args = record.get("args", [])
    if len(args) <= 2:
        return [record]
    roles = [a.get("role_index") for a in args]
    if len(set(roles)) != len(roles):
        raise RecordError("duplicate role labels in higher-valency record")
    by_role = sorted(args, key=lambda a: a["role_index"])
    out = []
    for a, b in combinations(by_role, 2):
        sub = dict(record)
        sub["predicate"] = f"{record['predicate']}.{a['role_index']}.{b['role_index']}"
        sub["args"] = [{**a, "role_index": 1}, {**b, "role_index": 2}]
        out.append(sub)
    return out


def parse_record_dicts(
    obj: dict, inventory: TypeInventory, stats: IngestStats
) -> list[Proposition]:
    """``ingest.parse_record`` for well-typed records, restated as copies of
    the record: passive roles 1 and 2 swapped in a copy of every argument,
    then one sub-record dict per binary view, each parsed on its own."""
    if not isinstance(obj, dict):
        raise RecordError("record is not an object")
    raw_pred = obj.get("predicate")
    args = obj.get("args")
    if not raw_pred or not isinstance(args, list) or not args:
        raise RecordError("record lacks predicate or args")
    voice = obj.get("voice", "active")
    modifiers = obj.get("modifiers", [])
    if not isinstance(modifiers, list):
        raise RecordError(f"modifiers {modifiers!r} is not a list")
    lemma = normalize_predicate(str(raw_pred), voice, modifiers)
    swap = {1: 2, 2: 1} if voice == "passive" else {}
    mapped = []
    for a in args:
        if not isinstance(a, dict) or "role_index" not in a:
            raise RecordError("argument lacks role_index")
        role = int(a["role_index"])
        mapped.append({**a, "role_index": swap.get(role, role)})
    base = {**obj, "predicate": lemma, "args": mapped}
    sub_records = _decompose_dicts(base)
    if len(mapped) > 2:
        stats.decomposed_records += 1

    date = obj.get("date")
    if date in (None, ""):
        date = None
    else:
        # only a date's own isoformat: CPython 3.11+ reads "20210301" too
        try:
            parsed = dt.date.fromisoformat(date) if isinstance(date, str) else None
        except ValueError:
            parsed = None
        if parsed is None or parsed.isoformat() != date:
            raise RecordError(f"bad date {date!r}")
        date = parsed
    article_id = str(obj.get("article_id", ""))
    sentence_idx = int(obj.get("sentence_idx", 0))

    props = []
    for rec in sub_records:
        rec_args = sorted(rec["args"], key=lambda a: int(a["role_index"]))
        roles = [int(a["role_index"]) for a in rec_args]
        valency = len(rec_args)
        if valency == 2 and roles != [1, 2]:
            raise RecordError(f"binary roles must be 1 and 2, got {roles}")
        if valency == 1 and roles[0] not in (1, 2):
            raise RecordError(f"unary role must be 1 or 2, got {roles[0]}")
        entities, types = [], []
        for a in rec_args:
            surface = normalize_surface(str(a.get("surface", "")))
            if not surface:
                raise RecordError("entity surface empty after normalization")
            kb_id = a.get("kb_id")
            etype, known = inventory.resolve(str(a.get("type", "")))
            if not known:
                stats.unknown_type_labels += 1
            entities.append(EntityId(surface, None if kb_id is None else str(kb_id),
                                     bool(a.get("is_named", False))))
            types.append(etype)
        if not any(e.is_named for e in entities):
            stats.skipped_unnamed += 1
            continue
        case = f".{roles[0]}" if valency == 1 else None
        pred = TypedPredicate(rec["predicate"], valency, tuple(types), case)
        props.append(Proposition(pred, tuple(entities), article_id, date, sentence_idx))
    return props


# -- the corpus through Proposition objects ---------------------------------------


def ingest_objects(path, inventory: TypeInventory | None = None) -> Corpus:
    """``ingest`` through one ``Proposition`` per kept view: each record
    parsed on its own by ``parse_record`` (no memo across records), each
    argument of a kept proposition checked for a key clash, then given its
    kb id's first surface. The reference of the streaming ``ingest``;
    ``Corpus`` keeps the propositions it is given."""
    inventory = inventory or TypeInventory.default()
    stats = IngestStats()
    propositions: list[Proposition] = []
    canonical_surface: dict[str, str] = {}
    linked: dict[str, bool] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            stats.records_read += 1
            try:
                views = parse_record(json.loads(line), inventory, stats)
            except (RecordError, ValueError, TypeError, KeyError):
                stats.skipped_malformed += 1
                continue
            for view in views:
                prop = Proposition(*view)
                for arg in prop.args:
                    if (clash := _key_clash(linked, arg)) is not None:
                        raise ValueError(f"{path}:{lineno}: {clash}")
                propositions.append(_canonicalize(prop, canonical_surface))
    stats.propositions = len(propositions)
    return Corpus(propositions, stats)


def _canonicalize(prop: Proposition, canon: dict[str, str]) -> Proposition:
    """Give every mention of a kb id the first surface seen for it."""
    new_args = []
    changed = False
    for arg in prop.args:
        if arg.kb_id is not None:
            surface = canon.setdefault(arg.kb_id, arg.surface)
            if surface != arg.surface:
                arg = EntityId(surface, arg.kb_id, arg.is_named)
                changed = True
        new_args.append(arg)
    if not changed:
        return prop
    return Proposition(
        prop.predicate, tuple(new_args), prop.article_id, prop.date, prop.sentence_idx,
    )


def save_corpus_objects(propositions: Iterable[Proposition], path) -> None:
    """``save_corpus`` of a corpus of these propositions, interned here one
    proposition at a time: table entries numbered in order of first use,
    entities by their fields."""
    predicates: dict[TypedPredicate, int] = {}
    entities: dict[tuple, int] = {}
    articles: dict[str, int] = {}
    columns = [array("i") for _ in range(6)]
    preds, args1, args2, dates, article_ids, sentences = (c.append for c in columns)
    for prop in propositions:
        args = prop.args
        preds(predicates.setdefault(prop.predicate, len(predicates)))
        args1(entities.setdefault(tuple(args[0]), len(entities)))
        args2(entities.setdefault(tuple(args[1]), len(entities)) if len(args) == 2 else -1)
        dates(prop.date.toordinal() if prop.date is not None else 0)
        article_ids(articles.setdefault(prop.article_id, len(articles)))
        sentences(prop.sentence_idx)
    tables = {
        "articles": list(articles),
        "entities": [list(entity) for entity in entities],
        "predicates": [[p.lemma, list(p.slot_types), p.case_marker] for p in predicates],
    }
    write_columns(path, CORPUS_MAGIC, CORPUS_VERSION, tables, columns)


# -- the corpus as JSON lines ---------------------------------------------------

ENCODER = json.JSONEncoder(sort_keys=True)


def proposition_record(prop: Proposition) -> dict:
    """Normalized record for one proposition, the form of an evidence line
    and of a ``dump-corpus`` line."""
    if prop.predicate.valency == 1:
        roles = [int(prop.predicate.case_marker[1:])]
    else:
        roles = [1, 2]
    return {
        "article_id": prop.article_id,
        "date": prop.date.isoformat() if prop.date else None,
        "sentence_idx": prop.sentence_idx,
        "predicate": prop.predicate.lemma,
        "voice": "active",
        "modifiers": [],
        "args": [
            {
                "surface": ent.surface,
                **({"kb_id": ent.kb_id} if ent.kb_id is not None else {}),
                "type": etype,
                "is_named": ent.is_named,
                "role_index": role,
            }
            for ent, etype, role in zip(prop.args, prop.predicate.slot_types, roles)
        ],
    }


def evidence_record(item: tuple[int, str, Proposition]) -> dict:
    """The evidence line of a proposition: its partition, id and record."""
    part_id, prop_id, prop = item
    return {"partition_id": part_id, "prop_id": prop_id, **proposition_record(prop)}


def corpus_jsonl(corpus: Corpus) -> str:
    """The ``corpus.jsonl`` text the corpus was saved as before it was saved
    as columns: one sorted-key JSON object per proposition, the reference
    ``entgraph dump-corpus`` prints."""
    lines = []
    for prop in corpus.propositions:
        pred = prop.predicate
        roles = [int(pred.case_marker[1:])] if pred.valency == 1 else [1, 2]
        args = []
        for ent, etype, role in zip(prop.args, pred.slot_types, roles):
            arg = {"surface": ent.surface, "type": etype, "is_named": ent.is_named,
                   "role_index": role}
            if ent.kb_id is not None:
                arg["kb_id"] = ent.kb_id
            args.append(arg)
        record = {
            "article_id": prop.article_id,
            "date": None if prop.date is None else prop.date.isoformat(),
            "sentence_idx": prop.sentence_idx,
            "predicate": pred.lemma,
            "voice": "active",
            "modifiers": [],
            "args": args,
        }
        lines.append(json.dumps(record, sort_keys=True) + "\n")
    return "".join(lines)


# -- the evidence as JSON lines -------------------------------------------------


def evidence_proposition(reader: _CanonicalReader, obj: dict) -> Proposition:
    """The proposition of an evidence line's record, its predicate and
    arguments built through ``reader``; ``reader.parse`` compares the
    record ``evidence_record`` writes of it with the line."""
    args = obj["args"]
    lemma = obj["predicate"]
    types = tuple(a["type"] for a in args)
    roles = [_typed(a["role_index"], int, "role_index") for a in args]
    case = f".{roles[0]}" if len(args) == 1 else None
    pred = reader.predicate(lemma, types, case)
    entities = tuple(reader.entity(a["surface"], a.get("kb_id"), a["is_named"]) for a in args)
    if not any(e.is_named for e in entities):
        raise ValueError("no argument is named")
    date = None if obj["date"] is None else _iso_date(obj["date"])
    return Proposition(
        pred, entities, str(obj["article_id"]),
        date, _typed(obj["sentence_idx"], int, "sentence_idx"),
    )


def read_evidence_jsonl(path) -> list[ItemPartition]:
    """The partitions ``write_evidence`` wrote to ``evidence.jsonl``, the
    reference ``qagen.read_evidence`` of ``evidence.columns`` must agree
    with, sorted by id. Each header partition's ``id`` and ``size`` must be
    ints (not floats or bools), no two may share an id, and its
    ``date_range`` must be two ``YYYY-MM-DD`` strings. A record line is
    accepted only if ``evidence_record`` of what it parses to reproduces
    it and its predicate and arguments pass the checks ``read_corpus``
    makes of its table entries, and each partition must hold as many as
    the header declares."""
    header, lines = _read_qa_file(
        path, "entgraph-evidence", EVIDENCE_FORMAT_VERSION, "an evidence file"
    )
    meta = {}
    try:
        for p in header["partitions"]:
            lo, hi = _typed(p["date_range"], list, "date_range")
            part_id = _typed(p["id"], int, "partition id")
            if part_id in meta:
                raise ValueError(f"partition {part_id} is listed twice")
            meta[part_id] = (_typed(p["size"], int, "partition size"),
                             (_iso_date(lo), _iso_date(hi)))
    except KeyError as exc:
        raise ValueError(f"{path}:1: evidence header lacks {exc.args[0]!r}") from None
    except (AttributeError, TypeError, ValueError) as exc:
        raise ValueError(f"{path}:1: bad evidence header: {exc}") from None
    by_id: dict[int, list[tuple[str, Proposition]]] = {pid: [] for pid in meta}
    reader = _CanonicalReader(path)

    def build(obj: dict) -> tuple[int, str, Proposition]:
        return (_typed(obj["partition_id"], int, "partition_id"),
                _typed(obj["prop_id"], str, "prop_id"), evidence_proposition(reader, obj))

    for lineno, line in enumerate(lines[1:], 2):
        part_id, prop_id, prop = reader.parse(lineno, line, build, evidence_record, "record")
        if part_id not in by_id:
            raise ValueError(f"{path}:{lineno}: partition {part_id!r} is not in the header")
        by_id[part_id].append((prop_id, prop))
    out = []
    for pid in sorted(by_id):
        size, date_range = meta[pid]
        if len(by_id[pid]) != size:
            raise ValueError(
                f"{path}: partition {pid} has {len(by_id[pid])} records, "
                f"the header declares {size}"
            )
        out.append(ItemPartition(pid, date_range, by_id[pid]))
    return out
