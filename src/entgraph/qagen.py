"""True/false question generation from a dated proposition corpus.

The corpus is cut into short date partitions; within each partition,
propositions about frequently mentioned entities and corpus-popular
predicates become positive questions and are withheld from the evidence.
Negatives replace each positive's predicate with a more specific word
(noun hyponym or verb troponym of its first dictionary sense), then are
screened: a candidate that occurs in its own partition is discarded as
actually true, and one that never occurs anywhere in the corpus is
discarded as too easy. The surviving pool is downsampled to equal-size
unary/binary and positive/negative quadrants with a seeded generator.
"""

from __future__ import annotations

import datetime as dt
import json
import random
from collections import Counter, namedtuple
from itertools import chain
from pathlib import Path
from typing import TYPE_CHECKING

from .ingest import _CanonicalReader, _typed, proposition_record, write_records
from .model import Corpus, EntityId, Proposition, TypedPredicate

if TYPE_CHECKING:
    from .lexicon import LexicalResource

QUESTION_FORMAT_VERSION = 1
EVIDENCE_FORMAT_VERSION = 1


class Partition:
    """Propositions of up to window_days consecutive days of articles.

    ``holding`` indexes them by argument key when it is first called, so
    ``propositions`` must not change after that.
    """

    def __init__(
        self, id: int, date_range: tuple[dt.date, dt.date],
        propositions: list[tuple[str, Proposition]],
    ):
        self.id = id
        self.date_range = date_range
        self.propositions = propositions
        self._by_key: dict[str, list[tuple[str, Proposition]]] | None = None

    def without(self, prop_ids: set[str]) -> "Partition":
        return Partition(
            self.id,
            self.date_range,
            [(pid, p) for pid, p in self.propositions if pid not in prop_ids],
        )

    def holding(self, key: str) -> list[tuple[str, Proposition]]:
        """The (id, proposition) items whose arguments include the entity
        key ``key``, in ``propositions`` order."""
        if self._by_key is None:
            self._by_key = {}
            for item in self.propositions:
                for k in dict.fromkeys(item[1].arg_keys):
                    self._by_key.setdefault(k, []).append(item)
        return self._by_key.get(key, [])


class Question:
    def __init__(
        self,
        id: str,
        partition_id: int,
        predicate: TypedPredicate,
        args: tuple[EntityId, ...],
        polarity: str,  # "positive" | "negative"
        provenance: dict,
        surface: str = "",
    ):
        self.id = id
        self.partition_id = partition_id
        self.predicate = predicate
        self.args = args
        self.polarity = polarity
        self.provenance = provenance
        self.surface = surface


def partition(corpus: Corpus, window_days: int = 3) -> tuple[list[Partition], int]:
    """Cut the corpus into disjoint consecutive date windows.

    Windows are anchored at the earliest article date; empty windows are
    dropped. Returns the partitions and the count of undated propositions
    excluded.
    """
    dated = [(pid, p) for pid, p in corpus.items() if p.date is not None]
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
        partitions.append(Partition(idx, (lo, hi), buckets[idx]))
    return partitions, undated


def _question_surface(pred: TypedPredicate, args: tuple[EntityId, ...]) -> str:
    """Rough human-readable rendering, for inspection only."""
    names = [a.surface for a in args]
    segments = pred.lemma.split(".")
    if segments[0] == "be" and len(segments) > 1:
        return f"Was {names[0]} a {' '.join(segments[1:])}?"
    verb = " ".join(segments)
    if pred.valency == 2:
        return f"Did {names[0]} {verb} {names[1]}?"
    if pred.case_marker == ".2":
        return f"Was {names[0]} {verb}-ed?"
    return f"Did {names[0]} {verb}?"


class PositiveSelection:
    def __init__(self, questions: list[Question], evidence: Partition, shortfall: bool):
        self.questions = questions
        self.evidence = evidence
        self.shortfall = shortfall


def select_positives(
    part: Partition,
    corpus: Corpus,
    entity_min: int = 6,
    predicate_min: int = 11,
    n: int = 8,
    rng: random.Random | None = None,
) -> PositiveSelection:
    """Pick up to n partition propositions as positives and withhold them.

    Eligible propositions feature a star binding (an entity pair for
    binaries, a single entity for unaries, mentioned at least entity_min
    times in the partition) and a predicate seen at least predicate_min
    times in the whole corpus. Chosen propositions leave the partition's
    evidence.
    """
    rng = rng or random.Random(0)
    pair_counts: Counter = Counter()
    entity_counts: Counter = Counter()
    for _, p in part.propositions:
        keys = p.arg_keys
        for k in keys:
            entity_counts[k] += 1
        if p.predicate.valency == 2:
            pair_counts[tuple(sorted(keys))] += 1

    candidates = []
    for pid, p in part.propositions:
        if corpus.untyped_index[p.predicate.untyped] < predicate_min:
            continue
        keys = p.arg_keys
        if p.predicate.valency == 2:
            starred = pair_counts[tuple(sorted(keys))] >= entity_min
        else:
            starred = entity_counts[keys[0]] >= entity_min
        if starred:
            candidates.append((pid, p))

    candidates.sort(key=lambda item: item[0])
    chosen = sorted(rng.sample(candidates, min(n, len(candidates))))
    questions = []
    for seq, (pid, p) in enumerate(chosen):
        questions.append(
            Question(
                id=f"q{part.id:03d}-pos{seq:04d}",
                partition_id=part.id,
                predicate=p.predicate,
                args=p.args,
                polarity="positive",
                provenance={"source_prop": pid},
                surface=_question_surface(p.predicate, p.args),
            )
        )
    return PositiveSelection(
        questions,
        part.without({pid for pid, _ in chosen}),
        shortfall=len(chosen) < n,
    )


class ScreeningStats:
    def __init__(self) -> None:
        self.proposed = 0
        self.screened_in_partition = 0
        self.screened_zero_corpus = 0
        self.positives_without_substitutes = 0
        self.emitted = 0

    def rates(self) -> dict:
        denom = self.proposed or 1
        return {
            "in_partition_rate": self.screened_in_partition / denom,
            "zero_corpus_rate": self.screened_zero_corpus / denom,
        }


def generate_negatives(
    positives: list[Question],
    lex: LexicalResource,
    part: Partition,
    corpus: Corpus,
) -> tuple[list[Question], ScreeningStats]:
    """Mint hard negatives for a partition's positives.

    Every first-sense substitute is proposed; candidates appearing in the
    partition (actually true) or nowhere in the corpus (too easy to call
    false) are screened out.
    """
    stats = ScreeningStats()
    in_partition = {
        (p.predicate.name, p.predicate.valency, p.arg_keys)
        for _, p in part.propositions
    }
    negatives = []
    seq = 0
    for pos in positives:
        subs = lex.substitutes_for_predicate(pos.predicate)
        if not subs:
            stats.positives_without_substitutes += 1
            continue
        for lemma, relation in subs:
            stats.proposed += 1
            pred = TypedPredicate(
                lemma,
                pos.predicate.valency,
                pos.predicate.slot_types,
                pos.predicate.case_marker,
            )
            key = (pred.name, pred.valency, tuple(a.key for a in pos.args))
            if key in in_partition:
                stats.screened_in_partition += 1
                continue
            if corpus.untyped_index.get(pred.untyped, 0) == 0:
                stats.screened_zero_corpus += 1
                continue
            negatives.append(
                Question(
                    id=f"q{part.id:03d}-neg{seq:04d}",
                    partition_id=part.id,
                    predicate=pred,
                    args=pos.args,
                    polarity="negative",
                    provenance={"source_positive": pos.id, "relation": relation},
                    surface=_question_surface(pred, pos.args),
                )
            )
            seq += 1
            stats.emitted += 1
    return negatives, stats


def balance(
    positives: list[Question],
    negatives: list[Question],
    rng: random.Random,
) -> tuple[list[Question], bool]:
    """Downsample to equal unary/binary and positive/negative quadrants.

    Returns the balanced questions sorted by id, plus a warning flag set
    when some quadrant was empty (the largest balanced set is then empty).
    """
    quadrants = {(v, pol): [] for v in (1, 2) for pol in ("positive", "negative")}
    for q in positives + negatives:
        quadrants[(q.predicate.valency, q.polarity)].append(q)
    m = min(len(qs) for qs in quadrants.values())
    warned = m == 0
    out: list[Question] = []
    for key in sorted(quadrants):
        pool = sorted(quadrants[key], key=lambda q: q.id)
        out.extend(rng.sample(pool, m))
    return sorted(out, key=lambda q: q.id), warned


class QaGenConfig(
    namedtuple(
        "QaGenConfig",
        "window_days entity_min predicate_min positives_per_partition seed",
        defaults=(3, 6, 11, 8, 0),
    )
):
    __slots__ = ()


class QuestionSet:
    def __init__(self, questions: list[Question], evidence: list[Partition], manifest: dict):
        self.questions = questions
        self.evidence = evidence
        self.manifest = manifest


def generate_questions(
    corpus: Corpus, lex: LexicalResource, config: QaGenConfig = QaGenConfig()
) -> QuestionSet:
    """Full generation pass: partition, select, derive negatives, balance."""
    rng = random.Random(config.seed)
    partitions, undated = partition(corpus, config.window_days)
    all_pos: list[Question] = []
    all_neg: list[Question] = []
    evidence: list[Partition] = []
    screening = ScreeningStats()
    shortfalls = 0
    for part in partitions:
        sel = select_positives(
            part, corpus, config.entity_min, config.predicate_min,
            config.positives_per_partition, rng,
        )
        shortfalls += int(sel.shortfall)
        negatives, stats = generate_negatives(sel.questions, lex, part, corpus)
        for f, n in stats.__dict__.items():
            setattr(screening, f, getattr(screening, f) + n)
        all_pos.extend(sel.questions)
        all_neg.extend(negatives)
        evidence.append(sel.evidence)

    balanced, warned = balance(all_pos, all_neg, rng)
    manifest = {
        "format": "entgraph-questions",
        "version": QUESTION_FORMAT_VERSION,
        "seed": config.seed,
        "window_days": config.window_days,
        "entity_min": config.entity_min,
        "predicate_min": config.predicate_min,
        "positives_per_partition": config.positives_per_partition,
        "partitions": len(partitions),
        "undated_excluded": undated,
        "partitions_with_shortfall": shortfalls,
        "candidates": {"positives": len(all_pos), "negatives": len(all_neg)},
        "screening": {**screening.__dict__, **screening.rates()},
        "questions": len(balanced),
        "balance_warning": warned,
    }
    return QuestionSet(balanced, evidence, manifest)


# -- file formats ----------------------------------------------------------


def question_record(q: Question) -> dict:
    return {
        "id": q.id,
        "partition_id": q.partition_id,
        "predicate": q.predicate.token(),
        "args": [
            {
                "surface": a.surface,
                **({"kb_id": a.kb_id} if a.kb_id is not None else {}),
                "is_named": a.is_named,
            }
            for a in q.args
        ],
        "polarity": q.polarity,
        "provenance": q.provenance,
        "surface": q.surface,
    }


def question_from_record(obj: dict, reader: _CanonicalReader) -> Question:
    """The question a record holds, its predicate and arguments built
    through the reader, which checks them as it checks corpus records and
    shares them across one file. ``id`` and ``surface`` must be strings
    and ``provenance`` an object of strings."""
    if obj["polarity"] not in ("positive", "negative"):
        raise ValueError(f"polarity {obj['polarity']!r} is neither positive nor negative")
    token = TypedPredicate.parse_token(obj["predicate"])
    pred = reader.predicate(token.lemma, token.slot_types, token.case_marker)
    args = tuple(reader.entity(a["surface"], a.get("kb_id"), a["is_named"]) for a in obj["args"])
    provenance = _typed(obj["provenance"], dict, "provenance")
    for value in provenance.values():
        _typed(value, str, "provenance value")
    return Question(
        _typed(obj["id"], str, "id"), _typed(obj["partition_id"], int, "partition_id"), pred,
        args, obj["polarity"], provenance, _typed(obj["surface"], str, "surface"),
    )


def write_questions(qs: QuestionSet, path: str | Path) -> None:
    write_records(path, chain([qs.manifest], map(question_record, qs.questions)))


def read_questions(path: str | Path) -> tuple[list[Question], dict]:
    """The questions and manifest ``write_questions`` wrote. A question
    line is accepted only if ``question_record`` of the question it parses
    to reproduces it, its polarity is positive or negative, and its
    predicate and arguments pass the checks ``read_corpus`` makes (type
    labels as the inventory holds them, normalized surfaces, one surface per
    kb id across the file); any other line, a blank one included, raises
    ValueError naming the file and line."""
    manifest, lines = _read_qa_file(
        path, "entgraph-questions", QUESTION_FORMAT_VERSION, "a question file"
    )
    reader = _CanonicalReader(path)
    return [
        reader.parse(lineno, line, lambda obj: question_from_record(obj, reader),
                     question_record, "question record")
        for lineno, line in enumerate(lines[1:], 2)
    ], manifest


def _read_qa_file(path: str | Path, fmt: str, version: int, what: str) -> tuple[dict, list[str]]:
    """The header and the lines of a QA file. The first line must be a JSON
    object declaring ``fmt`` and ``version``, or ValueError names the file."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    try:
        header = json.loads(lines[0]) if lines else None
    except ValueError:
        header = None
    if not isinstance(header, dict) or header.get("format") != fmt:
        raise ValueError(f"{path}: not {what}")
    if header.get("version") != version:
        raise ValueError(
            f"{path}: unsupported version {header.get('version')!r} (this code reads {version})"
        )
    return header, lines


def _evidence_record(item: tuple[int, str, Proposition]) -> dict:
    """The evidence line of a proposition: its partition, id and record."""
    part_id, prop_id, prop = item
    return {"partition_id": part_id, "prop_id": prop_id, **proposition_record(prop)}


def write_evidence(partitions: list[Partition], path: str | Path) -> None:
    header = {
        "format": "entgraph-evidence",
        "version": EVIDENCE_FORMAT_VERSION,
        "partitions": [
            {
                "id": p.id,
                "date_range": [p.date_range[0].isoformat(), p.date_range[1].isoformat()],
                "size": len(p.propositions),
            }
            for p in partitions
        ],
    }
    write_records(path, chain([header], (
        _evidence_record((p.id, pid, prop)) for p in partitions for pid, prop in p.propositions
    )))


def read_evidence(path: str | Path) -> list[Partition]:
    """The partitions ``write_evidence`` wrote. Each header partition's
    ``id`` and ``size`` must be ints (not floats or bools) and its
    ``date_range`` two date strings. Records are read as strictly as
    ``read_corpus`` reads them, and each partition must hold as many as the
    header declares."""
    header, lines = _read_qa_file(
        path, "entgraph-evidence", EVIDENCE_FORMAT_VERSION, "an evidence file"
    )
    meta = {}
    try:
        for p in header["partitions"]:
            lo, hi = _typed(p["date_range"], list, "date_range")
            meta[_typed(p["id"], int, "partition id")] = (
                _typed(p["size"], int, "partition size"),
                (dt.date.fromisoformat(lo), dt.date.fromisoformat(hi)),
            )
    except KeyError as exc:
        raise ValueError(f"{path}:1: evidence header lacks {exc.args[0]!r}") from None
    except (AttributeError, TypeError, ValueError) as exc:
        raise ValueError(f"{path}:1: bad evidence header: {exc}") from None
    by_id: dict[int, list[tuple[str, Proposition]]] = {pid: [] for pid in meta}
    reader = _CanonicalReader(path)

    def build(obj: dict) -> tuple[int, str, Proposition]:
        return (_typed(obj["partition_id"], int, "partition_id"),
                _typed(obj["prop_id"], str, "prop_id"), reader.proposition(obj))

    for lineno, line in enumerate(lines[1:], 2):
        part_id, prop_id, prop = reader.parse(lineno, line, build, _evidence_record, "record")
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
        out.append(Partition(pid, date_range, by_id[pid]))
    return out
