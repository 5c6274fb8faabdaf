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

A proposition is its corpus row throughout: partitions, selection and
screening read the corpus's date, predicate and argument columns and its
entity keys, a question's ``source_prop`` is ``prop_id`` of its row, and
a ``Partition`` holds its evidence as rows. Only ``Partition.holding``,
which the answer models read, builds ``Proposition`` objects, and only
for the entity keys they ask for. A ``Question`` holds its fields;
``question_record`` renders its human-readable ``surface`` from them.

The evidence is written twice: ``evidence.jsonl`` holds each evidence
proposition as a record line, for people and for digests taken of it,
and ``evidence.columns`` holds its corpus row, which is all ``answer``
reads, beside the corpus, so no stage parses an evidence line.
"""

from __future__ import annotations

import datetime as dt
import json
import random
from array import array
from collections import Counter, namedtuple
from itertools import chain
from pathlib import Path
from typing import TYPE_CHECKING, Sequence

from .columns import read_columns, write_columns
from .records import _CanonicalReader, _PropositionLines, _iso_date, _typed, write_records
from .model import Corpus, EntityId, Proposition, TypedPredicate, prop_id

if TYPE_CHECKING:
    from .lexicon import LexicalResource

QUESTION_FORMAT_VERSION = 1
EVIDENCE_FORMAT_VERSION = 1
# ``evidence.columns``, the evidence ``answer`` reads (see ``read_evidence``)
EVIDENCE_MAGIC = "entgraph-evidence-rows"
EVIDENCE_ROWS_VERSION = 1


class Partition:
    """Evidence of up to window_days consecutive days of articles: rows of
    ``corpus``, in increasing order, held as ``propositions``.

    ``holding`` indexes the rows by argument key when it is first called,
    so ``propositions`` must not change after that, and builds the
    (``prop_id``, ``Proposition``) items of a key the first time that key
    is asked for: the answer models ask only for a question's first
    argument.
    """

    def __init__(
        self, id: int, date_range: tuple[dt.date, dt.date], corpus: Corpus,
        propositions: Sequence[int],
    ):
        self.id = id
        self.date_range = date_range
        self.corpus = corpus
        self.propositions = propositions
        self._rows: dict[str, list[int]] | None = None
        self._items: dict[str, list[tuple[str, Proposition]]] = {}

    def without(self, rows: set[int]) -> "Partition":
        return Partition(self.id, self.date_range, self.corpus,
                         [row for row in self.propositions if row not in rows])

    def holding(self, key: str) -> list[tuple[str, Proposition]]:
        """The (id, proposition) items whose arguments include the entity
        key ``key``, in ``propositions`` order."""
        if self._rows is None:
            rows: dict[str, list[int]] = {}
            keys, args1, args2 = self.corpus.keys, self.corpus.columns[1], self.corpus.columns[2]
            for row in self.propositions:
                first, b = keys[args1[row]], args2[row]
                rows.setdefault(first, []).append(row)
                if b >= 0 and keys[b] != first:
                    rows.setdefault(keys[b], []).append(row)
            self._rows = rows
        items = self._items.get(key)
        if items is None:
            proposition = self.corpus.proposition
            items = self._items[key] = [
                (prop_id(row), proposition(row)) for row in self._rows.get(key, ())]
        return items


class Question:
    def __init__(
        self,
        id: str,
        partition_id: int,
        predicate: TypedPredicate,
        args: tuple[EntityId, ...],
        polarity: str,  # "positive" | "negative"
        provenance: dict,
    ):
        self.id = id
        self.partition_id = partition_id
        self.predicate = predicate
        self.args = args
        self.polarity = polarity
        self.provenance = provenance


def partition(corpus: Corpus, window_days: int = 3) -> tuple[list[Partition], int]:
    """Cut the corpus's rows into disjoint consecutive date windows.

    Windows are anchored at the earliest article date; empty windows are
    dropped. Returns the partitions and the count of undated propositions
    excluded.
    """
    dates = corpus.columns[3]
    start = min(filter(None, dates), default=0)
    buckets: dict[int, list[int]] = {}
    for row, d in enumerate(dates):
        if d:
            buckets.setdefault((d - start) // window_days, []).append(row)
    undated = len(dates) - sum(map(len, buckets.values()))
    partitions = []
    for idx in sorted(buckets):
        lo = dt.date.fromordinal(start) + dt.timedelta(days=idx * window_days)
        hi = lo + dt.timedelta(days=window_days - 1)
        partitions.append(Partition(idx, (lo, hi), corpus, buckets[idx]))
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
    predicates, entities, keys = corpus.predicates, corpus.entities, corpus.keys
    preds, args1, args2 = corpus.columns[:3]
    # mentions of each entity key and of each binary's sorted key pair
    counts: Counter = Counter()
    stars = []  # (row, its star binding: a unary's key, a binary's key pair)
    for row in part.propositions:
        first, b = keys[args1[row]], args2[row]
        counts[first] += 1
        if b < 0:
            stars.append((row, first))
        else:
            second = keys[b]
            counts[second] += 1
            star = (first, second) if first <= second else (second, first)
            counts[star] += 1
            stars.append((row, star))
    untyped = corpus.untyped_index
    # in row order, as the partition holds them
    candidates = [row for row, star in stars
                  if untyped[predicates[preds[row]].untyped] >= predicate_min
                  and counts[star] >= entity_min]

    chosen = sorted(rng.sample(candidates, min(n, len(candidates))))
    questions = []
    for seq, row in enumerate(chosen):
        predicate = predicates[preds[row]]
        args = tuple(entities[e] for e in (args1[row], args2[row]) if e >= 0)
        questions.append(
            Question(
                id=f"q{part.id:03d}-pos{seq:04d}",
                partition_id=part.id,
                predicate=predicate,
                args=args,
                polarity="positive",
                provenance={"source_prop": prop_id(row)},
            )
        )
    return PositiveSelection(questions, part.without(set(chosen)), shortfall=len(chosen) < n)


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
    predicates, keys = corpus.predicates, corpus.keys
    preds, args1, args2 = corpus.columns[:3]
    in_partition = {
        (predicates[preds[row]].untyped,
         tuple(keys[e] for e in (args1[row], args2[row]) if e >= 0))
        for row in part.propositions
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
            if (pred.untyped, tuple(a.key for a in pos.args)) in in_partition:
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
        "surface": _question_surface(q.predicate, q.args),
    }


def question_from_record(obj: dict, reader: _CanonicalReader) -> Question:
    """The question a record holds, its predicate and arguments built
    through the reader, which checks them as it checks corpus records and
    shares them across one file. ``id`` and ``surface`` must be strings
    and ``provenance`` an object of strings; the surface is not kept,
    since ``question_record`` renders it."""
    if obj["polarity"] not in ("positive", "negative"):
        raise ValueError(f"polarity {obj['polarity']!r} is neither positive nor negative")
    token = TypedPredicate.parse_token(obj["predicate"])
    pred = reader.predicate(token.lemma, token.slot_types, token.case_marker)
    args = tuple(reader.entity(a["surface"], a.get("kb_id"), a["is_named"]) for a in obj["args"])
    provenance = _typed(obj["provenance"], dict, "provenance")
    for value in provenance.values():
        _typed(value, str, "provenance value")
    question = Question(
        _typed(obj["id"], str, "id"), _typed(obj["partition_id"], int, "partition_id"), pred,
        args, obj["polarity"], provenance,
    )
    _typed(obj["surface"], str, "surface")
    return question


def write_questions(qs: QuestionSet, path: str | Path) -> None:
    write_records(path, chain([qs.manifest], map(question_record, qs.questions)))


def read_questions(path: str | Path) -> tuple[list[Question], dict]:
    """The questions and manifest ``write_questions`` wrote. A question
    line is accepted only if ``question_record`` of the question it parses
    to reproduces it, its polarity is positive or negative, and its
    predicate and arguments pass the checks ``read_corpus`` makes (type
    labels as the inventory holds them, normalized surfaces, one surface per
    kb id across the file) and its id is not an earlier line's; any other
    line, a blank one included, raises ValueError naming the file and
    line."""
    manifest, lines = _read_qa_file(
        path, "entgraph-questions", QUESTION_FORMAT_VERSION, "a question file"
    )
    reader = _CanonicalReader(path)
    questions, first_line = [], {}
    for lineno, line in enumerate(lines[1:], 2):
        q = reader.parse(lineno, line, lambda obj: question_from_record(obj, reader),
                         question_record, "question record")
        if first_line.setdefault(q.id, lineno) != lineno:
            raise ValueError(
                f"{path}:{lineno}: question id {q.id!r} repeats line {first_line[q.id]}")
        questions.append(q)
    return questions, manifest


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


def _partition_header(p: Partition) -> dict:
    return {
        "id": p.id,
        "date_range": [p.date_range[0].isoformat(), p.date_range[1].isoformat()],
        "size": len(p.propositions),
    }


def write_evidence(partitions: list[Partition], corpus: Corpus, path: str | Path) -> None:
    """Write ``evidence.jsonl`` of ``partitions`` of ``corpus``: a header
    listing each partition, then one record line per evidence proposition,
    its partition id and ``prop_id`` beside the proposition's record. No
    stage reads it back."""
    header = {
        "format": "entgraph-evidence",
        "version": EVIDENCE_FORMAT_VERSION,
        "partitions": list(map(_partition_header, partitions)),
    }
    write_records(path, [header], _PropositionLines(corpus).evidence_lines(
        (p.id, row) for p in partitions for row in p.propositions))


def save_evidence(partitions: list[Partition], corpus: Corpus, path: str | Path) -> None:
    """Write ``partitions`` of ``corpus`` as ``evidence.columns``: the
    corpus's length and the partition list of ``write_evidence``'s header,
    then the corpus row of each evidence proposition, partition by
    partition, in one int32 column."""
    rows = array("i", chain.from_iterable(p.propositions for p in partitions))
    tables = {"corpus_rows": len(corpus), "partitions": list(map(_partition_header, partitions))}
    write_columns(path, EVIDENCE_MAGIC, EVIDENCE_ROWS_VERSION, tables, [rows])


def _partition_entry(entry) -> tuple[int, tuple[dt.date, dt.date], int]:
    """The id, date range and size of a header partition, as
    ``_partition_header`` writes them."""
    if type(entry) is not dict or entry.keys() != {"id", "date_range", "size"}:
        raise ValueError("is not an object of id, date_range and size")
    dates = _typed(entry["date_range"], list, "date_range")
    if len(dates) != 2:
        raise ValueError(f"date_range {dates!r} is not two dates")
    lo, hi = map(_iso_date, dates)
    if lo > hi:
        raise ValueError(f"date_range {dates!r} starts after it ends")
    size = _typed(entry["size"], int, "size")
    if size < 0:
        raise ValueError(f"size {size} is negative")
    return _typed(entry["id"], int, "id"), (lo, hi), size


def read_evidence(path: str | Path, corpus: Corpus) -> list[Partition]:
    """The partitions ``save_evidence`` wrote of ``corpus``, in header
    order, each holding its rows of ``corpus``.

    The header's ``corpus_rows`` must be the corpus's length; each
    partition an ``int`` id (no float or bool) no earlier one has, a date
    range of two ``YYYY-MM-DD`` dates that does not end before it starts,
    and an ``int`` size not below 0, the sizes adding up to the column's
    length. A partition's rows must lie in the corpus, strictly increase,
    and be dated within its range. Anything else raises ValueError naming
    the file and the partition entry, or the partition and row; the codec
    refuses a wrong magic, a short column and trailing bytes, and raises
    VersionMismatch for another version.
    """
    tables, (rows,) = read_columns(
        path, EVIDENCE_MAGIC, EVIDENCE_ROWS_VERSION, ("corpus_rows", "partitions"), "i")
    n = len(corpus)
    if type(tables["corpus_rows"]) is not int or tables["corpus_rows"] != n:
        raise ValueError(
            f"{path}: corpus_rows {tables['corpus_rows']!r} is not the corpus's {n} rows")
    entries = tables["partitions"]
    if type(entries) is not list:
        raise ValueError(f"{path}: partitions is not a list")
    meta = {}  # id -> (date range, size), in header order
    for i, entry in enumerate(entries):
        try:
            part_id, date_range, size = _partition_entry(entry)
            if part_id in meta:
                raise ValueError(f"id {part_id} repeats an earlier entry")
        except ValueError as exc:
            raise ValueError(f"{path}: partitions entry {i}: {exc}") from None
        meta[part_id] = (date_range, size)
    total = sum(size for _, size in meta.values())
    if total != len(rows):
        raise ValueError(
            f"{path}: partition sizes add up to {total}, not to the column's {len(rows)} rows")
    dates = corpus.columns[3]
    out, start = [], 0
    for part_id, ((lo, hi), size) in meta.items():
        part_rows, prev = rows[start:start + size], -1
        first, last = lo.toordinal(), hi.toordinal()
        for row in part_rows:
            if not 0 <= row < n:
                why = f"is outside the corpus of {n} rows"
            elif row <= prev:
                why = f"does not follow row {prev}"
            elif not dates[row]:
                why = "is undated"
            elif not first <= dates[row] <= last:
                why = f"is dated {dt.date.fromordinal(dates[row])}, outside {lo} to {hi}"
            else:
                prev = row
                continue
            raise ValueError(f"{path}: partition {part_id}: row {row} {why}")
        out.append(Partition(part_id, (lo, hi), corpus, part_rows))
        start += size
    return out
