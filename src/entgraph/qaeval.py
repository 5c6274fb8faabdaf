"""Question answering models and the evaluation harness.

Answer models score how strongly each question can be inferred from the
partition evidence and take the maximum over evidence propositions as the
confidence of "true"; no inference found means confidence 0, which never
counts as a positive prediction. The harness sweeps thresholds over the
confidences for precision/recall curves, supports filtering to questions
whose predicate is a graph vertex, and reports accuracy over the K most
confident predictions.

An evidence proposition can answer a question only if it holds the
question's first argument: under every edge code each question
argument is bound to an evidence argument, and a verbatim repeat holds
them all. So the models read only ``Partition.holding`` that argument, the
partition's evidence indexed once by argument key; the rest would score 0.

Importing this module loads no graph layer: a caller that answers with a
graph opens the store and passes it in, and ``compatible_evidence``
imports the binding rule when it runs.
"""

from __future__ import annotations

import csv
import random
from collections import namedtuple
from pathlib import Path
from typing import TYPE_CHECKING, Collection, Mapping, Sequence

from .model import ALL_KINDS, Proposition, _atomic_writer
from .qagen import Partition, Question, balance

if TYPE_CHECKING:
    from .store import GraphStore


class AnswerRecord(
    namedtuple("AnswerRecord", "question_id model_id confidence best_evidence backed_off")
):
    __slots__ = ()

    def __new__(
        cls,
        question_id: str,
        model_id: str,
        confidence: float,
        best_evidence: str | None = None,
        backed_off: bool = False,
    ):
        if not 0.0 <= confidence <= 1.0:
            raise ValueError("confidence outside [0, 1]")
        if (best_evidence is not None) != (confidence > 0):
            raise ValueError("best_evidence present iff confidence > 0")
        return tuple.__new__(cls, (question_id, model_id, confidence, best_evidence, backed_off))


def _untyped_match(q: Question, prop: Proposition) -> bool:
    return (
        prop.predicate.untyped == q.predicate.untyped
        and prop.arg_keys == tuple(a.key for a in q.args)
    )


def answer_exact_match(question: Question, evidence: Partition) -> AnswerRecord:
    """Confidence 1 iff some evidence proposition repeats the question
    verbatim (same untyped predicate, same bound arguments)."""
    for pid, prop in evidence.holding(question.args[0].key):
        if _untyped_match(question, prop):
            return AnswerRecord(question.id, "exact", 1.0, pid)
    return AnswerRecord(question.id, "exact", 0.0)


def _model_id(kinds: frozenset[str]) -> str:
    return "graph-" + "+".join(sorted(kinds)).lower()


def answer_graph(
    question: Question,
    evidence: Partition,
    store: GraphStore,
    kinds: frozenset[str] = ALL_KINDS,
) -> AnswerRecord:
    """Max of ``GraphStore.score`` over the partition's evidence; the
    first evidence proposition reaching it is the best evidence. Evidence
    that shares no binding with the question scores 0, so only evidence
    holding its first argument is scored."""
    hyp_args = tuple(a.key for a in question.args)
    best = 0.0
    best_pid = None
    backed_off = False
    for pid, prop in evidence.holding(hyp_args[0]):
        result = store.score(prop, question.predicate, hyp_args, kinds)
        if result.score > best:
            best, best_pid, backed_off = result.score, pid, result.backed_off
    return AnswerRecord(question.id, _model_id(kinds), best, best_pid, backed_off)


# -- external scorer protocol ------------------------------------------------


def compatible_evidence(question: Question, evidence: Partition) -> list[str]:
    """Evidence ids that some edge code binds to the question's arguments."""
    from .localgraph import consistent_codes

    hyp_args = tuple(a.key for a in question.args)
    return [
        pid
        for pid, prop in evidence.holding(hyp_args[0])
        if consistent_codes(prop.arg_keys, hyp_args)
    ]


def export_evidence(
    questions: Sequence[Question], evidence: Mapping[int, Partition], path: str | Path
) -> None:
    """Write the (question, evidence candidate) listing external scorers read."""
    with _atomic_writer(path) as fh:
        fh.write("question_id\tprop_id\n")
        for q in questions:
            for pid in compatible_evidence(q, evidence[q.partition_id]):
                fh.write(f"{q.id}\t{pid}\n")


class ScoreFileError(ValueError):
    pass


def read_external_scores(
    path: str | Path, candidates: Mapping[str, Collection[str]]
) -> dict[tuple[str, str], float]:
    """Parse (question id, evidence id, score) lines; scores must be in
    [0, 1], and each evidence id one of the ``candidates`` of its
    question, as ``export_evidence`` lists them. Duplicate pairs keep
    the max."""
    scores: dict[tuple[str, str], float] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#") or line.startswith("question_id"):
                continue
            where = f"{path}:{lineno}"
            parts = line.split("\t")
            if len(parts) != 3:
                raise ScoreFileError(f"{where}: expected 3 tab-separated fields")
            qid, pid, raw = parts
            try:
                value = float(raw)
            except ValueError as exc:
                raise ScoreFileError(f"{where}: bad score {raw!r}") from exc
            if not 0.0 <= value <= 1.0:
                raise ScoreFileError(f"{where}: score {value} outside [0, 1]")
            if qid not in candidates:
                raise ScoreFileError(f"{where}: unknown question {qid!r}")
            if pid not in candidates[qid]:
                raise ScoreFileError(
                    f"{where}: {pid!r} is not an evidence candidate of question {qid!r}"
                )
            key = (qid, pid)
            if key in scores:
                scores[key] = max(scores[key], value)
            else:
                scores[key] = value
    return scores


def external_scores(
    questions: Sequence[Question],
    scores: Mapping[tuple[str, str], float],
    model_id: str = "external",
) -> list[AnswerRecord]:
    """Fold externally computed per-evidence scores into answer records."""
    by_question: dict[str, tuple[float, str | None]] = {}
    for (qid, pid), value in sorted(scores.items()):
        cur = by_question.get(qid, (0.0, None))
        if value > cur[0]:
            by_question[qid] = (value, pid)
    out = []
    for q in questions:
        conf, pid = by_question.get(q.id, (0.0, None))
        out.append(AnswerRecord(q.id, model_id, conf, pid if conf > 0 else None))
    return out


# -- metrics -----------------------------------------------------------------


class PRPoint(namedtuple("PRPoint", "threshold precision recall")):
    __slots__ = ()


class PRCurve:
    def __init__(self, points: list[PRPoint], max_recall: float):
        self.points = points
        self.max_recall = max_recall


def pr_curve(records: Sequence[AnswerRecord], gold: Mapping[str, bool]) -> PRCurve:
    """Precision/recall at every distinct positive confidence threshold.

    A record predicts true at threshold t iff its confidence is >= t and
    > 0; abstentions never predict true. Gold must contain at least one
    positive. One sweep down the answers, most confident first, counts
    the true and false positives at each threshold as it passes it.
    """
    n_pos = sum(1 for qid in gold if gold[qid])
    if n_pos == 0:
        raise ValueError("gold labels contain no positives")
    answered = sorted(((r.confidence, bool(gold[r.question_id]))
                       for r in records if r.confidence > 0), reverse=True)
    points, tp, fp = [], 0, 0
    for i, (t, g) in enumerate(answered):
        tp, fp = tp + g, fp + (not g)
        if i + 1 == len(answered) or answered[i + 1][0] != t:
            points.append(PRPoint(t, tp / (tp + fp), tp / n_pos))
    points.reverse()
    return PRCurve(points, points[0].recall if points else 0.0)


class AccuracyAtK(namedtuple("AccuracyAtK", "accuracy k_requested k_used")):
    __slots__ = ()


def accuracy_at_k(
    records: Sequence[AnswerRecord], gold: Mapping[str, bool], k: int
) -> AccuracyAtK:
    """Accuracy of the k most confident predictions (ties broken by
    question id). With fewer than k answered, uses all and reports it."""
    answered = sorted(
        (r for r in records if r.confidence > 0),
        key=lambda r: (-r.confidence, r.question_id),
    )
    top = answered[:k]
    if not top:
        return AccuracyAtK(0.0, k, 0)
    correct = sum(1 for r in top if gold[r.question_id])
    return AccuracyAtK(correct / len(top), k, len(top))


def filter_questions(
    questions: Sequence[Question], store: GraphStore, seed: int = 0
) -> list[Question]:
    """Keep questions whose typed predicate is a vertex anywhere in the
    graph collection, then re-balance the quadrants."""
    kept = []
    for q in questions:
        vertices = store.untyped_index.get(q.predicate.untyped, ())
        if any(v == q.predicate for _, v in vertices):
            kept.append(q)
    rng = random.Random(seed)
    balanced, _ = balance(
        [q for q in kept if q.polarity == "positive"],
        [q for q in kept if q.polarity == "negative"],
        rng,
    )
    return balanced


# -- report files ------------------------------------------------------------


ANSWER_FIELDS = ["question_id", "model_id", "confidence", "best_evidence", "backed_off"]


def _answer_row(r: AnswerRecord) -> list[str]:
    return [r.question_id, r.model_id, repr(r.confidence), r.best_evidence or "",
            str(int(r.backed_off))]


def write_answers(records: Sequence[AnswerRecord], path: str | Path) -> None:
    with _atomic_writer(path, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(ANSWER_FIELDS)
        writer.writerows(map(_answer_row, records))


def read_answers(path: str | Path) -> list[AnswerRecord]:
    """The records ``write_answers`` wrote of one model. A file with
    another header raises ValueError naming the file; a row that does not
    parse, that ``write_answers`` would not write back as it stands (a
    sixth field, a ``backed_off`` of ``7`` or `` 1``) or whose model id
    is not the first row's raises ValueError naming the file and line."""
    out: list[AnswerRecord] = []
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != ANSWER_FIELDS:
            raise ValueError(
                f"{path}: not an answer file: its header is {header}, not {ANSWER_FIELDS}"
            )
        for row in reader:
            try:
                if len(row) != len(ANSWER_FIELDS):
                    raise ValueError(f"{len(row)} fields, not {len(ANSWER_FIELDS)}")
                qid, model_id, confidence, best, backed_off = row
                record = AnswerRecord(
                    qid, model_id, float(confidence), best or None, bool(int(backed_off)))
                written = _answer_row(record)
                if written != row:
                    differ = [f for f, a, b in zip(ANSWER_FIELDS, written, row) if a != b]
                    raise ValueError(f"fields {differ} differ from the written form")
                if out and model_id != out[0].model_id:
                    raise ValueError(
                        f"model id {model_id!r} is not the first row's {out[0].model_id!r}")
            except ValueError as exc:
                raise ValueError(f"{path}:{reader.line_num}: bad answer row: {exc}") from None
            out.append(record)
    return out


def write_pr_csv(curve: PRCurve, path: str | Path) -> None:
    with _atomic_writer(path, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["threshold", "precision", "recall"])
        for p in curve.points:
            writer.writerow([repr(p.threshold), repr(p.precision), repr(p.recall)])
