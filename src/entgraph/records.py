"""Artifact records: the saved corpus, and the record lines of the evidence
and question files.

A ``Corpus`` is held as it is saved: ``save_corpus`` writes its interned
tables of predicates, entities and article ids, then its int32 columns,
one per proposition field, as ``corpus.columns`` (see ``columns``).
``read_corpus`` reads them back without normalizing anything again:
re-normalizing a lemma is not the identity (``caused`` is saved as
``caus``, which would become ``cau``). It checks each table entry once
and each row once, over the columns, and refuses anything ``save_corpus``
would not write, naming the file and the entry or row. It builds no
``Proposition``.

Evidence and question files are written by ``write_records``, one sorted-
key JSON line per record. Proposition lines (``corpus_lines``, the form
``dump-corpus`` prints, and evidence lines) are assembled from JSON
fragments encoded once per table entry (``_PropositionLines``), byte for
byte what that encoder writes of the record. Question lines are checked by
``_CanonicalReader.parse``; no stage reads an evidence line (``answer``
reads evidence as corpus rows, see ``qagen.read_evidence``). The entry
checks the corpus tables pass are that reader's ``predicate`` and
``entity``, so every reader makes them alike. ``_iso_date`` is the one
date check of every reader. This module imports no other layer, so the
stages that read a corpus do not load ``ingest``.
"""
from __future__ import annotations

import datetime as dt
import json
from array import array
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Callable, Iterable, Iterator

from .columns import INT32_MAX, read_columns, write_columns
from .model import (
    Corpus,
    EntityId,
    TypedPredicate,
    _atomic_writer,
    _type_label,
    normalize_surface,
    prop_id,
)

CORPUS_MAGIC = "entgraph-corpus"
CORPUS_VERSION = 1
_CORPUS_TABLES = ("articles", "entities", "predicates")
# predicate, argument 1, argument 2 (-1 for a unary), date (proleptic
# ordinal, 0 for none), article, sentence index
_CORPUS_COLUMNS = "iiiiii"
_LAST_ORDINAL = dt.date.max.toordinal()


class RecordError(ValueError):
    """A single malformed record; ingestion counts these and moves on."""


def _typed(value, kind: type, name: str):
    """``value`` if its type is exactly ``kind``, so that no bool passes for
    an int and nothing is coerced; RecordError otherwise."""
    if type(value) is not kind:
        raise RecordError(f"{name} {value!r} is not {kind.__name__}")
    return value


def _iso_date(value) -> dt.date:
    """The date of a ``YYYY-MM-DD`` string. Python 3.11 reads more forms
    than 3.10 does (``20210304``), so a file must not depend on them: a
    string that is not its date's ``isoformat`` raises RecordError."""
    try:
        date = dt.date.fromisoformat(_typed(value, str, "date"))
        if date.isoformat() == value:
            return date
    except ValueError:
        pass
    raise RecordError(f"bad date {value!r}")


def _lemma(lemma: str) -> str:
    """A lemma as a predicate vertex can carry it.

    A ``#`` would split its predicate token (``kill#x#person#person``) into
    the wrong number of types and raises RecordError.
    """
    if "#" in lemma:
        raise RecordError(f"predicate {lemma!r} contains '#'")
    return lemma


def _key_clash(linked: dict[str, bool], entity: EntityId) -> str | None:
    """Why ``entity``'s key cannot be told from an earlier entity's, if it
    cannot: ``linked`` maps each key seen to whether it was a kb id."""
    is_linked = entity.kb_id is not None
    if linked.setdefault(entity.key, is_linked) != is_linked:
        return f"{entity.key!r} is both a kb id and the surface of an unlinked entity"


# -- the saved corpus -----------------------------------------------------------


def save_corpus(corpus: Corpus, path: str | Path) -> None:
    """Write ``corpus``'s tables and int32 columns as it holds them,
    atomically."""
    tables = {
        "articles": corpus.articles,
        "entities": [list(entity) for entity in corpus.entities],
        "predicates": [[p.lemma, list(p.slot_types), p.case_marker] for p in corpus.predicates],
    }
    write_columns(path, CORPUS_MAGIC, CORPUS_VERSION, tables, corpus.columns)


def _fields(entry, names: tuple[str, ...]) -> list:
    if type(entry) is not list or len(entry) != len(names):
        raise ValueError(f"{entry!r} is not [{', '.join(names)}]")
    return entry


def _predicate_key(entry) -> tuple:
    lemma, types, case = _fields(entry, ("lemma", "types", "case"))
    return lemma, tuple(_typed(types, list, "types")), case


def _entity_key(entry) -> tuple:
    surface, kb_id, is_named = _fields(entry, ("surface", "kb_id", "is_named"))
    return surface, kb_id, _typed(is_named, bool, "is_named")


def _table(path, tables: dict, name: str, key_of: Callable, make: Callable) -> list:
    """``make(*key_of(entry))`` of each entry of table ``name``. An entry
    that ``key_of`` or ``make`` refuses, or that repeats an earlier one,
    raises ValueError naming the file, the table and the entry's index."""
    entries = tables[name]
    if type(entries) is not list:
        raise ValueError(f"{path}: {name} table is not a list")
    values, seen = [], set()
    for i, entry in enumerate(entries):
        try:
            key = key_of(entry)
            if key in seen:
                raise ValueError("repeats an earlier entry")
            seen.add(key)
            values.append(make(*key))
        except (AttributeError, TypeError, ValueError) as exc:
            raise ValueError(f"{path}: {name} entry {i}: {exc}") from None
    return values


def _first_row(path, column: array, within: Callable[[int], bool], what: str) -> None:
    """ValueError naming the first row whose value ``within`` refuses, if any."""
    for row, value in enumerate(column):
        if not within(value):
            raise ValueError(f"{path}: row {row}: {what} {value} out of range")


def read_corpus(path: str | Path) -> Corpus:
    """The corpus ``save_corpus`` wrote, read strictly and not normalized
    again, with one shared object per predicate, entity and date.

    Each table entry is checked once: a lemma without ``#``, inventory
    type labels, a ``.1``/``.2`` case marker on a unary and none on a
    binary; a normalized surface, a ``str`` or null kb id keeping one
    surface, a ``bool`` named flag and no key shared by a kb id and an
    unlinked surface; ``str`` article ids; no entry twice. Each row is
    checked once: ids in range, an argument count equal to the valency, a
    named argument, a date ordinal and a sentence index that are not
    negative. Anything else raises ValueError naming the file and the
    entry or row.
    """
    tables, columns = read_columns(
        path, CORPUS_MAGIC, CORPUS_VERSION, _CORPUS_TABLES, _CORPUS_COLUMNS)
    reader = _CanonicalReader(path)
    predicates = _table(path, tables, "predicates", _predicate_key, reader.predicate)
    entities = _table(path, tables, "entities", _entity_key, reader.entity)
    articles = tables["articles"]
    # one pass for the usual table; the entry loop names what it refuses
    if not (type(articles) is list and all(type(a) is str for a in articles)
            and len(set(articles)) == len(articles)):
        articles = _table(path, tables, "articles",
                          lambda a: (_typed(a, str, "article id"),), str)
    pred_col, args1, args2, date_col, article_col, sentences = columns
    n_ents = len(entities)
    for column, lo, hi, what in (
        (pred_col, 0, len(predicates), "predicate id"),
        (args1, 0, n_ents, "argument 1 id"),
        (args2, -1, n_ents, "argument 2 id"),
        (article_col, 0, len(articles), "article id"),
        (date_col, 0, _LAST_ORDINAL + 1, "date ordinal"),
        (sentences, 0, INT32_MAX + 1, "sentence index"),
    ):
        if column and not (lo <= min(column) and max(column) < hi):
            _first_row(path, column, lambda v: lo <= v < hi, what)
    named = [e.is_named for e in entities]
    unary = [p.valency == 1 for p in predicates]
    for row, (p, a, b) in enumerate(zip(pred_col, args1, args2)):
        if not (named[a] or b >= 0 and named[b]):
            raise ValueError(f"{path}: row {row}: no argument is named")
        if (b < 0) != unary[p]:
            raise ValueError(f"{path}: row {row}: argument count must equal predicate valency")
    return Corpus.from_columns(predicates, entities, articles, columns)


def corpus_lines(corpus: Corpus) -> Iterator[str]:
    """Each proposition's record as one sorted-key JSON line, the form
    ``entgraph dump-corpus`` prints."""
    line = _PropositionLines(corpus).line
    for row in zip(*corpus.columns):
        yield line(*row)


# -- record lines -----------------------------------------------------------------

# every record file is written through this one encoder, so equal records
# give equal bytes; proposition lines are written as it would write them
_ENCODER = json.JSONEncoder(sort_keys=True)


def write_records(path: str | Path, records: Iterable[dict], lines: Iterable[str] = ()) -> None:
    """Write each record as one sorted-key JSON line, then ``lines``
    (proposition lines, see ``_PropositionLines``), atomically."""
    encode = _ENCODER.encode
    with _atomic_writer(path) as fh:
        for record in records:
            fh.write(encode(record) + "\n")
        fh.writelines(lines)


class _PropositionLines:
    """The record lines of a corpus's rows, each assembled from JSON
    fragments encoded once per table entry: byte for byte what
    ``_ENCODER`` writes of the proposition's record (sorted keys; voice
    active and no modifiers; an argument's ``kb_id`` only if it has one,
    its ``role_index`` 1 and 2 in a binary and the case marker's in a
    unary). An evidence line also holds a partition id and the row's
    ``prop_id``."""

    def __init__(self, corpus: Corpus):
        encode = encode_basestring_ascii
        self.corpus = corpus
        self.articles = corpus.articles
        # an argument is its entity's head, the slot's role, the entity's
        # tail and the slot's type: its keys sort as is_named, kb_id,
        # role_index, surface, type
        self.entities = [
            ('{"is_named": ' + ("true" if e.is_named else "false")
             + ("" if e.kb_id is None else ', "kb_id": ' + encode(e.kb_id))
             + ', "role_index": ',
             ', "surface": ' + encode(e.surface) + ', "type": ')
            for e in corpus.entities
        ]
        self.predicates = [
            (encode(p.lemma), [(role, encode(label) + "}") for role, label in zip(
                (p.case_marker[1:],) if p.valency == 1 else ("1", "2"), p.slot_types)])
            for p in corpus.predicates
        ]
        self.dates = {0: "null"}

    def line(self, p: int, a: int, b: int, d: int, art: int, s: int,
             before: str = "", after: str = "") -> str:
        """The line of one row's values, with ``before`` written before the
        ``predicate`` key and ``after`` after its value."""
        lemma, slots = self.predicates[p]
        role, label = slots[0]
        head, tail = self.entities[a]
        args = head + role + tail + label
        if b >= 0:
            role, label = slots[1]
            head, tail = self.entities[b]
            args = f"{args}, {head}{role}{tail}{label}"
        date = self.dates.get(d)
        if date is None:
            date = self.dates[d] = f'"{dt.date.fromordinal(d).isoformat()}"'
        # article ids are about as many as rows: encoded here, not kept
        return (f'{{"args": [{args}], "article_id": {encode_basestring_ascii(self.articles[art])}, '
                f'"date": {date}, '
                f'"modifiers": [], {before}"predicate": {lemma}{after}, "sentence_idx": {s}, '
                '"voice": "active"}\n')

    def evidence_lines(self, items: Iterable[tuple[int, int]]) -> Iterator[str]:
        """The evidence line of each (partition id, corpus row): the row's
        record beside the partition id and the row's ``prop_id``."""
        preds, args1, args2, dates, articles, sentences = self.corpus.columns
        line = self.line
        for partition_id, row in items:
            yield line(preds[row], args1[row], args2[row], dates[row], articles[row],
                       sentences[row], f'"partition_id": {partition_id}, ',
                       f', "prop_id": "{prop_id(row)}"')


class _CanonicalReader:
    """Parses lines in the form a record function writes, one file at a
    time, sharing one object per predicate, entity and date.

    A line is canonical iff the record function of the value it parses to
    reproduces it, ``partition_id`` is an int and ``is_named`` a bool (not
    merely equal to one), its surfaces and type labels are already
    normalized, and each kb id keeps the one surface it first had in the
    file and is no unlinked surface of it. Anything else raises ValueError
    naming the file and line. Question lines go through ``parse``; the
    corpus tables through ``predicate`` and ``entity``.
    """

    def __init__(self, path: str | Path):
        self.path = path
        self.predicates: dict[tuple, TypedPredicate] = {}
        self.entities: dict[tuple, EntityId] = {}
        self.surface_of: dict[str, str] = {}
        self.linked: dict[str, bool] = {}

    def parse(self, lineno: int, line: str, build: Callable, record: Callable, what: str):
        """The value ``build`` makes of one line's object, if ``record`` of
        it writes that object back; otherwise ValueError
        ``path:line: not a canonical <what>: reason``."""
        try:
            obj = json.loads(line)
            value = build(obj)
            saved = record(value)
            if saved != obj:
                differ = sorted(k for k in saved.keys() | obj.keys() if saved.get(k) != obj.get(k))
                raise ValueError(f"fields {differ} differ from the saved form")
            return value
        except KeyError as exc:
            reason = f"missing field {exc.args[0]!r}"
        except (AttributeError, TypeError, ValueError) as exc:
            reason = str(exc)
        raise ValueError(f"{self.path}:{lineno}: not a canonical {what}: {reason}")

    def predicate(self, lemma: str, types: tuple[str, ...], case: str | None) -> TypedPredicate:
        """The predicate with this lemma, types and case marker; the lemma
        must carry no ``#`` and each type must be an inventory label."""
        key = (lemma, types, case)
        if key not in self.predicates:
            if not isinstance(lemma, str) or not lemma:
                raise ValueError(f"predicate {lemma!r} is not a lemma")
            _lemma(lemma)
            for label in types:
                if not label or _type_label(label) != label:
                    raise ValueError(f"type {label!r} is not an inventory label")
            self.predicates[key] = TypedPredicate(lemma, len(types), types, case)
        return self.predicates[key]

    def entity(self, surface: str, kb_id: str | None, is_named: bool) -> EntityId:
        """The entity with this surface and kb id; the surface must be
        normalized, the kb id a string or None, and a kb id keeps the surface
        it first had in the file. ``is_named`` is checked first: ``1`` would
        find the entity of ``True``."""
        key = (surface, kb_id, _typed(is_named, bool, "is_named"))
        if key not in self.entities:
            if normalize_surface(_typed(surface, str, "surface")) != surface:
                raise ValueError(f"surface {surface!r} is not normalized")
            if kb_id is not None:
                first = self.surface_of.setdefault(_typed(kb_id, str, "kb_id"), surface)
                if first != surface:
                    raise ValueError(f"kb_id {kb_id!r} has surfaces {first!r} and {surface!r}")
            entity = EntityId(surface, kb_id, is_named)
            if (clash := _key_clash(self.linked, entity)) is not None:
                raise ValueError(clash)
            self.entities[key] = entity
        return self.entities[key]
