"""Core corpus data model: entities, typed predicates, propositions, corpora.

A corpus is held as it is saved: interned tables of predicates, entities
and article ids beside int32 columns, one row per proposition. A row is
its proposition's identity, written as ``prop_id(row)``: feature counting
and question generation read the columns, and only the answer models get
``Proposition`` objects, built from rows by ``Corpus.proposition``.
Everything downstream reads from this model and never mutates it.
"""

from __future__ import annotations

import datetime as dt
import os
from array import array
from collections import Counter, namedtuple
from contextlib import contextmanager
from pathlib import Path
from typing import Iterable, Iterator

FALLBACK_TYPE = "thing"

# The three edge components: binary->binary, binary->unary, unary->unary.
# Named here, not in ``localgraph`` which builds them, so that a stage can
# choose components without importing a layer.
BB = "BB"
BU = "BU"
UU = "UU"
ALL_KINDS = frozenset((BB, BU, UU))


class VersionMismatch(ValueError):
    """An artifact declares a format version this code does not read.

    Defined here, not in ``graphio`` which raises it, so that the CLI can
    catch it without importing a layer.
    """


@contextmanager
def _atomic_writer(path: str | Path, newline: str | None = None, binary: bool = False):
    """Text (or ``binary``) handle on a temp file in the target directory,
    renamed over the target on success.

    An interrupted write leaves the previous file (or none) in place, never
    a truncated one, and removes its temp file.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    mode = {"mode": "wb"} if binary else {"mode": "w", "encoding": "utf-8", "newline": newline}
    try:
        with open(tmp, **mode) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def normalize_surface(text: str) -> str:
    """Lowercase and collapse internal whitespace."""
    return " ".join(text.split()).lower()


class EntityId(namedtuple("EntityId", "surface kb_id is_named")):
    """One argument entity: a normalized surface form, optionally linked.

    Entities compare, order and hash as the tuple of their fields. ``key``
    is the identity the stages read: the kb id when linked, the surface
    otherwise, so mentions of one linked entity share it whatever their
    surfaces. A kb id is never the key of an unlinked entity of the same
    file: ``ingest`` and the canonical readers refuse an unlinked surface
    equal to a kb id of the file. Ingestion pins one surface per kb id (the
    first seen wins), so that surfaces written out are consistent.
    """

    __slots__ = ()

    def __new__(cls, surface: str, kb_id: str | None = None, is_named: bool = False):
        if not surface:
            raise ValueError("entity surface must be non-empty")
        return tuple.__new__(cls, (surface, kb_id, is_named))

    @property
    def key(self) -> str:
        """Stable feature key: the kb id when linked, else the surface."""
        return self.kb_id if self.kb_id is not None else self.surface

    def __repr__(self) -> str:
        kb = f"={self.kb_id}" if self.kb_id else ""
        return f"EntityId({self.surface!r}{kb})"


def _type_label(raw: str) -> str:
    """A type label as the inventory holds it: stripped and lowercased.

    A label with ``#``, ``,`` or a tab cannot appear in a predicate token
    or a graph file's ``types=`` header and raises ValueError.
    """
    label = raw.strip().lower()
    for char in "#,\t":
        if char in label:
            raise ValueError(f"type label {raw!r} contains {char!r}")
    return label


class TypeInventory:
    """Closed inventory of entity type labels with a fallback label.

    Loaded once at startup from a one-label-per-line UTF-8 file. Labels
    are lowercased on load. Unknown labels resolve to the fallback
    ("thing"), which is always a member.
    """

    def __init__(self, labels: Iterable[str]):
        seen: dict[str, None] = {}
        for line in labels:
            line = line.strip()
            if line and not line.startswith("#"):
                seen.setdefault(_type_label(line), None)
        seen.setdefault(FALLBACK_TYPE, None)
        self._labels: tuple[str, ...] = tuple(seen)
        self._set = frozenset(self._labels)

    @classmethod
    def from_file(cls, path: str | Path) -> "TypeInventory":
        text = Path(path).read_text(encoding="utf-8")
        return cls(text.splitlines())

    @classmethod
    def default(cls) -> "TypeInventory":
        from . import resources

        return cls.from_file(resources.default_type_inventory_path())

    @property
    def labels(self) -> tuple[str, ...]:
        return self._labels

    def __contains__(self, label: str) -> bool:
        return label in self._set

    def __len__(self) -> int:
        return len(self._labels)

    def resolve(self, label: str) -> tuple[str, bool]:
        """Map a raw label into the inventory.

        Returns (resolved_label, was_known).
        """
        label = label.strip().lower()
        if label in self._set:
            return label, True
        return FALLBACK_TYPE, False


class TypedPredicate(namedtuple("TypedPredicate", "lemma valency slot_types case_marker")):
    """A predicate vertex identity: lemma, valency, and per-slot types.

    Unary predicates carry a case marker (".1" nominative, ".2" accusative)
    recording which argument position of the source verb they keep; binary
    predicates never do. Predicates compare, order and hash as the tuple
    of their fields.
    """

    __slots__ = ()

    def __new__(
        cls, lemma: str, valency: int, slot_types: tuple[str, ...], case_marker: str | None = None
    ):
        if valency not in (1, 2):
            raise ValueError(f"valency must be 1 or 2, got {valency}")
        if len(slot_types) != valency:
            raise ValueError("slot_types length must equal valency")
        if valency == 1:
            if case_marker not in (".1", ".2"):
                raise ValueError("unary predicates need a case marker .1 or .2")
        elif case_marker is not None:
            raise ValueError("binary predicates carry no case marker")
        return tuple.__new__(cls, (lemma, valency, slot_types, case_marker))

    @property
    def name(self) -> str:
        """Untyped predicate name, e.g. 'kill' or 'die.1'."""
        return self.lemma + (self.case_marker or "")

    @property
    def untyped(self) -> tuple[str, int]:
        """Key ignoring slot types, used for back-off queries."""
        return (self.name, self.valency)

    def token(self) -> str:
        """Single-token text form, e.g. 'kill#person#person' or 'die.1#person'."""
        return "#".join((self.name, *self.slot_types))

    @classmethod
    def parse_token(cls, token: str) -> "TypedPredicate":
        parts = token.split("#")
        if len(parts) < 2:
            raise ValueError(f"bad predicate token: {token!r}")
        name, types = parts[0], tuple(parts[1:])
        if len(types) == 1:
            if len(name) > 2 and name[-2] == "." and name[-1] in "12":
                return cls(name[:-2], 1, types, name[-2:])
            raise ValueError(f"unary predicate token lacks case marker: {token!r}")
        if len(types) == 2:
            return cls(name, 2, types)
        raise ValueError(f"bad predicate token arity: {token!r}")

    def __str__(self) -> str:
        return self.token()


class Proposition(namedtuple("Proposition", "predicate args article_id date sentence_idx")):
    """One extracted predicate instance with its bound, typed arguments."""

    __slots__ = ()

    def __new__(
        cls,
        predicate: TypedPredicate,
        args: tuple[EntityId, ...],
        article_id: str = "",
        date: dt.date | None = None,
        sentence_idx: int = 0,
    ):
        if len(args) != predicate.valency:
            raise ValueError("argument count must equal predicate valency")
        if sentence_idx < 0:
            raise ValueError("sentence_idx must be >= 0")
        return tuple.__new__(cls, (predicate, args, article_id, date, sentence_idx))

    @property
    def arg_keys(self) -> tuple[str, ...]:
        return tuple(a.key for a in self.args)


class IngestStats:
    """Bookkeeping from one ingestion run; malformed input is never fatal."""

    def __init__(self) -> None:
        self.records_read = 0
        self.propositions = 0
        self.skipped_malformed = 0
        self.skipped_unnamed = 0
        self.unknown_type_labels = 0
        self.decomposed_records = 0

    def as_dict(self) -> dict:
        return dict(self.__dict__)


def prop_id(row: int) -> str:
    """The id of a corpus row wherever one is written: ``p`` and at least
    six digits."""
    return f"p{row:06d}"


class Corpus:
    """An immutable corpus held as it is saved (see ``records``): tables of
    predicates, entities and article ids, each numbered in order of first
    use, and six int32 ``array`` columns with one row per proposition
    (predicate, argument 1, argument 2 or -1 for a unary, date ordinal or
    0 for none, article, sentence index). ``keys`` holds each entity's
    ``key``: two entries, a kb id both named and unnamed or two surfaces
    of one kb id, may share one.

    ``Corpus(propositions)`` interns the propositions into tables and
    columns; ``ingest`` and ``records.read_corpus`` build the tables and
    columns themselves (``from_columns``). A row is the identity of its
    proposition: the stages read the columns, and ``proposition(row)``
    builds one where a proposition is scored. ``untyped_index`` counts the
    predicate column. ``stats`` is the ``IngestStats`` it was built with:
    ``ingest``'s, or None.
    """

    def __init__(self, propositions: Iterable[Proposition], stats: IngestStats | None = None):
        predicates: dict[TypedPredicate, int] = {}
        entities: dict[EntityId, int] = {}
        articles: dict[str, int] = {}
        columns = [array("i") for _ in range(6)]
        preds, args1, args2, dates, article_ids, sentences = (c.append for c in columns)
        for prop in propositions:
            args = prop.args
            preds(predicates.setdefault(prop.predicate, len(predicates)))
            args1(entities.setdefault(args[0], len(entities)))
            args2(entities.setdefault(args[1], len(entities)) if len(args) == 2 else -1)
            dates(prop.date.toordinal() if prop.date is not None else 0)
            article_ids(articles.setdefault(prop.article_id, len(articles)))
            sentences(prop.sentence_idx)
        self._hold(list(predicates), list(entities), list(articles), columns, stats)

    @classmethod
    def from_columns(
        cls, predicates: list[TypedPredicate], entities: list[EntityId], articles: list[str],
        columns: list[array], stats: IngestStats | None = None,
    ) -> "Corpus":
        """The corpus of these tables and columns, taken as they are: the
        callers check the tables and the rows."""
        corpus = cls.__new__(cls)
        corpus._hold(predicates, entities, articles, columns, stats)
        return corpus

    def _hold(self, predicates, entities, articles, columns, stats) -> None:
        self.predicates: list[TypedPredicate] = predicates
        self.entities: list[EntityId] = entities
        self.keys: list[str] = [e.key for e in entities]
        self.articles: list[str] = articles
        self.columns: list[array] = columns
        self.stats: IngestStats | None = stats
        self._dates: dict[int, dt.date | None] = {0: None}
        self._untyped_index: Counter[tuple[str, int]] | None = None

    def proposition(self, row: int) -> Proposition:
        """The proposition of one row, sharing one object per predicate,
        entity and date. ``Proposition.__new__``'s checks are the row
        checks of whoever filled the columns."""
        preds, args1, args2, dates, articles, sentences = self.columns
        predicate, entities = self.predicates[preds[row]], self.entities
        a, b, d = args1[row], args2[row], dates[row]
        date = self._dates.get(d)
        if date is None and d:
            date = self._dates[d] = dt.date.fromordinal(d)
        args = (entities[a],) if b < 0 else (entities[a], entities[b])
        return tuple.__new__(Proposition, (predicate, args, self.articles[articles[row]], date,
                                           sentences[row]))

    @property
    def untyped_index(self) -> Counter[tuple[str, int]]:
        """Occurrences of each untyped predicate, counted from the
        predicate column on first use: only question screening reads them."""
        if self._untyped_index is None:
            index: Counter[tuple[str, int]] = Counter()
            for p, count in Counter(self.columns[0]).items():
                index[self.predicates[p].untyped] += count
            self._untyped_index = index
        return self._untyped_index

    def __len__(self) -> int:
        return len(self.columns[0])

    # views over ``proposition``, for tests and scripts: no stage reads them

    @property
    def propositions(self) -> tuple[Proposition, ...]:
        return tuple(map(self.proposition, range(len(self))))

    def __iter__(self) -> Iterator[Proposition]:
        return map(self.proposition, range(len(self)))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Corpus):
            return NotImplemented
        return self.propositions == other.propositions
