"""Core corpus data model: entities, typed predicates, propositions, corpora.

A corpus is an immutable list of propositions plus occurrence indexes over
entities, predicates and argument pairs. Everything downstream (feature
vectors, graphs, question generation) reads from this model and never
mutates it.
"""

from __future__ import annotations

import datetime as dt
import os
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator

FALLBACK_TYPE = "thing"


class VersionMismatch(ValueError):
    """An artifact declares a format version this code does not read.

    Defined here, not in ``graphio`` which raises it, so that the CLI can
    catch it without importing a layer.
    """


@contextmanager
def _atomic_writer(path: str | Path, newline: str | None = None):
    """Text handle on a temp file in the target directory, renamed over
    the target on success.

    An interrupted write leaves the previous file (or none) in place, never
    a truncated one, and removes its temp file.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8", newline=newline) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def normalize_surface(text: str) -> str:
    """Lowercase and collapse internal whitespace."""
    return " ".join(text.split()).lower()


@dataclass(frozen=True, eq=False)
class EntityId:
    """One argument entity: a normalized surface form, optionally linked.

    Equality compares knowledge-base ids when both sides carry one, and
    surface forms otherwise. Hashing uses the surface only, so mentions of
    one linked entity must share a canonical surface within a corpus;
    ingestion enforces that (first surface seen per kb_id wins).
    """

    surface: str
    kb_id: str | None = None
    is_named: bool = False

    def __post_init__(self) -> None:
        if not self.surface:
            raise ValueError("entity surface must be non-empty")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, EntityId):
            return NotImplemented
        if self.kb_id is not None and other.kb_id is not None:
            return self.kb_id == other.kb_id
        return self.surface == other.surface

    def __hash__(self) -> int:
        return hash(self.surface)

    @property
    def key(self) -> str:
        """Stable feature key: the kb id when linked, else the surface."""
        return self.kb_id if self.kb_id is not None else self.surface

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
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


@dataclass(frozen=True, order=True)
class TypedPredicate:
    """A predicate vertex identity: lemma, valency, and per-slot types.

    Unary predicates carry a case marker (".1" nominative, ".2" accusative)
    recording which argument position of the source verb they keep; binary
    predicates never do.
    """

    lemma: str
    valency: int
    slot_types: tuple[str, ...]
    case_marker: str | None = None

    def __post_init__(self) -> None:
        if self.valency not in (1, 2):
            raise ValueError(f"valency must be 1 or 2, got {self.valency}")
        if len(self.slot_types) != self.valency:
            raise ValueError("slot_types length must equal valency")
        if self.valency == 1:
            if self.case_marker not in (".1", ".2"):
                raise ValueError("unary predicates need a case marker .1 or .2")
        elif self.case_marker is not None:
            raise ValueError("binary predicates carry no case marker")

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


@dataclass(frozen=True)
class Proposition:
    """One extracted predicate instance with its bound, typed arguments."""

    predicate: TypedPredicate
    args: tuple[EntityId, ...]
    article_id: str = ""
    date: dt.date | None = None
    sentence_idx: int = 0
    negated: bool = False

    def __post_init__(self) -> None:
        if len(self.args) != self.predicate.valency:
            raise ValueError("argument count must equal predicate valency")
        if self.sentence_idx < 0:
            raise ValueError("sentence_idx must be >= 0")

    @property
    def arg_keys(self) -> tuple[str, ...]:
        return tuple(a.key for a in self.args)


@dataclass
class IngestStats:
    """Bookkeeping from one ingestion run; malformed input is never fatal."""

    records_read: int = 0
    propositions: int = 0
    skipped_malformed: int = 0
    skipped_unnamed: int = 0
    unknown_type_labels: int = 0
    decomposed_records: int = 0

    def as_dict(self) -> dict:
        return dict(self.__dict__)


class Corpus:
    """Immutable proposition collection with derived occurrence indexes."""

    def __init__(self, propositions: Iterable[Proposition], stats: IngestStats | None = None):
        self.propositions: tuple[Proposition, ...] = tuple(propositions)
        self.stats = stats or IngestStats(
            records_read=len(self.propositions), propositions=len(self.propositions)
        )
        self.predicate_index: Counter[TypedPredicate] = Counter()
        for prop in self.propositions:
            self.predicate_index[prop.predicate] += 1
        # untyped predicate occurrence counts back question screening
        self.untyped_index: Counter[tuple[str, int]] = Counter()
        for pred, n in self.predicate_index.items():
            self.untyped_index[pred.untyped] += n

    def __len__(self) -> int:
        return len(self.propositions)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Corpus):
            return NotImplemented
        return self.propositions == other.propositions

    def __iter__(self) -> Iterator[Proposition]:
        return iter(self.propositions)

    def prop_id(self, index: int) -> str:
        return f"p{index:06d}"

    def items(self) -> Iterator[tuple[str, Proposition]]:
        for i, prop in enumerate(self.propositions):
            yield self.prop_id(i), prop

    def verify_indexes(self) -> bool:
        """Recompute the predicate index from the proposition list and compare."""
        return self.predicate_index == Corpus(self.propositions).predicate_index

    def save(self, path: str | Path) -> None:
        from .ingest import save_corpus

        save_corpus(self, path)
