"""Proposition file ingestion and predicate normalization.

``ingest`` consumes newline-delimited JSON records produced by an upstream
extraction stack (parser, NER, entity linker). Each record carries a raw
predicate string plus voice/modifier annotations and role-indexed typed
arguments; see docs/formats.md for the exact field contract. It is the
only place where a predicate is lemmatized and an argument typed, each
once per distinct raw value of the file. Each record's propositions are
interned into the corpus's tables and columns as the record is parsed, so
no ``Proposition`` is built; ``records`` saves the corpus as it is held
and reads it back, and the later stages load it instead of this module.
"""

from __future__ import annotations

import datetime as dt
import json
from array import array
from collections import namedtuple
from itertools import combinations
from operator import itemgetter
from pathlib import Path
from typing import Iterable

from .columns import INT32_MAX
from .model import (
    Corpus,
    EntityId,
    IngestStats,
    TypeInventory,
    TypedPredicate,
    normalize_surface,
)
from .records import RecordError, _iso_date, _key_clash, _lemma, _typed


BE_FORMS = {"be", "is", "are", "was", "were", "am", "been", "being"}
AUXILIARIES = BE_FORMS | {
    "has", "have", "had", "having",
    "do", "does", "did",
    "will", "would", "shall", "should", "may", "might", "must", "can", "could",
    "get", "got",
}
DETERMINERS = {"a", "an", "the"}

# Irregular forms the suffix rules below would mangle. Kept small on purpose:
# inputs are normally pre-lemmatized by the extraction stack.
_IRREGULAR = {
    "was": "be", "were": "be", "is": "be", "are": "be", "am": "be",
    "been": "be", "being": "be",
    "sang": "sing", "sung": "sing",
    "sold": "sell", "bought": "buy", "wrote": "write", "written": "write",
    "won": "win", "met": "meet", "made": "make", "went": "go", "gone": "go",
    "took": "take", "taken": "take", "got": "get", "gotten": "get",
    "said": "say", "saw": "see", "seen": "see", "gave": "give",
    "given": "give", "found": "find", "told": "tell", "became": "become",
    "came": "come", "ran": "run", "paid": "pay", "kept": "keep",
    "held": "hold", "left": "leave", "felt": "feel", "brought": "bring",
    "began": "begin", "begun": "begin", "lost": "lose", "built": "build",
    "sent": "send", "spent": "spend", "fell": "fall", "fallen": "fall",
    "grew": "grow", "grown": "grow", "knew": "know", "known": "know",
    "thought": "think", "led": "lead", "did": "do", "done": "do",
    "has": "have", "had": "have", "dying": "die", "lying": "lie",
}


def _undouble(stem: str) -> str:
    # planned -> plan, but kill / pass keep their natural doubles
    if len(stem) >= 3 and stem[-1] == stem[-2] and stem[-1] not in "lsz":
        return stem[:-1]
    return stem


def lemmatize_token(token: str) -> str:
    """Heuristic English verb lemmatizer; identity on dotted compounds."""
    if "." in token:
        return token
    if token in _IRREGULAR:
        return _IRREGULAR[token]
    if len(token) > 3 and token.endswith("ies"):
        return token[:-3] + "y"
    if len(token) > 3 and token.endswith("es") and token[-3] in "sxz":
        return token[:-2]
    if len(token) > 4 and (token.endswith("ches") or token.endswith("shes")):
        return token[:-2]
    if len(token) > 2 and token.endswith("s") and not token.endswith("ss"):
        return token[:-1]
    if token.endswith("ied"):
        return token[:-1] if len(token) == 4 else token[:-3] + "y"
    if len(token) > 3 and token.endswith("ed"):
        return _undouble(token[:-2])
    if len(token) > 4 and token.endswith("ing"):
        return _undouble(token[:-3])
    return token


def _segments(raw: str, voice: str) -> list[str]:
    """Split a raw predicate string into normalized lemma segments."""
    tokens = raw.lower().split()
    if not tokens:
        return []
    if len(tokens) == 1 and "." in tokens[0]:
        # pre-lemmatized dotted compound, pass through
        return [tokens[0]]

    if voice == "passive":
        while tokens and tokens[0] in AUXILIARIES:
            tokens = tokens[1:]
    elif voice == "copular":
        if tokens[0] in BE_FORMS:
            tokens[0] = "be"
    else:  # active
        while len(tokens) > 1 and tokens[0] in AUXILIARIES:
            tokens = tokens[1:]

    out: list[str] = []
    for i, tok in enumerate(tokens):
        if tok in DETERMINERS:
            continue
        if tok in BE_FORMS:
            out.append("be")
        elif i == 0:
            out.append(lemmatize_token(tok))
        else:
            out.append(tok)
    return out


def normalize_predicate(raw: str, voice: str = "active", modifiers: Iterable[str] = ()) -> str:
    """Normalize a raw predicate string to a dotted lemma.

    Auxiliaries and tense are stripped, passives reduce to the active verb
    (argument roles are swapped separately), copulas normalize to "be", and
    modifiers such as negation or control verbs become dotted prefixes:

        ("was killed", passive)            -> "kill"
        ("is an author", copular)          -> "be.author"
        ("attend", active, ["planned to"]) -> "plan.to.attend"
    """
    if voice not in ("active", "passive", "copular"):
        raise RecordError(f"unknown voice {voice!r}")
    segs = _segments(raw, voice)
    if not segs:
        raise RecordError(f"predicate empty after normalization: {raw!r}")
    prefix: list[str] = []
    for mod in modifiers:
        mod_segs = _segments(_typed(mod, str, "modifier"), "active")
        if not mod_segs:
            raise RecordError(f"empty modifier in {raw!r}")
        prefix.extend(mod_segs)
    return _lemma(".".join(prefix + segs))


def _parse_entity(obj: dict, inventory: TypeInventory) -> tuple[EntityId, str, bool]:
    """An argument's entity, its type and whether the inventory knew the
    type, or RecordError."""
    surface = normalize_surface(_typed(obj.get("surface", ""), str, "surface"))
    if not surface:
        raise RecordError("entity surface empty after normalization")
    kb_id = obj.get("kb_id")
    if kb_id is not None:
        _typed(kb_id, str, "kb_id")
    etype, known = inventory.resolve(_typed(obj.get("type", ""), str, "type"))
    is_named = _typed(obj.get("is_named", False), bool, "is_named")
    return EntityId(surface, kb_id, is_named), etype, known


def _parse_date(value) -> dt.date | None:
    """A ``YYYY-MM-DD`` string's date (see ``records._iso_date``); none for
    a null or empty one."""
    return None if value in (None, "") else _iso_date(value)


class _Memo:
    """What ``parse_record`` decides once per distinct raw value, over the
    records of one file read with one inventory: the lemma of each
    (predicate, voice, modifiers), the entity, type and known flag of each
    raw argument, the date of each date value and the predicate of each
    (lemma, roles, types). Only what is accepted is kept. No JSON value of
    another type equals an accepted string or null, but ``1`` and ``1.0``
    equal ``True``: so a raw argument is keyed by the type of its
    ``is_named`` too, and ``1`` never finds the entry of ``True``."""

    def __init__(self) -> None:
        self.lemmas: dict[tuple, str] = {}
        self.arguments: dict[tuple, tuple[EntityId, str, bool]] = {}
        self.dates: dict[object, dt.date | None] = {}
        self.predicates: dict[tuple, TypedPredicate] = {}


class ParsedProposition(
    namedtuple("ParsedProposition", "predicate args article_id date sentence_idx")
):
    """One proposition of a raw record, in the fields of a ``Proposition``,
    which ``ingest`` interns into its corpus's tables and columns."""

    __slots__ = ()


def parse_record(
    obj: dict, inventory: TypeInventory, stats: IngestStats, memo: _Memo | None = None
) -> list[ParsedProposition]:
    """Turn one raw record into the propositions it yields, or raise
    RecordError; a view whose arguments are all unnamed is counted and
    dropped. ``memo`` carries what was decided for earlier records of the
    same file (a fresh one if none).

    The arguments are taken once as (post-voice role, argument) pairs in
    role order. A record with more than two of them becomes one binary per
    role pair (i < j), its roles renumbered 1 and 2 and the pair appended
    to the lemma, so that every binary stays a distinct view of its source
    predicate (murder -> murder.1.2, murder.1.3, ...).
    """
    if memo is None:
        memo = _Memo()
    if not isinstance(obj, dict):
        raise RecordError("record is not an object")
    raw_pred = obj.get("predicate")
    args = obj.get("args")
    if not raw_pred or not isinstance(args, list) or not args:
        raise RecordError("record lacks predicate or args")
    voice = obj.get("voice", "active")
    modifiers = _typed(obj.get("modifiers", []), list, "modifiers")
    key = (raw_pred, voice, *modifiers)
    try:
        lemma = memo.lemmas[key]
    except (KeyError, TypeError):  # TypeError: an unhashable value, refused here
        lemma = normalize_predicate(
            _typed(raw_pred, str, "predicate"), _typed(voice, str, "voice"), modifiers)
        memo.lemmas[key] = lemma

    # the passive surface subject is the underlying object and vice versa
    swap = {1: 2, 2: 1} if voice == "passive" else {}
    pairs = []
    for a in args:
        if not isinstance(a, dict) or "role_index" not in a:
            raise RecordError("argument lacks role_index")
        role = _typed(a["role_index"], int, "role_index")
        pairs.append((swap.get(role, role), a))
    pairs.sort(key=itemgetter(0))
    if len(pairs) > 2:
        if len({role for role, _ in pairs}) != len(pairs):
            raise RecordError("duplicate role labels in higher-valency record")
        views = [
            (f"{lemma}.{i}.{j}", ((1, a), (2, b)))
            for (i, a), (j, b) in combinations(pairs, 2)
        ]
        stats.decomposed_records += 1
    else:
        views = [(lemma, pairs)]

    raw_date = obj.get("date")
    try:
        date = memo.dates[raw_date]
    except KeyError:
        date = memo.dates[raw_date] = _parse_date(raw_date)
    except TypeError:  # an unhashable value, which _parse_date refuses
        date = _parse_date(raw_date)
    article_id = _typed(obj.get("article_id", ""), str, "article_id")
    sentence_idx = _typed(obj.get("sentence_idx", 0), int, "sentence_idx")
    if sentence_idx > INT32_MAX:
        raise RecordError(f"sentence_idx {sentence_idx} does not fit a saved corpus")

    props = []
    arguments = memo.arguments
    for name, view in views:
        roles = [role for role, _ in view]
        if len(roles) == 2 and roles != [1, 2]:
            raise RecordError(f"binary roles must be 1 and 2, got {roles}")
        if len(roles) == 1 and roles[0] not in (1, 2):
            raise RecordError(f"unary role must be 1 or 2, got {roles[0]}")

        entities: list[EntityId] = []
        types: list[str] = []
        named = False
        for _, a in view:
            is_named = a.get("is_named", False)
            key = (a.get("surface", ""), a.get("kb_id"), a.get("type", ""),
                   is_named, type(is_named))
            try:
                entity, etype, known = arguments[key]
            except KeyError:
                entity, etype, known = arguments[key] = _parse_entity(a, inventory)
            except TypeError:  # an unhashable field, which _parse_entity refuses
                entity, etype, known = _parse_entity(a, inventory)
            if not known:
                stats.unknown_type_labels += 1
            entities.append(entity)
            types.append(etype)
            named = named or entity.is_named
        if not named:
            # extraction filter: relations must anchor to a named entity
            stats.skipped_unnamed += 1
            continue
        if sentence_idx < 0:
            raise RecordError("sentence_idx must be >= 0")

        # the roles tell a unary (one role, its case marker) from a binary
        key = (name, *roles, *types)
        pred = memo.predicates.get(key)
        if pred is None:
            case = f".{roles[0]}" if len(roles) == 1 else None
            pred = memo.predicates[key] = TypedPredicate(name, len(roles), tuple(types), case)
        props.append(ParsedProposition(pred, tuple(entities), article_id, date, sentence_idx))
    return props


def ingest(path: str | Path, inventory: TypeInventory | None = None) -> Corpus:
    """Read a proposition file into a Corpus, interning each record's
    propositions into its tables and columns as the record is parsed.

    Malformed records are skipped and counted in the returned corpus stats;
    an unreadable file raises OSError, and an unlinked surface equal to a
    kb id of the file raises ValueError naming the file and line. The
    first surface kept for a kb id is the one every later mention of it
    gets, so that surfaces written out are consistent.
    """
    inventory = inventory or TypeInventory.default()
    stats = IngestStats()
    memo = _Memo()
    predicates: dict[TypedPredicate, int] = {}
    entities: dict[EntityId, int] = {}  # an entry -> its number
    entry_of: dict[EntityId, int] = {}  # an entity as parsed -> its entry
    articles: dict[str, int] = {}
    ordinals: dict[dt.date | None, int] = {None: 0}
    surface_of: dict[str, str] = {}
    linked: dict[str, bool] = {}
    columns = [array("i") for _ in range(6)]
    preds, args1, args2, dates, article_ids, sentences = (c.append for c in columns)

    def entry(entity: EntityId, lineno: int) -> int:
        """The entry of an entity first kept here: its key checked against
        the keys before it, and its kb id's first surface."""
        if (clash := _key_clash(linked, entity)) is not None:
            raise ValueError(f"{path}:{lineno}: {clash}")
        surface, kb_id, is_named = kept = entity
        if kb_id is not None and surface_of.setdefault(kb_id, surface) != surface:
            kept = EntityId(surface_of[kb_id], kb_id, is_named)
        number = entry_of[entity] = entities.setdefault(kept, len(entities))
        return number

    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            stats.records_read += 1
            try:
                props = parse_record(json.loads(line), inventory, stats, memo)
            except (RecordError, ValueError, TypeError, KeyError):
                stats.skipped_malformed += 1
                continue
            for pred, args, article_id, date, sentence_idx in props:
                preds(predicates.setdefault(pred, len(predicates)))
                a = entry_of.get(args[0])
                args1(entry(args[0], lineno) if a is None else a)
                if len(args) == 2:
                    b = entry_of.get(args[1])
                    args2(entry(args[1], lineno) if b is None else b)
                else:
                    args2(-1)
                ordinal = ordinals.get(date)
                if ordinal is None:
                    ordinal = ordinals[date] = date.toordinal()
                dates(ordinal)
                article_ids(articles.setdefault(article_id, len(articles)))
                sentences(sentence_idx)
    stats.propositions = len(columns[0])
    return Corpus.from_columns(list(predicates), list(entities), list(articles), columns, stats)
