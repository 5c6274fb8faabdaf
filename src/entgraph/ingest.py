"""Proposition file ingestion and predicate normalization.

``ingest`` consumes newline-delimited JSON records produced by an upstream
extraction stack (parser, NER, entity linker). Each record carries a raw
predicate string plus voice/modifier annotations and role-indexed typed
arguments; see docs/formats.md for the exact field contract. It is the
only place where a predicate is lemmatized and an argument typed.

``save_corpus`` writes the result in normalized form, and ``read_corpus``
reads that form back without normalizing it again: re-normalizing a lemma
is not the identity (``caused`` is saved as ``caus``, which would become
``cau``). The reader refuses any record ``save_corpus`` would not write.
"""

from __future__ import annotations

import datetime as dt
import json
from itertools import combinations
from pathlib import Path
from typing import Iterable

from .model import (
    Corpus,
    EntityId,
    IngestStats,
    Proposition,
    TypeInventory,
    TypedPredicate,
    _atomic_writer,
    _type_label,
    normalize_surface,
)


class RecordError(ValueError):
    """A single malformed record; ingestion counts these and moves on."""


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


def _lemma(lemma: str) -> str:
    """A lemma as a predicate vertex can carry it.

    A ``#`` would split its predicate token (``kill#x#person#person``) into
    the wrong number of types and raises RecordError.
    """
    if "#" in lemma:
        raise RecordError(f"predicate {lemma!r} contains '#'")
    return lemma


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
        mod_segs = _segments(mod, "active")
        if not mod_segs:
            raise RecordError(f"empty modifier in {raw!r}")
        prefix.extend(mod_segs)
    return _lemma(".".join(prefix + segs))


def _mapped_role(role: int, voice: str) -> int:
    # passive surface subject is the underlying object and vice versa
    if voice == "passive":
        return {1: 2, 2: 1}.get(role, role)
    return role


def decompose_higher_valency(record: dict) -> list[dict]:
    """Split a record with more than two arguments into binary sub-records.

    One record is emitted per unordered role pair (i < j); the pair of role
    labels is appended to the predicate so every binary remains a distinct
    view of its source predicate (murder -> murder.1.2, murder.1.3, ...).
    Valency-2 records are returned unchanged.
    """
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
        sub["args"] = [
            {**a, "role_index": 1},
            {**b, "role_index": 2},
        ]
        out.append(sub)
    return out


def _parse_entity(obj: dict, inventory: TypeInventory) -> tuple[EntityId, str, bool]:
    surface = normalize_surface(str(obj.get("surface", "")))
    if not surface:
        raise RecordError("entity surface empty after normalization")
    kb_id = obj.get("kb_id")
    if kb_id is not None:
        kb_id = str(kb_id)
    etype, known = inventory.resolve(str(obj.get("type", "")))
    return EntityId(surface, kb_id, bool(obj.get("is_named", False))), etype, known


def _parse_date(value) -> dt.date | None:
    if value in (None, ""):
        return None
    try:
        return dt.date.fromisoformat(str(value))
    except ValueError as exc:
        raise RecordError(f"bad date {value!r}") from exc


def parse_record(obj: dict, inventory: TypeInventory, stats: IngestStats) -> list[Proposition]:
    """Turn one raw record into propositions, or raise RecordError."""
    if not isinstance(obj, dict):
        raise RecordError("record is not an object")
    raw_pred = obj.get("predicate")
    args = obj.get("args")
    if not raw_pred or not isinstance(args, list) or not args:
        raise RecordError("record lacks predicate or args")
    voice = obj.get("voice", "active")
    modifiers = obj.get("modifiers", []) or []
    lemma = normalize_predicate(str(raw_pred), voice, modifiers)
    negated = _negated(lemma)

    # voice resolution happens on role labels before any decomposition
    mapped = []
    for a in args:
        if not isinstance(a, dict) or "role_index" not in a:
            raise RecordError("argument lacks role_index")
        mapped.append({**a, "role_index": _mapped_role(int(a["role_index"]), voice)})

    base = {**obj, "predicate": lemma, "args": mapped}
    if len(mapped) > 2:
        sub_records = decompose_higher_valency(base)
        stats.decomposed_records += 1
    else:
        sub_records = [base]

    date = _parse_date(obj.get("date"))
    article_id = str(obj.get("article_id", ""))
    sentence_idx = int(obj.get("sentence_idx", 0))

    props = []
    for rec in sub_records:
        rec_args = sorted(rec["args"], key=lambda a: int(a["role_index"]))
        roles = [int(a["role_index"]) for a in rec_args]
        valency = len(rec_args)
        if valency not in (1, 2):
            raise RecordError(f"valency {valency} outside 1..2")
        if valency == 2 and roles != [1, 2]:
            raise RecordError(f"binary roles must be 1 and 2, got {roles}")
        if valency == 1 and roles[0] not in (1, 2):
            raise RecordError(f"unary role must be 1 or 2, got {roles[0]}")

        entities: list[EntityId] = []
        types: list[str] = []
        for a in rec_args:
            ent, etype, known = _parse_entity(a, inventory)
            if not known:
                stats.unknown_type_labels += 1
            entities.append(ent)
            types.append(etype)
        if not any(e.is_named for e in entities):
            # extraction filter: relations must anchor to a named entity
            stats.skipped_unnamed += 1
            continue

        case = f".{roles[0]}" if valency == 1 else None
        pred = TypedPredicate(rec["predicate"], valency, tuple(types), case)
        props.append(
            Proposition(pred, tuple(entities), article_id, date, sentence_idx, negated)
        )
    return props


def _negated(lemma: str) -> bool:
    return lemma == "not" or lemma.startswith("not.")


def ingest(path: str | Path, inventory: TypeInventory | None = None) -> Corpus:
    """Read a proposition file into a Corpus.

    Malformed records are skipped and counted in the returned corpus stats;
    an unreadable file raises OSError.
    """
    inventory = inventory or TypeInventory.default()
    stats = IngestStats()
    propositions: list[Proposition] = []
    canonical_surface: dict[str, str] = {}

    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            stats.records_read += 1
            try:
                obj = json.loads(line)
                props = parse_record(obj, inventory, stats)
            except (RecordError, ValueError, TypeError, KeyError):
                stats.skipped_malformed += 1
                continue
            for prop in props:
                propositions.append(_canonicalize(prop, canonical_surface))
    stats.propositions = len(propositions)
    return Corpus(propositions, stats)


def _canonicalize(prop: Proposition, canon: dict[str, str]) -> Proposition:
    """Pin one surface per kb id so hashing stays consistent corpus-wide."""
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
        prop.predicate, tuple(new_args), prop.article_id, prop.date,
        prop.sentence_idx, prop.negated,
    )


def proposition_record(prop: Proposition) -> dict:
    """Normalized record for one proposition, the form ``read_corpus`` reads."""
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


def save_corpus(corpus: Corpus, path: str | Path) -> None:
    with _atomic_writer(path) as fh:
        for prop in corpus.propositions:
            fh.write(json.dumps(proposition_record(prop), sort_keys=True) + "\n")


class _CanonicalReader:
    """Parses lines in the form ``proposition_record`` writes, one file at a
    time, sharing one object per predicate, entity and date.

    A record is canonical iff ``proposition_record`` of the proposition it
    parses to reproduces it, its surfaces and type labels are already
    normalized, at least one argument is named, and each kb id keeps the
    one surface it first had in the file. Anything else raises ValueError
    naming the file and line.
    """

    def __init__(self, path: str | Path):
        self.path = path
        self.predicates: dict[tuple, TypedPredicate] = {}
        self.entities: dict[tuple, EntityId] = {}
        self.dates: dict[str, dt.date] = {}
        self.surface_of: dict[str, str] = {}

    def parse(
        self, lineno: int, line: str, keys: tuple[str, ...] = ()
    ) -> tuple[Proposition, list]:
        """One line's proposition, and the values of ``keys``, which the
        line carries besides the proposition record."""
        try:
            obj = json.loads(line)
            values = [obj.pop(key) for key in keys]
            return self._proposition(obj), values
        except KeyError as exc:
            reason = f"missing field {exc.args[0]!r}"
        except (AttributeError, TypeError, ValueError) as exc:
            reason = str(exc)
        raise ValueError(f"{self.path}:{lineno}: not a canonical record: {reason}")

    def _proposition(self, obj: dict) -> Proposition:
        args = obj["args"]
        lemma = obj["predicate"]
        types = tuple(a["type"] for a in args)
        case = f".{args[0]['role_index']}" if len(args) == 1 else None
        pred = self.predicates.get((lemma, types, case))
        if pred is None:
            if not isinstance(lemma, str) or not lemma:
                raise ValueError(f"predicate {lemma!r} is not a lemma")
            _lemma(lemma)
            for label in types:
                if not label or _type_label(label) != label:
                    raise ValueError(f"type {label!r} is not an inventory label")
            pred = TypedPredicate(lemma, len(args), types, case)
            self.predicates[(lemma, types, case)] = pred
        entities = tuple(self._entity(a["surface"], a.get("kb_id"), a["is_named"]) for a in args)
        if not any(e.is_named for e in entities):
            raise ValueError("no argument is named")
        date = obj["date"]
        if date is not None:
            if date not in self.dates:
                self.dates[date] = dt.date.fromisoformat(date)
            date = self.dates[date]
        prop = Proposition(
            pred, entities, str(obj["article_id"]), date, int(obj["sentence_idx"]),
            _negated(lemma),
        )
        record = proposition_record(prop)
        if record != obj:
            differ = sorted(k for k in record.keys() | obj.keys() if record.get(k) != obj.get(k))
            raise ValueError(f"fields {differ} differ from the saved form")
        return prop

    def _entity(self, surface: str, kb_id: str | None, is_named: bool) -> EntityId:
        key = (surface, kb_id, is_named)
        if key not in self.entities:
            if normalize_surface(surface) != surface:
                raise ValueError(f"surface {surface!r} is not normalized")
            if kb_id is not None:
                first = self.surface_of.setdefault(kb_id, surface)
                if first != surface:
                    raise ValueError(f"kb_id {kb_id!r} has surfaces {first!r} and {surface!r}")
                kb_id = str(kb_id)
            self.entities[key] = EntityId(surface, kb_id, is_named is True)
        return self.entities[key]


def read_corpus(path: str | Path) -> Corpus:
    """The corpus ``save_corpus`` wrote, read strictly and not normalized
    again; a line in any other form raises ValueError naming it."""
    reader = _CanonicalReader(path)
    with open(path, "r", encoding="utf-8") as fh:
        return Corpus(reader.parse(lineno, line)[0] for lineno, line in enumerate(fh, 1))
